#!/usr/bin/env bash
# Paired perfbench runs of two builds, summarised per end-to-end metric.
#
# Usage: tools/perfbench_pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS SECONDS SEED
#
# PARENT_BIN and CHANGE_BIN are perfbench binaries built from the two trees
# (`cargo build --release --offline --manifest-path perfbench/Cargo.toml`,
# then copy `perfbench/target/release/perfbench` aside). The script runs
# PAIRS pairs of `BIN --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0`, one run of each side per pair, and switches which side goes
# first from one pair to the next, so slow drift of the host's speed falls
# on both sides alike. Every run's output is kept in
# ${CARGO_TARGET_DIR:-target}/perfbench-pairs/WORKLOAD-seedSEED.log.
#
# It then prints one markdown row per end-to-end metric listed in
# BENCHMARK.json: each side's median [Q1, Q3] over the pairs (median: the
# mean of the two middle values for an even count; quartiles: nearest
# rank), the ratio of the medians, in how many pairs the change was
# better by the metric's `better` direction (ties are counted apart), and
# the parent's IQR ÷ median, the spread a claimed gain must clear.
#
# Exit status: 0 after a full summary; 1 when a run fails or prints no
# value for a metric; 2 on a usage error.
set -euo pipefail

usage() {
    sed -n 's/^# Usage: //p' "$0" >&2
    exit 2
}

[ $# -eq 6 ] || usage
parent_bin=$1 change_bin=$2 workload=$3 pairs=$4 seconds=$5 seed=$6
case $pairs in '' | *[!0-9]* | 0) usage ;; esac
for bin in "$parent_bin" "$change_bin"; do
    [ -x "$bin" ] || { echo "error: $bin is not an executable" >&2; exit 2; }
done
cd "$(dirname "$0")/.."

# "name better" for each entry of BENCHMARK.json's end_to_end list (one
# entry per line, as the file is written).
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p')
[ -n "$metrics" ] || { echo "error: no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

log_dir=${CARGO_TARGET_DIR:-target}/perfbench-pairs
mkdir -p "$log_dir"
log=$log_dir/$workload-seed$seed.log
: > "$log"
results=$(mktemp)
trap 'rm -f "$results"' EXIT

run() {
    local side=$1 bin=$2 pair=$3 out
    echo "# pair $pair $side: $bin --workload $workload --seed $seed --seconds $seconds --trace 0" >> "$log"
    if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>&1); then
        printf '%s\n' "$out" >> "$log"
        echo "error: pair $pair $side run failed; see $log" >&2
        exit 1
    fi
    printf '%s\n' "$out" >> "$log"
    # The last line is the run's JSON result.
    printf '%s %s %s\n' "$pair" "$side" "$(printf '%s\n' "$out" | tail -n 1)" >> "$results"
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent_bin" "$pair"
        run change "$change_bin" "$pair"
    else
        run change "$change_bin" "$pair"
        run parent "$parent_bin" "$pair"
    fi
done

# The values of one metric for one side, one per pair, in pair order.
values() {
    local side=$1 name=$2
    awk -v side="$side" '$2 == side' "$results" | sort -n -k1,1 |
        sed -n "s/.*\"$name\": {\"value\": \([^,}]*\).*/\1/p"
}

# Median [Q1, Q3] and IQR ÷ median of numbers on stdin.
summary() {
    sort -g | awk '
        { v[NR] = $1 }
        function rank(p) { r = int(p * NR); if (r < p * NR) r++; if (r < 1) r = 1; return v[r] }
        END {
            med = (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
            q1 = rank(0.25); q3 = rank(0.75)
            printf "%.4g [%.4g, %.4g] %.17g %.3f\n", med, q1, q3, med, (med == 0) ? 0 : (q3 - q1) / med
        }'
}

echo "$workload, seed $seed, $pairs alternating pairs of $seconds s (log: $log)"
echo
echo "| metric | parent | change | change ÷ parent | change better in | parent IQR ÷ median |"
echo "|---|---|---|---|---|---|"
while read -r name better; do
    parent_values=$(values parent "$name")
    change_values=$(values change "$name")
    if [ "$(printf '%s\n' "$parent_values" | grep -c .)" -ne "$pairs" ] ||
        [ "$(printf '%s\n' "$change_values" | grep -c .)" -ne "$pairs" ]; then
        echo "error: a run printed no value for $name; see $log" >&2
        exit 1
    fi
    read -r p_med p_q1 p_q3 p_med_raw p_spread <<< "$(printf '%s\n' "$parent_values" | summary | tr -d '[],')"
    read -r c_med c_q1 c_q3 c_med_raw _ <<< "$(printf '%s\n' "$change_values" | summary | tr -d '[],')"
    wins=$(paste <(printf '%s\n' "$parent_values") <(printf '%s\n' "$change_values") |
        awk -v better="$better" '
            { if ($2 == $1) ties++; else if ((better == "higher") == ($2 > $1)) won++ }
            END { printf "%d/%d", won, NR; if (ties) printf " (%d tied)", ties }')
    ratio=$(awk -v c="$c_med_raw" -v p="$p_med_raw" 'BEGIN { if (p == 0) print "-"; else printf "%.3f", c / p }')
    echo "| \`$name\` | $p_med [$p_q1, $p_q3] | $c_med [$c_q1, $c_q3] | $ratio | $wins | $p_spread |"
done <<< "$metrics"
