//! `perfbench`: end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload agent-campaign|counting-stream|serve-mix \
//!     [--seed N] [--seconds S] [--trace 0|1] [--setup-only]
//! ```
//!
//! Timed mode (`--trace 0`) prints every end-to-end metric; traced mode
//! (`--trace 1`) runs the same ops with spans around each layer call and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md.

#![forbid(unsafe_code)]

mod agent;
mod counting;
mod expected;
mod gen;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The benchmark's workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AgentCampaign,
    CountingStream,
    ServeMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("agent-campaign", Workload::AgentCampaign),
        ("counting-stream", Workload::CountingStream),
        ("serve-mix", Workload::ServeMix),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .unwrap_or("?")
    }

    /// The latency percentile `latency_p99_ms` reports on this workload:
    /// p99 where runs have the ops to resolve it (≥ 1000), otherwise the
    /// highest percentile the workload's slowest run still resolves. It is
    /// fixed, so what the metric measures does not depend on how many ops
    /// a run completes.
    fn tail_pct(self) -> f64 {
        match self {
            Workload::AgentCampaign => 50.0,
            Workload::CountingStream => 80.0,
            Workload::ServeMix => 99.0,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads the program runs with (`available_parallelism`).
    pub threads: usize,
    /// Only time one set-up and print it (see [`cold_setups`]).
    pub setup_only: bool,
}

/// Set-ups per run; `setup_s` is their median. Every one is cold: the
/// run's own set-up, plus `SETUPS - 1` in fresh child processes.
pub const SETUPS: usize = 5;

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each cold set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each completed timed op.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed window.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Why ops failed (the first 16), for the human-readable report.
    pub failures: Vec<String>,
    /// Per-layer metric values (traced mode).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Counts one attempted op that failed for `why` when `why` is set.
    pub fn tally(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.note(why);
        }
    }

    /// Fails every op of the run when the default-seed output check gives
    /// a reason: the ops timed a program whose output has changed.
    pub fn check_pin(&mut self, why: Option<String>) {
        if let Some(why) = why {
            self.failed = self.attempted;
            self.note(format!("output pin: {why}"));
        }
    }

    fn note(&mut self, why: String) {
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }
}

/// End-to-end metrics (timed mode): name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics (traced mode): name, unit. Every traced run prints
/// all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("spec.parse_us", "us"),
    ("spec.digest_us", "us"),
    ("service.plan_us", "us"),
    ("service.run_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.ttfb_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cell_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.evictions", "count"),
    ("serve.jobs_failed", "count"),
    ("core.build_seed_us", "us"),
    ("core.stage1_ms", "ms"),
    ("core.stage2_ms", "ms"),
    ("core.rounds", "count"),
    ("core.phases", "count"),
    ("core.ns_per_round", "ns"),
    ("analysis.oracle_us", "us"),
    ("analysis.observe_us", "us"),
    ("pushsim.build_us", "us"),
    ("pushsim.push_round_us", "us"),
    ("pushsim.end_phase_us", "us"),
    ("pushsim.decide_us", "us"),
    ("runner.stream_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload agent-campaign|counting-stream|serve-mix \
[--seed N (default 1)] [--seconds S (default 30)] [--trace 0|1 (default 0)] [--setup-only]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        threads,
        setup_only,
    })
}

/// Times `SETUPS - 1` cold set-ups of `cfg`'s workload, one after the
/// other, each in a fresh child process of this program run with
/// `--setup-only`. A child times its set-up from its first program call,
/// so process start is not counted and first-use initialisation is.
fn cold_setups(cfg: &Config) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seed = cfg.seed.to_string();
    (1..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--workload", cfg.workload.name(), "--seed", &seed])
                .arg("--setup-only")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let value = text
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.parse().ok());
            match value {
                Some(v) if out.status.success() => Ok(v),
                _ => Err(format!("set-up child exited with {}: {text}", out.status)),
            }
        })
        .collect()
}

/// Runs `cfg`'s workload: the cold set-ups in child processes, then the
/// workload's own set-up, timed window and output checks.
fn run(cfg: &Config) -> Result<Measured, String> {
    let mut m = Measured {
        setup_s: cold_setups(cfg)?,
        ..Measured::default()
    };
    match cfg.workload {
        Workload::AgentCampaign => agent::run(cfg, &mut m)?,
        Workload::CountingStream => counting::run(cfg, &mut m)?,
        Workload::ServeMix => serve::run(cfg, &mut m)?,
    }
    Ok(m)
}

/// Writes the traced run's spans as JSON lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`), times relative to the first span.
pub fn write_trace(cfg: &Config, spans: &[trace::Span]) {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-trace")
        .join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    let Some(epoch) = spans.iter().map(|s| s.start).min() else {
        return;
    };
    match trace::write_spans(&path, epoch, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.setup_only {
        let setup = match cfg.workload {
            Workload::AgentCampaign => agent::setup_only(&cfg),
            Workload::CountingStream => counting::setup_only(&cfg),
            Workload::ServeMix => serve::setup_only(&cfg),
        };
        return match setup {
            Ok(s) => {
                println!("setup_s {s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {} set-up failed: {e}", cfg.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.threads
    );
    let m = match run(&cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {} could not run: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if m.attempted == 0 {
        eprintln!("error: {} completed no op", cfg.workload.name());
        return ExitCode::FAILURE;
    }
    let metrics = if cfg.trace {
        layer_metrics(&m)
    } else {
        end_to_end(&m, cfg.workload.tail_pct())
    };
    for line in describe(&cfg, &m, &metrics) {
        println!("{line}");
    }
    println!("{}", json_result(&m, &metrics));
    ExitCode::SUCCESS
}

/// The end-to-end metric values of a timed run; `latency_p99_ms` is the
/// `tail_pct`-th percentile.
fn end_to_end(m: &Measured, tail_pct: f64) -> Vec<(&'static str, &'static str, f64)> {
    let ops = m.latencies_ms.len() as f64;
    let value = |name: &str| match name {
        "setup_s" => stats::median(&m.setup_s),
        "ops_per_s" => ops / m.wall_s,
        "latency_p50_ms" => stats::median(&m.latencies_ms),
        "latency_p99_ms" => stats::percentile(&m.latencies_ms, tail_pct),
        "peak_rss_mb" => peak_rss_mb(),
        "ok_frac" => (m.attempted - m.failed) as f64 / m.attempted as f64,
        _ => f64::NAN,
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect()
}

/// The per-layer metric values of a traced run.
fn layer_metrics(m: &Measured) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, m.layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Human-readable report lines (everything before the JSON line).
fn describe(
    cfg: &Config,
    m: &Measured,
    metrics: &[(&'static str, &'static str, f64)],
) -> Vec<String> {
    let n = m.latencies_ms.len();
    let pct = cfg.workload.tail_pct();
    let beyond = stats::beyond(n, pct);
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let note = match *name {
                "setup_s" => format!("median of {} cold set-ups", m.setup_s.len()),
                "ops_per_s" if cfg.workload == Workload::AgentCampaign => {
                    format!("= {:.2} seeds/s", value * gen::CAMPAIGN_SEEDS as f64)
                }
                "latency_p50_ms" => format!("n = {n} ops"),
                "latency_p99_ms" => {
                    let what = if pct == 99.0 {
                        "p99".to_string()
                    } else {
                        format!("p{pct}, this workload's fixed tail (too few ops for p99)")
                    };
                    let unresolved = if beyond < stats::TAIL_MIN_BEYOND {
                        "; unresolved: fewer than 10 beyond"
                    } else {
                        ""
                    };
                    format!("{what}, n = {n}, {beyond} beyond{unresolved}")
                }
                "ok_frac" => format!(
                    "failed_frac = {} ({} of {} ops)",
                    m.failed as f64 / m.attempted as f64,
                    m.failed,
                    m.attempted
                ),
                _ => String::new(),
            };
            format!("  {name:<24} {value:>14.6} {unit:<6} {note}")
        })
        .collect();
    lines.extend(m.failures.iter().map(|f| format!("  FAILED: {f}")));
    lines
}

/// The contract's last stdout line.
fn json_result(m: &Measured, metrics: &[(&'static str, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_with_documented_defaults_and_reject_unknowns() {
        let cfg = parse_args(&args("--workload serve-mix")).expect("parses");
        assert_eq!(cfg.workload, Workload::ServeMix);
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.setup_only),
            (gen::DEFAULT_SEED, 30.0, false, false)
        );
        let cfg = parse_args(&args(
            "--workload agent-campaign --seed 7 --seconds 3 --trace 1 --setup-only",
        ))
        .expect("parses");
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.setup_only),
            (7, 3.0, true, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(
            parse_args(&args("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&args("--workload serve-mix --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve-mix --bogus")).is_err());
    }

    #[test]
    fn the_result_line_carries_every_metric_with_its_unit() {
        let m = Measured {
            setup_s: vec![0.5, 0.25, 0.75],
            latencies_ms: vec![10.0, 20.0, 30.0],
            wall_s: 0.5,
            attempted: 3,
            failed: 1,
            ..Measured::default()
        };
        let metrics = end_to_end(&m, 99.0);
        assert_eq!(metrics.len(), END_TO_END.len());
        let line = json_result(&m, &metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1, "));
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            "{line}"
        );
        assert!(
            line.contains("\"ops_per_s\": {\"value\": 6.0, \"unit\": \"ops/s\"}"),
            "{line}"
        );
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 20.0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"latency_p99_ms\": {\"value\": 30.0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"ok_frac\": {\"value\": 0.6666666666666666, \"unit\": \"ratio\"}"));
        let traced = layer_metrics(&m);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|(_, _, v)| *v == 0.0));
    }

    #[test]
    fn a_failed_output_pin_fails_every_op() {
        let mut m = Measured::default();
        for _ in 0..4 {
            m.tally(None);
        }
        m.check_pin(None);
        assert_eq!((m.attempted, m.failed), (4, 0));
        m.check_pin(Some("digest differs".into()));
        assert_eq!((m.attempted, m.failed), (4, 4));
    }

    #[test]
    fn each_fixed_tail_percentile_resolves_in_a_slow_run() {
        // Fewer ops than the slowest 30-second runs completed on a busy
        // 2-vCPU host (agent-campaign 27, counting-stream 102, serve-mix
        // 2569): each workload's fixed percentile still has ten beyond.
        let slowest = [
            (Workload::AgentCampaign, 20),
            (Workload::CountingStream, 50),
            (Workload::ServeMix, 1000),
        ];
        for (w, ops) in slowest {
            assert!(
                stats::beyond(ops, w.tail_pct()) >= stats::TAIL_MIN_BEYOND,
                "{} p{} at {ops} ops",
                w.name(),
                w.tail_pct()
            );
        }
        assert_eq!(Workload::ServeMix.tail_pct(), 99.0);
    }
}
