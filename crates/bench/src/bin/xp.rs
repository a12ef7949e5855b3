//! `xp` — the single experiment driver.
//!
//! ```text
//! xp list [--json]                # all registered experiments
//! xp run f2 [--full --json --backend agent|counting|blockcounting|auto --trials N --seed S]
//! xp run --spec path.spec [...]   # run a scenario spec file
//! xp show f2 [--full]             # print an experiment's spec text
//! xp campaign --spec c.spec [--seeds N --tolerance T --slack S]
//! xp campaign --replay c.spec <seed> [--seeds N]
//! xp serve [--addr H:P --workers N --queue-depth D --cache-bytes B --test-shutdown]
//! xp load [--addr H:P --clients N --requests R --spec path|name --json]
//! xp help
//! ```
//!
//! Registered experiments live in [`noisy_bench::registry`]; spec files are
//! parsed by [`noisy_bench::spec::ScenarioSpec::from_text`]; campaigns run
//! through [`noisy_bench::campaign`]; the HTTP scenario service is
//! [`noisy_serve`] wired to specs by [`noisy_bench::service::SpecService`].
//!
//! Exit codes: 0 on success (campaigns: every oracle passed; load: every
//! response verified), 1 on run failures (a spec file that reads but does
//! not parse or validate; campaigns: an oracle violation, with a
//! ready-to-paste replay command; load: dropped or corrupted responses), 2
//! on usage errors (unknown command/experiment, unreadable spec file, a
//! variant experiment where one spec is needed, malformed flags). Output
//! goes through one locked stdout writer; when its reader goes away
//! (`xp list | head -1`), `xp` stops writing and exits 0.

use gossip_analysis::table::Table;
use noisy_bench::campaign::{self, CampaignOptions};
use noisy_bench::registry::{self, Experiment};
use noisy_bench::runner::Runner;
use noisy_bench::service::SpecService;
use noisy_bench::spec::ScenarioSpec;
use noisy_bench::{Cli, Scale};
use noisy_serve::{loadtest, signal, Server, ServerConfig};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE_HEAD: &str = "\
usage:
  xp list [--json]             list the registered experiments
  xp run <name> [options]      run a registered experiment
  xp run --spec <path> [opts]  run a scenario spec file
  xp show <name> [--full]      print an experiment's spec text (one block
                               per variant)
  xp campaign <name|--spec <path>> [--seeds N] [--tolerance T] [--slack S]
                               fault-injection campaign: run every sweep cell
                               over N seeds under the invariant oracles;
                               exit 1 + replay command on any violation
  xp campaign --replay <name|path> <seed> [--seeds N]
                               re-run one campaign seed with a trajectory dump
  xp serve [--addr <host:port>] [--workers N] [--queue-depth D]
           [--cache-bytes B[k|m|g]] [--test-shutdown]
                               serve scenario specs over HTTP: POST spec text
                               to /v1/runs, stream results from
                               /v1/runs/{id}/stream (see README)
  xp load [--addr <host:port>] [--clients N] [--requests R]
          [--spec <path>|<name>] [--json] [--bench-append <file>]
                               drive N concurrent clients against the service
                               (self-hosted on an ephemeral port unless
                               --addr is given) and verify every response
  xp help                      print this message
";

fn usage() -> String {
    format!("{USAGE_HEAD}\n{}", Cli::USAGE)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let mut out = io::stdout().lock();
    let result = match command.as_str() {
        "list" => cmd_list(rest, &mut out),
        "run" => cmd_run(rest, &mut out),
        "show" => cmd_show(rest, &mut out),
        "campaign" => cmd_campaign(rest, &mut out),
        "serve" => Ok(cmd_serve(rest, &mut out)),
        "load" => cmd_load(rest, &mut out),
        "help" | "--help" | "-h" => writeln!(out, "{}", usage()).map(|()| ExitCode::SUCCESS),
        other => {
            eprintln!("error: unknown command {other:?}\n\n{}", usage());
            Ok(ExitCode::from(2))
        }
    };
    match result.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        // The reader has all the output it wants (`xp show t1 | head -1`).
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sorts a failed run's error: a write error on stdout goes back to `main`
/// (which exits 0 when the reader left), anything else is reported under
/// `context` as a run failure (exit 1).
fn run_failure(e: Box<dyn std::error::Error>, context: &str) -> io::Result<ExitCode> {
    match e.downcast::<io::Error>() {
        Ok(e) => Err(*e),
        Err(e) => {
            eprintln!("error: {context}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_list(rest: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let mut json = false;
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("error: unknown `xp list` argument {other:?}\n\n{}", usage());
                return Ok(ExitCode::from(2));
            }
        }
    }
    let mut table = Table::new(vec!["name", "kind", "scenario", "title"]);
    for experiment in registry::all() {
        let mut scenarios: Vec<&str> = experiment
            .variants(Scale::Quick)
            .iter()
            .map(|variant| variant.spec.kind.name())
            .collect();
        scenarios.dedup();
        table.push_row(vec![
            experiment.name.to_string(),
            if experiment.is_spec() {
                "spec"
            } else {
                "variants"
            }
            .to_string(),
            scenarios.join(", "),
            experiment.title.to_string(),
        ]);
    }
    if json {
        write!(out, "{}", table.to_json_lines())?;
    } else {
        write!(out, "{table}")?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The experiment name, `--spec` path and remaining shared CLI flags of an
/// `xp run` / `xp show` invocation.
type RunArgs = (Option<String>, Option<String>, Vec<String>);

/// Splits `xp run` arguments into the experiment name / `--spec` path and
/// the shared CLI flags. Value-taking CLI flags (`--backend`, `--trials`,
/// `--seed`) keep their space-separated value, so flags may appear before
/// or after the experiment name.
fn split_run_args(rest: &[String]) -> Result<RunArgs, String> {
    let mut name = None;
    let mut spec_path = None;
    let mut cli_args = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if arg == "--spec" {
            let value = iter.next().ok_or("--spec requires a file path")?;
            spec_path = Some(value.clone());
        } else if let Some(value) = arg.strip_prefix("--spec=") {
            spec_path = Some(value.to_string());
        } else if matches!(arg.as_str(), "--backend" | "--trials" | "--seed") {
            cli_args.push(arg.clone());
            // Keep the flag's value out of the name slot; a missing value
            // is reported by the shared CLI parser.
            if let Some(value) = iter.next() {
                cli_args.push(value.clone());
            }
        } else if !arg.starts_with('-') && name.is_none() {
            name = Some(arg.clone());
        } else {
            cli_args.push(arg.clone());
        }
    }
    Ok((name, spec_path, cli_args))
}

fn cmd_run(rest: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let (name, spec_path, cli_args) = match split_run_args(rest) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return Ok(ExitCode::from(2));
        }
    };
    if cli_args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{}", usage())?;
        return Ok(ExitCode::SUCCESS);
    }
    let cli = match Cli::try_parse_from(cli_args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
    };
    match (name, spec_path) {
        (Some(name), None) => {
            let experiment = match find_experiment(&name) {
                Ok(experiment) => experiment,
                Err(e) => return Ok(e.exit()),
            };
            match registry::run_to(experiment, &cli, out) {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(e) => run_failure(e, &format!("experiment {name} failed")),
            }
        }
        (None, Some(path)) => {
            let spec = match read_spec_file(&path) {
                Ok(spec) => spec,
                Err(e) => return Ok(e.exit()),
            };
            let heading = format!("running spec {path} ({} scenario)\n", spec.kind.name());
            match registry::run_spec_to(spec, &heading, &cli, out) {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(e) => run_failure(e, &path),
            }
        }
        (Some(_), Some(_)) => {
            eprintln!("error: give an experiment name or --spec, not both\n\n{}", usage());
            Ok(ExitCode::from(2))
        }
        (None, None) => {
            eprintln!("error: `xp run` needs an experiment name or --spec <path>\n\n{}", usage());
            Ok(ExitCode::from(2))
        }
    }
}

/// Why a spec source yields no spec, and the exit code that maps to:
/// unknown names, unreadable paths and variant entries are usage errors
/// (2); a file that reads but does not parse is a run failure (1).
struct SourceError {
    code: u8,
    message: String,
}

impl SourceError {
    fn usage(message: String) -> Self {
        Self { code: 2, message }
    }

    /// Reports the error on stderr and returns its exit code.
    fn exit(self) -> ExitCode {
        eprintln!("error: {}", self.message);
        ExitCode::from(self.code)
    }
}

/// Looks a registered experiment up by name.
fn find_experiment(name: &str) -> Result<&'static Experiment, SourceError> {
    registry::find(name).ok_or_else(|| {
        SourceError::usage(format!(
            "unknown experiment {name:?} (registered: {})",
            known_names()
        ))
    })
}

/// A registered experiment's spec at `scale`; a variant entry has none.
fn experiment_spec(experiment: &Experiment, scale: Scale) -> Result<ScenarioSpec, SourceError> {
    experiment.spec(scale).ok_or_else(|| {
        SourceError::usage(format!(
            "{} is a variant experiment (several labelled specs sharing one table); it has \
             no single spec (`xp show {}` prints each)",
            experiment.name, experiment.name
        ))
    })
}

/// Reads and parses a spec file; parse errors keep their 1-based line
/// numbers, prefixed with the path.
fn read_spec_file(path: &str) -> Result<ScenarioSpec, SourceError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SourceError::usage(format!("cannot read spec file {path:?}: {e}")))?;
    ScenarioSpec::from_text(&text).map_err(|e| SourceError {
        code: 1,
        message: format!("{path}: {e}"),
    })
}

/// Resolves a spec source — a registered experiment name first, a spec
/// file path otherwise — to its spec at `scale`. A source that is neither
/// lists the registered names.
fn resolve_spec(source: &str, scale: Scale) -> Result<ScenarioSpec, SourceError> {
    match registry::find(source) {
        Some(experiment) => experiment_spec(experiment, scale),
        None => read_spec_file(source).map_err(|mut e| {
            if e.code == 2 {
                e.message = format!(
                    "{source:?} is not a registered experiment (registered: {}), and {}",
                    known_names(),
                    e.message
                );
            }
            e
        }),
    }
}

fn cmd_show(rest: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let (name, spec_path, cli_args) = match split_run_args(rest) {
        Ok(parts) => parts,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return Ok(ExitCode::from(2));
        }
    };
    let cli = match Cli::try_parse_from(cli_args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
    };
    let (Some(name), None) = (name, spec_path) else {
        eprintln!("error: `xp show` takes an experiment name\n\n{}", usage());
        return Ok(ExitCode::from(2));
    };
    let experiment = match find_experiment(&name) {
        Ok(experiment) => experiment,
        Err(e) => return Ok(e.exit()),
    };
    writeln!(out, "# {}: {}", experiment.name, experiment.title)?;
    for mut variant in experiment.variants(cli.scale) {
        if !experiment.is_spec() {
            writeln!(out, "\n# variant: {}", variant.label)?;
        }
        registry::apply_cli(&mut variant.spec, &cli);
        write!(out, "{}", variant.spec.to_text())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Campaign-specific arguments: the spec source (registered name or file
/// path), the optional replay seed, the engine knobs, and the leftover
/// shared CLI flags.
struct CampaignArgs {
    source: Option<String>,
    replay: bool,
    replay_seed: Option<String>,
    seeds: Option<u64>,
    tolerance: Option<f64>,
    slack: Option<f64>,
    cli_args: Vec<String>,
}

fn split_campaign_args(rest: &[String]) -> Result<CampaignArgs, String> {
    let mut parsed = CampaignArgs {
        source: None,
        replay: false,
        replay_seed: None,
        seeds: None,
        tolerance: None,
        slack: None,
        cli_args: Vec::new(),
    };
    let mut iter = rest.iter();
    let value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
        iter.next().cloned().ok_or(format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--replay" => parsed.replay = true,
            "--spec" => parsed.source = Some(value(&mut iter, "--spec")?),
            "--seeds" => {
                let v = value(&mut iter, "--seeds")?;
                let seeds: u64 =
                    v.parse().map_err(|_| format!("invalid --seeds value {v:?}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
                parsed.seeds = Some(seeds);
            }
            "--tolerance" => {
                let v = value(&mut iter, "--tolerance")?;
                parsed.tolerance =
                    Some(v.parse().map_err(|_| format!("invalid --tolerance value {v:?}"))?);
            }
            "--slack" => {
                let v = value(&mut iter, "--slack")?;
                parsed.slack =
                    Some(v.parse().map_err(|_| format!("invalid --slack value {v:?}"))?);
            }
            "--backend" | "--trials" | "--seed" => {
                parsed.cli_args.push(arg.clone());
                if let Some(v) = iter.next() {
                    parsed.cli_args.push(v.clone());
                }
            }
            other if !other.starts_with('-') => {
                if parsed.source.is_none() {
                    parsed.source = Some(arg.clone());
                } else if parsed.replay && parsed.replay_seed.is_none() {
                    parsed.replay_seed = Some(arg.clone());
                } else {
                    return Err(format!("unexpected argument {other:?}"));
                }
            }
            _ => {
                if let Some(v) = arg.strip_prefix("--spec=") {
                    parsed.source = Some(v.to_string());
                } else {
                    parsed.cli_args.push(arg.clone());
                }
            }
        }
    }
    Ok(parsed)
}

fn cmd_campaign(rest: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let args = match split_campaign_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return Ok(ExitCode::from(2));
        }
    };
    if args.cli_args.iter().any(|a| a == "--help" || a == "-h") {
        writeln!(out, "{}", usage())?;
        return Ok(ExitCode::SUCCESS);
    }
    let cli = match Cli::try_parse_from(args.cli_args.clone()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return Ok(ExitCode::from(2));
        }
    };
    let Some(source) = args.source.clone() else {
        eprintln!(
            "error: `xp campaign` needs an experiment name or --spec <path>\n\n{}",
            usage()
        );
        return Ok(ExitCode::from(2));
    };

    let mut spec = match resolve_spec(&source, cli.scale) {
        Ok(spec) => spec,
        Err(e) => return Ok(e.exit()),
    };
    registry::apply_cli(&mut spec, &cli);

    let mut options = CampaignOptions::default();
    if let Some(seeds) = args.seeds {
        options.seeds = seeds;
    }
    if let Some(tolerance) = args.tolerance {
        options.tolerance = tolerance;
    }
    if let Some(slack) = args.slack {
        options.slack = slack;
    }

    if args.replay {
        let Some(seed_text) = args.replay_seed else {
            eprintln!("error: --replay needs the failing seed to re-run\n\n{}", usage());
            return Ok(ExitCode::from(2));
        };
        let seed = match parse_seed(&seed_text) {
            Ok(seed) => seed,
            Err(message) => {
                eprintln!("error: {message}\n\n{}", usage());
                return Ok(ExitCode::from(2));
            }
        };
        return replay_campaign(&spec, &options, seed, &cli, out);
    }

    let heading = format!(
        "campaign: {} scenario, {} seeds per cell (oracles: count conservation, consensus \
         correctness, bias monotonicity @ {}, round envelope @ {}x)\n",
        spec.kind.name(),
        options.seeds,
        options.tolerance,
        options.slack,
    );
    cli.note_to(&heading, out)?;
    match campaign::run_campaign(&spec, &options) {
        Ok(report) => {
            cli.emit_to(&report.to_table(), out)?;
            if report.passed() {
                let verdict = format!(
                    "\ncampaign PASS: {} cells x {} seeds, no oracle violations",
                    report.cells().len(),
                    options.seeds,
                );
                cli.note_to(&verdict, out)?;
                Ok(ExitCode::SUCCESS)
            } else {
                // Failure details go to stderr so `--json` stdout stays
                // machine-parseable.
                for line in report.failure_lines(&source) {
                    eprintln!("{line}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        Err(e) => {
            eprintln!("error: {source}: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn replay_campaign(
    spec: &ScenarioSpec,
    options: &CampaignOptions,
    seed: u64,
    cli: &Cli,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    match campaign::replay(spec, options, seed) {
        Ok(outcome) => {
            let heading = format!(
                "replaying seed {} (cell {}, seed index {})\n",
                outcome.seed, outcome.point.index, outcome.seed_index,
            );
            cli.note_to(&heading, out)?;
            let mut table = Table::new(
                gossip_analysis::observe::TRAJECTORY_HEADERS
                    .iter()
                    .map(|h| h.to_string())
                    .collect::<Vec<_>>(),
            );
            for row in outcome.trajectory.rows() {
                table.push_row(row);
            }
            cli.emit_to(&table, out)?;
            if outcome.violations.is_empty() {
                cli.note_to("\nreplay PASS: no oracle violations reproduced", out)?;
                Ok(ExitCode::SUCCESS)
            } else {
                for violation in &outcome.violations {
                    eprintln!("{violation}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        // A seed that is not part of the campaign is a usage error, like
        // an unknown experiment name.
        Err(e) => {
            eprintln!("error: {e}");
            Ok(ExitCode::from(2))
        }
    }
}

/// Parses a replay seed (decimal, or hexadecimal with an `0x` prefix).
fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("invalid replay seed {text:?}"))
}

fn known_names() -> String {
    registry::all()
        .iter()
        .map(|e| e.name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parsed `xp serve` flags.
#[derive(Debug, PartialEq)]
struct ServeArgs {
    addr: String,
    workers: usize,
    queue_depth: usize,
    cache_bytes: usize,
    test_shutdown: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let defaults = ServerConfig::default();
        ServeArgs {
            addr: "127.0.0.1:7878".to_string(),
            workers: defaults.workers,
            queue_depth: defaults.queue_depth,
            cache_bytes: defaults.cache_bytes,
            test_shutdown: false,
        }
    }
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024), e.g. `64m`.
fn parse_byte_size(text: &str) -> Result<usize, String> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, shift) = match lower.strip_suffix(['k', 'm', 'g']) {
        Some(digits) => {
            let shift = match lower.as_bytes()[lower.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            };
            (digits, shift)
        }
        None => (lower.as_str(), 0),
    };
    let value: usize = digits
        .trim()
        .parse()
        .map_err(|_| format!("invalid byte size {text:?} (expected e.g. 1048576 or 64m)"))?;
    value
        .checked_shl(shift)
        .filter(|v| (*v >> shift) == value)
        .ok_or_else(|| format!("byte size {text:?} overflows"))
}

fn parse_count(flag: &str, text: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("invalid {flag} value {text:?}"))
}

fn split_serve_args(rest: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => parsed.addr = value_of("--addr")?,
            "--workers" => parsed.workers = parse_count("--workers", &value_of("--workers")?)?,
            "--queue-depth" => {
                parsed.queue_depth = parse_count("--queue-depth", &value_of("--queue-depth")?)?;
            }
            "--cache-bytes" => {
                parsed.cache_bytes = parse_byte_size(&value_of("--cache-bytes")?)?;
            }
            "--test-shutdown" => parsed.test_shutdown = true,
            other => return Err(format!("unknown `xp serve` argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// `xp serve`: run the scenario service until SIGINT/SIGTERM (or, with
/// `--test-shutdown`, a `POST /v1/shutdown`), then drain and exit 0.
fn cmd_serve(rest: &[String], out: &mut dyn Write) -> ExitCode {
    let parsed = match split_serve_args(rest) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let config = ServerConfig {
        addr: parsed.addr,
        workers: parsed.workers,
        queue_depth: parsed.queue_depth,
        cache_bytes: parsed.cache_bytes,
        enable_shutdown_endpoint: parsed.test_shutdown,
        ..ServerConfig::default()
    };
    signal::install();
    let handle = match Server::start(config, SpecService) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scripts scrape this line for the (possibly ephemeral) port, so it
    // must land before the first request can arrive: flush explicitly.
    // Both lines are best effort: the server drains whether or not anyone
    // reads them.
    let _ = writeln!(
        out,
        "xp serve: listening on http://{} (workers={}, queue-depth={}, cache-bytes={}{})",
        handle.addr(),
        parsed.workers,
        parsed.queue_depth,
        parsed.cache_bytes,
        if parsed.test_shutdown { ", shutdown endpoint enabled" } else { "" },
    );
    let _ = out.flush();
    while !signal::triggered() && !handle.shutdown_begun() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let _ = writeln!(out, "xp serve: shutting down (draining queue and connections)");
    let _ = out.flush();
    handle.shutdown_and_wait();
    ExitCode::SUCCESS
}

/// Parsed `xp load` flags.
#[derive(Debug, PartialEq)]
struct LoadArgs {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    /// Registry experiment name or spec file path (default `f2`).
    source: String,
    json: bool,
    bench_append: Option<String>,
}

impl Default for LoadArgs {
    fn default() -> Self {
        LoadArgs {
            addr: None,
            clients: 64,
            requests: 2,
            source: "f2".to_string(),
            json: false,
            bench_append: None,
        }
    }
}

fn split_load_args(rest: &[String]) -> Result<LoadArgs, String> {
    let mut parsed = LoadArgs::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--addr" => parsed.addr = Some(value_of("--addr")?),
            "--clients" => parsed.clients = parse_count("--clients", &value_of("--clients")?)?,
            "--requests" => parsed.requests = parse_count("--requests", &value_of("--requests")?)?,
            "--spec" => parsed.source = value_of("--spec")?,
            "--json" => parsed.json = true,
            "--bench-append" => parsed.bench_append = Some(value_of("--bench-append")?),
            other if !other.starts_with('-') => parsed.source = other.to_string(),
            other => return Err(format!("unknown `xp load` argument {other:?}")),
        }
    }
    if parsed.clients == 0 || parsed.requests == 0 {
        return Err("--clients and --requests must be at least 1".to_string());
    }
    Ok(parsed)
}

/// Inserts a `{"name": …}` entry before the closing bracket of a JSON
/// array file, creating the file if it does not exist.
fn append_bench_entry(path: &str, entry: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|_| "[\n]\n".to_string());
    let close = text
        .rfind(']')
        .ok_or_else(|| format!("{path}: not a JSON array"))?;
    let head = text[..close].trim_end();
    let mut out = String::from(head);
    if head.ends_with('}') {
        out.push(',');
    }
    out.push_str("\n  ");
    out.push_str(entry);
    out.push_str("\n]\n");
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// `xp load`: hammer a scenario service with concurrent clients and
/// verify every streamed response byte-for-byte. Self-hosts a server on
/// an ephemeral port unless `--addr` points at a running one.
fn cmd_load(rest: &[String], out: &mut dyn Write) -> io::Result<ExitCode> {
    let parsed = match split_load_args(rest) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage());
            return Ok(ExitCode::from(2));
        }
    };
    let spec = match resolve_spec(&parsed.source, Scale::Quick) {
        Ok(spec) => spec,
        Err(e) => return Ok(e.exit()),
    };
    // The expected bytes come from running the spec locally once; the
    // service must reproduce them exactly for every client.
    let mut expected = Vec::new();
    let run = Runner::new(spec.clone()).and_then(|r| r.run_streamed(&mut expected));
    if let Err(e) = run {
        eprintln!("error: reference run failed: {e}");
        return Ok(ExitCode::FAILURE);
    }
    let (addr, self_hosted) = match &parsed.addr {
        Some(addr) => match addr.parse() {
            Ok(addr) => (addr, None),
            Err(_) => {
                eprintln!("error: invalid --addr {addr:?} (expected host:port)");
                return Ok(ExitCode::from(2));
            }
        },
        None => {
            let config = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                queue_depth: parsed.clients.max(ServerConfig::default().queue_depth),
                ..ServerConfig::default()
            };
            match Server::start(config, SpecService) {
                Ok(handle) => (handle.addr(), Some(handle)),
                Err(e) => {
                    eprintln!("error: cannot start server: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    };
    let mut cfg = loadtest::LoadConfig::new(addr, spec.to_text());
    cfg.clients = parsed.clients;
    cfg.requests_per_client = parsed.requests;
    cfg.expected = Some(expected);
    let report = loadtest::run(&cfg);
    if let Some(handle) = self_hosted {
        handle.shutdown_and_wait();
    }
    let name = format!("xp_load/{}_c{}x{}", parsed.source, parsed.clients, parsed.requests);
    if parsed.json {
        writeln!(out, "{}", report.to_json(&name))?;
    } else {
        writeln!(
            out,
            "xp load: {} clients x {} requests against http://{addr}",
            parsed.clients, parsed.requests
        )?;
        writeln!(
            out,
            "  ok {}/{} corrupted {} dropped {} backpressure-retries {}",
            report.ok,
            report.total_requests,
            report.corrupted,
            report.dropped,
            report.backpressure_retries
        )?;
        writeln!(
            out,
            "  elapsed {:.2} s, throughput {:.1} req/s, mean latency {:.2} ms",
            report.elapsed.as_secs_f64(),
            report.throughput_rps(),
            report.mean_latency().as_secs_f64() * 1e3
        )?;
    }
    if let Some(path) = &parsed.bench_append {
        if let Err(message) = append_bench_entry(path, &report.to_bench_entry(&name)) {
            eprintln!("error: cannot append bench entry: {message}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "xp load: appended bench entry to {path}")?;
    }
    if report.clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "error: load test not clean: {} corrupted, {} dropped of {}",
            report.corrupted, report.dropped, report.total_requests
        );
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_flags_and_byte_suffixes() {
        let parsed = split_serve_args(&to_args(&[
            "--addr",
            "0.0.0.0:8080",
            "--workers",
            "4",
            "--queue-depth",
            "16",
            "--cache-bytes",
            "64m",
            "--test-shutdown",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "0.0.0.0:8080");
        assert_eq!(parsed.workers, 4);
        assert_eq!(parsed.queue_depth, 16);
        assert_eq!(parsed.cache_bytes, 64 << 20);
        assert!(parsed.test_shutdown);

        assert_eq!(split_serve_args(&[]).unwrap(), ServeArgs::default());
        assert!(split_serve_args(&to_args(&["--workers"])).is_err());
        assert!(split_serve_args(&to_args(&["--nope"])).is_err());
    }

    #[test]
    fn byte_sizes_accept_suffixes_and_reject_garbage() {
        assert_eq!(parse_byte_size("1048576").unwrap(), 1 << 20);
        assert_eq!(parse_byte_size("8k").unwrap(), 8 << 10);
        assert_eq!(parse_byte_size("2G").unwrap(), 2 << 30);
        assert!(parse_byte_size("lots").is_err());
        assert!(parse_byte_size("9999999999999999g").is_err());
    }

    #[test]
    fn load_args_default_and_parse() {
        let parsed = split_load_args(&[]).unwrap();
        assert_eq!(parsed, LoadArgs::default());
        assert_eq!(parsed.source, "f2");
        assert_eq!(parsed.clients, 64);

        let parsed = split_load_args(&to_args(&[
            "--addr",
            "127.0.0.1:7878",
            "--clients",
            "8",
            "--requests",
            "3",
            "t1",
            "--json",
        ]))
        .unwrap();
        assert_eq!(parsed.addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(parsed.clients, 8);
        assert_eq!(parsed.requests, 3);
        assert_eq!(parsed.source, "t1");
        assert!(parsed.json);

        assert!(split_load_args(&to_args(&["--clients", "0"])).is_err());
        assert!(split_load_args(&to_args(&["--nope"])).is_err());
    }

    #[test]
    fn bench_entries_append_inside_the_array() {
        let dir = std::env::temp_dir().join("xp-bench-append-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_bench_entry(path, "{\"name\": \"a\", \"ns_per_iter\": 1.0, \"iters\": 2}")
            .unwrap();
        append_bench_entry(path, "{\"name\": \"b\", \"ns_per_iter\": 3.0, \"iters\": 4}")
            .unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with('['), "array preserved: {text}");
        assert!(text.trim_end().ends_with(']'), "array closed: {text}");
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert!(text.contains("},\n  {"), "entries comma-separated: {text}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_args_split_name_spec_and_flags_in_any_order() {
        let (name, spec, cli) = split_run_args(&to_args(&["f2", "--json", "--trials", "3"])).unwrap();
        assert_eq!(name.as_deref(), Some("f2"));
        assert_eq!(spec, None);
        assert_eq!(cli, to_args(&["--json", "--trials", "3"]));

        // Flags before the name: the flag value must not become the name.
        let (name, _, cli) = split_run_args(&to_args(&["--backend", "counting", "f2"])).unwrap();
        assert_eq!(name.as_deref(), Some("f2"));
        assert_eq!(cli, to_args(&["--backend", "counting"]));

        // --spec with trailing space-separated flag values.
        let (name, spec, cli) =
            split_run_args(&to_args(&["--spec", "a.spec", "--trials", "1", "--seed", "9"]))
                .unwrap();
        assert_eq!(name, None);
        assert_eq!(spec.as_deref(), Some("a.spec"));
        assert_eq!(cli, to_args(&["--trials", "1", "--seed", "9"]));

        let (_, spec, _) = split_run_args(&to_args(&["--spec=b.spec"])).unwrap();
        assert_eq!(spec.as_deref(), Some("b.spec"));

        assert!(split_run_args(&to_args(&["--spec"])).is_err());
    }

    #[test]
    fn campaign_args_split_source_seed_and_knobs() {
        let args =
            split_campaign_args(&to_args(&["--spec", "c.spec", "--seeds", "64", "--json"]))
                .unwrap();
        assert_eq!(args.source.as_deref(), Some("c.spec"));
        assert!(!args.replay);
        assert_eq!(args.seeds, Some(64));
        assert_eq!(args.cli_args, to_args(&["--json"]));

        // The pasted replay command: `--replay <source> <seed> --seeds N`.
        let args = split_campaign_args(&to_args(&[
            "--replay", "c.spec", "1234", "--seeds", "100",
        ]))
        .unwrap();
        assert!(args.replay);
        assert_eq!(args.source.as_deref(), Some("c.spec"));
        assert_eq!(args.replay_seed.as_deref(), Some("1234"));
        assert_eq!(args.seeds, Some(100));

        assert!(split_campaign_args(&to_args(&["--seeds", "0"])).is_err());
        assert!(split_campaign_args(&to_args(&["--seeds"])).is_err());
        assert!(split_campaign_args(&to_args(&["a.spec", "extra"])).is_err());
    }

    #[test]
    fn replay_seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("1234").unwrap(), 1234);
        assert_eq!(parse_seed("0xBEEF").unwrap(), 0xBEEF);
        assert!(parse_seed("nope").is_err());
    }
}
