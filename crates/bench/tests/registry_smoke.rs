//! Registry smoke test: every registered experiment runs end to end at
//! quick scale, and every spec it runs validates and is what `xp show`
//! prints.
//!
//! The run uses the CLI's `--trials`/`--backend` overrides to keep the
//! suite fast: two trials per cell and the O(k²)-per-phase counting
//! backend for protocol runs (experiments that are inherently agent-level,
//! like F8's delivery comparison, ignore the backend override by design).

use noisy_bench::registry::{self, Variant};
use noisy_bench::{Cli, Scale, ScenarioSpec};
use plurality_core::ExecutionBackend;
use std::process::Command;

fn smoke_cli() -> Cli {
    Cli {
        scale: Scale::Quick,
        json: true,
        stream: false,
        backend: Some(ExecutionBackend::Counting),
        trials: Some(2),
        seed: None,
    }
}

#[test]
fn every_registered_experiment_runs_at_quick_scale() {
    let cli = smoke_cli();
    for experiment in registry::all() {
        let mut cli = cli;
        // `topo` and `topoxl` sweep non-complete topologies, which the
        // counting backend statically cannot represent; the specs' own
        // backends (auto, which resolves sparse points to agent, and the
        // pinned block-counting backend) are the only meaningful choices
        // there.
        if matches!(experiment.name, "topo" | "topoxl") {
            cli.backend = None;
        }
        registry::run(experiment, &cli)
            .unwrap_or_else(|e| panic!("experiment {} failed: {e}", experiment.name));
    }
}

#[test]
fn spec_backed_experiments_expose_valid_specs_at_both_scales() {
    for experiment in registry::all() {
        for scale in [Scale::Quick, Scale::Full] {
            for Variant { label, spec } in experiment.variants(scale) {
                spec.validate().unwrap_or_else(|e| {
                    panic!("{} {label} spec invalid at {scale:?}: {e}", experiment.name)
                });
                assert!(spec.sweep.num_points() >= 1);
            }
        }
    }
}

#[test]
fn every_block_xp_show_prints_parses_back_to_the_registry_spec() {
    for experiment in registry::all() {
        let output = Command::new(env!("CARGO_BIN_EXE_xp"))
            .args(["show", experiment.name])
            .output()
            .expect("xp starts");
        assert!(output.status.success(), "xp show {} fails", experiment.name);
        let text = String::from_utf8(output.stdout).expect("utf-8 spec text");
        let variants = experiment.variants(Scale::Quick);
        // A variant entry prints one `# variant: <label>` block per spec.
        let blocks: Vec<(&str, &str)> = if experiment.is_spec() {
            vec![(experiment.name, text.as_str())]
        } else {
            text.split("\n# variant: ")
                .skip(1)
                .map(|block| block.split_once('\n').expect("label line"))
                .collect()
        };
        assert_eq!(blocks.len(), variants.len(), "xp show {}", experiment.name);
        for ((label, block), variant) in blocks.into_iter().zip(variants) {
            assert_eq!(label, variant.label, "xp show {}", experiment.name);
            let parsed = ScenarioSpec::from_text(block)
                .unwrap_or_else(|e| panic!("xp show {} {label}: {e}", experiment.name));
            assert_eq!(parsed, variant.spec, "xp show {} {label}", experiment.name);
        }
    }
}
