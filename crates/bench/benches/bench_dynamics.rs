//! Criterion benchmarks for the baseline dynamics: cost of one update step
//! at a fixed network size, per rule, through the phase driver.

use criterion::{criterion_group, criterion_main, Criterion};
use noisy_channel::NoiseMatrix;
use opinion_dynamics::RuleSpec;
use plurality_core::{NoObserver, StopCondition};
use pushsim::{Network, Opinion, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_steps(c: &mut Criterion) {
    let n = 5_000usize;
    let mut group = c.benchmark_group("dynamics_step_n5000");

    let mut bench_one = |name: &str, rule: RuleSpec| {
        group.bench_function(name, |b| {
            let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, 3).seed(1).build().expect("valid config");
            let mut net = Network::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            let mut rng = StdRng::seed_from_u64(2);
            // A budget of one step's rounds runs exactly one step per call.
            let step = rule.phase().rounds;
            let never = StopCondition::ScheduleExhausted;
            b.iter(|| {
                let outcome =
                    rule.run(&mut net, &mut rng, Opinion::new(0), step, &never, &mut NoObserver);
                black_box(outcome.rounds())
            });
        });
    };

    bench_one("voter", RuleSpec::Voter);
    bench_one("three_majority", RuleSpec::ThreeMajority);
    bench_one("h_majority_15", RuleSpec::HMajority { h: 15 });
    bench_one("undecided_state", RuleSpec::Undecided);
    bench_one("median_rule", RuleSpec::Median);
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_steps
}
criterion_main!(benches);
