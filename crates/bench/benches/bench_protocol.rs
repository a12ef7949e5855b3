//! Criterion benchmarks for complete protocol executions at small scales:
//! the wall-clock cost of a full rumor-spreading run and of the two stages'
//! building blocks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use noisy_channel::NoiseMatrix;
use plurality_core::{ExecutionBackend, Instance, NoObserver, ProtocolParams, TwoStageProtocol};
use pushsim::Opinion;
use std::hint::black_box;
use std::time::Duration;

fn bench_rumor_spreading_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_rumor_spreading");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let eps = 0.3;
            let noise = NoiseMatrix::uniform(3, eps).expect("valid noise");
            let params = ProtocolParams::builder(n, 3)
                .epsilon(eps)
                .seed(1)
                .build()
                .expect("valid params");
            let protocol = TwoStageProtocol::new(params, noise).expect("compatible");
            b.iter(|| {
                let outcome = protocol
                    .session()
                    .run(
                        ExecutionBackend::Agent,
                        Instance::Rumor(Opinion::new(0)),
                        &mut NoObserver,
                    )
                    .expect("run completes");
                black_box(outcome.rounds())
            });
        });
    }
    group.finish();
}

fn bench_plurality_consensus_end_to_end(c: &mut Criterion) {
    c.bench_function("protocol_plurality_n2000_k5", |b| {
        let eps = 0.3;
        let noise = NoiseMatrix::uniform(5, eps).expect("valid noise");
        let params = ProtocolParams::builder(2_000, 5)
            .epsilon(eps)
            .seed(2)
            .build()
            .expect("valid params");
        let protocol = TwoStageProtocol::new(params, noise).expect("compatible");
        let counts = [600, 400, 400, 300, 300];
        b.iter(|| {
            let outcome = protocol
                .session()
                .run(
                    ExecutionBackend::Agent,
                    Instance::Plurality(&counts),
                    &mut NoObserver,
                )
                .expect("run completes");
            black_box(outcome.succeeded())
        });
    });
}

fn bench_schedule_computation(c: &mut Criterion) {
    c.bench_function("protocol_schedule_n1e6", |b| {
        let params = ProtocolParams::builder(1_000_000, 4)
            .epsilon(0.05)
            .build()
            .expect("valid params");
        b.iter(|| black_box(params.schedule().total_rounds()));
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_rumor_spreading_end_to_end, bench_plurality_consensus_end_to_end, bench_schedule_computation
}
criterion_main!(benches);
