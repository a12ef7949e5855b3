//! Criterion micro-benchmarks for the push-model simulator: cost of one
//! round and one phase under each delivery semantics, and the headline
//! comparison of this repository's batched count-based delivery engine
//! against per-message sampling. These numbers are the cost model behind
//! the experiment binaries' runtime estimates; `BENCH_pushsim.json` at the
//! workspace root archives a baseline run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_analysis::observe::TrajectoryRecorder;
use noisy_channel::NoiseMatrix;
use plurality_core::observe::{NoObserver, Observer, PhaseSnapshot};
use pushsim::counting::sample_majority_splits;
use pushsim::{
    CountingNetwork, DeliverySemantics, Network, Opinion, PhaseObservation, PushBackend,
    SimConfig, TopologySpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_round");
    for &n in &[1_000usize, 10_000] {
        for semantics in [DeliverySemantics::Exact, DeliverySemantics::BallsIntoBins] {
            group.bench_with_input(
                BenchmarkId::new(format!("process_{}", semantics.label()), n),
                &n,
                |b, &n| {
                    let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
                    let config = SimConfig::builder(n, 3)
                        .seed(1)
                        .delivery(semantics)
                        .build()
                        .expect("valid config");
                    let mut net = Network::new(config, noise).expect("valid network");
                    net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                    b.iter(|| {
                        net.begin_phase();
                        net.push_round(|_, s| s.opinion());
                        net.end_phase().total_messages()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_poissonized_phase(c: &mut Criterion) {
    c.bench_function("pushsim_poissonized_phase_n10000", |b| {
        let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
        let config = SimConfig::builder(10_000, 3)
            .seed(2)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .expect("valid config");
        let mut net = Network::new(config, noise).expect("valid network");
        net.seed_counts(&[5_000, 2_500, 2_500]).expect("valid counts");
        b.iter(|| {
            net.begin_phase();
            for _ in 0..4 {
                net.push_round(|_, s| s.opinion());
            }
            net.end_phase().total_messages()
        });
    });
}

/// The pre-batching end-phase semantics, reproduced verbatim for the
/// speedup comparison: one channel draw + one destination draw per pending
/// message (process B), or per-message recoloring plus n·k Poisson draws
/// (process P).
mod legacy {
    use super::*;

    pub fn balls_into_bins(
        pending: &[u64],
        noise: &NoiseMatrix,
        n: usize,
        inbox: &mut [u32],
        rng: &mut StdRng,
    ) -> u64 {
        let k = pending.len();
        let mut delivered = 0;
        for (opinion, &m) in pending.iter().enumerate() {
            for _ in 0..m {
                let received_as = noise.sample(opinion, rng);
                let destination = rng.gen_range(0..n);
                inbox[destination * k + received_as] += 1;
                delivered += 1;
            }
        }
        delivered
    }

    pub fn poissonized(
        pending: &[u64],
        noise: &NoiseMatrix,
        n: usize,
        inbox: &mut [u32],
        rng: &mut StdRng,
    ) -> u64 {
        let k = pending.len();
        let mut post_noise = vec![0u64; k];
        for (opinion, &m) in pending.iter().enumerate() {
            for _ in 0..m {
                post_noise[noise.sample(opinion, rng)] += 1;
            }
        }
        let mut delivered = 0;
        for node in 0..n {
            for (opinion, &h) in post_noise.iter().enumerate() {
                if h == 0 {
                    continue;
                }
                let copies = pushsim::poisson::sample(h as f64 / n as f64, rng);
                inbox[node * k + opinion] += copies as u32;
                delivered += copies;
            }
        }
        delivered
    }
}

/// The acceptance benchmark of the batching refactor: end-phase delivery at
/// n = 10⁵ with full participation, per-message (legacy) vs batched
/// (`Network::end_phase`). The batched path applies the noise with O(k²)
/// multinomial draws and only pays a bare uniform scatter per message.
fn bench_end_phase_per_message_vs_batched(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let pending = [n as u64 / 2, n as u64 / 4, n as u64 / 4];
    let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");

    let mut group = c.benchmark_group("pushsim_end_phase_n1e5");
    group.sample_size(10);

    group.bench_function("legacy_per_message_B", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let mut inbox = vec![0u32; n * k];
        b.iter(|| {
            inbox.iter_mut().for_each(|c| *c = 0);
            black_box(legacy::balls_into_bins(&pending, &noise, n, &mut inbox, &mut rng))
        });
    });
    group.bench_function("legacy_per_message_P", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let mut inbox = vec![0u32; n * k];
        b.iter(|| {
            inbox.iter_mut().for_each(|c| *c = 0);
            black_box(legacy::poissonized(&pending, &noise, n, &mut inbox, &mut rng))
        });
    });
    for semantics in [DeliverySemantics::BallsIntoBins, DeliverySemantics::Poissonized] {
        group.bench_function(format!("batched_{}", semantics.label()), |b| {
            let config = SimConfig::builder(n, k)
                .seed(5)
                .delivery(semantics)
                .build()
                .expect("valid config");
            let mut net = Network::new(config, noise.clone()).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_round(|_, s| s.opinion());
                net.end_phase().total_messages()
            });
        });
    }
    group.finish();
}

/// Whole phases across population scales: the agent-level backend (batched
/// deliveries, but still O(n) state) vs the counting backend (O(k²) per
/// phase). At n = 10⁷ only the counting backend is practical.
fn bench_backend_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_phase_scaling");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    for &n in &[1_000usize, 100_000, 10_000_000] {
        if n <= 100_000 {
            group.bench_with_input(BenchmarkId::new("agent_batched_B", n), &n, |b, &n| {
                let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
                let config = SimConfig::builder(n, 3)
                    .seed(6)
                    .delivery(DeliverySemantics::BallsIntoBins)
                    .build()
                    .expect("valid config");
                let mut net = Network::new(config, noise).expect("valid network");
                net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                b.iter(|| {
                    net.begin_phase();
                    net.push_round(|_, s| s.opinion());
                    net.end_phase().total_messages()
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("counting_P", n), &n, |b, &n| {
            let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, 3)
                .seed(7)
                .delivery(DeliverySemantics::Poissonized)
                .build()
                .expect("valid config");
            let mut net = CountingNetwork::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_opinionated_round();
                net.end_phase().total()
            });
        });
    }
    group.finish();
}

/// One phase driven through the `PushBackend` trait — the exact shape the
/// generic protocol stages compile down to after monomorphization.
fn drive_phase_generic<B: PushBackend>(net: &mut B) -> u64 {
    net.begin_phase();
    net.push_opinionated_round();
    net.end_phase().total_received()
}

/// The refactor guard: the backend-generic phase loop vs the pre-refactor
/// shape (direct concrete method calls) on both backends. Monomorphization
/// means the two must be within noise of each other; a regression here
/// would indicate accidental dynamic dispatch or lost inlining on the hot
/// phase path.
fn bench_generic_vs_concrete_dispatch(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");

    let mut group = c.benchmark_group("pushsim_generic_dispatch");
    group.sample_size(10);

    let agent_net = || {
        let config = SimConfig::builder(n, k)
            .seed(8)
            .delivery(DeliverySemantics::BallsIntoBins)
            .build()
            .expect("valid config");
        let mut net = Network::new(config, noise.clone()).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    group.bench_function("concrete_agent_B", |b| {
        let mut net = agent_net();
        b.iter(|| {
            net.begin_phase();
            net.push_round(|_, s| s.opinion());
            net.end_phase().total_messages()
        });
    });
    group.bench_function("generic_agent_B", |b| {
        let mut net = agent_net();
        b.iter(|| black_box(drive_phase_generic(&mut net)));
    });

    let counting_net = || {
        let config = SimConfig::builder(n, k)
            .seed(9)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .expect("valid config");
        let mut net = CountingNetwork::new(config, noise.clone()).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    group.bench_function("concrete_counting_P", |b| {
        let mut net = counting_net();
        b.iter(|| {
            net.begin_phase();
            net.push_opinionated_round();
            net.end_phase().total()
        });
    });
    group.bench_function("generic_counting_P", |b| {
        let mut net = counting_net();
        b.iter(|| black_box(drive_phase_generic(&mut net)));
    });
    group.finish();
}

/// One phase with the per-phase observation work the protocol stages add
/// when an observer is attached — an `on_phase_begin` dyn call, an O(k)
/// snapshot built from the population tallies, and an `on_phase_end` dyn
/// call — behind an `Option` so the *same* monomorphized function also
/// serves as the observer-free arm.
///
/// All three arms of [`bench_observer_dispatch`] must run this one
/// function. An earlier shape of the group drove the unobserved arm
/// through [`drive_phase_generic`] and the observed arms through a
/// separate helper: two separately monomorphized functions whose phase
/// loops the optimizer is free to lay out differently, so the arms were
/// measuring different machine code for the same logical phase (the
/// archived `counting_k64` baseline showed the *unobserved* arm at
/// 460 µs vs 232 µs with a no-op observer — a codegen artifact, not
/// observation cost). Sharing one function makes the subtraction
/// "observed − unobserved = observation layer" meaningful again.
fn drive_phase_maybe_observed<B: PushBackend>(
    net: &mut B,
    observer: Option<&mut dyn Observer>,
) -> u64 {
    net.begin_phase();
    net.push_opinionated_round();
    let received = net.end_phase().total_received();
    if let Some(observer) = observer {
        observer.on_phase_begin(None, 0);
        let distribution = net.distribution();
        let bias = distribution.bias_towards(Opinion::new(0));
        let snapshot = PhaseSnapshot::new(
            None,
            0,
            1,
            net.rounds_executed(),
            received,
            net.messages_sent(),
            distribution,
            bias,
        );
        observer.on_phase_end(&snapshot);
    }
    received
}

/// The observation-layer guard: the phase loop with no observer, with an
/// attached no-op observer (dyn-dispatched, snapshot built), and with a
/// recording observer — at n = 10⁵ on the agent backend and k = 64 on the
/// counting backend. The snapshot + dyn-call overhead must stay within
/// noise of the observer-free loop (it is O(k) per *phase* against O(n·k)
/// or O(k²) phase work). All three arms share one monomorphized phase
/// function ([`drive_phase_maybe_observed`]) and differ only in the
/// `Option<&mut dyn Observer>` they pass, so the comparison isolates the
/// observation layer rather than codegen differences.
fn bench_observer_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_observer_dispatch");
    group.sample_size(10);

    // Agent backend at n = 1e5, k = 3.
    let agent_net = || {
        let noise = NoiseMatrix::uniform(3, 0.2).expect("valid noise");
        let n = 100_000;
        let config = SimConfig::builder(n, 3)
            .seed(10)
            .delivery(DeliverySemantics::BallsIntoBins)
            .build()
            .expect("valid config");
        let mut net = Network::new(config, noise).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    group.bench_function("agent_n1e5_unobserved", |b| {
        let mut net = agent_net();
        b.iter(|| black_box(drive_phase_maybe_observed(&mut net, None)));
    });
    group.bench_function("agent_n1e5_noop_observer", |b| {
        let mut net = agent_net();
        b.iter(|| black_box(drive_phase_maybe_observed(&mut net, Some(&mut NoObserver))));
    });
    group.bench_function("agent_n1e5_trajectory_recorder", |b| {
        let mut net = agent_net();
        let mut recorder = TrajectoryRecorder::new();
        b.iter(|| {
            recorder.clear();
            black_box(drive_phase_maybe_observed(&mut net, Some(&mut recorder)))
        });
    });

    // Counting backend at k = 64 (the per-phase work is O(k²), so this is
    // the backend's worst case for relative observation overhead: the
    // snapshot is O(k) of the O(k²) phase).
    let counting_net = || {
        let k = 64;
        let n = 1_000_000;
        let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
        let config = SimConfig::builder(n, k)
            .seed(11)
            .delivery(DeliverySemantics::Poissonized)
            .build()
            .expect("valid config");
        let mut net = CountingNetwork::new(config, noise).expect("valid network");
        let counts = vec![n / k; k];
        net.seed_counts(&counts).expect("valid counts");
        net
    };
    group.bench_function("counting_k64_unobserved", |b| {
        let mut net = counting_net();
        b.iter(|| black_box(drive_phase_maybe_observed(&mut net, None)));
    });
    group.bench_function("counting_k64_noop_observer", |b| {
        let mut net = counting_net();
        b.iter(|| black_box(drive_phase_maybe_observed(&mut net, Some(&mut NoObserver))));
    });
    group.bench_function("counting_k64_trajectory_recorder", |b| {
        let mut net = counting_net();
        let mut recorder = TrajectoryRecorder::new();
        b.iter(|| {
            recorder.clear();
            black_box(drive_phase_maybe_observed(&mut net, Some(&mut recorder)))
        });
    });
    group.finish();
}

/// The topology cost guard: one exact-delivery push round at n = 10⁵ with
/// full participation, on the complete graph (destination is a bare
/// `gen_range(0..n)`, the pre-topology hot path) vs the ring and a random
/// 8-regular graph (destination is a CSR neighbor-list lookup). Sparse
/// topologies add one offset indirection per message; the group documents
/// that the whole topology subsystem costs nothing when it is not used
/// and only a small constant when it is.
fn bench_topology_round(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_topology_round_n1e5");
    group.sample_size(10);
    for topology in [
        TopologySpec::Complete,
        TopologySpec::Ring,
        TopologySpec::RandomRegular { degree: 8 },
    ] {
        group.bench_function(topology.to_string(), |b| {
            let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
            let config = SimConfig::builder(n, k)
                .seed(12)
                .topology(topology)
                .build()
                .expect("valid config");
            let mut net = Network::new(config, noise).expect("valid network");
            net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
            b.iter(|| {
                net.begin_phase();
                net.push_round(|_, s| s.opinion());
                net.end_phase().total_messages()
            });
        });
    }
    group.finish();
}

/// Sparse-topology phases at scale: one full phase (push round +
/// end-phase delivery) on the agent backend (exact process O over the
/// materialized graph, O(n) per round) vs the degree-class block-counting
/// backend (Poissonized process P over the `C × k` class matrix, O(k²·C)
/// per phase) at n = 10⁶ and 10⁷. This is the acceptance benchmark of the
/// block-counting backend: at n = 10⁷ a ring phase must cost ≤ 100 µs —
/// more than 1000× under the agent backend's phase at the same size. The
/// torus arm runs at 10⁶ only (10⁷ is not a perfect square), and the
/// agent arm at 10⁷ runs the ring only (a random 8-regular graph at that
/// size spends gigabytes on the CSR and minutes in construction for no
/// extra information — the per-message cost is already visible at 10⁶).
fn bench_topology_phase_scaling(c: &mut Criterion) {
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_topology_phase");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));

    let agent_arms: [(TopologySpec, usize); 3] = [
        (TopologySpec::Ring, 1_000_000),
        (TopologySpec::RandomRegular { degree: 8 }, 1_000_000),
        (TopologySpec::Ring, 10_000_000),
    ];
    for (topology, n) in agent_arms {
        group.bench_with_input(
            BenchmarkId::new(format!("agent_{topology}"), n),
            &n,
            |b, &n| {
                let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
                let config = SimConfig::builder(n, k)
                    .seed(15)
                    .topology(topology)
                    .build()
                    .expect("valid config");
                let mut net = Network::new(config, noise).expect("valid network");
                net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                b.iter(|| {
                    net.begin_phase();
                    net.push_round(|_, s| s.opinion());
                    net.end_phase().total_messages()
                });
            },
        );
    }

    let block_arms: [(TopologySpec, usize); 5] = [
        (TopologySpec::Ring, 1_000_000),
        (TopologySpec::Torus2D, 1_000_000),
        (TopologySpec::RandomRegular { degree: 8 }, 1_000_000),
        (TopologySpec::Ring, 10_000_000),
        (TopologySpec::RandomRegular { degree: 8 }, 10_000_000),
    ];
    for (topology, n) in block_arms {
        group.bench_with_input(
            BenchmarkId::new(format!("block_{topology}"), n),
            &n,
            |b, &n| {
                let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
                let config = SimConfig::builder(n, k)
                    .seed(16)
                    .delivery(DeliverySemantics::Poissonized)
                    .topology(topology)
                    .build()
                    .expect("valid config");
                let mut net =
                    pushsim::BlockCountingNetwork::new(config, noise).expect("valid network");
                net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
                b.iter(|| {
                    net.begin_phase();
                    net.push_opinionated_round();
                    net.end_phase().total()
                });
            },
        );
    }
    group.finish();
}

/// The fault-subsystem cost guard: one phase at n = 10⁵ with full
/// participation, fault-free (no `fault` key at all vs an explicit
/// all-disabled [`FaultSpec`] — these two must be within noise of each
/// other, since a disabled spec never seeds the fault RNG and never
/// enters the fault branch) and under enabled per-message faults
/// (`drop(0.1)`, then the full drop+dup+delay ladder), on both backends
/// where the semantics allow. Enabled faults pay one Bernoulli draw per
/// affected message on the agent backend and O(k) binomial splits on the
/// counting backend; the disabled path is the hot path the campaigns
/// leave untouched.
fn bench_fault_overhead(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_fault_overhead_n1e5");
    group.sample_size(10);

    let agent_net = |fault: Option<&str>| {
        let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
        let mut builder = SimConfig::builder(n, k)
            .seed(13)
            .delivery(DeliverySemantics::BallsIntoBins);
        if let Some(fault) = fault {
            builder = builder.fault(fault.parse().expect("valid fault spec"));
        }
        let config = builder.build().expect("valid config");
        let mut net = Network::new(config, noise).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    for (name, fault) in [
        ("agent_no_fault_key", None),
        ("agent_fault_none", Some("none")),
        ("agent_drop", Some("drop(0.1)")),
        ("agent_drop_dup_delay", Some("drop(0.1)+dup(0.1)+delay(0.1)")),
    ] {
        group.bench_function(name, |b| {
            let mut net = agent_net(fault);
            b.iter(|| black_box(drive_phase_generic(&mut net)));
        });
    }

    let counting_net = |fault: Option<&str>| {
        let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
        let mut builder = SimConfig::builder(n, k)
            .seed(14)
            .delivery(DeliverySemantics::Poissonized);
        if let Some(fault) = fault {
            builder = builder.fault(fault.parse().expect("valid fault spec"));
        }
        let config = builder.build().expect("valid config");
        let mut net = CountingNetwork::new(config, noise).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    for (name, fault) in [
        ("counting_no_fault_key", None),
        ("counting_fault_none", Some("none")),
        ("counting_drop_dup", Some("drop(0.1)+dup(0.1)")),
    ] {
        group.bench_function(name, |b| {
            let mut net = counting_net(fault);
            b.iter(|| black_box(drive_phase_generic(&mut net)));
        });
    }
    group.finish();
}

/// The temporal-subsystem cost guard: one phase with no temporal keys at
/// all vs an explicit all-default temporal configuration (`churn = none`,
/// `schedule = const`, `clock = sync` — these two must be within noise of
/// each other, since default axes build no temporal state and never seed
/// the dedicated churn/schedule RNGs) and with each axis active, on the
/// agent backend at n = 10⁵ and the counting backend at k = 64. Active
/// population churn pays an O(k) count transfer per *phase* boundary, a
/// schedule an O(k²) matrix rebuild per boundary, edge churn a graph
/// resample, and a drifting clock a per-round participation draw — all
/// amortized against O(n·k) (agent) or O(k²) (counting) phase work.
fn bench_temporal_overhead(c: &mut Criterion) {
    let n = 100_000usize;
    let k = 3usize;
    let mut group = c.benchmark_group("pushsim_temporal_overhead");
    group.sample_size(10);

    let agent_net = |temporal: Option<(&str, &str, &str)>, topology: TopologySpec| {
        let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
        let delivery = if topology.is_complete() {
            DeliverySemantics::BallsIntoBins
        } else {
            DeliverySemantics::Exact
        };
        let mut builder = SimConfig::builder(n, k)
            .seed(17)
            .delivery(delivery)
            .topology(topology);
        if let Some((churn, schedule, clock)) = temporal {
            builder = builder
                .churn(churn.parse().expect("valid churn spec"))
                .schedule(schedule.parse().expect("valid schedule"))
                .clock(clock.parse().expect("valid clock spec"));
        }
        let config = builder.build().expect("valid config");
        let mut net = Network::new(config, noise).expect("valid network");
        net.seed_counts(&[n / 2, n / 4, n / 4]).expect("valid counts");
        net
    };
    let complete = TopologySpec::Complete;
    for (name, temporal, topology) in [
        ("agent_n1e5_no_temporal_keys", None, complete),
        ("agent_n1e5_temporal_none", Some(("none", "const", "sync")), complete),
        ("agent_n1e5_churn", Some(("join(0.02)+leave(0.02)", "const", "sync")), complete),
        ("agent_n1e5_schedule_burst", Some(("none", "burst(0.4@2:1)", "sync")), complete),
        ("agent_n1e5_clock_drift", Some(("none", "const", "drift(20000)")), complete),
        (
            "agent_n1e5_rewire",
            Some(("rewire(0.5)", "const", "sync")),
            TopologySpec::RandomRegular { degree: 8 },
        ),
    ] {
        group.bench_function(name, |b| {
            let mut net = agent_net(temporal, topology);
            b.iter(|| black_box(drive_phase_generic(&mut net)));
        });
    }

    // Counting backend at k = 64: the O(k) churn transfer and the O(k²)
    // scheduled matrix rebuild land on an O(k²) phase, the backend's worst
    // case for relative temporal overhead.
    let counting_net = |temporal: Option<(&str, &str)>| {
        let k = 64;
        let n = 1_000_000;
        let noise = NoiseMatrix::uniform(k, 0.2).expect("valid noise");
        let mut builder = SimConfig::builder(n, k)
            .seed(18)
            .delivery(DeliverySemantics::Poissonized);
        if let Some((churn, schedule)) = temporal {
            builder = builder
                .churn(churn.parse().expect("valid churn spec"))
                .schedule(schedule.parse().expect("valid schedule"));
        }
        let config = builder.build().expect("valid config");
        let mut net = CountingNetwork::new(config, noise).expect("valid network");
        let counts = vec![n / k; k];
        net.seed_counts(&counts).expect("valid counts");
        net
    };
    for (name, temporal) in [
        ("counting_k64_no_temporal_keys", None),
        ("counting_k64_temporal_none", Some(("none", "const"))),
        ("counting_k64_churn", Some(("join(0.05)+leave(0.05)", "const"))),
        ("counting_k64_schedule_burst", Some(("none", "burst(0.4@2:1)"))),
    ] {
        group.bench_function(name, |b| {
            let mut net = counting_net(temporal);
            b.iter(|| black_box(drive_phase_generic(&mut net)));
        });
    }
    group.finish();
}

/// One count-level Stage-2 decision at the exact-draw cap: 65 536
/// compositions of `maj(Multinomial(ℓ, h/H))` over the post-noise mix
/// `[583, 208, 209]` of a k = 3, ε = 0.25 run, at ℓ = 129 and ℓ = 885.
fn bench_majority_decision(c: &mut Criterion) {
    let mut group = c.benchmark_group("pushsim_majority_decision");
    for sample_size in [129u64, 885] {
        group.bench_function(format!("ell_{sample_size}"), |b| {
            let mut rng = StdRng::seed_from_u64(19);
            b.iter(|| {
                black_box(sample_majority_splits(
                    65_536,
                    black_box(sample_size),
                    &[583, 208, 209],
                    &mut rng,
                ))
            });
        });
    }
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
    targets = bench_round_throughput, bench_poissonized_phase,
              bench_end_phase_per_message_vs_batched, bench_backend_scaling,
              bench_generic_vs_concrete_dispatch, bench_observer_dispatch,
              bench_topology_round, bench_topology_phase_scaling,
              bench_fault_overhead, bench_temporal_overhead,
              bench_majority_decision
}
criterion_main!(benches);
