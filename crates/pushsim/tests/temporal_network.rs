//! Integration tests of the temporal-dynamics subsystem: the all-disabled
//! temporal axes (`churn = none`, `schedule = const`, `clock = sync`) are
//! bit-for-bit the pre-temporal simulator (same pinned digests on every
//! delivery process and all three backends), enabled axes perturb the
//! evolution deterministically, the admission rows match what the
//! constructors accept, and the live population follows the deterministic
//! churn arithmetic on every backend that supports it.

use noisy_channel::NoiseMatrix;
use pushsim::{
    AdoptionScope, BlockCountingNetwork, ChurnSpec, ClockSpec, CountingNetwork,
    DeliverySemantics, Network, NoiseSchedule, PushBackend, SimConfig,
    TopologySpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The three temporal axes of one scenario, all parsed from their
/// canonical spec-file spellings.
#[derive(Clone, Copy)]
struct Axes {
    churn: &'static str,
    schedule: &'static str,
    clock: &'static str,
}

const OFF: Axes = Axes {
    churn: "none",
    schedule: "const",
    clock: "sync",
};

fn config(delivery: DeliverySemantics, axes: Option<Axes>) -> SimConfig {
    let mut builder = SimConfig::builder(500, 3).seed(0xBEEF).delivery(delivery);
    if let Some(axes) = axes {
        builder = builder
            .churn(axes.churn.parse().unwrap())
            .schedule(axes.schedule.parse().unwrap())
            .clock(axes.clock.parse().unwrap());
    }
    builder.build().unwrap()
}

/// FNV-style fold of the full phase-by-phase evolution of a seeded agent
/// run — identical to the fault/topology suites' digest, so the pinned
/// constants below are the same historical values.
fn evolution_digest(config: SimConfig) -> u64 {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let mut net = Network::new(config, noise).unwrap();
    net.seed_counts(&[200, 100, 50]).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..3 {
        net.begin_phase();
        for _ in 0..4 {
            net.push_round(|_, s| s.opinion());
        }
        net.end_phase();
        for node in 0..net.num_nodes() {
            for &c in net.inboxes().received(node) {
                fold(&mut h, u64::from(c).wrapping_add(1));
            }
        }
        let mut decide = StdRng::seed_from_u64(42);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        for &c in net.opinion_counts() {
            fold(&mut h, c as u64);
        }
    }
    h
}

/// Backend-generic digest of the per-phase opinion tallies (the part of
/// the evolution all backends expose identically).
fn tally_digest<B: PushBackend>(mut net: B) -> u64 {
    net.seed_counts(&[200, 100, 50]).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..3 {
        net.begin_phase();
        for _ in 0..4 {
            net.push_opinionated_round();
        }
        net.end_phase();
        let mut decide = StdRng::seed_from_u64(42);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        for &c in net.distribution().counts().iter() {
            fold(&mut h, c as u64);
        }
    }
    h
}

fn fold(h: &mut u64, value: u64) {
    *h ^= value;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

#[test]
fn disabled_temporal_reproduces_the_pinned_digests_on_every_process() {
    // The pinned digests predate the temporal subsystem (and the fault and
    // topology subsystems before it). Explicitly-off temporal axes must
    // leave every RNG stream untouched and reproduce them bit-for-bit —
    // this is what keeps every fixed-seed fixture in the workspace valid.
    for (delivery, expected) in [
        (DeliverySemantics::Exact, 0x141e_3f19_b666_0616),
        (DeliverySemantics::BallsIntoBins, 0x6f78_4738_5a78_2242),
        (DeliverySemantics::Poissonized, 0xba04_649a_9748_04ed),
    ] {
        assert_eq!(
            evolution_digest(config(delivery, None)),
            expected,
            "{delivery:?}: default config must match the historical digest"
        );
        assert_eq!(
            evolution_digest(config(delivery, Some(OFF))),
            expected,
            "{delivery:?}: explicitly-off temporal axes must be bit-identical"
        );
    }
}

#[test]
fn disabled_temporal_is_bit_identical_on_the_counting_backends() {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let default_net =
        CountingNetwork::new(config(DeliverySemantics::Poissonized, None), noise.clone())
            .unwrap();
    let explicit = CountingNetwork::new(
        config(DeliverySemantics::Poissonized, Some(OFF)),
        noise.clone(),
    )
    .unwrap();
    assert_eq!(tally_digest(default_net), tally_digest(explicit));

    let ring = |axes: Option<Axes>| {
        let mut builder = SimConfig::builder(500, 3)
            .seed(0xBEEF)
            .topology(TopologySpec::Ring)
            .delivery(DeliverySemantics::Poissonized);
        if let Some(axes) = axes {
            builder = builder
                .churn(axes.churn.parse().unwrap())
                .schedule(axes.schedule.parse().unwrap())
                .clock(axes.clock.parse().unwrap());
        }
        BlockCountingNetwork::new(builder.build().unwrap(), noise.clone()).unwrap()
    };
    assert_eq!(tally_digest(ring(None)), tally_digest(ring(Some(OFF))));
}

#[test]
fn unscheduled_phases_leave_the_evolution_untouched() {
    // A schedule whose first scheduled phase lies beyond the run is
    // temporally *armed* but never fires: it must not perturb anything
    // (the swap draws no randomness; off-window phases restore the base
    // matrix, which is exactly what an unscheduled run uses).
    let dormant = Axes {
        schedule: "step(0.4@10)",
        ..OFF
    };
    for delivery in [
        DeliverySemantics::Exact,
        DeliverySemantics::BallsIntoBins,
        DeliverySemantics::Poissonized,
    ] {
        assert_eq!(
            evolution_digest(config(delivery, Some(dormant))),
            evolution_digest(config(delivery, None)),
            "{delivery:?}: a schedule that never fires must be invisible"
        );
    }
}

#[test]
fn enabled_temporal_perturbs_the_evolution_deterministically() {
    let active = [
        Axes {
            churn: "join(0.02)+leave(0.03)",
            ..OFF
        },
        Axes {
            schedule: "step(0.45@1)",
            ..OFF
        },
        Axes {
            clock: "skew(0.3)",
            ..OFF
        },
        Axes {
            clock: "drift(400000)",
            ..OFF
        },
    ];
    for axes in active {
        for delivery in [
            DeliverySemantics::Exact,
            DeliverySemantics::BallsIntoBins,
            DeliverySemantics::Poissonized,
        ] {
            let perturbed = evolution_digest(config(delivery, Some(axes)));
            assert_ne!(
                perturbed,
                evolution_digest(config(delivery, None)),
                "{delivery:?}: churn={} schedule={} clock={} must change the evolution",
                axes.churn,
                axes.schedule,
                axes.clock
            );
            assert_eq!(
                perturbed,
                evolution_digest(config(delivery, Some(axes))),
                "{delivery:?}: temporal randomness is a pure function of the seed"
            );
        }
    }
}

#[test]
fn temporal_capabilities_match_the_constructors() {
    use pushsim::admission::{AGENT, BLOCK_COUNTING, COUNTING};
    const {
        assert!(AGENT.temporal.population_churn);
        assert!(AGENT.temporal.edge_churn);
        assert!(AGENT.temporal.clock);
        assert!(COUNTING.temporal.population_churn);
        assert!(COUNTING.temporal.noise_schedule);
        assert!(!COUNTING.temporal.edge_churn);
        assert!(!COUNTING.temporal.clock);
        assert!(!BLOCK_COUNTING.temporal.clock);
    }
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();

    // Clock skew needs per-agent identity: rejected by both count-level
    // backends, accepted by the agent backend.
    let skewed = config(
        DeliverySemantics::Poissonized,
        Some(Axes {
            clock: "skew(0.2)",
            ..OFF
        }),
    );
    assert!(matches!(
        CountingNetwork::new(skewed.clone(), noise.clone()),
        Err(pushsim::SimError::UnsupportedTemporal { .. })
    ));
    assert!(Network::new(skewed, noise.clone()).is_ok());

    // The block backend rejects clocks; the agent backend accepts the
    // same axis (with its own delivery constraint: Exact on sparse
    // topologies, Poissonized being count-level-only there).
    let drifting_ring = |delivery| {
        SimConfig::builder(500, 3)
            .seed(1)
            .topology(TopologySpec::Ring)
            .delivery(delivery)
            .clock(ClockSpec::Drift { ppm: 100.0 })
            .build()
            .unwrap()
    };
    assert!(matches!(
        BlockCountingNetwork::new(drifting_ring(DeliverySemantics::Poissonized), noise.clone()),
        Err(pushsim::SimError::UnsupportedTemporal { .. })
    ));
    assert!(Network::new(drifting_ring(DeliverySemantics::Exact), noise.clone()).is_ok());

    // Edge churn (rewire) needs the materialized graph: agent-only.
    let rewired = SimConfig::builder(500, 3)
        .seed(1)
        .topology(TopologySpec::RandomRegular { degree: 8 })
        .churn("rewire(0.5)".parse().unwrap())
        .build()
        .unwrap();
    assert!(matches!(
        BlockCountingNetwork::new(rewired.clone(), noise.clone()),
        Err(pushsim::SimError::UnsupportedTemporal { .. })
    ));
    assert!(Network::new(rewired, noise).is_ok());
}

#[test]
fn live_population_follows_the_deterministic_churn_arithmetic() {
    let churn: ChurnSpec = "join(0.04)+leave(0.02)+burst(0.3@1)".parse().unwrap();
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let build = |delivery| {
        SimConfig::builder(500, 3)
            .seed(0xBEEF)
            .delivery(delivery)
            .churn(churn)
            .build()
            .unwrap()
    };
    let mut agent = Network::new(build(DeliverySemantics::Exact), noise.clone()).unwrap();
    let mut counting =
        CountingNetwork::new(build(DeliverySemantics::Poissonized), noise.clone()).unwrap();
    let mut block =
        BlockCountingNetwork::new(build(DeliverySemantics::Poissonized), noise).unwrap();
    agent.seed_counts(&[200, 100, 50]).unwrap();
    counting.seed_counts(&[200, 100, 50]).unwrap();
    block.seed_counts(&[200, 100, 50]).unwrap();
    for phase in 0..5u64 {
        // The boundary preceding phase `p` has applied `p` boundaries.
        agent.begin_phase();
        counting.begin_phase();
        block.begin_phase();
        let expected = churn.population_after(500, phase);
        assert_eq!(agent.num_nodes(), expected, "agent population, phase {phase}");
        assert_eq!(
            counting.num_nodes(),
            expected,
            "counting population, phase {phase}"
        );
        assert_eq!(block.num_nodes(), expected, "block population, phase {phase}");
        // Opinion counts + undecided always account for every live agent.
        let counted = counting.opinion_counts().iter().sum::<u64>() + counting.undecided();
        assert_eq!(counted as usize, expected);
        agent.push_round(|_, s| s.opinion());
        counting.push_opinionated_round();
        block.push_opinionated_round();
        agent.end_phase();
        counting.end_phase();
        block.end_phase();
    }
    // The burst at boundary 2 (after_phase 1) is visible: the population
    // dips below the initial size before the joins recover it.
    assert!(churn.population_after(500, 2) < 500);
}

#[test]
fn schedules_swap_the_noise_at_their_boundaries_and_restore_it_after() {
    let noise = NoiseMatrix::uniform(3, 0.1).unwrap();
    let config = SimConfig::builder(500, 3)
        .seed(7)
        .delivery(DeliverySemantics::Poissonized)
        .schedule("burst(0.45@1:2)".parse().unwrap())
        .build()
        .unwrap();
    let mut net = CountingNetwork::new(config, noise.clone()).unwrap();
    net.seed_counts(&[200, 100, 50]).unwrap();
    let schedule = NoiseSchedule::Burst {
        epsilon: 0.45,
        start_phase: 1,
        width: 2,
    };
    for phase in 0..5u64 {
        net.begin_phase();
        // The uniform family's diagonal is 1/k + ε, so the live matrix
        // exposes the effective ε of the phase directly.
        let expected = schedule.epsilon_at(phase).unwrap_or(0.1);
        let diagonal = net.noise().entry(0, 0);
        assert!(
            (diagonal - (1.0 / 3.0 + expected)).abs() < 1e-12,
            "phase {phase}: live ε must follow the schedule (diagonal {diagonal})"
        );
        net.push_opinionated_round();
        net.end_phase();
    }
}
