//! Integration tests of the fault-injection subsystem: the all-disabled
//! [`FaultSpec`] is bit-for-bit the pre-fault simulator (same pinned
//! digests on every delivery process and both backends), enabled faults
//! perturb the evolution deterministically, and the admission rows match
//! what the constructors accept.

use noisy_channel::NoiseMatrix;
use pushsim::admission::{FaultSupport, AGENT, BLOCK_COUNTING, COUNTING};
use pushsim::{
    AdoptionScope, CountingNetwork, DeliverySemantics, FaultSpec, Network, PushBackend,
    SimConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-style fold of the full phase-by-phase evolution of a seeded agent
/// run — identical to the topology suite's digest, so the pinned
/// constants below are the same historical values.
fn evolution_digest(config: SimConfig) -> u64 {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let mut net = Network::new(config, noise).unwrap();
    net.seed_counts(&[200, 100, 50]).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |value: u64| {
        h ^= value;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for _ in 0..3 {
        net.begin_phase();
        for _ in 0..4 {
            net.push_round(|_, s| s.opinion());
        }
        net.end_phase();
        for node in 0..net.num_nodes() {
            for &c in net.inboxes().received(node) {
                fold(u64::from(c).wrapping_add(1));
            }
        }
        let mut decide = StdRng::seed_from_u64(42);
        net.resolve_uniform_adoption(AdoptionScope::UndecidedOnly, &mut decide);
        for &c in net.opinion_counts() {
            fold(c as u64);
        }
    }
    h
}

/// Backend-generic digest of the per-phase opinion tallies (the part of
/// the evolution both backends expose identically).
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

fn config(delivery: DeliverySemantics, fault: Option<FaultSpec>) -> SimConfig {
    let mut builder = SimConfig::builder(500, 3).seed(0xBEEF).delivery(delivery);
    if let Some(fault) = fault {
        builder = builder.fault(fault);
    }
    builder.build().unwrap()
}

#[test]
fn disabled_faults_reproduce_the_pre_fault_digests_on_every_process() {
    // The pinned digests predate the fault subsystem (and the topology
    // subsystem before it). An explicit all-disabled FaultSpec must leave
    // every RNG stream untouched and reproduce them bit-for-bit — this is
    // what keeps every fixed-seed fixture in the workspace valid.
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
            evolution_digest(config(delivery, Some(FaultSpec::default()))),
            expected,
            "{delivery:?}: explicit fault = none must be bit-identical"
        );
    }
}

#[test]
fn disabled_faults_are_bit_identical_on_the_counting_backend() {
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let default_net =
        CountingNetwork::new(config(DeliverySemantics::Poissonized, None), noise.clone())
            .unwrap();
    let explicit = CountingNetwork::new(
        config(DeliverySemantics::Poissonized, Some(FaultSpec::default())),
        noise,
    )
    .unwrap();
    assert_eq!(tally_digest(default_net), tally_digest(explicit));
}

#[test]
fn enabled_faults_perturb_the_evolution_deterministically() {
    let drop: FaultSpec = "drop(0.5)".parse().unwrap();
    for delivery in [
        DeliverySemantics::Exact,
        DeliverySemantics::BallsIntoBins,
        DeliverySemantics::Poissonized,
    ] {
        let faulty = evolution_digest(config(delivery, Some(drop)));
        assert_ne!(
            faulty,
            evolution_digest(config(delivery, None)),
            "{delivery:?}: dropping half the messages must change the evolution"
        );
        assert_eq!(
            faulty,
            evolution_digest(config(delivery, Some(drop))),
            "{delivery:?}: fault randomness is a pure function of the seed"
        );
    }

    // The aggregatable families perturb the counting backend the same way.
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let digest_for = |fault: Option<FaultSpec>| {
        tally_digest(
            CountingNetwork::new(
                config(DeliverySemantics::Poissonized, fault),
                noise.clone(),
            )
            .unwrap(),
        )
    };
    assert_ne!(digest_for(Some(drop)), digest_for(None));
    assert_eq!(digest_for(Some(drop)), digest_for(Some(drop)));
}

#[test]
fn crashed_populations_fall_silent_after_their_phase() {
    // crash(1.0@0): every agent freezes once the first phase completes —
    // later rounds push nothing, on both backends.
    let crash: FaultSpec = "crash(1.0@0)".parse().unwrap();
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();

    fn phase_messages<B: PushBackend>(net: &mut B) -> u64 {
        net.begin_phase();
        let mut sent = 0;
        for _ in 0..4 {
            sent += net.push_opinionated_round().messages_sent();
        }
        net.end_phase();
        sent
    }

    let mut agent =
        Network::new(config(DeliverySemantics::Exact, Some(crash)), noise.clone()).unwrap();
    agent.seed_counts(&[200, 100, 50]).unwrap();
    assert!(phase_messages(&mut agent) > 0, "phase 0 runs normally");
    assert_eq!(phase_messages(&mut agent), 0, "all agents crashed after phase 0");
    assert_eq!(
        agent.distribution().num_nodes(),
        500,
        "crashed agents keep their opinions (count conservation)"
    );

    let mut counting = CountingNetwork::new(
        config(DeliverySemantics::Poissonized, Some(crash)),
        noise,
    )
    .unwrap();
    counting.seed_counts(&[200, 100, 50]).unwrap();
    assert!(phase_messages(&mut counting) > 0);
    assert_eq!(phase_messages(&mut counting), 0);
    assert_eq!(counting.distribution().num_nodes(), 500);
}

#[test]
fn fault_capabilities_match_the_constructors() {
    assert_eq!(AGENT.faults, FaultSupport::All);
    assert_eq!(COUNTING.faults, FaultSupport::Aggregatable);
    assert_eq!(BLOCK_COUNTING.faults, FaultSupport::Nothing);
    let noise = NoiseMatrix::uniform(3, 0.2).unwrap();
    let delayed = config(DeliverySemantics::Poissonized, Some("delay(0.2)".parse().unwrap()));
    assert!(matches!(
        CountingNetwork::new(delayed.clone(), noise.clone()),
        Err(pushsim::SimError::UnsupportedFault { .. })
    ));
    // The agent backend accepts the same configuration.
    assert!(Network::new(delayed, noise).is_ok());
}
