//! Observer determinism: attaching any observer must not perturb the RNG
//! streams of an execution.
//!
//! The observation layer is RNG-free by construction — observers receive
//! immutable [`PhaseSnapshot`]s built from the O(k) population tallies and
//! never touch the protocol's decision RNG or the backend's delivery RNG.
//! These tests pin that property end to end: fixed-seed runs with and
//! without a [`TrajectoryRecorder`] (and with a full observer stack)
//! produce identical [`Outcome`]s on **both** backends, for every
//! [`Instance`], and the recorded trajectory agrees with the outcome's own
//! phase records.

use gossip_analysis::observe::{OnlineStats, StreamSink, TrajectoryRecorder};
use noisy_channel::NoiseMatrix;
use plurality_core::observe::{Fanout, NoObserver, Observer};
use plurality_core::{
    ExecutionBackend, Instance, Outcome, ProtocolParams, StopCondition, TwoStageProtocol,
};
use pushsim::Opinion;

fn protocol(backend_seed: u64) -> TwoStageProtocol {
    let eps = 0.35;
    let noise = NoiseMatrix::uniform(3, eps).expect("valid noise");
    let params = ProtocolParams::builder(800, 3)
        .epsilon(eps)
        .seed(backend_seed)
        .build()
        .expect("valid params");
    TwoStageProtocol::new(params, noise).expect("dimensions match")
}

/// Runs the same configuration once without and once with the given
/// observer; both outcomes must be identical in every field.
fn assert_observation_free<F>(run: F)
where
    F: Fn(&TwoStageProtocol, &mut dyn Observer) -> Outcome,
{
    for backend in [ExecutionBackend::Agent, ExecutionBackend::Counting] {
        let seed = match backend {
            ExecutionBackend::Agent => 41,
            _ => 42,
        };
        let plain = run(&protocol(seed), &mut NoObserver);
        let mut recorder = TrajectoryRecorder::new();
        let observed = run(&protocol(seed), &mut recorder);
        assert_eq!(
            plain, observed,
            "a TrajectoryRecorder must not perturb the execution ({backend:?})"
        );
        assert_eq!(
            recorder.len(),
            observed.phase_records().len(),
            "one snapshot per phase record"
        );
        // The recorded trajectory is the outcome's own record sequence.
        for (snapshot, record) in recorder.snapshots().iter().zip(observed.phase_records()) {
            assert_eq!(Some(record.stage()), snapshot.stage());
            assert_eq!(record.phase(), snapshot.phase());
            assert_eq!(record.rounds(), snapshot.rounds());
            assert_eq!(record.messages(), snapshot.messages());
            assert_eq!(record.distribution_after(), snapshot.distribution());
            assert_eq!(record.bias_after(), snapshot.bias());
        }
    }
}

#[test]
fn rumor_spreading_is_observation_free_on_both_backends() {
    assert_observation_free(|protocol, observer| {
        let backend = if protocol.params().seed() == 41 {
            ExecutionBackend::Agent
        } else {
            ExecutionBackend::Counting
        };
        protocol
            .session()
            .run(backend, Instance::Rumor(Opinion::new(1)), observer)
            .expect("valid run")
    });
}

#[test]
fn plurality_consensus_is_observation_free_on_both_backends() {
    assert_observation_free(|protocol, observer| {
        let backend = if protocol.params().seed() == 41 {
            ExecutionBackend::Agent
        } else {
            ExecutionBackend::Counting
        };
        protocol
            .session()
            .run(backend, Instance::Plurality(&[350, 250, 200]), observer)
            .expect("valid run")
    });
}

#[test]
fn stage2_only_is_observation_free_on_both_backends() {
    assert_observation_free(|protocol, observer| {
        let backend = if protocol.params().seed() == 41 {
            ExecutionBackend::Agent
        } else {
            ExecutionBackend::Counting
        };
        protocol
            .session()
            .run(backend, Instance::Stage2(&[400, 250, 150]), observer)
            .expect("valid run")
    });
}

#[test]
fn a_full_observer_stack_is_still_observation_free() {
    // Recorder + streaming aggregates + a JSONL sink, all at once, with a
    // stop condition in play: still bit-identical to the bare session run.
    let stop = StopCondition::ConsensusReached;
    let bare = protocol(7)
        .session()
        .stop_when(stop.clone())
        .run(
            ExecutionBackend::Agent,
            Instance::Rumor(Opinion::new(0)),
            &mut NoObserver,
        )
        .expect("valid run");

    let mut recorder = TrajectoryRecorder::new();
    let mut stats = OnlineStats::new();
    let mut out = Vec::new();
    let observed = {
        let mut sink = StreamSink::new(&mut out);
        let mut fanout = Fanout::new(vec![&mut recorder, &mut stats, &mut sink]);
        protocol(7)
            .session()
            .stop_when(stop)
            .run(
                ExecutionBackend::Agent,
                Instance::Rumor(Opinion::new(0)),
                &mut fanout,
            )
            .expect("valid run")
    };
    assert_eq!(bare, observed);
    assert_eq!(recorder.len(), observed.phase_records().len());
    assert_eq!(stats.runs(), 1);
    assert_eq!(
        String::from_utf8(out).expect("UTF-8").lines().count(),
        observed.phase_records().len(),
        "one streamed JSON line per phase"
    );
}

#[test]
fn the_schedule_exhausted_session_matches_the_plain_entry_points() {
    // The named entry points are delegates, not forks: a default session
    // run is bit-identical to one through `run_rumor_spreading_on` with the
    // schedule-exhausted stop condition stated explicitly.
    for backend in [ExecutionBackend::Agent, ExecutionBackend::Counting] {
        let plain = protocol(9)
            .session()
            .run(backend, Instance::Rumor(Opinion::new(2)), &mut NoObserver)
            .expect("valid run");
        let session = protocol(9)
            .session()
            .stop_when(StopCondition::ScheduleExhausted)
            .run_rumor_spreading_on(backend, Opinion::new(2), &mut NoObserver)
            .expect("valid run");
        assert_eq!(plain, session, "{backend:?}");
    }
}
