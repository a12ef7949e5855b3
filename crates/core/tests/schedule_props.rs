//! Property-based tests for the protocol schedule arithmetic (public API
//! only): the schedule must stay well-formed and monotone over the whole
//! admissible parameter range, because every experiment derives its round
//! budget from it.

use plurality_core::{bounds, ProtocolConstants, ProtocolParams};
use proptest::prelude::*;

fn params(n: usize, k: usize, eps: f64, constants: ProtocolConstants) -> ProtocolParams {
    ProtocolParams::builder(n, k)
        .epsilon(eps)
        .constants(constants)
        .build()
        .expect("strategy only generates valid parameters")
}

fn constants_strategy() -> impl Strategy<Value = ProtocolConstants> {
    // s < beta < phi, all positive; c and c_final positive.
    (0.1f64..2.0, 0.1f64..2.0, 0.1f64..2.0, 0.5f64..12.0, 0.5f64..6.0).prop_map(
        |(s, d1, d2, c, c_final)| ProtocolConstants {
            s,
            beta: s + d1,
            phi: s + d1 + d2,
            c,
            c_final,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The schedule is always non-empty, with positive phase lengths, odd
    /// Stage 2 sample sizes, and a total round count that fits the paper's
    /// shape: at least one Stage 1 phase of Θ(log n/ε²) and a final Stage 2
    /// phase at least as long as the amplification phases.
    #[test]
    fn schedule_is_well_formed(
        n in 4usize..200_000,
        k in 2usize..10,
        eps in 0.02f64..0.95,
        constants in constants_strategy(),
    ) {
        let p = params(n, k, eps, constants);
        let schedule = p.schedule();
        prop_assert!(schedule.stage1_phases() >= 2);
        prop_assert!(schedule.stage2_phases() >= 2);
        prop_assert!(schedule.stage1_phase_lengths().iter().all(|&l| l >= 1));
        prop_assert!(schedule.stage2_sample_sizes().iter().all(|&l| l >= 3 && l % 2 == 1));
        prop_assert_eq!(
            schedule.total_rounds(),
            schedule.stage1_rounds() + schedule.stage2_rounds()
        );
        let sizes = schedule.stage2_sample_sizes();
        prop_assert!(sizes.last().unwrap() >= sizes.first().unwrap());
    }

    /// Total rounds are monotone in the difficulty of the instance: they
    /// never decrease when n grows or when ε shrinks (with everything else
    /// fixed).
    #[test]
    fn rounds_are_monotone_in_n_and_eps(
        n in 16usize..50_000,
        k in 2usize..6,
        eps in 0.05f64..0.8,
        constants in constants_strategy(),
    ) {
        let base = params(n, k, eps, constants).schedule().total_rounds();
        let bigger_n = params(2 * n, k, eps, constants).schedule().total_rounds();
        let smaller_eps = params(n, k, eps / 2.0, constants).schedule().total_rounds();
        prop_assert!(bigger_n >= base, "doubling n shrank the schedule: {base} -> {bigger_n}");
        prop_assert!(smaller_eps >= base, "halving eps shrank the schedule: {base} -> {smaller_eps}");
    }

    /// The schedule's total length stays within a constant factor of the
    /// theoretical `ln n / ε²` scale (the constant depends only on the
    /// protocol constants, not on n or ε).
    #[test]
    fn rounds_track_the_theoretical_scale(
        n in 64usize..100_000,
        eps in 0.05f64..0.6,
        constants in constants_strategy(),
    ) {
        let p = params(n, 3, eps, constants);
        let total = p.schedule().total_rounds() as f64;
        let scale = bounds::rounds_bound(n, eps);
        let normalized = total / scale;
        // Very generous envelope: the point is that the ratio cannot blow up
        // with n or eps, only with the constants (bounded by the strategy).
        let constant_budget = 4.0 * (constants.s + constants.phi + 3.0 * constants.c + 3.0 * constants.c_final) + 40.0;
        prop_assert!(
            normalized <= constant_budget,
            "normalized rounds {normalized} exceeded budget {constant_budget}"
        );
    }
}
