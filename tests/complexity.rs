//! The protocols' message complexity, pinned exactly on `sim`: a run
//! replays, so a closed form in n is checked count for count, under every
//! order-only scheduler family.

use aft::core::scenarios::{run_cell, standard_registry, StackKind};
use aft::sim::Scenario;

/// Envelopes of a unanimous, fault-free binary BA among `n` parties.
///
/// Every party decides in round 0, after one A-Cast per party and phase:
/// `3n` A-Casts of `n` `Send`s, `n²` `Echo`s and `n²` `Ready`s each, so
/// `6n³ + 3n²`, plus `n²` `Decide`s. A decided party holds round 1, so
/// no round-1 vote is ever sent.
fn unanimous_ba_envelopes(n: u64) -> u64 {
    n * n * (6 * n + 4)
}

/// `(n, envelopes)` of the same BA under `lifo`, where the newest
/// messages go first: a party can collect `n − t` `Decide`s and halt
/// before it starts its own phase-2 or phase-3 A-Cast of `2n² + n`
/// envelopes — two of the twelve at n = 4, four at n = 7 and n = 10.
/// From n = 16 the fairness cap makes the order FIFO enough that every
/// A-Cast runs.
const LIFO_ENVELOPES: &[(usize, u64)] = &[(4, 376), (7, 1_834), (10, 5_560), (16, 25_600)];

#[test]
fn a_unanimous_ba_sends_n_squared_times_6n_plus_4() {
    // n = 32 (200 704 envelopes, the repo benchmark's `ba-n32-sim`) runs
    // in a release build only.
    let sizes: &[usize] = if cfg!(debug_assertions) {
        &[4, 7, 10, 16]
    } else {
        &[4, 7, 10, 16, 32]
    };
    let registry = standard_registry();
    for &n in sizes {
        let t = (n - 1) / 3;
        let closed_form = unanimous_ba_envelopes(n as u64);
        for sched in ["fifo", "random", "lifo"] {
            let expect = match LIFO_ENVELOPES.iter().find(|&&(m, _)| m == n) {
                Some(&(_, sent)) if sched == "lifo" => sent,
                _ => closed_form,
            };
            assert!(expect <= closed_form);
            // Odd seeds propose 0, even ones 1.
            for seed in [1, 2] {
                let spec = format!("n={n},t={t},sched={sched},rt=sim");
                let scenario = Scenario::parse(&spec).expect("a valid scenario");
                let report = run_cell(StackKind::Ba, &scenario, seed, &registry);
                assert!(
                    report.violations.is_empty(),
                    "{spec} seed {seed}: {:?}",
                    report.violations
                );
                assert_eq!(report.sent, expect, "{spec} seed {seed}");
            }
        }
    }
}
