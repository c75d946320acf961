//! Property tests for the paper's Algorithms 1–4: CommonSubset,
//! CoinFlip, FairChoice, FBA.

use aft_core::{
    CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, CommonSubsetInstance, FairChoice,
    FairChoiceParams, Fba,
};
use aft_sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason,
};

fn sid(kind: &'static str) -> SessionId {
    SessionId::root().child(SessionTag::new(kind, 0))
}

fn run(
    n: usize,
    t: usize,
    seed: u64,
    sched: &str,
    kind: &'static str,
    mk: impl Fn(usize) -> Box<dyn Instance>,
) -> SimNetwork {
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, seed),
        scheduler_by_name(sched).unwrap(),
    );
    for p in 0..n {
        net.spawn(PartyId(p), sid(kind), mk(p));
    }
    let report = net.run(200_000_000);
    assert_eq!(
        report.stop,
        StopReason::Quiescent,
        "{kind} must reach quiescence"
    );
    net
}

// ---------------------------------------------------------------- subset

#[test]
fn common_subset_agreement_and_size() {
    for (n, t) in [(4usize, 1usize), (7, 2)] {
        for seed in 0..5u64 {
            let net = run(n, t, seed, "random", "cs", |_| {
                Box::new(CommonSubsetInstance::new(
                    n - t,
                    CoinKind::Oracle(seed),
                    true,
                ))
            });
            let sets: Vec<Vec<PartyId>> = (0..n)
                .map(|p| {
                    net.output_as::<Vec<PartyId>>(PartyId(p), &sid("cs"))
                        .unwrap_or_else(|| panic!("n={n} seed={seed} p={p} no output"))
                        .clone()
                })
                .collect();
            for s in &sets[1..] {
                assert_eq!(s, &sets[0], "n={n} seed={seed}: disagreement");
            }
            assert!(sets[0].len() >= n - t, "n={n} seed={seed}: |S| too small");
        }
    }
}

#[test]
fn common_subset_excludes_only_possible_with_silent_parties() {
    // With one silent party, the subset still reaches n - t members and
    // every member really announced (its predicate was set at an honest
    // party). The silent party may or may not be excluded depending on
    // timing, but an honest never-announcing party can never be included:
    // here P3 never announces (but does participate in the BAs).
    let (n, t) = (4usize, 1usize);
    for seed in 0..5u64 {
        let net = run(n, t, seed, "random", "cs", |p| {
            Box::new(CommonSubsetInstance::new(
                n - t,
                CoinKind::Oracle(seed),
                p != 3, // P3 participates but never announces itself
            ))
        });
        let s = net
            .output_as::<Vec<PartyId>>(PartyId(0), &sid("cs"))
            .expect("terminates")
            .clone();
        assert!(s.len() >= n - t);
        assert!(
            !s.contains(&PartyId(3)),
            "seed={seed}: P3 never announced yet is in S={s:?}"
        );
    }
}

#[test]
fn common_subset_tolerates_silent_party() {
    let (n, t) = (4usize, 1usize);
    for seed in 0..5u64 {
        let net = run(n, t, seed, "random", "cs", |p| {
            if p == 2 {
                Box::new(SilentInstance)
            } else {
                Box::new(CommonSubsetInstance::new(
                    n - t,
                    CoinKind::Oracle(seed),
                    true,
                ))
            }
        });
        let sets: Vec<Vec<PartyId>> = [0usize, 1, 3]
            .iter()
            .map(|&p| {
                net.output_as::<Vec<PartyId>>(PartyId(p), &sid("cs"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p} no output"))
                    .clone()
            })
            .collect();
        for s in &sets[1..] {
            assert_eq!(s, &sets[0]);
        }
        assert!(sets[0].len() >= n - t);
        assert!(!sets[0].contains(&PartyId(2)), "silent P2 cannot be in S");
    }
}

// ---------------------------------------------------------------- coin

fn flip_coins(
    n: usize,
    t: usize,
    seed: u64,
    k: usize,
    coin: CoinKind,
    sched: &str,
) -> Vec<CoinFlipOutput> {
    let net = run(n, t, seed, sched, "coin", |_| {
        Box::new(CoinFlip::new(CoinFlipParams::FixedK { k }, coin))
    });
    (0..n)
        .map(|p| {
            *net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                .unwrap_or_else(|| panic!("seed={seed} p={p}: coin did not terminate"))
        })
        .collect()
}

#[test]
fn coin_flip_strong_agreement() {
    for seed in 0..6u64 {
        let outs = flip_coins(4, 1, seed, 2, CoinKind::Oracle(seed), "random");
        assert!(
            outs.windows(2).all(|w| w[0].value == w[1].value),
            "seed={seed}: {outs:?}"
        );
        assert_eq!(outs[0].iterations, 2);
    }
}

#[test]
fn coin_flip_with_weak_shared_inner_coins() {
    // Full information-theoretic stack (no oracle anywhere).
    let outs = flip_coins(4, 1, 3, 1, CoinKind::WeakShared, "random");
    assert!(
        outs.windows(2).all(|w| w[0].value == w[1].value),
        "{outs:?}"
    );
}

#[test]
fn coin_flip_with_silent_party() {
    for seed in 0..3u64 {
        let net = run(4, 1, seed, "random", "coin", |p| {
            if p == 1 {
                Box::new(SilentInstance)
            } else {
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 2 },
                    CoinKind::Oracle(seed),
                ))
            }
        });
        let outs: Vec<CoinFlipOutput> = [0usize, 2, 3]
            .iter()
            .map(|&p| {
                *net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p}"))
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0].value == w[1].value),
            "seed={seed}"
        );
    }
}

#[test]
fn coin_flip_not_constant_across_seeds() {
    // The coin must actually vary with the randomness (bias sanity).
    let mut values = std::collections::HashSet::new();
    for seed in 0..8u64 {
        let outs = flip_coins(4, 1, seed, 1, CoinKind::Oracle(seed * 17 + 3), "fifo");
        values.insert(outs[0].value);
    }
    assert_eq!(values.len(), 2, "coin stuck on one value across 8 seeds");
}

#[test]
fn paper_exact_iteration_formula() {
    // k = 4 * ceil((e / (eps*pi))^2 * n^4)
    let k = CoinFlipParams::PaperExact { epsilon: 0.25 }.iterations(4);
    let c = std::f64::consts::E / (0.25 * std::f64::consts::PI);
    let expect = 4 * ((c * c * 256.0).ceil() as usize);
    assert_eq!(k, expect);
    assert!(k > 1000, "paper-exact k is deliberately enormous: {k}");
    assert_eq!(CoinFlipParams::FixedK { k: 7 }.iterations(10), 7);
}

#[test]
#[should_panic(expected = "epsilon must be in (0, 1/2)")]
fn paper_exact_rejects_bad_epsilon() {
    let _ = CoinFlipParams::PaperExact { epsilon: 0.7 }.iterations(4);
}

// ---------------------------------------------------------------- choice

#[test]
fn fair_choice_agreement_and_range() {
    for seed in 0..3u64 {
        let m = 3usize;
        let net = run(4, 1, seed, "random", "fc", |_| {
            Box::new(FairChoice::new(
                m,
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(seed),
            ))
        });
        let outs: Vec<usize> = (0..4)
            .map(|p| {
                *net.output_as::<usize>(PartyId(p), &sid("fc"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p}"))
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "seed={seed}: {outs:?}"
        );
        assert!(outs[0] < m);
    }
}

// ---------------------------------------------------------------- fba

fn run_fba(
    n: usize,
    t: usize,
    seed: u64,
    sched: &str,
    inputs: &[&str],
    byz: &[usize],
) -> SimNetwork {
    let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
    let byz = byz.to_vec();
    run(n, t, seed, sched, "fba", move |p| {
        if byz.contains(&p) {
            Box::new(SilentInstance)
        } else {
            Box::new(Fba::new(
                inputs[p].clone(),
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(seed),
            ))
        }
    })
}

#[test]
fn fba_validity_unanimous() {
    for seed in 0..3u64 {
        let net = run_fba(4, 1, seed, "random", &["v", "v", "v", "v"], &[]);
        for p in 0..4 {
            assert_eq!(
                net.output_as::<String>(PartyId(p), &sid("fba"))
                    .map(String::as_str),
                Some("v"),
                "seed={seed} p={p}"
            );
        }
    }
}

#[test]
fn fba_majority_value_wins() {
    // Three of four honest share "a": the subset of size >= 3 must contain
    // at least two "a" holders... majority is over the subset, so with all
    // four honest and 3x"a", any S of size 3 has >= 2 "a" = strict majority.
    for seed in 0..3u64 {
        let net = run_fba(4, 1, seed, "random", &["a", "a", "a", "b"], &[]);
        for p in 0..4 {
            assert_eq!(
                net.output_as::<String>(PartyId(p), &sid("fba"))
                    .map(String::as_str),
                Some("a"),
                "seed={seed} p={p}"
            );
        }
    }
}

#[test]
fn fba_agreement_all_distinct_inputs() {
    for seed in 0..4u64 {
        let net = run_fba(4, 1, seed, "random", &["w", "x", "y", "z"], &[]);
        let outs: Vec<String> = (0..4)
            .map(|p| {
                net.output_as::<String>(PartyId(p), &sid("fba"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p}"))
                    .clone()
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "seed={seed}: {outs:?}"
        );
        // Output is some party's input.
        assert!(
            ["w", "x", "y", "z"].contains(&outs[0].as_str()),
            "seed={seed}"
        );
    }
}

#[test]
fn fba_with_silent_byzantine() {
    for seed in 0..3u64 {
        let net = run_fba(4, 1, seed, "random", &["p", "q", "r", "ignored"], &[3]);
        let outs: Vec<String> = (0..3)
            .map(|p| {
                net.output_as::<String>(PartyId(p), &sid("fba"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p}"))
                    .clone()
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "seed={seed}: {outs:?}"
        );
        assert!(["p", "q", "r"].contains(&outs[0].as_str()));
    }
}

#[test]
fn fba_deterministic_replay() {
    let go = |seed: u64| {
        let net = run_fba(4, 1, seed, "random", &["w", "x", "y", "z"], &[]);
        net.output_as::<String>(PartyId(0), &sid("fba")).cloned()
    };
    assert_eq!(go(5), go(5));
}

/// The identical CoinFlip deployment driven through the `Runtime` trait on
/// every backend: strong-coin agreement holds over real threads too.
#[test]
fn coin_flip_through_runtime_trait_on_every_backend() {
    use aft_sim::{runtime_by_name, Runtime, RuntimeExt};
    for backend in ["sim", "threaded"] {
        let mut rt: Box<dyn Runtime> = runtime_by_name(backend, NetConfig::new(4, 1, 37)).unwrap();
        for p in 0..4 {
            rt.spawn(
                PartyId(p),
                sid("coin"),
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 1 },
                    CoinKind::Oracle(4),
                )),
            );
        }
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "{backend}");
        let outs: Vec<bool> = (0..4)
            .map(|p| {
                rt.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                    .expect("terminates")
                    .value
            })
            .collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{backend}: {outs:?}");
    }
}
