//! The cross-backend suite: identical protocol deployments driven through
//! the [`Runtime`] trait on every execution backend — the deterministic
//! simulator, the sharded deterministic simulator, and the OS-thread
//! runtime — asserting the same protocol guarantees on each. This is the
//! parameterized successor of the old simulator-only/threaded-only
//! stacks; backend-specific power (adversarial schedulers, traces,
//! replay) stays in `full_stack.rs`.

use aft::ba::{BinaryBa, OracleCoin};
use aft::broadcast::Acast;
use aft::core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, CommonSubsetInstance};
use aft::sim::{
    runtime_by_name, Instance, Metrics, MuteAfter, NetConfig, PartyId, Runtime, RuntimeExt,
    SessionId, SessionTag, SilentInstance, StopReason,
};

const BACKENDS: &[&str] = &["sim", "sharded:2", "threaded"];

fn sid(kind: &'static str) -> SessionId {
    SessionId::root().child(SessionTag::new(kind, 0))
}

/// Runs `deploy` on a fresh runtime of every backend and hands the
/// quiescent runtime to `check`.
fn on_every_backend(
    config: NetConfig,
    deploy: impl Fn(&mut dyn Runtime),
    check: impl Fn(&str, &dyn Runtime),
) {
    for backend in BACKENDS {
        let mut rt = runtime_by_name(backend, config)
            .unwrap_or_else(|| panic!("backend {backend} must exist"));
        deploy(rt.as_mut());
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "backend {backend}");
        check(backend, rt.as_ref());
    }
}

#[test]
fn acast_agreement_on_every_backend() {
    on_every_backend(
        NetConfig::new(4, 1, 11),
        |rt| {
            for p in 0..4 {
                let inst: Box<dyn Instance> = if p == 0 {
                    Box::new(Acast::sender(PartyId(0), 99u64))
                } else {
                    Box::new(Acast::<u64>::receiver(PartyId(0)))
                };
                rt.spawn(PartyId(p), sid("acast"), inst);
            }
        },
        |backend, rt| {
            for p in 0..4 {
                assert_eq!(
                    rt.output_as::<u64>(PartyId(p), &sid("acast")),
                    Some(&99),
                    "backend {backend} party {p}"
                );
            }
        },
    );
}

#[test]
fn binary_ba_agreement_on_every_backend() {
    on_every_backend(
        NetConfig::new(4, 1, 13),
        |rt| {
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(p % 2 == 0, Box::new(OracleCoin::new(5)))),
                );
            }
        },
        |backend, rt| {
            let decisions: Vec<bool> = (0..4)
                .map(|p| {
                    *rt.output_as::<bool>(PartyId(p), &sid("ba"))
                        .unwrap_or_else(|| panic!("backend {backend} p={p} must decide"))
                })
                .collect();
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "backend {backend}: {decisions:?}"
            );
        },
    );
}

#[test]
fn strong_coin_agreement_on_every_backend() {
    on_every_backend(
        NetConfig::new(4, 1, 17),
        |rt| {
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("coin"),
                    Box::new(CoinFlip::new(
                        CoinFlipParams::FixedK { k: 1 },
                        CoinKind::Oracle(21),
                    )),
                );
            }
        },
        |backend, rt| {
            let coins: Vec<bool> = (0..4)
                .map(|p| {
                    rt.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                        .unwrap_or_else(|| panic!("backend {backend} p={p} must terminate"))
                        .value
                })
                .collect();
            assert!(
                coins.windows(2).all(|w| w[0] == w[1]),
                "backend {backend}: {coins:?}"
            );
        },
    );
}

/// Cross-backend equivalence: for a fixed seed set, BA must reach the
/// *identical* decision on every backend. Unanimous honest inputs make the
/// decision a deterministic function of the inputs (the validity property
/// blocks Byzantine counter-votes), so nondeterministic threaded delivery
/// must still land on the same bit as the simulator.
#[test]
fn ba_decisions_identical_across_backends_for_seed_set() {
    for seed in [1u64, 2, 3, 5, 8, 13] {
        let input = seed % 2 == 0;
        let mut decisions = Vec::new();
        for backend in BACKENDS {
            let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, seed)).unwrap();
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(input, Box::new(OracleCoin::new(seed)))),
                );
            }
            let report = rt.run(1_000_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{backend} seed={seed}");
            let d = *rt
                .output_as::<bool>(PartyId(0), &sid("ba"))
                .unwrap_or_else(|| panic!("{backend} seed={seed} must decide"));
            assert_eq!(d, input, "{backend} seed={seed}: validity forces the input");
            decisions.push(d);
        }
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "seed={seed}: backends disagree: {decisions:?}"
        );
    }
}

/// Quiescence under a fully crashed party, on both backends: the three
/// live parties run BA to completion; deliveries to the crashed party are
/// dropped and counted, and the system still quiesces.
#[test]
fn quiescence_under_crash_on_every_backend() {
    on_every_backend(
        NetConfig::new(4, 1, 23),
        |rt| {
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(2)))),
                );
            }
            rt.crash(PartyId(3));
        },
        |backend, rt| {
            let metrics = rt.metrics();
            assert!(
                rt.output(PartyId(3), &sid("ba")).is_none(),
                "backend {backend}"
            );
            assert!(
                metrics.dropped_crashed > 0,
                "backend {backend}: deliveries to the crashed party must be counted"
            );
            let decisions: Vec<bool> = (0..3)
                .map(|p| {
                    *rt.output_as::<bool>(PartyId(p), &sid("ba"))
                        .unwrap_or_else(|| panic!("backend {backend} p={p} decides despite crash"))
                })
                .collect();
            assert!(decisions.iter().all(|&d| d), "validity with unanimous true");
        },
    );
}

/// Quiescence under mute and mid-protocol-muted behaviors, on both
/// backends: one party silent from the start, one going mute after a few
/// events — honest parties still decide and the system quiesces.
#[test]
fn quiescence_under_mute_behaviors_on_every_backend() {
    on_every_backend(
        NetConfig::new(7, 2, 29),
        |rt| {
            for p in 0..7 {
                let inst: Box<dyn Instance> = match p {
                    5 => Box::new(SilentInstance),
                    6 => Box::new(MuteAfter::new(
                        Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(3)))),
                        10,
                    )),
                    _ => Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(3)))),
                };
                rt.spawn(PartyId(p), sid("ba"), inst);
            }
        },
        |backend, rt| {
            let decisions: Vec<bool> = (0..5)
                .map(|p| {
                    *rt.output_as::<bool>(PartyId(p), &sid("ba"))
                        .unwrap_or_else(|| panic!("backend {backend} p={p} decides despite mutes"))
                })
                .collect();
            assert!(
                decisions.iter().all(|&d| d),
                "backend {backend}: {decisions:?}"
            );
        },
    );
}

/// Sorted `(kind, sent count)` fingerprint of a metrics snapshot.
fn kind_fingerprint(metrics: &Metrics) -> Vec<(&'static str, u64)> {
    let mut kinds: Vec<(&'static str, u64)> = metrics.kinds().collect();
    kinds.sort();
    kinds
}

/// The tentpole equivalence guarantee on the BA stack: for a fixed seed
/// set, every shard count of the sharded simulator produces outputs,
/// per-kind message counts, and delivery counts *identical* to the
/// single-threaded simulator. (The sharded schedule is a pure function of
/// `(seed, scheduler)`, independent of `k`, and unanimous-input BA pins
/// the outcome, so the backends must agree bit-for-bit.)
#[test]
fn ba_stack_identical_on_sim_and_every_shard_count() {
    for seed in [1u64, 2, 3, 5, 8, 13] {
        let run = |backend: &str| {
            let mut rt = runtime_by_name(backend, NetConfig::new(7, 2, seed)).unwrap();
            for p in 0..7 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(
                        seed % 2 == 0,
                        Box::new(OracleCoin::new(seed)),
                    )),
                );
            }
            let report = rt.run(1_000_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{backend} seed={seed}");
            let outputs: Vec<Option<bool>> = (0..7)
                .map(|p| rt.output_as::<bool>(PartyId(p), &sid("ba")).copied())
                .collect();
            let metrics = rt.metrics();
            (
                outputs,
                kind_fingerprint(&metrics),
                metrics.sent,
                metrics.delivered,
            )
        };
        let reference = run("sim");
        assert!(reference.0.iter().all(|o| o.is_some()), "seed={seed}");
        for backend in ["sharded:1", "sharded:2", "sharded:4"] {
            assert_eq!(run(backend), reference, "{backend} seed={seed}");
        }
    }
}

/// The same equivalence on the common-subset stack: outputs agree with
/// the simulator on every seed, and on a pinned seed set the per-kind
/// message counts and delivery counts are identical too. (Common subset's
/// internal BA traffic is genuinely schedule-sensitive, so count equality
/// between *different* schedules only holds where the simulator's own
/// schedule takes the full deterministic round — the pinned seeds.)
#[test]
fn common_subset_stack_identical_on_sim_and_sharded() {
    let run = |backend: &str, seed: u64| {
        let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, seed)).unwrap();
        for p in 0..4 {
            rt.spawn(
                PartyId(p),
                sid("cs"),
                Box::new(CommonSubsetInstance::new(3, CoinKind::Oracle(seed), true)),
            );
        }
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "{backend} seed={seed}");
        let outputs: Vec<Option<Vec<PartyId>>> = (0..4)
            .map(|p| {
                rt.output_as::<Vec<PartyId>>(PartyId(p), &sid("cs"))
                    .cloned()
            })
            .collect();
        let metrics = rt.metrics();
        (
            outputs,
            kind_fingerprint(&metrics),
            metrics.sent,
            metrics.delivered,
        )
    };
    // Outputs agree everywhere.
    for seed in 0u64..12 {
        let reference = run("sim", seed);
        assert!(reference.0.iter().all(|o| o.is_some()), "seed={seed}");
        for backend in ["sharded:1", "sharded:4"] {
            assert_eq!(run(backend, seed).0, reference.0, "{backend} seed={seed}");
        }
    }
    // Full bit-for-bit equality (outputs, per-kind counts, deliveries) on
    // the pinned seed set (re-pinned after envelope batching reshaped the
    // schedules).
    for seed in [1u64, 2, 3, 11, 16, 19, 22, 25, 30, 34, 44] {
        let reference = run("sim", seed);
        for backend in ["sharded:1", "sharded:2", "sharded:4"] {
            assert_eq!(run(backend, seed), reference, "{backend} seed={seed}");
        }
    }
}

/// The same equivalence under the locality-preserving `block:<b>`
/// scheduler, on BOTH stacks: with every party block-scheduled, `sim` and
/// every `sharded:<k>` agree bit-for-bit — outputs, per-kind counts,
/// sends and deliveries — on *every* seed tried, not just a pinned
/// subset. (Block scheduling is FIFO at block granularity, so the
/// deterministic round structure that makes counts schedule-sensitive
/// collapses to the same totals on both backends, while within-block
/// order stays random. The equivalence relies on `sim`'s fairness cap
/// staying idle, which near-FIFO block scheduling ensures at these
/// scales — see the `BlockScheduler` docs for the deep-run caveat.)
/// This is also the regression net for batched delivery: all of this
/// traffic flows through merged same-`(src, dst)` batch records.
#[test]
fn block_scheduler_stacks_identical_on_sim_and_every_shard_count() {
    // BA stack at n = 7.
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21] {
        let run = |backend: &str| {
            let mut rt = runtime_by_name(backend, NetConfig::new(7, 2, seed)).unwrap();
            for p in 0..7 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(
                        seed % 2 == 0,
                        Box::new(OracleCoin::new(seed)),
                    )),
                );
            }
            let report = rt.run(1_000_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{backend} seed={seed}");
            let outputs: Vec<Option<bool>> = (0..7)
                .map(|p| rt.output_as::<bool>(PartyId(p), &sid("ba")).copied())
                .collect();
            let metrics = rt.metrics();
            (
                outputs,
                kind_fingerprint(&metrics),
                metrics.sent,
                metrics.delivered,
            )
        };
        let reference = run("sim:block:8");
        assert!(reference.0.iter().all(|o| o.is_some()), "seed={seed}");
        for backend in [
            "sharded:1:block:8",
            "sharded:2:block:8",
            "sharded:4:block:8",
        ] {
            assert_eq!(run(backend), reference, "{backend} seed={seed}");
        }
    }
    // Common-subset stack at n = 4.
    for seed in [0u64, 3, 9, 14, 23] {
        let run = |backend: &str| {
            let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, seed)).unwrap();
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("cs"),
                    Box::new(CommonSubsetInstance::new(3, CoinKind::Oracle(seed), true)),
                );
            }
            let report = rt.run(1_000_000_000);
            assert_eq!(report.stop, StopReason::Quiescent, "{backend} seed={seed}");
            let outputs: Vec<Option<Vec<PartyId>>> = (0..4)
                .map(|p| {
                    rt.output_as::<Vec<PartyId>>(PartyId(p), &sid("cs"))
                        .cloned()
                })
                .collect();
            let metrics = rt.metrics();
            (
                outputs,
                kind_fingerprint(&metrics),
                metrics.sent,
                metrics.delivered,
            )
        };
        let reference = run("sim:block:8");
        assert!(reference.0.iter().all(|o| o.is_some()), "seed={seed}");
        for backend in [
            "sharded:1:block:8",
            "sharded:2:block:8",
            "sharded:4:block:8",
        ] {
            assert_eq!(run(backend), reference, "{backend} seed={seed}");
        }
    }
}

/// SVSS share→reconstruct chains — two dependent episodes on persistent
/// node state — now run on EVERY backend: the threaded runtime keeps its
/// nodes across `run` calls (matching sim and sharded), so the bundle
/// shared in episode 1 reconstructs in episode 2.
#[test]
fn svss_share_then_reconstruct_chain_on_every_backend() {
    use aft::field::Fp;
    use aft::svss::{ShareBundle, SvssRec, SvssShare};
    for backend in BACKENDS {
        let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, 77)).unwrap();
        let secret = Fp::new(42);
        for p in 0..4 {
            let inst: Box<dyn Instance> = if p == 0 {
                Box::new(SvssShare::dealer(PartyId(0), secret))
            } else {
                Box::new(SvssShare::party(PartyId(0)))
            };
            rt.spawn(PartyId(p), sid("share"), inst);
        }
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "{backend} share phase");
        let bundles: Vec<Option<ShareBundle>> = (0..4)
            .map(|p| {
                rt.output_as::<ShareBundle>(PartyId(p), &sid("share"))
                    .cloned()
            })
            .collect();
        assert!(
            bundles.iter().all(|b| b.is_some()),
            "{backend}: every party must hold a share bundle"
        );
        for (p, bundle) in bundles.into_iter().enumerate() {
            rt.spawn(
                PartyId(p),
                sid("rec"),
                Box::new(SvssRec::new(bundle.unwrap())),
            );
        }
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "{backend} rec phase");
        for p in 0..4 {
            assert_eq!(
                rt.output_as::<Fp>(PartyId(p), &sid("rec")),
                Some(&secret),
                "{backend} party {p} reconstructs the dealt secret"
            );
        }
    }
}

/// One spawn rule: a spawn starts with the next `run` on every backend,
/// so a party crashed after spawning but before the first `run` never
/// starts and never sends.
#[test]
fn crash_before_first_run_keeps_the_party_from_starting_on_every_backend() {
    /// Greets everyone; outputs after hearing from all n parties.
    struct Hello {
        heard: usize,
    }
    impl Instance for Hello {
        fn on_start(&mut self, ctx: &mut aft::sim::Context<'_>) {
            ctx.send_all(1u8);
        }
        fn on_message(
            &mut self,
            _f: PartyId,
            _p: &aft::sim::Payload,
            ctx: &mut aft::sim::Context<'_>,
        ) {
            self.heard += 1;
            if self.heard == ctx.n() {
                ctx.output(self.heard);
            }
        }
    }
    on_every_backend(
        NetConfig::new(4, 1, 37),
        |rt| {
            for p in 0..4 {
                rt.spawn(PartyId(p), sid("hello"), Box::new(Hello { heard: 0 }));
            }
            rt.crash(PartyId(3));
        },
        |backend, rt| {
            let m = rt.metrics();
            assert_eq!(m.sent, 12, "backend {backend}: three live broadcasters");
            assert_eq!(
                m.dropped_crashed, 3,
                "backend {backend}: deliveries to the crashed party"
            );
            assert!(
                rt.output(PartyId(3), &sid("hello")).is_none(),
                "backend {backend}"
            );
        },
    );
}

/// The block-scheduler equivalence extended to *adversarial* runs: a
/// declarative scenario corrupting up to `t` parties (garbage sprayer,
/// mid-protocol mute, equivocator, whole-party crash) deployed through
/// `Scenario::deploy_episode` must leave `sim` and every `sharded:<k>`
/// bit-identical — outputs, per-kind counts, sends and deliveries — on
/// every seed tried, exactly like the honest runs above. Byzantine
/// instances draw from the same per-party RNGs, so they are as
/// deterministic as honest code under an identical schedule.
#[test]
fn adversarial_scenarios_identical_on_sim_and_every_shard_count() {
    use aft::sim::{AttackRegistry, Scenario};
    let registry = AttackRegistry::new(); // generic behaviours need no registration
    for plan in [
        "garbage:40@6",
        "silent@5;mute-after:6@6",
        "equivocate:12@6",
        "crash@5;garbage:24@6",
    ] {
        for seed in [1u64, 2, 3, 5, 8] {
            let run = |backend: &str| {
                let spec = format!("n=7,t=2,corrupt={plan},sched=block:8,rt={backend}");
                let scenario = Scenario::parse(&spec).unwrap();
                let mut rt = scenario.runtime(seed);
                scenario
                    .deploy_episode(rt.as_mut(), &registry, "ba", &sid("ba"), &[], |_, _| {
                        Box::new(BinaryBa::new(
                            seed % 2 == 0,
                            Box::new(OracleCoin::new(seed)),
                        ))
                    })
                    .unwrap();
                let report = rt.run(1_000_000_000);
                assert_eq!(report.stop, StopReason::Quiescent, "{spec} seed={seed}");
                let outputs: Vec<Option<bool>> = (0..7)
                    .map(|p| rt.output_as::<bool>(PartyId(p), &sid("ba")).copied())
                    .collect();
                let metrics = rt.metrics();
                (
                    outputs,
                    kind_fingerprint(&metrics),
                    metrics.sent,
                    metrics.delivered,
                )
            };
            let reference = run("sim");
            for backend in ["sharded:1", "sharded:2", "sharded:4"] {
                assert_eq!(run(backend), reference, "{plan} rt={backend} seed={seed}");
            }
        }
    }
}

/// Message conservation holds on every backend:
/// `sent = delivered + dropped_shunned + dropped_crashed` at quiescence.
#[test]
fn metrics_conservation_on_every_backend() {
    on_every_backend(
        NetConfig::new(4, 1, 31),
        |rt| {
            for p in 0..4 {
                rt.spawn(
                    PartyId(p),
                    sid("ba"),
                    Box::new(BinaryBa::new(p == 0, Box::new(OracleCoin::new(7)))),
                );
            }
            rt.crash(PartyId(2));
        },
        |backend, rt| {
            let m = rt.metrics();
            assert_eq!(
                m.sent,
                m.delivered + m.dropped_shunned + m.dropped_crashed,
                "backend {backend}: conservation at quiescence"
            );
            assert!(
                m.sent_by_kind("bav1") > 0,
                "backend {backend}: per-kind counts"
            );
        },
    );
}
