//! Cross-crate integration tests: the complete paper stack
//! (A-Cast → SVSS → BA → CommonSubset → CoinFlip → FairChoice → FBA)
//! running together over the simulator, including the fully
//! information-theoretic configuration with no oracle anywhere.
//!
//! These tests exercise simulator-*specific* power — adversarial
//! schedulers, byte-exact replay, step-indexed crashes. The
//! backend-portable half of the old suite lives in `cross_backend.rs`,
//! which runs identical deployments on every `Runtime` backend.

use aft::core::{CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, FairChoiceParams, Fba};
use aft::sim::wire::{MAX_KIND_LEN, MAX_SESSION_DEPTH};
use aft::sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason, TraceMode,
};

fn sid(kind: &'static str) -> SessionId {
    SessionId::root().child(SessionTag::new(kind, 0))
}

#[test]
fn full_it_stack_coin_flip_no_oracle() {
    // CoinFlip with WeakShared BA coins: every bit of randomness in the
    // system comes from SVSS — the paper's actual construction.
    let (n, t) = (4usize, 1usize);
    for seed in 0..2u64 {
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name("random").unwrap(),
        );
        for p in 0..n {
            net.spawn(
                PartyId(p),
                sid("coin"),
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 1 },
                    CoinKind::WeakShared,
                )),
            );
        }
        let report = net.run(500_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "seed={seed}");
        let outs: Vec<bool> = (0..n)
            .map(|p| {
                net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                    .unwrap_or_else(|| panic!("seed={seed} p={p} did not terminate"))
                    .value
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "seed={seed}: {outs:?}"
        );
    }
}

#[test]
fn fba_full_stack_with_weak_shared_coins() {
    let (n, t) = (4usize, 1usize);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 5),
        scheduler_by_name("random").unwrap(),
    );
    let inputs = ["alpha", "beta", "gamma", "delta"];
    for (p, input) in inputs.iter().enumerate().take(n) {
        net.spawn(
            PartyId(p),
            sid("fba"),
            Box::new(Fba::new(
                input.to_string(),
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::WeakShared,
            )),
        );
    }
    net.set_trace(TraceMode::Full);
    let report = net.run(2_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    // The deepest stack the repo builds fits the bounds a socket-facing
    // decoder puts on session ids twice over.
    let events = net.take_trace().expect("tracing on").snapshot();
    let sessions = events.iter().filter_map(|e| e.session());
    let depth = sessions.clone().map(|s| s.depth()).max().unwrap();
    let tags = sessions.flat_map(|s| s.tags_leaf_first());
    let kind = tags.map(|t| t.kind.len()).max().unwrap();
    assert!(
        depth >= 5 && 2 * depth <= MAX_SESSION_DEPTH,
        "depth {depth}"
    );
    assert!(2 * kind <= MAX_KIND_LEN, "longest kind {kind} bytes");
    let outs: Vec<String> = (0..n)
        .map(|p| {
            net.output_as::<String>(PartyId(p), &sid("fba"))
                .expect("terminates")
                .clone()
        })
        .collect();
    assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    assert!(inputs.contains(&outs[0].as_str()));
}

/// Bytes the same execution carried when every envelope spelled out its
/// session path in full, before links named a session by a slot of a
/// per-link table once they had carried it.
const FBA_WIRE_BYTES_FULL_PATHS: u64 = 4_737_804;

/// Bytes the same execution carried when a link's define spelled out the
/// session's full path, before a define named the deepest ancestor the
/// link's table held and carried only the tags below it.
const FBA_WIRE_BYTES_PATH_DEFINES: u64 = 2_400_052;

/// Codec drift guard: the byte, frame and malformed counts of one fixed
/// `rt=wire` execution (the repo benchmark's `fba-n4-wire` execution 1,
/// seed 1001). A change to an encoding, to the envelope around it (one
/// `[len][from][session][frame]` link frame per message, the session a
/// define chained from a held ancestor or a ref of the link's table — the
/// bytes an `aft-partyd` link carries) or to what the byte boundary
/// refuses moves them; a change to the transport behind the boundary
/// must not.
#[test]
fn fba_wire_byte_counts_are_pinned() {
    let (m, _) = run_benchmark_fba("wire:random", 4, 1);
    assert_eq!(
        (m.sent, m.wire_frames, m.wire_bytes, m.wire_malformed),
        (35_904, 35_904, 1_209_960, 0)
    );
    // 25.5 % of what the full form carried, 50.4 % of what full-path
    // defines did.
    assert_eq!(m.wire_bytes * 1000 / FBA_WIRE_BYTES_FULL_PATHS, 255);
    assert_eq!(m.wire_bytes * 1000 / FBA_WIRE_BYTES_PATH_DEFINES, 504);
}

/// Schedule drift guard: execution 1 of the repo benchmark's `fba-n7-sim`
/// (seed 1001, 457 954 deliveries). Under `random` every delivery draws
/// from the scheduler's RNG, so one handler emitting one message more,
/// fewer or earlier moves every count below — "the same messages in the
/// same order" is what a change to protocol *state* (as opposed to the
/// protocol) has to leave standing, and this is where `cargo test` says so.
#[test]
fn fba_n7_schedule_is_pinned() {
    let (m, fingerprint) = run_benchmark_fba("sim:random", 7, 2);
    assert_eq!(
        (
            m.sent,
            m.steps,
            m.sent_by_kind("wc-share"),
            m.sent_by_kind("svss-core")
        ),
        (457_954, 457_954, 197_568, 51_450)
    );
    assert_eq!(fingerprint, 0x4a1e_e46f_0e94_b57d, "{fingerprint:#018x}");
}

/// How many picks the fairness cap ([`aft::sim::MAX_AGE`]) made instead
/// of the scheduler, on the two simulator workloads whose queues run deep
/// enough for it to fire: 190 459 of `ba-n32-sim`'s 200 704 picks
/// (94.9 %), so `sched=random` at n = 32 is mostly FIFO and its queue is
/// mostly taken at the head, and 142 432 of `fba-n7-sim`'s 394 520
/// (36.1 %).
#[test]
fn fairness_cap_forced_picks_are_pinned() {
    use aft::core::scenarios::{run_episode, standard_registry, StackKind, STEP_BUDGET};
    // `ba-n32-sim`'s execution at seed 1: the benchmark's BA cell, run by
    // the cell runner's episode step on a network whose counter is read.
    let scenario = aft::sim::Scenario::parse("n=32,t=10,sched=random,rt=sim").unwrap();
    let mut net = SimNetwork::new(scenario.config(1), scheduler_by_name("random").unwrap());
    let (episode, session) = StackKind::Ba.episodes().remove(0);
    let (report, _) = run_episode(
        &mut net,
        &scenario,
        &standard_registry(),
        episode,
        &session,
        &[],
        STEP_BUDGET,
        |p, carry| StackKind::Ba.honest_instance(episode, p, &scenario, 1, carry),
    )
    .unwrap();
    assert_eq!(report.stop, StopReason::Quiescent);
    assert_eq!(
        (
            report.metrics.sent,
            report.metrics.steps,
            net.cap_forced_picks()
        ),
        (200_704, 200_704, BA_N32_CAP_FORCED)
    );
    // The run `fba_n7_schedule_is_pinned` pins.
    let mut net = SimNetwork::new(
        NetConfig::new(7, 2, 1001),
        scheduler_by_name("random").unwrap(),
    );
    let (_, fingerprint) = run_benchmark_fba_on(&mut net, 7);
    assert_eq!(fingerprint, 0x4a1e_e46f_0e94_b57d, "{fingerprint:#018x}");
    assert_eq!(net.cap_forced_picks(), FBA_N7_CAP_FORCED);
}

/// Cap-forced picks of the two runs above (an exact count: a change to it
/// is a change to what the queue is asked to do).
const BA_N32_CAP_FORCED: u64 = 190_459;
const FBA_N7_CAP_FORCED: u64 = 142_432;

/// One execution of the benchmark's FBA workloads (`aft_bench::run_fba`
/// as `benchmark/` calls it: inputs `v0 … v(n-1)`, `k = 1`, the
/// `WeakShared` coin, seed 1001) on backend `rt`: its metrics and the
/// fingerprint the benchmark's determinism guard compares.
fn run_benchmark_fba(rt: &str, n: usize, t: usize) -> (aft::sim::Metrics, u64) {
    let mut net = aft::sim::runtime_by_name(rt, NetConfig::new(n, t, 1001)).unwrap();
    run_benchmark_fba_on(net.as_mut(), n)
}

/// [`run_benchmark_fba`] on a built runtime `net` of `n` parties.
fn run_benchmark_fba_on(net: &mut dyn Runtime, n: usize) -> (aft::sim::Metrics, u64) {
    aft::core::scenarios::register_standard_codecs();
    for p in 0..n {
        net.spawn(
            PartyId(p),
            sid("exp"),
            Box::new(Fba::new(
                format!("v{p}"),
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::WeakShared,
            )),
        );
    }
    let report = net.run(4_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    let mut fp = aft::sim::Fingerprint::new();
    fp.write_str("fba");
    fp.write_metrics(&report.metrics);
    for p in 0..n {
        let out = net.output_as::<String>(PartyId(p), &sid("exp"));
        fp.write_str(&format!("{:?}", Some(out.expect("terminates"))));
    }
    (report.metrics, fp.finish())
}

#[test]
fn coin_flip_under_every_scheduler() {
    for sched in ["fifo", "random", "lifo", "window4", "window16", "starve:0"] {
        let (n, t) = (4usize, 1usize);
        let mut net = SimNetwork::new(NetConfig::new(n, t, 9), scheduler_by_name(sched).unwrap());
        for p in 0..n {
            net.spawn(
                PartyId(p),
                sid("coin"),
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 2 },
                    CoinKind::Oracle(3),
                )),
            );
        }
        let report = net.run(500_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "sched={sched}");
        let outs: Vec<bool> = (0..n)
            .map(|p| {
                net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                    .unwrap_or_else(|| panic!("sched={sched} p={p}"))
                    .value
            })
            .collect();
        assert!(
            outs.windows(2).all(|w| w[0] == w[1]),
            "sched={sched}: {outs:?}"
        );
    }
}

#[test]
fn concurrent_protocol_sessions_do_not_interfere() {
    // A coin flip and an FBA run concurrently on the same network.
    let (n, t) = (4usize, 1usize);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 10),
        scheduler_by_name("random").unwrap(),
    );
    for p in 0..n {
        net.spawn(
            PartyId(p),
            sid("coin"),
            Box::new(CoinFlip::new(
                CoinFlipParams::FixedK { k: 1 },
                CoinKind::Oracle(1),
            )),
        );
        net.spawn(
            PartyId(p),
            sid("fba"),
            Box::new(Fba::new(
                p,
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(2),
            )),
        );
    }
    let report = net.run(1_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    let coin0 = net
        .output_as::<CoinFlipOutput>(PartyId(0), &sid("coin"))
        .unwrap()
        .value;
    let fba0 = *net.output_as::<usize>(PartyId(0), &sid("fba")).unwrap();
    for p in 1..n {
        assert_eq!(
            net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                .unwrap()
                .value,
            coin0
        );
        assert_eq!(net.output_as::<usize>(PartyId(p), &sid("fba")), Some(&fba0));
    }
    assert!(fba0 < n, "FBA output is some party's input");
}

#[test]
fn whole_stack_deterministic_replay() {
    let run = |seed: u64| {
        let (n, t) = (4usize, 1usize);
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name("random").unwrap(),
        );
        net.set_trace(TraceMode::Full);
        for p in 0..n {
            net.spawn(
                PartyId(p),
                sid("coin"),
                Box::new(CoinFlip::new(
                    CoinFlipParams::FixedK { k: 1 },
                    CoinKind::Oracle(0),
                )),
            );
        }
        net.run(500_000_000);
        (
            net.take_trace().expect("tracing on").snapshot(),
            net.output_as::<CoinFlipOutput>(PartyId(0), &sid("coin"))
                .copied(),
        )
    };
    let (trace_a, out_a) = run(77);
    let (trace_b, out_b) = run(77);
    assert_eq!(out_a, out_b);
    assert_eq!(trace_a, trace_b, "byte-identical delivery schedule");
}

#[test]
fn fba_with_crash_mid_protocol() {
    let (n, t) = (7usize, 2usize);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 4),
        scheduler_by_name("random").unwrap(),
    );
    for p in 0..n {
        net.spawn(
            PartyId(p),
            sid("fba"),
            Box::new(Fba::new(
                format!("v{}", p % 3),
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(6),
            )),
        );
    }
    net.run(299);
    net.crash(PartyId(5));
    net.run(500);
    net.crash(PartyId(6));
    let report = net.run(2_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    let outs: Vec<String> = (0..5)
        .map(|p| {
            net.output_as::<String>(PartyId(p), &sid("fba"))
                .expect("terminates")
                .clone()
        })
        .collect();
    assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
}

#[test]
fn byzantine_garbage_across_the_stack() {
    // A garbage-spraying party must not derail CoinFlip.
    use aft::sim::GarbageInstance;
    let (n, t) = (4usize, 1usize);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 8),
        scheduler_by_name("random").unwrap(),
    );
    for p in 0..n {
        let inst: Box<dyn Instance> = if p == 1 {
            Box::new(GarbageInstance::new(500))
        } else {
            Box::new(CoinFlip::new(
                CoinFlipParams::FixedK { k: 2 },
                CoinKind::Oracle(5),
            ))
        };
        net.spawn(PartyId(p), sid("coin"), inst);
    }
    let report = net.run(1_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    let outs: Vec<bool> = [0usize, 2, 3]
        .iter()
        .map(|&p| {
            net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                .expect("honest parties terminate")
                .value
        })
        .collect();
    assert!(outs.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn silent_t_parties_at_larger_n() {
    let (n, t) = (7usize, 2usize);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 12),
        scheduler_by_name("random").unwrap(),
    );
    for p in 0..n {
        let inst: Box<dyn Instance> = if p < t {
            Box::new(SilentInstance)
        } else {
            Box::new(CoinFlip::new(
                CoinFlipParams::FixedK { k: 1 },
                CoinKind::Oracle(7),
            ))
        };
        net.spawn(PartyId(p), sid("coin"), inst);
    }
    let report = net.run(2_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    let outs: Vec<bool> = (t..n)
        .map(|p| {
            net.output_as::<CoinFlipOutput>(PartyId(p), &sid("coin"))
                .unwrap_or_else(|| panic!("p={p}"))
                .value
        })
        .collect();
    assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
}
