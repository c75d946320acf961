//! The adversarial scenario conformance suite — the repo's systematic
//! "no scenario violates safety" net, and the scaffold every future
//! backend must pass to land behind the `Runtime` seam.
//!
//! A fixed [`ScenarioMatrix`] sweeps the reference stacks (BA, SVSS
//! share→rec, common subset) across backends × schedulers × fault plans
//! × seeds:
//!
//! * **backends** — `sim`, `sharded:1`, `sharded:4`, `wire`, `async`
//!   (the deterministic set — `wire` round-trips every envelope through
//!   the byte codec, `async` dispatches every delivery into per-party
//!   event-loop tasks; the threaded backend is exercised separately
//!   below, since its schedules are not reproducible);
//! * **schedulers** — every family in [`ALL_SCHEDULERS`], so a newly
//!   registered scheduler automatically joins the matrix;
//! * **fault plans** — each stack's [`StackKind::standard_plans`]:
//!   generic behaviours (silent, crash, mute-after, garbage, equivocate)
//!   plus the protocol crates' registered attacks;
//! * **seeds** — a small pinned set.
//!
//! Every cell checks the machine-stated invariants of
//! [`aft::core::scenarios`] (agreement/validity for BA, binding + secrecy
//! proxy for SVSS, output-set consistency for common subset, quiescence
//! and message conservation everywhere) — the suite fails on the first
//! violated cell. On top, the whole matrix must be *reproducible from
//! `(seed, scenario string)` alone*: a second sweep has to reproduce
//! every cell bit-for-bit; on locality-scheduled cells the in-memory
//! deterministic backends must agree bit-for-bit with each other; and
//! `wire` must agree bit-for-bit with `sim` on every plan whose
//! Byzantine payloads are well-formed, while the byte-junk plans
//! (`garbage`/`equivocate`) must be *rejected* by every honest decoder
//! with zero panics and zero safety violations.

use aft::core::scenarios::{
    run_cell_instrumented, standard_registry, CellOutcome, CellReport, StackKind, STEP_BUDGET,
};
use aft::sim::{AttackRegistry, MatrixCell, Scenario, ScenarioMatrix, TraceMode, ALL_SCHEDULERS};

const BACKENDS: &[&str] = &["sim", "sharded:1", "sharded:4", "wire", "async"];
const SEEDS: &[u64] = &[5, 6];
const THREADS: usize = 8;

/// Asserts that no party that stayed honest in `outcome`'s cell output
/// twice on one session: "first output wins" keeps no value to compare a
/// second one with, so any second output of an honest instance is a bug.
fn assert_honest_parties_output_once(scenario: &Scenario, seed: u64, outcome: &CellOutcome) {
    for p in scenario
        .honest_parties()
        .filter(|p| !outcome.victims.contains(p))
    {
        assert_eq!(
            outcome.repeated_outputs[p.0], 0,
            "{scenario} seed={seed}: honest party {} output twice on a session",
            p.0
        );
    }
}

/// [`aft::core::scenarios::run_cell`], with every honest party checked
/// to output at most once per session.
fn run_cell(
    kind: StackKind,
    scenario: &Scenario,
    seed: u64,
    registry: &AttackRegistry,
) -> CellReport {
    let outcome =
        run_cell_instrumented(kind, scenario, seed, registry, STEP_BUDGET, TraceMode::Off);
    assert_honest_parties_output_once(scenario, seed, &outcome);
    outcome.report
}

fn scheduler_axis() -> Vec<String> {
    ALL_SCHEDULERS
        .iter()
        .map(|f| f.example.to_string())
        .collect()
}

fn fixed_matrix(kind: StackKind) -> ScenarioMatrix {
    ScenarioMatrix {
        n: 4,
        t: 1,
        backends: BACKENDS.iter().map(|b| b.to_string()).collect(),
        schedulers: scheduler_axis(),
        plans: kind
            .standard_plans()
            .iter()
            .map(|p| p.to_string())
            .collect(),
        seeds: SEEDS.to_vec(),
    }
}

fn sweep(kind: StackKind) -> Vec<MatrixCell<CellReport>> {
    let registry = standard_registry();
    fixed_matrix(kind).run(THREADS, |scenario, seed| {
        run_cell(kind, scenario, seed, &registry)
    })
}

fn assert_no_violations(kind: StackKind, cells: &[MatrixCell<CellReport>]) {
    let violating: Vec<String> = cells
        .iter()
        .filter(|c| !c.outcome.violations.is_empty())
        .map(|c| format!("{} seed={} -> {:?}", c.spec, c.seed, c.outcome.violations))
        .collect();
    assert!(
        violating.is_empty(),
        "{} stack: {} unsafe cells:\n{}",
        kind.label(),
        violating.len(),
        violating.join("\n")
    );
}

/// The matrix floor promised by the issue: ≥ 3 deterministic in-memory
/// backends plus the wire-serialized backend, ≥ 4 schedulers, ≥ 6 fault
/// plans on both headline stacks — and the wire rows run under every
/// scheduler family with the silent/crash/garbage/equivocate plans
/// included (they are in every stack's standard plan set).
#[test]
fn fixed_matrix_meets_the_floor() {
    assert!(BACKENDS.len() >= 4);
    assert!(BACKENDS.contains(&"wire"), "wire cells are part of the net");
    assert!(scheduler_axis().len() >= 4);
    for kind in [StackKind::Ba, StackKind::SvssChain] {
        assert!(kind.standard_plans().len() >= 6, "{}", kind.label());
        for fault in ["silent", "crash", "garbage", "equivocate"] {
            assert!(
                kind.standard_plans().iter().any(|p| p.contains(fault)),
                "{}: plan set must cover {fault}",
                kind.label()
            );
        }
    }
}

/// BA stack: zero safety violations across the whole fixed matrix, and a
/// re-sweep (re-parsing every scenario string) reproduces every cell
/// bit-for-bit.
#[test]
fn ba_matrix_is_safe_and_reproducible() {
    let first = sweep(StackKind::Ba);
    assert_no_violations(StackKind::Ba, &first);
    let again = sweep(StackKind::Ba);
    assert_eq!(first, again, "BA matrix must reproduce bit-for-bit");
}

/// SVSS share→rec stack: zero safety violations across the whole fixed
/// matrix, reproducible bit-for-bit.
#[test]
fn svss_matrix_is_safe_and_reproducible() {
    let first = sweep(StackKind::SvssChain);
    assert_no_violations(StackKind::SvssChain, &first);
    let again = sweep(StackKind::SvssChain);
    assert_eq!(first, again, "SVSS matrix must reproduce bit-for-bit");
}

/// Common-subset stack: output-set consistency across a reduced matrix
/// (the CS stack runs n embedded BAs per cell, so the axes are trimmed to
/// keep the suite fast).
#[test]
fn common_subset_matrix_is_safe_and_reproducible() {
    let registry = standard_registry();
    let matrix = ScenarioMatrix {
        n: 4,
        t: 1,
        backends: BACKENDS.iter().map(|b| b.to_string()).collect(),
        schedulers: vec![
            "random".into(),
            "lifo".into(),
            "starve:1".into(),
            "block:8".into(),
        ],
        plans: StackKind::CommonSubset
            .standard_plans()
            .iter()
            .map(|p| p.to_string())
            .collect(),
        seeds: vec![9],
    };
    let run = || {
        matrix.run(THREADS, |scenario, seed| {
            run_cell(StackKind::CommonSubset, scenario, seed, &registry)
        })
    };
    let first = run();
    assert_no_violations(StackKind::CommonSubset, &first);
    assert_eq!(first, run(), "CS matrix must reproduce bit-for-bit");
}

/// The delivery pipeline's buffer pools are *live* on every deterministic
/// backend — the reuse/alloc counters tick during an ordinary BA run — so
/// every bit-identity assertion in this suite already exercises pooled
/// delivery. The counters themselves are diagnostic only and excluded
/// from cell fingerprints by construction, which is what keeps pooled
/// runs bit-identical to the pre-pool seed behavior.
///
/// The run splits its inputs. The pool holds the parcels of multi-parcel
/// batches, and on `sim` one act's sends, grouped by receiver, make such a
/// batch only where the act sends one receiver two messages or more. In a
/// unanimous run every party decides in round 0 and holds round 1, so
/// every act sends each receiver at most one message, and on `sim` the
/// counters stay at 0.
/// A split run does not decide in one unanimous round, and on `sim` some
/// of its acts send one receiver a phase-1 message of round 1 beside
/// another message, so the counters tick there too.
#[test]
fn pooling_is_active_but_invisible_to_conformance() {
    use aft::ba::{BinaryBa, OracleCoin};
    use aft::sim::{runtime_by_name, NetConfig, PartyId, SessionId, SessionTag};
    for backend in ["sim", "sharded:4", "wire", "async"] {
        let mut rt = runtime_by_name(backend, NetConfig::new(4, 1, 7)).unwrap();
        let sid = SessionId::root().child(SessionTag::new("pool-proof", 0));
        for p in 0..4 {
            rt.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(BinaryBa::new(p % 2 == 0, Box::new(OracleCoin::new(7)))),
            );
        }
        rt.run(u64::MAX);
        let m = rt.metrics();
        assert!(
            m.pool_reused + m.pool_alloc > 0,
            "{backend}: buffer pooling must be active on the delivery path"
        );
    }
}

/// Runs `kind` under one scenario string (with the backend substituted)
/// and returns the cell report.
fn run_on(kind: StackKind, spec: &str, backend: &str, seed: u64) -> CellReport {
    let registry = standard_registry();
    let scenario = Scenario::parse(&format!("{spec},rt={backend}"))
        .unwrap_or_else(|| panic!("bad spec {spec:?} rt={backend}"));
    run_cell(kind, &scenario, seed, &registry)
}

/// Cross-backend differential: under the locality-preserving `block:8`
/// scheduler the deterministic backends resolve the *identical* schedule
/// (PR 3's equivalence), so for every fault plan in the conformance set,
/// `sim`, `sharded:1` and `sharded:4` must produce bit-identical cell
/// reports — outputs, per-kind metrics, sends, deliveries and steps —
/// now extended from honest runs to every adversarial plan.
///
/// The BA stack is bit-identical on every seed tried. The SVSS chain is
/// pinned to a seed set on which full equality holds (seeds 3 and 8 of
/// the probe sweep): SVSS core formation is genuinely
/// schedule-sensitive, and on some seeds `sim` and `sharded` settle on
/// different (equally valid) cores — outputs still bind to the same
/// secret, but per-party bundle fingerprints differ. Same precedent as
/// the pinned common-subset counts in `cross_backend.rs`.
#[test]
fn adversarial_cells_bit_identical_across_backends_under_block_scheduler() {
    for (kind, seeds, plans) in [
        (
            StackKind::Ba,
            &[1u64, 2, 3][..],
            StackKind::Ba.standard_plans(),
        ),
        (
            StackKind::SvssChain,
            &[3u64, 8][..],
            StackKind::SvssChain.standard_plans(),
        ),
    ] {
        for plan in plans {
            let corrupt = if plan.is_empty() {
                String::new()
            } else {
                format!(",corrupt={plan}")
            };
            let spec = format!("n=4,t=1{corrupt},sched=block:8");
            for &seed in seeds {
                let reference = run_on(kind, &spec, "sim", seed);
                assert!(
                    reference.violations.is_empty(),
                    "{spec} seed={seed}: {:?}",
                    reference.violations
                );
                for backend in ["sharded:1", "sharded:4"] {
                    assert_eq!(
                        run_on(kind, &spec, backend, seed),
                        reference,
                        "{spec} rt={backend} seed={seed}"
                    );
                }
            }
        }
    }
}

/// The shard-count invariance half of the differential, with no
/// scheduler restriction: for *every* scheduler family and fault plan,
/// the sharded schedule is a pure function of `(seed, scheduler)` — so
/// `sharded:1`, `sharded:2` and `sharded:4` must agree bit-for-bit even
/// where they legitimately diverge from `sim`.
#[test]
fn adversarial_cells_invariant_under_shard_count_on_every_scheduler() {
    for (kind, plans) in [
        (StackKind::Ba, StackKind::Ba.standard_plans()),
        (StackKind::SvssChain, StackKind::SvssChain.standard_plans()),
    ] {
        for sched in scheduler_axis() {
            for plan in plans {
                let corrupt = if plan.is_empty() {
                    String::new()
                } else {
                    format!(",corrupt={plan}")
                };
                let spec = format!("n=4,t=1{corrupt},sched={sched}");
                let seed = 8;
                let reference = run_on(kind, &spec, "sharded:1", seed);
                for backend in ["sharded:2", "sharded:4"] {
                    assert_eq!(
                        run_on(kind, &spec, backend, seed),
                        reference,
                        "{spec} rt={backend}"
                    );
                }
            }
        }
    }
}

/// Wire-backend differential: the byte boundary must not perturb the
/// deterministic schedule. On every plan whose Byzantine payloads are
/// *well-formed* (everything except the byte-junk `garbage`/`equivocate`
/// faults, which legitimately change what receivers see), a wire cell is
/// bit-identical to the `sim` cell of the same `(seed, scenario)` —
/// outputs, per-kind metrics, sends, deliveries and steps.
#[test]
fn wire_cells_bit_identical_to_sim_on_well_formed_plans() {
    let byte_junk = |plan: &str| plan.contains("garbage") || plan.contains("equivocate");
    for (kind, seeds) in [
        (StackKind::Ba, &[1u64, 5][..]),
        (StackKind::SvssChain, &[3u64, 8][..]),
        (StackKind::CommonSubset, &[9u64][..]),
    ] {
        for plan in kind.standard_plans().iter().filter(|p| !byte_junk(p)) {
            let corrupt = if plan.is_empty() {
                String::new()
            } else {
                format!(",corrupt={plan}")
            };
            for sched in ["random", "lifo", "starve:1"] {
                let spec = format!("n=4,t=1{corrupt},sched={sched}");
                for &seed in seeds {
                    let reference = run_on(kind, &spec, "sim", seed);
                    assert_eq!(
                        run_on(kind, &spec, "wire", seed),
                        reference,
                        "{} {spec} rt=wire seed={seed}",
                        kind.label()
                    );
                }
            }
        }
    }
}

/// Event-loop differential: `rt=async` reuses the simulator's scheduler
/// and virtual clock verbatim and only moves node-side dispatch into
/// per-party event-loop tasks, so — unlike `wire` — it must match `sim`
/// bit-for-bit on *every* plan, byte-junk included (payloads never leave
/// memory, so `garbage`/`equivocate` corrupt exactly the same frames).
/// Each cell is also re-run to pin reproducibility from
/// `(seed, scenario string)`.
#[test]
fn async_cells_bit_identical_to_sim_on_every_plan() {
    for (kind, seeds) in [
        (StackKind::Ba, &[1u64, 5][..]),
        (StackKind::SvssChain, &[3u64, 8][..]),
        (StackKind::CommonSubset, &[9u64][..]),
    ] {
        for plan in kind.standard_plans() {
            let corrupt = if plan.is_empty() {
                String::new()
            } else {
                format!(",corrupt={plan}")
            };
            for sched in ["random", "lifo", "net:lat=1..8"] {
                let spec = format!("n=4,t=1{corrupt},sched={sched}");
                for &seed in seeds {
                    let reference = run_on(kind, &spec, "sim", seed);
                    let cell = run_on(kind, &spec, "async", seed);
                    assert_eq!(
                        cell,
                        reference,
                        "{} {spec} rt=async seed={seed}",
                        kind.label()
                    );
                    assert_eq!(
                        run_on(kind, &spec, "async", seed),
                        cell,
                        "{} {spec} seed={seed}: async cell must reproduce",
                        kind.label()
                    );
                }
            }
        }
    }
}

/// Byte-fuzzed garbage on the wire backend: the `garbage` and
/// `equivocate` plans emit genuinely malformed, truncated and
/// kind-spoofed frames there. Every honest decoder must reject them —
/// zero panics, zero safety violations (checked by `run_cell`'s
/// invariants) — while the metrics prove the junk bytes actually
/// happened and were observed; and the cells stay reproducible from
/// `(seed, scenario string)`.
#[test]
fn wire_cells_survive_byte_fuzzed_garbage_frames() {
    let registry = standard_registry();
    for kind in StackKind::all() {
        for plan in kind
            .standard_plans()
            .iter()
            .filter(|p| p.contains("garbage") || p.contains("equivocate"))
        {
            for sched in ["random", "fifo", "block:8"] {
                let spec = format!("n=4,t=1,corrupt={plan},sched={sched},rt=wire");
                let scenario = Scenario::parse(&spec).unwrap();
                for seed in [5u64, 6] {
                    let report = run_cell(kind, &scenario, seed, &registry);
                    assert!(
                        report.violations.is_empty(),
                        "{} {spec} seed={seed}: {:?}",
                        kind.label(),
                        report.violations
                    );
                    assert_eq!(
                        report,
                        run_cell(kind, &scenario, seed, &registry),
                        "{} {spec} seed={seed}: wire cell must reproduce",
                        kind.label()
                    );
                }
            }
        }
    }
}

/// The byte-level adversary is real, not simulated: a wire garbage run
/// records malformed frames on the transport and decode misses at the
/// honest receivers.
#[test]
fn wire_garbage_runs_record_malformed_frames_and_misses() {
    use aft::sim::{runtime_by_name, GarbageInstance, NetConfig, PartyId, RuntimeExt};
    let _ = standard_registry(); // installs the global codecs
    let mut rt = runtime_by_name("wire", NetConfig::new(4, 1, 7)).unwrap();
    let session = aft::sim::SessionId::root().child(aft::sim::SessionTag::new("fuzzed", 0));
    for p in 0..3 {
        rt.spawn(
            PartyId(p),
            session.clone(),
            Box::new(aft::ba::BinaryBa::new(
                true,
                Box::new(aft::ba::OracleCoin::new(7)),
            )),
        );
    }
    rt.spawn(
        PartyId(3),
        session.clone(),
        Box::new(GarbageInstance::new(64)),
    );
    rt.run_to_quiescence();
    let m = rt.metrics();
    assert!(m.wire_frames > 0, "bytes moved");
    assert!(
        m.wire_malformed > 0,
        "malformed frames were injected: {m:?}"
    );
    let total_misses: u64 = m.decode_misses().map(|(_, c)| c).sum();
    assert!(total_misses > 0, "honest decoders observed rejections");
    for p in 0..3 {
        assert_eq!(
            rt.output_as::<bool>(PartyId(p), &session),
            Some(&true),
            "byte junk must not derail agreement"
        );
    }
}

/// The threaded backend runs the same scenarios (schedulers are the OS's
/// prerogative there): safety invariants must hold even without
/// deterministic replay. A trimmed plan set keeps the OS-thread churn
/// modest; common subset runs all of its plans.
#[test]
fn threaded_backend_passes_the_conformance_invariants() {
    let registry = standard_registry();
    for (kind, plans) in [
        (StackKind::Ba, &StackKind::Ba.standard_plans()[..5]),
        (
            StackKind::SvssChain,
            &StackKind::SvssChain.standard_plans()[..5],
        ),
        (
            StackKind::CommonSubset,
            StackKind::CommonSubset.standard_plans(),
        ),
    ] {
        for plan in plans {
            let corrupt = if plan.is_empty() {
                String::new()
            } else {
                format!(",corrupt={plan}")
            };
            let spec = format!("n=4,t=1{corrupt},rt=threaded");
            let scenario = Scenario::parse(&spec).unwrap();
            let report = run_cell(kind, &scenario, 13, &registry);
            assert!(
                report.violations.is_empty(),
                "{} {spec}: {:?}",
                kind.label(),
                report.violations
            );
        }
    }
}

/// Tracing is schedule-invisible: running a cell with the flight
/// recorder attached (full or ring) yields a bit-identical
/// [`CellReport`] — same outputs fingerprint, same message counts, same
/// step count — on every deterministic backend. The recorder never
/// touches RNGs, schedules or fingerprints; it only observes.
#[test]
fn tracing_is_bit_invisible_to_conformance() {
    use aft::core::scenarios::run_cell_traced;
    let registry = standard_registry();
    for backend in ["sim", "sharded:4", "wire", "async"] {
        for (kind, plan) in [
            (StackKind::Ba, "garbage:40@3"),
            (StackKind::Ba, "equivocate:12@1"),
            (StackKind::SvssChain, "equivocal-reveal@3"),
        ] {
            let spec = format!("n=4,t=1,corrupt={plan},sched=random,rt={backend}");
            let scenario = Scenario::parse(&spec).unwrap();
            for seed in SEEDS {
                let off = run_cell(kind, &scenario, *seed, &registry);
                let (full, full_events) =
                    run_cell_traced(kind, &scenario, *seed, &registry, TraceMode::Full);
                let (ring, ring_events) =
                    run_cell_traced(kind, &scenario, *seed, &registry, TraceMode::Ring(256));
                assert_eq!(
                    off,
                    full,
                    "{} {spec} seed={seed}: trace-on != trace-off",
                    kind.label()
                );
                assert_eq!(
                    off,
                    ring,
                    "{} {spec} seed={seed}: ring trace perturbed the run",
                    kind.label()
                );
                assert!(
                    !full_events.is_empty(),
                    "{spec}: full recorder captured nothing"
                );
                assert!(ring_events.len() <= 256, "{spec}: ring exceeded its bound");
            }
        }
    }
}

/// The recorded causal message DAG is well-formed, and an envelope is
/// named the same way on every backend. On `sim`, `wire` and `async`
/// (one globally ordered stream): every `Send.causal_parent` names a
/// `Deliver` of the sending party that already appeared in the stream;
/// every `Deliver` consumes a previously recorded `Send` of the same `seq`
/// with the same `(from, to, session)`; and parentless (root) sends occur
/// only in the spawn phase — never after the current episode has started
/// delivering. On `sharded:4` (events flattened in party order at each
/// barrier) and `threaded` (OS interleaving) the per-edge properties must
/// still hold; the spawn-phase ordering is checked per party implicitly by
/// the parent-precedes-child rule. On every backend a sender numbers its
/// sends `from, from + n, from + 2n, …` in the order it records them.
#[test]
fn recorded_causal_dag_is_well_formed() {
    use aft::core::scenarios::run_cell_traced;
    use aft::sim::TraceEvent;
    use std::collections::{HashMap, HashSet};
    let registry = standard_registry();
    let n = 4;
    for (backend, strict_roots) in [
        ("sim", true),
        ("wire", true),
        ("async", true),
        ("sharded:4", false),
        ("threaded", false),
    ] {
        let spec = format!("n={n},t=1,corrupt=equivocate:10@2,sched=random,rt={backend}");
        let scenario = Scenario::parse(&spec).unwrap();
        let (_, events) = run_cell_traced(
            StackKind::SvssChain,
            &scenario,
            5,
            &registry,
            TraceMode::Full,
        );
        assert!(!events.is_empty(), "{backend}: no events recorded");
        let mut delivered: HashSet<(aft::sim::PartyId, u64)> = HashSet::new();
        let mut sent = HashMap::new();
        let mut next_seq: Vec<u64> = (0..n as u64).collect();
        let mut episode_delivering = false;
        for (i, ev) in events.iter().enumerate() {
            match ev {
                TraceEvent::EpisodeStart { .. } | TraceEvent::EpisodeEnd { .. } => {
                    episode_delivering = false;
                }
                TraceEvent::Send {
                    from,
                    to,
                    session,
                    seq,
                    causal_parent,
                    ..
                } => {
                    assert_eq!(
                        (*seq % n as u64, *seq),
                        (from.0 as u64, next_seq[from.0]),
                        "{backend} event {i}: party {from:?}'s sends are numbered \
                         from, from + n, from + 2n, … in recording order"
                    );
                    next_seq[from.0] += n as u64;
                    sent.insert(*seq, (*from, *to, session.clone()));
                    match causal_parent {
                        Some(cp) => assert!(
                            delivered.contains(&(*from, *cp)),
                            "{backend} event {i}: causal parent ({from:?}, {cp}) \
                             does not precede its Send"
                        ),
                        None => assert!(
                            !(strict_roots && episode_delivering),
                            "{backend} event {i}: root Send after the episode \
                             started delivering"
                        ),
                    }
                }
                TraceEvent::Deliver {
                    party,
                    from,
                    session,
                    step,
                    seq,
                    ..
                } => {
                    assert_eq!(
                        sent.get(seq),
                        Some(&(*from, *party, session.clone())),
                        "{backend} event {i}: Deliver of seq {seq} joins no earlier Send \
                         of the same (from, to, session)"
                    );
                    delivered.insert((*party, *step));
                    episode_delivering = true;
                }
                _ => {}
            }
        }
        assert!(
            !delivered.is_empty() && !sent.is_empty(),
            "{backend}: DAG must be non-trivial"
        );
    }
}

/// Liveness after healing: partitions under the virtual-time `net:`
/// scheduler are structured *delay*, never loss, so BA and common-subset
/// cells under a partition-then-heal plan must terminate with zero
/// invariant violations on every pinned seed and deterministic backend —
/// and a never-healing cut of ≤ t parties must *still* terminate, since
/// the paper's model only promises eventual delivery, which the cut
/// respects. Each cell is also re-run to pin bit-for-bit reproducibility
/// from `(seed, scenario string)`.
#[test]
fn net_partition_heal_cells_terminate_on_every_backend() {
    let registry = standard_registry();
    for (kind, sched) in [
        (StackKind::Ba, "net:lat=1..12,partition=p50,heal=200"),
        (StackKind::Ba, "net:lat=exp:5,partition=3,heal=120"),
        (StackKind::Ba, "net:lat=1..8,partition=p100"),
        (
            StackKind::CommonSubset,
            "net:lat=1..12,partition=p50,heal=200",
        ),
        (StackKind::CommonSubset, "net:lat=1..8,partition=p100"),
    ] {
        for backend in BACKENDS {
            let spec = format!("n=4,t=1,sched={sched},rt={backend}");
            let scenario = Scenario::parse(&spec).unwrap_or_else(|| panic!("{spec:?} must parse"));
            for seed in SEEDS {
                let first = run_cell(kind, &scenario, *seed, &registry);
                assert!(
                    first.violations.is_empty(),
                    "{} {spec} seed={seed}: {:?}",
                    kind.label(),
                    first.violations
                );
                assert_eq!(
                    first,
                    run_cell(kind, &scenario, *seed, &registry),
                    "{} {spec} seed={seed}: net cell must reproduce bit-for-bit",
                    kind.label()
                );
            }
        }
    }
}

/// Crash-recovery conformance: a party that crashes at deploy time and
/// rejoins at a virtual time mid-run must not endanger the honest
/// parties' safety or termination, on the BA and SVSS chains, across
/// `sim`, `sharded:4` and `wire` — and the cells replay bit-for-bit
/// from `(seed, scenario string)`.
#[test]
fn net_crash_recovery_cells_are_safe_and_reproducible() {
    let registry = standard_registry();
    for kind in [StackKind::Ba, StackKind::SvssChain] {
        for backend in ["sim", "sharded:4", "wire", "async"] {
            let spec = format!("n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt={backend}");
            let scenario = Scenario::parse(&spec).unwrap();
            for seed in SEEDS {
                let first = run_cell(kind, &scenario, *seed, &registry);
                assert!(
                    first.violations.is_empty(),
                    "{} {spec} seed={seed}: {:?}",
                    kind.label(),
                    first.violations
                );
                assert_eq!(
                    first,
                    run_cell(kind, &scenario, *seed, &registry),
                    "{} {spec} seed={seed}: recovery cell must reproduce",
                    kind.label()
                );
            }
        }
    }
}

/// `recover:` means "rejoin with amnesia" on every deterministic backend:
/// the party crashed at deploy never starts its first instance, so the
/// fresh one it respawns at recovery runs the protocol from scratch —
/// its vote's A-Cast included — and every backend sends the same count.
#[test]
fn a_recovered_party_rejoins_and_sends_alike_on_every_backend() {
    use aft::core::scenarios::run_cell_traced;
    use aft::sim::{PartyId, TraceEvent};
    let registry = standard_registry();
    for seed in SEEDS {
        let mut sent = Vec::new();
        for backend in BACKENDS {
            let spec = format!("n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt={backend}");
            let scenario = Scenario::parse(&spec).unwrap();
            let (report, events) =
                run_cell_traced(StackKind::Ba, &scenario, *seed, &registry, TraceMode::Full);
            assert!(report.violations.is_empty(), "{spec} seed={seed}");
            let recovered = events
                .iter()
                .position(
                    |e| matches!(e, TraceEvent::Recover { party, .. } if *party == PartyId(3)),
                )
                .unwrap_or_else(|| panic!("{spec} seed={seed}: no Recover event"));
            let after = events[recovered..]
                .iter()
                .filter(|e| matches!(e, TraceEvent::Send { from, .. } if *from == PartyId(3)))
                .count();
            assert!(
                after > 0,
                "{spec} seed={seed}: party 3 sent nothing after recovering"
            );
            sent.push((*backend, report.sent));
        }
        assert!(
            sent.iter().all(|&(_, s)| s == sent[0].1),
            "seed={seed}: sent differs across backends: {sent:?}"
        );
    }
}

/// Violation forensics end-to-end: a (test-forced) invariant violation
/// on a byte-junk scenario produces a repro bundle whose scenario string
/// and seed replay — through the ordinary `(seed, scenario string)` cell
/// runner — to the *same* fingerprint and the same retained JSONL trace.
#[test]
fn violation_repro_bundle_replays_to_the_same_fingerprint() {
    for (spec, is_net) in [
        ("n=4,t=1,corrupt=garbage:40@3,sched=starve:1,rt=wire", false),
        // A virtual-time cell: the bundled JSONL must carry the virtual
        // timestamps, so the replayed byte-identity also pins them.
        (
            "n=4,t=1,sched=net:lat=1..12,partition=p50,heal=200,rt=wire",
            true,
        ),
    ] {
        violation_repro_bundle_roundtrip(spec, is_net);
    }
}

/// Adaptive adversaries in the conformance net: the registered policies
/// (`coin-favorite` on BA, `core-candidates` on the SVSS chain and the
/// common subset) observe delivered traffic and corrupt victims mid-run,
/// yet every cell stays safe — the invariants hold for the parties that
/// *remain* honest — the victim count never exceeds `t`, and each cell
/// re-runs bit-for-bit from `(seed, scenario string)`. Reproducibility
/// is asserted per backend, not across backends: observation timing is
/// backend-specific by design (`sim` feeds the controller per delivery,
/// `sharded` at epoch barriers), so the *decisions* may differ between
/// backends while each backend's own schedule stays a pure function of
/// the seed.
#[test]
fn adaptive_cells_are_safe_and_reproducible() {
    let registry = standard_registry();
    for (kind, attack) in [
        (StackKind::Ba, "adaptive:coin-favorite@*"),
        (StackKind::Ba, "adaptive:coin-favorite:equivocate@*"),
        (StackKind::SvssChain, "adaptive:core-candidates@*"),
        (StackKind::CommonSubset, "adaptive:core-candidates@*"),
    ] {
        for backend in ["sim", "sharded:4", "wire", "async"] {
            let spec = format!("n=4,t=1,corrupt={attack},sched=random,rt={backend}");
            let scenario = Scenario::parse(&spec).unwrap_or_else(|| panic!("{spec:?} must parse"));
            for seed in SEEDS {
                let first = run_cell_instrumented(
                    kind,
                    &scenario,
                    *seed,
                    &registry,
                    u64::MAX,
                    TraceMode::Off,
                );
                assert_honest_parties_output_once(&scenario, *seed, &first);
                assert!(
                    first.report.violations.is_empty(),
                    "{} {spec} seed={seed}: {:?}",
                    kind.label(),
                    first.report.violations
                );
                assert!(
                    first.victims.len() <= scenario.t,
                    "{} {spec} seed={seed}: victim cap exceeded: {:?}",
                    kind.label(),
                    first.victims
                );
                assert!(
                    !first.victims.is_empty(),
                    "{} {spec} seed={seed}: the adaptive policy never struck",
                    kind.label()
                );
                let again = run_cell_instrumented(
                    kind,
                    &scenario,
                    *seed,
                    &registry,
                    u64::MAX,
                    TraceMode::Off,
                );
                assert_eq!(
                    first.report,
                    again.report,
                    "{} {spec} seed={seed}: adaptive cell must reproduce bit-for-bit",
                    kind.label()
                );
                assert_eq!(
                    first.victims,
                    again.victims,
                    "{} {spec} seed={seed}: victim set must reproduce",
                    kind.label()
                );
            }
        }
    }
}

/// One adaptive cell's pin: stack, policy, backend, seed, then the cell
/// fingerprint and the victim set.
type AdaptivePin = (
    StackKind,
    &'static str,
    &'static str,
    u64,
    u64,
    &'static [usize],
);

/// A policy that is shown deliveries in another order, or at another
/// point of a step, strikes another party at another time and moves both
/// columns.
const ADAPTIVE_PINS: &[AdaptivePin] = &[
    (
        StackKind::Ba,
        "coin-favorite",
        "sim",
        5,
        0xb721ebf72d72ba91,
        &[2],
    ),
    (
        StackKind::Ba,
        "coin-favorite",
        "sim",
        6,
        0x63e553c9d5a06460,
        &[3],
    ),
    (
        StackKind::Ba,
        "coin-favorite",
        "sharded:4",
        5,
        0x3175d7bfb61cd3d1,
        &[0],
    ),
    (
        StackKind::Ba,
        "coin-favorite",
        "sharded:4",
        6,
        0xe5084a2b409e1f7e,
        &[0],
    ),
    (
        StackKind::Ba,
        "coin-favorite",
        "wire",
        5,
        0xb721ebf72d72ba91,
        &[2],
    ),
    (
        StackKind::Ba,
        "coin-favorite",
        "wire",
        6,
        0x63e553c9d5a06460,
        &[3],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "sim",
        5,
        0xe6fec807767b807e,
        &[0],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "sim",
        6,
        0x69ba786f1a36a5d6,
        &[0],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "sharded:4",
        5,
        0xe6fec807767b807e,
        &[0],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "sharded:4",
        6,
        0x69ba786f1a36a5d6,
        &[0],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "wire",
        5,
        0xe6fec807767b807e,
        &[0],
    ),
    (
        StackKind::SvssChain,
        "core-candidates",
        "wire",
        6,
        0x69ba786f1a36a5d6,
        &[0],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "sim",
        5,
        0x04818cf3de7c3bab,
        &[3],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "sim",
        6,
        0x84fdd7b01bbdb131,
        &[2],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "sharded:4",
        5,
        0xef1775015b0b22c9,
        &[0],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "sharded:4",
        6,
        0xef1775015b0b22c9,
        &[0],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "wire",
        5,
        0x04818cf3de7c3bab,
        &[3],
    ),
    (
        StackKind::CommonSubset,
        "core-candidates",
        "wire",
        6,
        0x84fdd7b01bbdb131,
        &[2],
    ),
];

/// The adaptive cells above, held to absolute values: the policies read
/// the flight recorder's `Deliver` events, so the order and the moment
/// in which an engine records them is part of the schedule.
#[test]
fn adaptive_cells_match_their_absolute_pins() {
    let registry = standard_registry();
    let mut wrong = Vec::new();
    for &(kind, policy, backend, seed, fingerprint, victims) in ADAPTIVE_PINS {
        let spec = format!("n=4,t=1,corrupt=adaptive:{policy}@*,sched=random,rt={backend}");
        let scenario = Scenario::parse(&spec).unwrap_or_else(|| panic!("{spec:?} must parse"));
        let out = run_cell_instrumented(kind, &scenario, seed, &registry, u64::MAX, TraceMode::Off);
        assert_honest_parties_output_once(&scenario, seed, &out);
        let struck: Vec<usize> = out.victims.iter().map(|p| p.0).collect();
        if (out.report.fingerprint, struck.as_slice()) != (fingerprint, victims) {
            wrong.push(format!(
                "    (StackKind::{kind:?}, {policy:?}, {backend:?}, {seed}, 0x{:016x}, &{struck:?}),",
                out.report.fingerprint
            ));
        }
    }
    assert!(wrong.is_empty(), "moved pins, now:\n{}", wrong.join("\n"));
}

/// The flight recorder's JSONL, byte for byte, as one digest per engine:
/// an adaptive cell on `sim` and on `sharded:2` (the controller sits in
/// front of the recorder there) and a crash-recovery cell on each.
#[test]
fn flight_recorder_jsonl_matches_its_pinned_digests() {
    use aft::core::scenarios::run_cell_traced;
    use aft::sim::{trace::to_jsonl, Fingerprint, TraceMode};
    const PINS: &[(&str, u64, usize)] = &[
        (
            "n=4,t=1,corrupt=adaptive:coin-favorite@*,sched=random,rt=sim",
            0x0ab94f00a5e2d9ea,
            1158,
        ),
        (
            "n=4,t=1,corrupt=adaptive:coin-favorite@*,sched=random,rt=sharded:2",
            0xd1cec79362729c4c,
            934,
        ),
        (
            "n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt=sim",
            0x1e44378a8f9d9766,
            935,
        ),
        (
            "n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt=sharded:2",
            0xfc607bb2b76f28ce,
            791,
        ),
    ];
    let registry = standard_registry();
    let mut wrong = Vec::new();
    for &(spec, digest, lines) in PINS {
        let scenario = Scenario::parse(spec).unwrap_or_else(|| panic!("{spec:?} must parse"));
        let (_, events) = run_cell_traced(StackKind::Ba, &scenario, 5, &registry, TraceMode::Full);
        let mut fp = Fingerprint::new();
        fp.write_str(&to_jsonl(&events));
        if (fp.finish(), events.len()) != (digest, lines) {
            wrong.push(format!(
                "        ({spec:?}, 0x{:016x}, {}),",
                fp.finish(),
                events.len()
            ));
        }
    }
    assert!(wrong.is_empty(), "moved pins, now:\n{}", wrong.join("\n"));
}

/// Differential: an adaptive plan whose decision policy is *constant*
/// (`pin`, which corrupts a fixed target at episode start and ignores
/// all observations) is byte-identical to the equivalent static plan.
/// `adaptive:pin:silent:3@*` mutes party 3 from the first activation —
/// exactly what `silent@3` deploys — and the observation hook draws no
/// randomness and sends nothing, so the full cell reports (outputs
/// fingerprint, per-kind metrics, sends, deliveries, steps) must agree
/// bit-for-bit on every stack, backend and pinned seed.
#[test]
fn constant_adaptive_policy_matches_the_static_plan_bit_for_bit() {
    for kind in StackKind::all() {
        for backend in BACKENDS {
            for seed in SEEDS {
                let adaptive = run_on(
                    kind,
                    "n=4,t=1,corrupt=adaptive:pin:silent:3@*,sched=random",
                    backend,
                    *seed,
                );
                let fixed = run_on(
                    kind,
                    "n=4,t=1,corrupt=silent@3,sched=random",
                    backend,
                    *seed,
                );
                assert_eq!(
                    adaptive,
                    fixed,
                    "{} rt={backend} seed={seed}: constant adaptive policy diverged \
                     from the static plan",
                    kind.label()
                );
            }
        }
    }
}

fn violation_repro_bundle_roundtrip(spec: &str, is_net: bool) {
    use aft::core::scenarios::{run_cell_traced, write_repro_bundle};
    let registry = standard_registry();
    let scenario = Scenario::parse(spec).unwrap();
    let seed = 6;
    let (mut report, events) = run_cell_traced(
        StackKind::Ba,
        &scenario,
        seed,
        &registry,
        TraceMode::Ring(512),
    );
    assert!(events.len() <= 512, "ring bound");
    // Test-only forced violation: the standard cells are safe by
    // construction, so fake the detection to drive the forensics path.
    report
        .violations
        .push("test-forced: injected invariant violation".into());
    let dir = std::env::temp_dir().join(format!(
        "aft-repro-test-{}-{}",
        std::process::id(),
        if is_net { "net" } else { "order" }
    ));
    let bundle = write_repro_bundle(&dir, StackKind::Ba, &scenario, seed, &report, &events)
        .expect("bundle written");
    let manifest = std::fs::read_to_string(bundle.join("scenario.txt")).unwrap();
    let jsonl = std::fs::read_to_string(bundle.join("trace.jsonl")).unwrap();
    assert!(bundle.join("trace.perfetto.json").exists());
    assert!(manifest.contains("violation: test-forced"));
    if is_net {
        assert!(
            jsonl.contains("\"vtime\":"),
            "net cell bundles must carry virtual timestamps"
        );
    }

    // Replay purely from what the bundle records.
    let replay_spec = manifest
        .lines()
        .find_map(|l| l.strip_prefix("scenario: "))
        .expect("manifest records the scenario string");
    let replay_seed: u64 = manifest
        .lines()
        .find_map(|l| l.strip_prefix("seed: "))
        .expect("manifest records the seed")
        .parse()
        .unwrap();
    let replay_scenario = Scenario::parse(replay_spec).expect("recorded spec re-parses");
    let (replayed, replayed_events) = run_cell_traced(
        StackKind::Ba,
        &replay_scenario,
        replay_seed,
        &registry,
        TraceMode::Ring(512),
    );
    assert_eq!(
        replayed.fingerprint, report.fingerprint,
        "replay from (seed, scenario string) must reach the recorded fingerprint"
    );
    assert_eq!(
        aft::sim::trace::to_jsonl(&replayed_events),
        jsonl,
        "replayed trace must match the bundled JSONL byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
