//! The `sched=net:` virtual-time schedule: absolute pins, and the
//! clock's contract as read back from a recorded run.
//!
//! The conformance suite compares backends with each other and a cell's
//! fingerprint excludes `virtual_time`, so nothing else in the tree
//! fixes what a `net:` schedule *is*. The pin table does: each row is a
//! `(stack, scenario string, seed)` cell with its fingerprint, send and
//! step counts and final virtual time. Any change to how the `net:`
//! scheduler times, orders or tie-breaks deliveries — or to the RNG
//! draws it makes — moves at least one row.

use aft::core::scenarios::{run_cell_instrumented, standard_registry, StackKind};
use aft::sim::{Scenario, TraceEvent, TraceMode};

/// `(stack, scenario, seed) → (fingerprint, sent, steps, virtual_time)`.
type Pin = (StackKind, &'static str, u64, (u64, u64, u64, u64));

const PINS: &[Pin] = &[
    (
        StackKind::CommonSubset,
        "n=7,t=2,corrupt=garbage:40@3;crash@5,sched=net:lat=exp:5,partition=1,heal=200,rt=sim",
        1,
        (0x5ffc971a2ffd4243, 8372, 8372, 476),
    ),
    (
        StackKind::CommonSubset,
        "n=7,t=2,corrupt=garbage:40@3;crash@5,sched=net:lat=exp:5,partition=1,heal=200,rt=sim",
        2,
        (0x5ffc971a2ffd4243, 8372, 8372, 501),
    ),
    (
        StackKind::Ba,
        "n=7,t=2,sched=net:lat=1..12,partition=p50,heal=200,rt=sim",
        1,
        (0x62d359b62b742570, 2254, 2254, 278),
    ),
    (
        StackKind::Ba,
        "n=7,t=2,sched=net:lat=1..12,partition=p50,heal=200,rt=wire",
        1,
        (0x62d359b62b742570, 2254, 2254, 278),
    ),
    (
        StackKind::Ba,
        "n=7,t=2,sched=net:lat=1..12,partition=p50,heal=200,rt=sharded:2",
        1,
        (0x62d359b62b742570, 2254, 2254, 316),
    ),
    (
        StackKind::Ba,
        "n=4,t=1,sched=net:lat=exp:5,partition=3,heal=120,rt=sim",
        1,
        (0x8f05f044d9e0adcf, 448, 448, 67),
    ),
    (
        StackKind::Ba,
        "n=7,t=2,sched=net:lat=1..8,partition=p100,rt=sim",
        1,
        (0x1c66757904eb9668, 1834, 1834, 1099511627800),
    ),
    (
        StackKind::Ba,
        "n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt=sim",
        1,
        (0x9cfed05d9f3236fe, 300, 300, 106),
    ),
    (
        StackKind::Ba,
        "n=4,t=1,corrupt=recover:80@3,sched=net:lat=1..8,rt=sharded:2",
        1,
        (0x9cfed05d9f3236fe, 300, 300, 111),
    ),
    (
        StackKind::SvssChain,
        "n=7,t=2,sched=net:lat=2..6,rt=sim",
        1,
        (0x32beeaf5d7eb64d1, 637, 637, 43),
    ),
];

#[test]
fn net_schedules_match_their_absolute_pins() {
    let registry = standard_registry();
    let mut wrong = Vec::new();
    for &(kind, spec, seed, expect) in PINS {
        let scenario = Scenario::parse(spec).unwrap_or_else(|| panic!("{spec} must parse"));
        let out =
            run_cell_instrumented(kind, &scenario, seed, &registry, 5_000_000, TraceMode::Off);
        assert!(
            out.report.violations.is_empty(),
            "{spec} seed {seed}: {:?}",
            out.report.violations
        );
        let got = (
            out.report.fingerprint,
            out.report.sent,
            out.report.steps,
            out.metrics.virtual_time,
        );
        if got != expect {
            let show =
                |p: (u64, u64, u64, u64)| format!("(0x{:016x}, {}, {}, {})", p.0, p.1, p.2, p.3);
            wrong.push(format!(
                "{} {spec} seed {seed}: got {}, pinned {}",
                kind.label(),
                show(got),
                show(expect)
            ));
        }
    }
    assert!(wrong.is_empty(), "moved pins:\n{}", wrong.join("\n"));
}

/// The virtual clock is the only thing that delivers under `net:`. With
/// thousands of envelopes in flight (n = 10) the step-count fairness cap
/// used to force the front batch without asking the scheduler, handing
/// it over at the current clock reading — before its own arrival time
/// and straight through the partition. From a full trace: virtual
/// delivery times never go backwards, and no delivery crossing the cut
/// happens while the cut is up.
#[test]
fn deliveries_follow_the_virtual_clock_at_n10() {
    let spec = "n=10,t=3,corrupt=garbage:40@3;equivocate:12@1;crash@7,\
                sched=net:lat=exp:5,partition=p50,heal=200,rt=sim";
    let scenario = Scenario::parse(spec).expect("spec parses");
    let out = run_cell_instrumented(
        StackKind::CommonSubset,
        &scenario,
        1,
        &standard_registry(),
        5_000_000,
        TraceMode::Full,
    );
    assert!(
        out.report.violations.is_empty(),
        "{:?}",
        out.report.violations
    );
    let (start, cut) = out
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::PartitionStart { vtime, cut, .. } => Some((*vtime, cut.clone())),
            _ => None,
        })
        .expect("the partition went up");
    let end = out
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::PartitionHeal { vtime, .. } => Some(*vtime),
            _ => None,
        })
        .expect("the partition healed");
    let mut last = 0;
    let mut crossings = 0;
    for e in &out.events {
        let TraceEvent::Deliver {
            step,
            party,
            from,
            vtime,
            ..
        } = e
        else {
            continue;
        };
        let vt = vtime.expect("net: deliveries carry a virtual time");
        assert!(vt >= last, "step {step}: clock went back {last} -> {vt}");
        last = vt;
        if cut.contains(party) != cut.contains(from) {
            crossings += 1;
            assert!(
                !(start..end).contains(&vt),
                "step {step}: {from:?} -> {party:?} crossed the cut {cut:?} at {vt}, \
                 inside [{start}, {end})"
            );
        }
    }
    assert!(crossings > 0, "the cut {cut:?} carried no traffic");
}
