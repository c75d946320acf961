//! Property-based tests of the paper's algorithms: agreement invariants
//! of CoinFlip / FairChoice / FBA / CommonSubset over randomized
//! configurations.

use aft_core::{
    CoinFlip, CoinFlipOutput, CoinFlipParams, CoinKind, CommonSubsetInstance, FairChoice,
    FairChoiceParams, Fba,
};
use aft_sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason,
};
use proptest::prelude::*;

fn sid() -> SessionId {
    SessionId::root().child(SessionTag::new("p", 0))
}

fn sched_name(i: usize) -> &'static str {
    ["fifo", "random", "lifo", "window4"][i % 4]
}

fn run(
    n: usize,
    t: usize,
    seed: u64,
    sched: usize,
    byz: &[usize],
    mk: impl Fn(usize) -> Box<dyn Instance>,
) -> SimNetwork {
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, seed),
        scheduler_by_name(sched_name(sched)).unwrap(),
    );
    for p in 0..n {
        let inst: Box<dyn Instance> = if byz.contains(&p) {
            Box::new(SilentInstance)
        } else {
            mk(p)
        };
        net.spawn(PartyId(p), sid(), inst);
    }
    let report = net.run(2_000_000_000);
    assert_eq!(report.stop, StopReason::Quiescent);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CoinFlip: strong agreement for any seed/scheduler/k and any single
    /// crashed party.
    #[test]
    fn coin_flip_agreement_invariant(
        seed in any::<u64>(),
        sched in 0usize..4,
        k in 1usize..4,
        byz in 0usize..5,
    ) {
        let (n, t) = (4usize, 1usize);
        let byz: Vec<usize> = if byz < n { vec![byz] } else { vec![] };
        let net = run(n, t, seed, sched, &byz, |_| {
            Box::new(CoinFlip::new(
                CoinFlipParams::FixedK { k },
                CoinKind::Oracle(seed ^ 0xC0),
            ))
        });
        let outs: Vec<bool> = (0..n)
            .filter(|p| !byz.contains(p))
            .map(|p| {
                net.output_as::<CoinFlipOutput>(PartyId(p), &sid())
                    .expect("terminates")
                    .value
            })
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
    }

    /// FairChoice: agreed output within range for any m.
    #[test]
    fn fair_choice_invariants(
        seed in any::<u64>(),
        m in 3usize..7,
        sched in 0usize..4,
    ) {
        let (n, t) = (4usize, 1usize);
        let net = run(n, t, seed, sched, &[], |_| {
            Box::new(FairChoice::new(
                m,
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(seed ^ 0xFC),
            ))
        });
        let outs: Vec<usize> = (0..n)
            .map(|p| *net.output_as::<usize>(PartyId(p), &sid()).expect("terminates"))
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
        prop_assert!(outs[0] < m);
    }

    /// FBA: agreement, and the output is some honest input (with only
    /// crash adversaries every delivered value is an honest input).
    #[test]
    fn fba_agreement_and_anchored_output(
        seed in any::<u64>(),
        inputs in proptest::collection::vec(0u32..5, 4..=4),
        sched in 0usize..4,
        byz in 0usize..5,
    ) {
        let (n, t) = (4usize, 1usize);
        let byz: Vec<usize> = if byz < n { vec![byz] } else { vec![] };
        let inputs_c = inputs.clone();
        let net = run(n, t, seed, sched, &byz, move |p| {
            Box::new(Fba::new(
                inputs_c[p],
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::Oracle(seed ^ 0xFBA),
            ))
        });
        let honest: Vec<usize> = (0..n).filter(|p| !byz.contains(p)).collect();
        let outs: Vec<u32> = honest
            .iter()
            .map(|&p| *net.output_as::<u32>(PartyId(p), &sid()).expect("terminates"))
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
        let honest_inputs: Vec<u32> = honest.iter().map(|&p| inputs[p]).collect();
        prop_assert!(honest_inputs.contains(&outs[0]), "output not an honest input");
        // Unanimity ⇒ that value.
        if honest_inputs.windows(2).all(|w| w[0] == w[1]) {
            prop_assert_eq!(outs[0], honest_inputs[0]);
        }
    }

    /// CommonSubset: common set, size ≥ n − t, silent parties excluded.
    #[test]
    fn common_subset_invariants(
        seed in any::<u64>(),
        sched in 0usize..4,
        byz in 0usize..5,
    ) {
        let (n, t) = (4usize, 1usize);
        let byz: Vec<usize> = if byz < n { vec![byz] } else { vec![] };
        let net = run(n, t, seed, sched, &byz, |_| {
            Box::new(CommonSubsetInstance::new(n - t, CoinKind::Oracle(seed ^ 0xC5), true))
        });
        let honest: Vec<usize> = (0..n).filter(|p| !byz.contains(p)).collect();
        let sets: Vec<Vec<PartyId>> = honest
            .iter()
            .map(|&p| {
                net.output_as::<Vec<PartyId>>(PartyId(p), &sid())
                    .expect("terminates")
                    .clone()
            })
            .collect();
        for s in &sets[1..] {
            prop_assert_eq!(s, &sets[0]);
        }
        prop_assert!(sets[0].len() >= n - t);
        for b in &byz {
            prop_assert!(!sets[0].contains(&PartyId(*b)), "silent member in S");
        }
    }
}

/// Random adversarial scenarios on the BA stack: any ≤ t corruption plan
/// drawn from the generic behaviours and the registered BA attacks, any
/// scheduler family, any deterministic backend — safety must hold. (The
/// scenario string of a failing case is printed by the harness, giving a
/// replayable minimal-ish counterexample for free.)
mod scenario_safety {
    use aft_core::scenarios::{run_cell, standard_registry, StackKind};
    use aft_sim::{Corruption, FaultSpec, PartyId, Scenario, ALL_SCHEDULERS};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ba_fault_from(sel: u64) -> FaultSpec {
        match sel % 8 {
            0 => FaultSpec::Silent,
            1 => FaultSpec::Crash,
            2 => FaultSpec::MuteAfter(sel / 8 % 16),
            3 => FaultSpec::Garbage(1 + sel / 8 % 48),
            4 => FaultSpec::Equivocate(1 + sel / 8 % 12),
            5 => FaultSpec::Attack {
                name: "random-voter".into(),
                args: String::new(),
            },
            6 => FaultSpec::Attack {
                name: "fixed-voter".into(),
                args: "true".into(),
            },
            _ => FaultSpec::Attack {
                name: "fixed-voter".into(),
                args: "false:3".into(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn random_scenarios_preserve_ba_safety(
            seed in any::<u64>(),
            n in 4usize..=7,
            sched in 0usize..16,
            rt in 0usize..16,
            corrupt in vec(any::<u64>(), 0..=2),
        ) {
            let t = (n - 1) / 3;
            let mut parties: Vec<usize> = Vec::new();
            for sel in corrupt.iter().take(t) {
                let available: Vec<usize> = (0..n).filter(|p| !parties.contains(p)).collect();
                parties.push(available[(sel % available.len() as u64) as usize]);
            }
            parties.sort_unstable();
            let corruptions: Vec<Corruption> = parties
                .iter()
                .zip(&corrupt)
                .map(|(&party, sel)| Corruption {
                    party: PartyId(party),
                    fault: ba_fault_from(sel >> 8),
                })
                .collect();
            let rts = ["sim", "sharded:2", "sharded:3"];
            let scenario = Scenario {
                n,
                t,
                corruptions,
                adaptive: None,
                sched: ALL_SCHEDULERS[sched % ALL_SCHEDULERS.len()].example.to_string(),
                rt: rts[rt % rts.len()].to_string(),
            };
            // (a) the spec round-trips through its string form;
            let spec = scenario.to_string();
            let parsed = Scenario::parse(&spec);
            prop_assert_eq!(parsed.as_ref(), Some(&scenario), "{}", spec);
            // (b) safety invariants hold when the parsed spec runs.
            let report = run_cell(StackKind::Ba, &parsed.unwrap(), seed, &standard_registry());
            prop_assert!(
                report.violations.is_empty(),
                "scenario {} seed {}: {:?}",
                spec,
                seed,
                report.violations
            );
        }
    }
}

/// Random *adaptive* adversarial scenarios on the BA stack: any mix of a
/// static corruption and a registered adaptive policy, any scheduler and
/// deterministic backend, at n = 4..7 — safety must hold for the parties
/// that remain honest, and the registry's victim-cap accounting must
/// never let the adversary corrupt more than `t` distinct parties
/// (static seeds included).
mod adaptive_safety {
    use aft_core::scenarios::{run_cell_instrumented, standard_registry, StackKind};
    use aft_sim::{AdaptiveSpec, Corruption, FaultSpec, Scenario, TraceMode, ALL_SCHEDULERS};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn random_adaptive_scenarios_preserve_ba_safety_and_victim_cap(
            seed in any::<u64>(),
            n in 4usize..=7,
            sched in 0usize..16,
            rt in 0usize..16,
            attack in 0usize..16,
            with_static in any::<bool>(),
            static_party in 0usize..7,
        ) {
            let t = (n - 1) / 3;
            // The quiescing adaptive policies (the storm pin is exercised
            // by the shrinker properties below, where non-quiescence is
            // the point).
            let pin_mute = format!("mute:{}", attack % n);
            let pin_equiv = format!("equivocate:{}", (attack / 4) % n);
            let policies: [(&str, &str); 4] = [
                ("coin-favorite", ""),
                ("coin-favorite", "equivocate"),
                ("pin", &pin_mute),
                ("pin", &pin_equiv),
            ];
            let (name, args) = policies[attack % policies.len()];
            let corruptions = if with_static {
                vec![Corruption {
                    party: aft_sim::PartyId(static_party % n),
                    fault: FaultSpec::Silent,
                }]
            } else {
                Vec::new()
            };
            let rts = ["sim", "sharded:2", "sharded:4", "wire"];
            let scenario = Scenario {
                n,
                t,
                corruptions,
                adaptive: Some(AdaptiveSpec {
                    name: name.to_string(),
                    args: args.to_string(),
                }),
                sched: ALL_SCHEDULERS[sched % ALL_SCHEDULERS.len()].example.to_string(),
                rt: rts[rt % rts.len()].to_string(),
            };
            // (a) adaptive specs round-trip through their string form;
            let spec = scenario.to_string();
            prop_assert_eq!(Scenario::parse(&spec).as_ref(), Some(&scenario), "{}", spec);
            // (b) safety holds for the remaining honest parties;
            let registry = standard_registry();
            let run = run_cell_instrumented(
                StackKind::Ba, &scenario, seed, &registry, u64::MAX, TraceMode::Off,
            );
            prop_assert!(
                run.report.violations.is_empty(),
                "scenario {} seed {}: {:?}",
                spec, seed, run.report.violations
            );
            // (c) the t-cap: never more than t distinct corrupted parties,
            // counting the static seeds against the same budget.
            prop_assert!(
                run.victims.len() <= t,
                "scenario {} seed {}: victims {:?} exceed t={}",
                spec, seed, run.victims, t
            );
            for c in &scenario.corruptions {
                prop_assert!(
                    run.victims.contains(&c.party),
                    "static corruption {:?} missing from the victim accounting", c.party
                );
            }
        }
    }
}

/// Shrinker contract on synthetic seeded violations: plant the
/// non-quiescing adaptive storm, dress it up with random decoys (a
/// static corruption, an exotic scheduler and backend), and require the
/// shrinker's output to (a) re-parse, (b) still violate with the *same*
/// violation signature at the same step budget, and (c) never exceed the
/// input's token count.
mod shrinker_props {
    use aft_core::scenarios::{run_cell_instrumented, StackKind};
    use aft_core::search::{shrink, spec_tokens, violation_signature};
    use aft_sim::{Scenario, TraceMode};
    use proptest::prelude::*;

    const BUDGET: u64 = 60_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn shrinker_output_reparses_still_violates_and_never_grows(
            seed in 0u64..32,
            decoy in 0usize..5,
            target in 0usize..7,
            sched in 0usize..4,
        ) {
            let decoys = ["silent@5", "crash@1", "garbage:9@5", "mute-after:6@2", "equivocate:4@1"];
            let scheds = ["random", "lifo", "block:8", "net:lat=2..6"];
            // The storm target must be an honest party: a statically
            // corrupted party runs the static fault's instance and is
            // never wrapped in the adaptive shell, so pinning it would
            // (correctly) not storm at all.
            let storm_target = [0usize, 3, 4, 6][target % 4];
            let spec = format!(
                "n=7,t=2,corrupt={};adaptive:pin:storm:{storm_target}@*,sched={},rt=sharded:2",
                decoys[decoy], scheds[sched],
            );
            prop_assert!(Scenario::parse(&spec).is_some(), "{}", spec);
            let registry = aft_core::scenarios::standard_registry();
            let shrunk = shrink(StackKind::Ba, &spec, seed, &registry, BUDGET)
                .expect("the planted storm always violates");
            // (a) re-parses;
            let parsed = Scenario::parse(&shrunk.entry.spec);
            prop_assert!(parsed.is_some(), "shrunk spec must re-parse: {}", shrunk.entry.spec);
            // (c) no larger than the input;
            prop_assert!(
                spec_tokens(&shrunk.entry.spec) <= spec_tokens(&spec),
                "{} grew to {}", spec, shrunk.entry.spec
            );
            // (b) replays to a violation with the identical signature.
            let replay = run_cell_instrumented(
                StackKind::Ba, &parsed.unwrap(), shrunk.entry.seed, &registry, BUDGET, TraceMode::Off,
            )
            .report;
            prop_assert!(!replay.violations.is_empty(), "{}", shrunk.entry.spec);
            prop_assert_eq!(
                violation_signature(StackKind::Ba, &replay),
                shrunk.signature,
                "{} changed its violation signature", shrunk.entry.spec
            );
            prop_assert_eq!(replay.fingerprint, shrunk.report.fingerprint);
        }
    }
}

/// Registry-wide decoder fuzz over the *standard* codec registry: every
/// kind any protocol crate registers must decode arbitrary bodies
/// without panicking, and whatever decodes carries the declared kind's
/// registered name — never another kind's.
mod codec_props {
    use aft_core::scenarios::register_standard_codecs;
    use aft_sim::wire::{global_registry, parse_frame};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn every_registered_decoder_is_total_and_kind_honest(
            kind_sel in any::<usize>(),
            body in vec(any::<u8>(), 0..64),
        ) {
            register_standard_codecs();
            let registry = global_registry();
            let kinds: Vec<(u16, &'static str)> = registry.kinds().collect();
            prop_assert!(kinds.len() >= 20, "standard registry is populated");
            let (kind, name) = kinds[kind_sel % kinds.len()];
            // A syntactically valid frame with an arbitrary body, aimed
            // at this exact registered decoder.
            let mut frame = kind.to_le_bytes().to_vec();
            frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
            frame.extend_from_slice(&body);
            if let Some((got_kind, payload)) = registry.decode_frame(&frame) {
                prop_assert_eq!(got_kind, kind);
                prop_assert_eq!(payload.type_name(), name, "never a different kind");
            }
        }

        #[test]
        fn registry_decode_total_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..64)) {
            register_standard_codecs();
            let registry = global_registry();
            if let Some((kind, payload)) = registry.decode_frame(&bytes) {
                prop_assert_eq!(parse_frame(&bytes).unwrap().0, kind);
                prop_assert_eq!(Some(payload.type_name()), registry.kind_name(kind));
            }
        }
    }
}
