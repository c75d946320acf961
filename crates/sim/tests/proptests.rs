//! Property-based tests of the simulator: fairness, conservation,
//! determinism, and session routing under randomized configurations.

use aft_sim::{
    Context, Instance, NetConfig, PartyId, Payload, RandomScheduler, Runtime, RuntimeExt,
    Scheduler, SessionId, SessionTag, SimNetwork, StopReason, TraceMode, WindowScheduler,
};
use proptest::prelude::*;

/// Ping-pong instance: replies `v - 1` to any positive v received.
struct PingPong {
    start: Option<(PartyId, u32)>,
    received: u64,
}

impl Instance for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some((to, v)) = self.start {
            ctx.send(to, v);
        }
    }
    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        self.received += 1;
        if let Some(v) = payload.to_msg::<u32>() {
            if v > 0 {
                ctx.send(from, v - 1);
            } else {
                ctx.output(self.received);
            }
        }
    }
}

fn sid() -> SessionId {
    SessionId::root().child(SessionTag::new("pp", 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every run reaches quiescence and conserves messages:
    /// sent = delivered + dropped + pending.
    #[test]
    fn message_conservation(seed in any::<u64>(), n in 4usize..10, volleys in 1u32..30) {
        let t = (n - 1) / 3;
        let mut net = SimNetwork::new(NetConfig::new(n, t, seed), Box::new(RandomScheduler));
        for p in 0..n {
            let start = if p == 0 {
                Some((PartyId(n - 1), volleys))
            } else {
                None
            };
            net.spawn(PartyId(p), sid(), Box::new(PingPong { start, received: 0 }));
        }
        let report = net.run(10_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        let m = &report.metrics;
        prop_assert_eq!(
            m.sent,
            m.delivered + m.dropped_shunned + m.dropped_crashed + net.pending_len() as u64
        );
        // The volley bounces exactly `volleys + 1` times.
        prop_assert_eq!(m.sent, volleys as u64 + 1);
    }

    /// Identical seeds yield identical traces; different seeds (almost
    /// always) different ones, under every scheduler window.
    #[test]
    fn determinism(seed in any::<u64>(), window in 1usize..8) {
        let run = |s: u64| {
            let mut net = SimNetwork::new(
                NetConfig::new(4, 1, s),
                Box::new(WindowScheduler::new(window)),
            );
            net.set_trace(TraceMode::Full);
            for p in 0..4 {
                let start = if p == 0 { Some((PartyId(3), 20)) } else { None };
                net.spawn(PartyId(p), sid(), Box::new(PingPong { start, received: 0 }));
            }
            net.run(1_000_000);
            net.take_trace().expect("tracing on").snapshot()
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Fairness: under ANY scheduler in the suite, a single in-flight
    /// message among heavy competing traffic is delivered within the
    /// fairness cap.
    #[test]
    fn fairness_cap_bounds_starvation(seed in any::<u64>(), sched_idx in 0usize..3) {
        struct Noise { left: u32 }
        impl Instance for Noise {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = ctx.me();
                ctx.send(me, 0u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                if self.left > 0 {
                    self.left -= 1;
                    let me = ctx.me();
                    ctx.send(me, 0u8);
                }
            }
        }
        struct OneShot;
        impl Instance for OneShot {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(PartyId(1), 1u8);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
                ctx.output(());
            }
        }
        let sched: Box<dyn Scheduler> = match sched_idx {
            0 => Box::new(aft_sim::LifoScheduler),
            1 => Box::new(aft_sim::StarveScheduler::new([PartyId(0), PartyId(1)])),
            _ => Box::new(WindowScheduler::new(2)),
        };
        let mut net = SimNetwork::new(NetConfig::new(4, 1, seed), sched);
        let vict = SessionId::root().child(SessionTag::new("victim", 0));
        let noise = SessionId::root().child(SessionTag::new("noise", 0));
        net.spawn(PartyId(0), vict.clone(), Box::new(OneShot));
        net.spawn(PartyId(1), vict.clone(), Box::new(OneShot));
        net.spawn(PartyId(2), noise.clone(), Box::new(Noise { left: 5_000 }));
        net.run(20_000);
        prop_assert!(net.output(PartyId(1), &vict).is_some(), "victim starved past cap");
    }

    /// Messages sent to sessions spawned later are buffered, never lost.
    #[test]
    fn early_buffering_lossless(seed in any::<u64>(), delay_spawn in 1u64..50) {
        struct Sender;
        impl Instance for Sender {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send(PartyId(1), 42u32);
            }
            fn on_message(&mut self, _f: PartyId, _p: &Payload, _c: &mut Context<'_>) {}
        }
        struct Receiver;
        impl Instance for Receiver {
            fn on_start(&mut self, _ctx: &mut Context<'_>) {}
            fn on_message(&mut self, _f: PartyId, p: &Payload, ctx: &mut Context<'_>) {
                if let Some(v) = p.to_msg::<u32>() {
                    ctx.output(v);
                }
            }
        }
        let mut net = SimNetwork::new(NetConfig::new(4, 1, seed), Box::new(RandomScheduler));
        let s = SessionId::root().child(SessionTag::new("late", 0));
        net.spawn(PartyId(0), s.clone(), Box::new(Sender));
        // Deliver the message before the receiver's instance exists.
        for _ in 0..delay_spawn {
            if !net.step() {
                break;
            }
        }
        net.spawn(PartyId(1), s.clone(), Box::new(Receiver));
        net.run(10_000);
        prop_assert_eq!(net.output_as::<u32>(PartyId(1), &s), Some(&42));
    }

    /// Crashed parties never emit after the crash step.
    #[test]
    fn crash_silences(seed in any::<u64>(), crash_step in 1u64..40) {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, seed), Box::new(RandomScheduler));
        for p in 0..4 {
            let start = if p == 0 { Some((PartyId(2), 200)) } else { None };
            net.spawn(PartyId(p), sid(), Box::new(PingPong { start, received: 0 }));
        }
        net.run(crash_step);
        net.crash(PartyId(2));
        let sent = net.metrics().sent;
        let report = net.run(10_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        prop_assert!(net.node(PartyId(2)).is_crashed());
        // The ping-pong runs between parties 0 and 2, one message at a
        // time: once 2 has crashed, at most 0's answer to it is sent.
        prop_assert!(report.metrics.sent <= sent + 1, "{} after {}", report.metrics.sent, sent);
    }
}

/// Property tests of the declarative scenario layer: random `Scenario`
/// values must survive a display→parse round trip unchanged, and the
/// matrix composition must produce parseable specs.
mod scenario_props {
    use aft_sim::{Corruption, FaultSpec, PartyId, Scenario, ScenarioMatrix, ALL_SCHEDULERS};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Decodes one selector into a fault, covering every generic variant
    /// plus registry-style attack names with and without args.
    fn fault_from(sel: u64) -> FaultSpec {
        match sel % 7 {
            0 => FaultSpec::Silent,
            1 => FaultSpec::Crash,
            2 => FaultSpec::MuteAfter(sel / 7 % 32),
            3 => FaultSpec::Garbage(1 + sel / 7 % 64),
            4 => FaultSpec::Equivocate(1 + sel / 7 % 16),
            5 => FaultSpec::Attack {
                name: "equivocal-reveal".into(),
                args: String::new(),
            },
            _ => FaultSpec::Attack {
                name: "fixed-voter".into(),
                args: "true:3".into(),
            },
        }
    }

    /// Builds a valid random scenario: ≤ t distinct corrupted parties,
    /// a scheduler drawn from the shared family table (plus parameterized
    /// variants), and any backend.
    fn scenario_from(n: usize, corrupt: &[u64], sched: usize, rt: usize) -> Scenario {
        let t = (n - 1) / 3;
        let mut parties: Vec<usize> = Vec::new();
        for sel in corrupt.iter().take(t) {
            let available: Vec<usize> = (0..n).filter(|p| !parties.contains(p)).collect();
            parties.push(available[(sel % available.len() as u64) as usize]);
        }
        parties.sort_unstable();
        let corruptions = parties
            .iter()
            .zip(corrupt)
            .map(|(&party, sel)| Corruption {
                party: PartyId(party),
                fault: fault_from(sel >> 8),
            })
            .collect();
        let mut scheds: Vec<String> = ALL_SCHEDULERS
            .iter()
            .map(|f| f.example.to_string())
            .collect();
        scheds.push("window9".into());
        scheds.push("starve:0,2".into());
        let rts = [
            "sim",
            "sharded:1",
            "sharded:2",
            "sharded:4",
            "threaded",
            "proc",
        ];
        Scenario {
            n,
            t,
            corruptions,
            adaptive: None,
            sched: scheds[sched % scheds.len()].clone(),
            rt: rts[rt % rts.len()].to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Display→parse round trip: the canonical string of any valid
        /// scenario parses back to the identical value.
        #[test]
        fn scenario_display_parse_round_trip(
            n in 4usize..=13,
            corrupt in vec(any::<u64>(), 0..=4),
            sched in 0usize..16,
            rt in 0usize..16,
        ) {
            let scenario = scenario_from(n, &corrupt, sched, rt);
            prop_assert!(scenario.validate().is_ok(), "{scenario}");
            let shown = scenario.to_string();
            prop_assert_eq!(Scenario::parse(&shown), Some(scenario), "{}", shown);
        }

        /// Matrix composition always yields parseable, validated specs,
        /// and the cell count is the exact cross-product size.
        #[test]
        fn matrix_specs_always_parse(
            n in 4usize..=7,
            plan_sel in any::<u64>(),
            seeds in vec(any::<u64>(), 1..=3),
        ) {
            let plan = fault_from(plan_sel).to_string() + "@1";
            let matrix = ScenarioMatrix {
                n,
                t: (n - 1) / 3,
                backends: vec!["sim".into(), "sharded:2".into()],
                schedulers: ALL_SCHEDULERS.iter().map(|f| f.example.to_string()).collect(),
                plans: vec![String::new(), plan],
                seeds: seeds.clone(),
            };
            let specs = matrix.specs();
            prop_assert_eq!(specs.len(), 2 * ALL_SCHEDULERS.len() * 2);
            prop_assert_eq!(matrix.cells().len(), specs.len() * seeds.len());
            for spec in specs {
                prop_assert!(Scenario::parse(&spec).is_some(), "{}", spec);
            }
        }
    }
}

/// Property tests of the virtual-time network model: random `net:` specs
/// survive Display↔parse, the event queue is a pure function of
/// `(seed, spec)`, and crash-recovery never double-delivers.
mod net_props {
    use aft_sim::{
        scheduler_by_name, Context, Instance, LatencyDist, NetConfig, NetSpec, PartitionSpec,
        PartyId, Payload, Runtime, Scenario, SessionId, SessionTag, SimNetwork, StopReason,
        TraceMode,
    };
    use proptest::prelude::*;

    /// Builds an arbitrary-but-valid spec from raw selectors.
    fn spec_from(
        exp: bool,
        lo: u64,
        span: u64,
        mean: u64,
        fail: u8,
        part: u8,
        heal: u64,
    ) -> NetSpec {
        let lat = if exp {
            LatencyDist::Exp {
                mean: 1 + mean % 256,
            }
        } else {
            let lo = 1 + lo % 1000;
            LatencyDist::Uniform {
                lo,
                hi: lo + span % 1000,
            }
        };
        let partition = match part % 3 {
            0 => None,
            1 => Some(PartitionSpec::Sampled {
                pct: 1 + part.wrapping_mul(7) % 100,
            }),
            _ => Some(PartitionSpec::Explicit(vec![PartyId((part % 4) as usize)])),
        };
        let heal_after =
            (partition.is_some() && heal.is_multiple_of(2)).then_some(1 + heal % 100_000);
        NetSpec {
            lat,
            fail_pct: fail % 100,
            partition,
            heal_after,
        }
    }

    /// Flood: every party broadcasts `rounds` waves.
    struct Flood {
        rounds: u32,
        sent: u32,
        heard: usize,
    }
    impl Instance for Flood {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.sent = 1;
            ctx.send_all(0u32);
        }
        fn on_message(&mut self, _f: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
            self.heard += 1;
            if self.heard.is_multiple_of(ctx.n()) && self.sent < self.rounds {
                self.sent += 1;
                ctx.send_all(self.sent);
            }
        }
    }

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("net-pp", 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Display→parse round trip for random valid `net:` specs: the
        /// canonical string parses back to the identical value, and it
        /// resolves through the shared scheduler family table.
        #[test]
        fn net_spec_display_parse_round_trip(
            exp in any::<bool>(),
            lo in any::<u64>(),
            span in any::<u64>(),
            mean in any::<u64>(),
            fail in any::<u8>(),
            part in any::<u8>(),
            heal in any::<u64>(),
        ) {
            let spec = spec_from(exp, lo, span, mean, fail, part, heal);
            let shown = spec.to_string();
            prop_assert_eq!(NetSpec::parse(&shown).as_ref(), Some(&spec), "{}", shown);
            prop_assert!(scheduler_by_name(&shown).is_some(), "{}", shown);
        }

        /// The virtual-clock schedule is a pure function of `(seed, spec)`:
        /// two runs produce identical delivery streams, metrics and
        /// virtual completion times.
        #[test]
        fn net_schedule_is_pure_in_seed_and_spec(
            seed in any::<u64>(),
            exp in any::<bool>(),
            lo in any::<u64>(),
            span in 0u64..40,
            part in any::<u8>(),
            heal in any::<u64>(),
        ) {
            let spec = spec_from(exp, lo % 20, span, lo % 9, 0, part, heal).to_string();
            let run = || {
                let mut net = SimNetwork::new(
                    NetConfig::new(4, 1, seed),
                    scheduler_by_name(&spec).expect("spec resolves"),
                );
                net.set_trace(TraceMode::Full);
                for p in 0..4 {
                    net.spawn(PartyId(p), sid(), Box::new(Flood { rounds: 3, sent: 0, heard: 0 }));
                }
                let report = net.run(1_000_000);
                (
                    net.take_trace().expect("tracing on").snapshot(),
                    report.metrics.virtual_time,
                    report.metrics.sent,
                    report.stop,
                )
            };
            let first = run();
            prop_assert_eq!(first.3, StopReason::Quiescent, "{}", &spec);
            prop_assert_eq!(run(), first, "{}", spec);
        }

        /// Crash + recover conserves messages exactly: nothing is ever
        /// delivered twice and nothing vanishes — on the order-only and
        /// virtual-time schedulers alike, across recovery times that land
        /// before, during and long after the episode's natural traffic.
        #[test]
        fn crash_recover_never_double_delivers(
            seed in any::<u64>(),
            at in 1u64..400,
            lo in 1u64..16,
        ) {
            let spec = format!(
                "n=4,t=1,corrupt=recover:{at}@2,sched=net:lat={lo}..{},rt=sim",
                lo + 7
            );
            let scenario = Scenario::parse(&spec).unwrap();
            let mut rt = scenario.runtime(seed);
            scenario
                .deploy_episode(
                    rt.as_mut(),
                    &aft_sim::AttackRegistry::new(),
                    "flood",
                    &sid(),
                    &[],
                    |_, _| Box::new(Flood { rounds: 2, sent: 0, heard: 0 }),
                )
                .unwrap();
            let report = rt.run(1_000_000);
            prop_assert_eq!(report.stop, StopReason::Quiescent, "{}", &spec);
            let m = &report.metrics;
            prop_assert_eq!(
                m.sent,
                m.delivered + m.dropped_shunned + m.dropped_crashed,
                "{} seed={}: conservation across crash-recovery",
                &spec, seed
            );
        }
    }
}

mod codec_props {
    use aft_sim::wire::{decode_frame_as, encode_frame, parse_frame, CodecRegistry, WireMessage};
    use aft_sim::Payload;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn roundtrips<T: WireMessage + Clone + PartialEq + std::fmt::Debug>(v: &T) {
        let mut frame = Vec::new();
        encode_frame(v, &mut frame);
        assert_eq!(decode_frame_as::<T>(&frame).as_ref(), Some(v));
        // The payload path agrees with the raw frame path.
        assert_eq!(Payload::message(v.clone()).to_msg::<T>().as_ref(), Some(v));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// encode ∘ decode = id for every builtin kind, on arbitrary
        /// values, through both the frame API and the Payload small-box.
        #[test]
        fn builtin_kinds_round_trip(
            a in any::<u64>(),
            b in any::<u32>(),
            c in any::<u8>(),
            d in any::<bool>(),
            s_bytes in vec(any::<u8>(), 0..24),
            l in vec(any::<usize>(), 0..12),
            raw in vec(any::<u8>(), 0..40),
        ) {
            roundtrips(&a);
            roundtrips(&b);
            roundtrips(&c);
            roundtrips(&d);
            roundtrips(&String::from_utf8_lossy(&s_bytes).into_owned());
            roundtrips(&l);
            roundtrips(&raw);
        }

        /// Decoder-fuzz: arbitrary bytes never panic anywhere in the
        /// codec stack, and whatever decodes carries the frame's own
        /// declared kind — never another one.
        #[test]
        fn arbitrary_bytes_never_panic_or_cross_kinds(bytes in vec(any::<u8>(), 0..64)) {
            let registry = CodecRegistry::with_builtins();
            if let Some((kind, payload)) = registry.decode_frame(&bytes) {
                prop_assert_eq!(parse_frame(&bytes).unwrap().0, kind);
                prop_assert_eq!(Some(payload.type_name()), registry.kind_name(kind));
            }
            // The lazy path is total too.
            let lazy = Payload::from_wire(bytes.clone());
            let _ = lazy.to_msg::<u64>();
            let _ = lazy.to_msg::<String>();
            let _ = lazy.type_name();
        }

        /// Truncating or bit-flipping a valid frame never panics and
        /// never produces a value under a kind the mutated header does
        /// not declare.
        #[test]
        fn mutated_frames_stay_kind_honest(
            v in any::<u64>(),
            cut in 0usize..14,
            flip_at in 0usize..14,
            flip_bit in 0u8..8,
        ) {
            let mut frame = Vec::new();
            encode_frame(&v, &mut frame);
            // Truncation: parse always fails (declared len is exact).
            let cut = cut.min(frame.len().saturating_sub(1));
            prop_assert!(parse_frame(&frame[..cut]).is_none());
            prop_assert!(decode_frame_as::<u64>(&frame[..cut]).is_none());
            // Bit flip: decode may fail or yield a u64, but only when
            // the (mutated) header still declares u64's kind.
            let mut mutated = frame.clone();
            let at = flip_at.min(mutated.len() - 1);
            mutated[at] ^= 1 << flip_bit;
            if decode_frame_as::<u64>(&mutated).is_some() {
                prop_assert_eq!(parse_frame(&mutated).unwrap().0, <u64 as WireMessage>::KIND);
            }
        }
    }
}
