//! Property-based tests of A-Cast: validity, agreement and totality under
//! randomized system sizes, schedulers, senders and fault placements.

use aft_broadcast::{Acast, EquivocatingSender};
use aft_sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason,
};
use proptest::prelude::*;

fn sid() -> SessionId {
    SessionId::root().child(SessionTag::new("acast", 0))
}

fn sched_name(i: usize) -> &'static str {
    ["fifo", "random", "lifo", "window4", "window16"][i % 5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Honest sender: every honest party delivers the sender's value, for
    /// any scheduler, any sender position, any value, and up to t crashed
    /// receivers.
    #[test]
    fn validity_under_randomized_conditions(
        seed in any::<u64>(),
        sys in 0usize..3,
        sender in 0usize..10,
        value in any::<u64>(),
        sched in 0usize..5,
        crash_offset in 0usize..10,
    ) {
        let (n, t) = [(4usize, 1usize), (7, 2), (10, 3)][sys];
        let sender = sender % n;
        // Crash t receivers (never the sender).
        let crashed: Vec<usize> = (0..n)
            .filter(|&p| p != sender)
            .cycle()
            .skip(crash_offset % n)
            .take(t)
            .collect();
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name(sched_name(sched)).unwrap(),
        );
        for p in 0..n {
            let inst: Box<dyn Instance> = if crashed.contains(&p) {
                Box::new(SilentInstance)
            } else if p == sender {
                Box::new(Acast::sender(PartyId(sender), value))
            } else {
                Box::new(Acast::<u64>::receiver(PartyId(sender)))
            };
            net.spawn(PartyId(p), sid(), inst);
        }
        let report = net.run(20_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..n {
            if !crashed.contains(&p) {
                prop_assert_eq!(
                    net.output_as::<u64>(PartyId(p), &sid()),
                    Some(&value),
                    "party {} must deliver", p
                );
            }
        }
    }

    /// Byzantine equivocating sender: agreement and totality always hold
    /// among honest parties (they may deliver nothing, but never split).
    #[test]
    fn agreement_and_totality_under_equivocation(
        seed in any::<u64>(),
        sys in 0usize..2,
        sched in 0usize..5,
        a in any::<u8>(),
        b in any::<u8>(),
    ) {
        let (n, t) = [(4usize, 1usize), (7, 2)][sys];
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name(sched_name(sched)).unwrap(),
        );
        for p in 0..n {
            let inst: Box<dyn Instance> = if p == 0 {
                Box::new(EquivocatingSender::new(PartyId(0), a, b))
            } else {
                Box::new(Acast::<u8>::receiver(PartyId(0)))
            };
            net.spawn(PartyId(p), sid(), inst);
        }
        let report = net.run(20_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        let outputs: Vec<Option<u8>> = (1..n)
            .map(|p| net.output_as::<u8>(PartyId(p), &sid()).copied())
            .collect();
        let delivered: Vec<u8> = outputs.iter().flatten().copied().collect();
        // Agreement.
        prop_assert!(delivered.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
        // Totality: all or nothing.
        prop_assert!(
            delivered.is_empty() || delivered.len() == n - 1,
            "partial delivery: {outputs:?}"
        );
        // Delivered value is one the sender actually proposed.
        if let Some(&v) = delivered.first() {
            prop_assert!(v == a || v == b);
        }
    }
}

/// Codec laws for the A-Cast wire messages: round trip per carried value
/// type, kind separation between instantiations, and totality on junk.
mod codec_props {
    use aft_broadcast::AcastMsg;
    use aft_sim::wire::{decode_frame_as, encode_frame};
    use aft_sim::WireMessage;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn msg<V: Clone>(tag: u8, v: V) -> AcastMsg<V> {
        match tag % 3 {
            0 => AcastMsg::Send(v),
            1 => AcastMsg::Echo(v),
            _ => AcastMsg::Ready(v),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn acast_frames_round_trip(tag in any::<u8>(), v in any::<u64>(), s_bytes in vec(any::<u8>(), 0..20)) {
            let m = msg(tag, v);
            let mut frame = Vec::new();
            encode_frame(&m, &mut frame);
            prop_assert_eq!(decode_frame_as::<AcastMsg<u64>>(&frame), Some(m));

            let s = String::from_utf8_lossy(&s_bytes).into_owned();
            let m = msg(tag, s);
            let mut frame = Vec::new();
            encode_frame(&m, &mut frame);
            prop_assert_eq!(decode_frame_as::<AcastMsg<String>>(&frame.clone()), Some(m));
            // A frame of acast<String> never decodes as acast<u64>: the
            // composed kinds differ per carried type.
            prop_assert_eq!(decode_frame_as::<AcastMsg<u64>>(&frame), None);
        }

        #[test]
        fn acast_decoder_total_on_junk(bytes in vec(any::<u8>(), 0..48)) {
            let _ = decode_frame_as::<AcastMsg<u64>>(&bytes);
            let _ = decode_frame_as::<AcastMsg<String>>(&bytes);
            let _ = AcastMsg::<u64>::decode_body(&bytes);
        }

        #[test]
        fn acast_truncation_is_rejected(tag in any::<u8>(), v in any::<u64>(), cut in 0usize..14) {
            let m = msg(tag, v);
            let mut frame = Vec::new();
            encode_frame(&m, &mut frame);
            let cut = cut.min(frame.len() - 1);
            prop_assert_eq!(decode_frame_as::<AcastMsg<u64>>(&frame[..cut]), None);
        }
    }
}
