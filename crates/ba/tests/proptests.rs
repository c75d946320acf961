//! Property-based tests of binary BA: agreement, validity, termination
//! under randomized inputs, schedulers, coins, and fault placements.

use aft_ba::{BinaryBa, CoinSource, LocalCoin, OracleCoin};
use aft_sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason,
};
use proptest::prelude::*;

fn sid() -> SessionId {
    SessionId::root().child(SessionTag::new("ba", 0))
}

fn sched_name(i: usize) -> &'static str {
    ["fifo", "random", "lifo", "window4"][i % 4]
}

fn coin(i: usize, salt: u64) -> Box<dyn CoinSource> {
    match i % 2 {
        0 => Box::new(OracleCoin::new(salt)),
        _ => Box::new(LocalCoin),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any input vector, scheduler, and coin source: all honest
    /// parties terminate with the same value; if inputs are unanimous the
    /// output is that value.
    #[test]
    fn agreement_validity_termination(
        seed in any::<u64>(),
        inputs in proptest::collection::vec(any::<bool>(), 4..=4),
        sched in 0usize..4,
        coin_idx in 0usize..2,
    ) {
        let (n, t) = (4usize, 1usize);
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name(sched_name(sched)).unwrap(),
        );
        for (p, &input) in inputs.iter().enumerate().take(n) {
            net.spawn(
                PartyId(p),
                sid(),
                Box::new(BinaryBa::new(input, coin(coin_idx, seed))),
            );
        }
        let report = net.run(500_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        let outs: Vec<bool> = (0..n)
            .map(|p| *net.output_as::<bool>(PartyId(p), &sid()).expect("terminates"))
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "disagreement: {outs:?}");
        if inputs.windows(2).all(|w| w[0] == w[1]) {
            prop_assert_eq!(outs[0], inputs[0], "validity violated");
        }
    }

    /// With up to t silent parties at n = 7: honest agreement and
    /// unanimous-honest validity still hold.
    #[test]
    fn faulty_parties_cannot_break_agreement(
        seed in any::<u64>(),
        honest_input in any::<bool>(),
        mixed in any::<bool>(),
        byz_a in 0usize..7,
        byz_b in 0usize..7,
    ) {
        let (n, t) = (7usize, 2usize);
        let byz = [byz_a % n, byz_b % n];
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name("random").unwrap(),
        );
        for p in 0..n {
            let inst: Box<dyn Instance> = if byz.contains(&p) {
                Box::new(SilentInstance)
            } else {
                let input = if mixed { p % 2 == 0 } else { honest_input };
                Box::new(BinaryBa::new(input, Box::new(OracleCoin::new(seed))))
            };
            net.spawn(PartyId(p), sid(), inst);
        }
        let report = net.run(500_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        let honest: Vec<usize> = (0..n).filter(|p| !byz.contains(p)).collect();
        let outs: Vec<bool> = honest
            .iter()
            .map(|&p| *net.output_as::<bool>(PartyId(p), &sid()).expect("terminates"))
            .collect();
        prop_assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
        if !mixed {
            prop_assert_eq!(outs[0], honest_input);
        }
    }
}

/// Codec laws for the BA vote kinds: round trips (bare and A-Cast
/// wrapped), kind separation between the three phases, totality on junk.
mod codec_props {
    use aft_ba::{V1, V2, V3};
    use aft_broadcast::AcastMsg;
    use aft_sim::wire::{decode_frame_as, encode_frame, parse_frame};
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn vote_kinds_round_trip_and_stay_separated(b in any::<bool>(), d in 0u8..3) {
            let v3 = V3(match d { 0 => None, 1 => Some(false), _ => Some(true) });
            let mut f1 = Vec::new();
            encode_frame(&V1(b), &mut f1);
            let mut f2 = Vec::new();
            encode_frame(&V2(b), &mut f2);
            let mut f3 = Vec::new();
            encode_frame(&v3, &mut f3);
            prop_assert_eq!(decode_frame_as::<V1>(&f1), Some(V1(b)));
            prop_assert_eq!(decode_frame_as::<V2>(&f2), Some(V2(b)));
            prop_assert_eq!(decode_frame_as::<V3>(&f3), Some(v3));
            // Same body layout, different kinds: never cross-decode.
            prop_assert_eq!(decode_frame_as::<V2>(&f1), None);
            prop_assert_eq!(decode_frame_as::<V1>(&f2), None);

            let wrapped = AcastMsg::Echo(V1(b));
            let mut fw = Vec::new();
            encode_frame(&wrapped, &mut fw);
            prop_assert_eq!(decode_frame_as::<AcastMsg<V1>>(&fw.clone()), Some(wrapped));
            prop_assert_eq!(decode_frame_as::<AcastMsg<V2>>(&fw.clone()), None);
            prop_assert_eq!(decode_frame_as::<V1>(&fw), None, "wrapper kind differs");
        }

        #[test]
        fn vote_decoders_total_and_kind_honest(bytes in vec(any::<u8>(), 0..32)) {
            for kind in [
                decode_frame_as::<V1>(&bytes).map(|_| <V1 as aft_sim::WireMessage>::KIND),
                decode_frame_as::<V2>(&bytes).map(|_| <V2 as aft_sim::WireMessage>::KIND),
                decode_frame_as::<V3>(&bytes).map(|_| <V3 as aft_sim::WireMessage>::KIND),
            ]
            .into_iter()
            .flatten()
            {
                prop_assert_eq!(parse_frame(&bytes).unwrap().0, kind);
            }
        }
    }
}
