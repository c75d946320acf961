//! Property-based tests of SVSS: share→reconstruct round-trips under
//! randomized system sizes, schedulers, fault placements and secrets.

use aft_field::Fp;
use aft_sim::{
    scheduler_by_name, Instance, NetConfig, PartyId, Runtime, RuntimeExt, SessionId, SessionTag,
    SilentInstance, SimNetwork, StopReason,
};
use aft_svss::attacks::WrongSigma;
use aft_svss::{ShareBundle, SvssRec, SvssShare};
use proptest::prelude::*;

fn share_sid() -> SessionId {
    SessionId::root().child(SessionTag::new("svss-share", 0))
}

fn rec_sid() -> SessionId {
    SessionId::root().child(SessionTag::new("svss-rec", 0))
}

fn scheduler_name(idx: usize) -> &'static str {
    ["fifo", "random", "lifo", "window4"][idx % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Honest dealer, arbitrary scheduler, any dealer position, any secret:
    /// all parties reconstruct the secret and nobody shuns anybody.
    #[test]
    fn share_rec_roundtrip(
        seed in any::<u64>(),
        secret in 0u64..1_000_000,
        sys in 0usize..2,
        dealer_idx in 0usize..4,
        sched in 0usize..4,
    ) {
        let (n, t) = [(4usize, 1usize), (7, 2)][sys];
        let dealer = dealer_idx % n;
        let secret = Fp::new(secret);
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name(scheduler_name(sched)).unwrap(),
        );
        for p in 0..n {
            let inst: Box<dyn Instance> = if p == dealer {
                Box::new(SvssShare::dealer(PartyId(dealer), secret))
            } else {
                Box::new(SvssShare::party(PartyId(dealer)))
            };
            net.spawn(PartyId(p), share_sid(), inst);
        }
        let report = net.run(50_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        let bundles: Vec<Option<ShareBundle>> = (0..n)
            .map(|p| net.output_as::<ShareBundle>(PartyId(p), &share_sid()).cloned())
            .collect();
        for (p, b) in bundles.iter().enumerate() {
            prop_assert!(b.is_some(), "party {p} did not complete share");
        }
        for (p, b) in bundles.into_iter().enumerate() {
            net.spawn(PartyId(p), rec_sid(), Box::new(SvssRec::new(b.unwrap())));
        }
        let report = net.run(50_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        for p in 0..n {
            prop_assert_eq!(net.output_as::<Fp>(PartyId(p), &rec_sid()), Some(&secret));
        }
        prop_assert_eq!(net.metrics().shun_events, 0);
    }

    /// With up to t silent parties and up to t wrong-σ reconstructors
    /// (within the combined Byzantine budget), honest parties still
    /// reconstruct the dealer's secret, and no honest party shuns an
    /// honest party.
    #[test]
    fn roundtrip_with_faults(
        seed in any::<u64>(),
        secret in 0u64..1000,
        silent_mask in 0usize..3,
    ) {
        let (n, t) = (7usize, 2usize);
        let dealer = 0usize;
        // The Byzantine set: two parties, either silent or wrong-σ.
        let byz: Vec<usize> = vec![5, 6];
        let secret = Fp::new(secret);
        let mut net = SimNetwork::new(
            NetConfig::new(n, t, seed),
            scheduler_by_name("random").unwrap(),
        );
        for p in 0..n {
            let inst: Box<dyn Instance> = if byz.contains(&p) && silent_mask == 0 {
                Box::new(SilentInstance)
            } else if p == dealer {
                Box::new(SvssShare::dealer(PartyId(dealer), secret))
            } else {
                Box::new(SvssShare::party(PartyId(dealer)))
            };
            net.spawn(PartyId(p), share_sid(), inst);
        }
        net.run(50_000_000);
        let bundles: Vec<Option<ShareBundle>> = (0..n)
            .map(|p| net.output_as::<ShareBundle>(PartyId(p), &share_sid()).cloned())
            .collect();
        let honest: Vec<usize> = (0..n).filter(|p| !byz.contains(p)).collect();
        for &p in &honest {
            prop_assert!(bundles[p].is_some(), "honest {p} must complete share");
        }
        for (p, b) in bundles.into_iter().enumerate() {
            let Some(b) = b else { continue };
            let inst: Box<dyn Instance> = if byz.contains(&p) {
                match silent_mask {
                    0 => Box::new(SilentInstance),
                    1 => Box::new(WrongSigma::new(b, Fp::new(3), false)),
                    _ => Box::new(SvssRec::new(b)), // byz behaves honestly
                }
            } else {
                Box::new(SvssRec::new(b))
            };
            net.spawn(PartyId(p), rec_sid(), inst);
        }
        let report = net.run(50_000_000);
        prop_assert_eq!(report.stop, StopReason::Quiescent);
        for &p in &honest {
            prop_assert_eq!(
                net.output_as::<Fp>(PartyId(p), &rec_sid()),
                Some(&secret),
                "honest {} reconstructed wrong value", p
            );
        }
        // No honest party ever shuns another honest party.
        for &p in &honest {
            for shunned in net.node(PartyId(p)).shun_registry().shunned() {
                prop_assert!(byz.contains(&shunned.0), "honest shunned honest");
            }
        }
    }
}

/// Codec laws for the SVSS wire messages, whose bodies carry field
/// elements and polynomials: exact round trips, canonical-form
/// rejection, totality on junk bytes.
mod codec_props {
    use aft_field::{Fp, Poly};
    use aft_sim::wire::{decode_frame_as, encode_frame};
    use aft_svss::{RecMsg, ShareMsg};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fp(raw: u64) -> Fp {
        Fp::new(raw)
    }

    fn poly(raw: &[u64]) -> Poly {
        Poly::from_coeffs(raw.iter().map(|&c| fp(c)).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn share_msgs_round_trip(
            sel in 0u8..4,
            a in any::<u64>(),
            b in any::<u64>(),
            row in vec(any::<u64>(), 1..6),
            col in vec(any::<u64>(), 1..6),
            peer in 0usize..16,
        ) {
            let msg = match sel {
                0 => ShareMsg::Shares { row: poly(&row), col: poly(&col) },
                1 => ShareMsg::Cross { a: fp(a), b: fp(b) },
                2 => ShareMsg::Ok(aft_sim::PartyId(peer)),
                _ => ShareMsg::Done,
            };
            let mut frame = Vec::new();
            encode_frame(&msg, &mut frame);
            prop_assert_eq!(decode_frame_as::<ShareMsg>(&frame), Some(msg));
        }

        #[test]
        fn rec_msgs_round_trip(
            sel in 0u8..2,
            v in any::<u64>(),
            row in vec(any::<u64>(), 1..6),
            col in vec(any::<u64>(), 1..6),
        ) {
            let msg = match sel {
                0 => RecMsg::Sigma(fp(v)),
                _ => RecMsg::Reveal { row: poly(&row), col: poly(&col) },
            };
            let mut frame = Vec::new();
            encode_frame(&msg, &mut frame);
            prop_assert_eq!(decode_frame_as::<RecMsg>(&frame), Some(msg));
        }

        #[test]
        fn svss_decoders_total_on_junk_and_truncation(
            bytes in vec(any::<u8>(), 0..96),
            row in vec(any::<u64>(), 1..5),
            cut_frac in 0usize..100,
        ) {
            // Arbitrary junk never panics.
            let _ = decode_frame_as::<ShareMsg>(&bytes);
            let _ = decode_frame_as::<RecMsg>(&bytes);
            // Truncating a real Shares frame is always rejected.
            let msg = ShareMsg::Shares { row: poly(&row), col: poly(&row) };
            let mut frame = Vec::new();
            encode_frame(&msg, &mut frame);
            let cut = cut_frac * (frame.len() - 1) / 100;
            prop_assert_eq!(decode_frame_as::<ShareMsg>(&frame[..cut]), None);
        }
    }
}
