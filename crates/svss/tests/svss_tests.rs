//! Property tests for SVSS against Definition 3.2 of the paper:
//! validity of termination, termination, binding-or-shun, validity, hiding.

use aft_broadcast::AcastMsg;
use aft_field::{BivarPoly, Fp, Poly};
use aft_sim::{
    party_node, scheduler_by_name, Instance, NetConfig, PartyId, Payload, Runtime, RuntimeExt,
    SessionId, SessionTag, SilentInstance, SimNetwork, StopReason,
};
use aft_svss::attacks::{EquivocalReveal, TwoFacedDealer, WrongCross, WrongSigma};
use aft_svss::{party_point, RecMsg, ShareBundle, ShareMsg, SvssRec, SvssShare, CORE_TAG};
use rand::SeedableRng;

fn share_sid() -> SessionId {
    SessionId::root().child(SessionTag::new("svss-share", 0))
}

fn rec_sid() -> SessionId {
    SessionId::root().child(SessionTag::new("svss-rec", 0))
}

/// Spawns a share phase with per-party instance selection and runs to
/// quiescence.
fn run_share(
    n: usize,
    t: usize,
    seed: u64,
    sched: &str,
    mk: impl Fn(usize) -> Box<dyn Instance>,
) -> SimNetwork {
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, seed),
        scheduler_by_name(sched).unwrap(),
    );
    for p in 0..n {
        net.spawn(PartyId(p), share_sid(), mk(p));
    }
    let report = net.run(5_000_000);
    assert_eq!(report.stop, StopReason::Quiescent, "share must not hang");
    net
}

/// Spawns reconstruction for every party that has a bundle, using `mk_rec`
/// to choose the instance, then runs to quiescence.
fn run_rec(
    net: &mut SimNetwork,
    n: usize,
    mk_rec: impl Fn(usize, ShareBundle) -> Box<dyn Instance>,
) {
    let bundles: Vec<Option<ShareBundle>> = (0..n)
        .map(|p| {
            net.output_as::<ShareBundle>(PartyId(p), &share_sid())
                .cloned()
        })
        .collect();
    for (p, bundle) in bundles.into_iter().enumerate() {
        if let Some(b) = bundle {
            net.spawn(PartyId(p), rec_sid(), mk_rec(p, b));
        }
    }
    let report = net.run(5_000_000);
    assert_eq!(report.stop, StopReason::Quiescent, "rec must not hang");
}

fn honest(dealer: usize, secret: Fp) -> impl Fn(usize) -> Box<dyn Instance> {
    move |p| {
        if p == dealer {
            Box::new(SvssShare::dealer(PartyId(dealer), secret))
        } else {
            Box::new(SvssShare::party(PartyId(dealer)))
        }
    }
}

#[test]
fn honest_dealer_all_complete_share_all_schedulers() {
    for (n, t) in [(4, 1), (7, 2), (10, 3)] {
        for sched in ["fifo", "random", "lifo", "window4"] {
            let net = run_share(n, t, 11, sched, honest(0, Fp::new(5)));
            for p in 0..n {
                let b = net
                    .output_as::<ShareBundle>(PartyId(p), &share_sid())
                    .unwrap_or_else(|| panic!("n={n} sched={sched} p={p} did not complete"));
                assert_eq!(b.core.len(), n - t);
                // Core members voted OK, which requires having their row;
                // their bundles must therefore carry it. (Non-members may
                // complete via Done-amplification before their Shares
                // message arrives under adversarial schedulers.)
                if b.in_core() {
                    assert!(
                        b.row.is_some() && b.col.is_some(),
                        "core member without shares: n={n} sched={sched} p={p}"
                    );
                }
                // Under FIFO the dealer's Shares always land first.
                if sched == "fifo" {
                    assert!(b.row.is_some() && b.col.is_some());
                }
            }
        }
    }
}

#[test]
fn honest_dealer_validity_reconstruction_exact() {
    for (n, t) in [(4, 1), (7, 2)] {
        for seed in 0..10u64 {
            let secret = Fp::new(1000 + seed);
            let mut net = run_share(n, t, seed, "random", honest(0, secret));
            run_rec(&mut net, n, |_, b| Box::new(SvssRec::new(b)));
            for p in 0..n {
                assert_eq!(
                    net.output_as::<Fp>(PartyId(p), &rec_sid()),
                    Some(&secret),
                    "n={n} seed={seed} p={p}"
                );
            }
            assert_eq!(net.metrics().shun_events, 0, "no shun in honest runs");
        }
    }
}

#[test]
fn silent_party_does_not_block_share_or_rec() {
    for (n, t) in [(4, 1), (7, 2)] {
        let secret = Fp::new(99);
        let mut net = run_share(n, t, 3, "random", |p| {
            if p == 0 {
                Box::new(SvssShare::dealer(PartyId(0), secret))
            } else if p <= t {
                Box::new(SilentInstance)
            } else {
                Box::new(SvssShare::party(PartyId(0)))
            }
        });
        // Honest parties complete share despite t silent parties.
        for p in (t + 1)..n {
            assert!(
                net.output_as::<ShareBundle>(PartyId(p), &share_sid())
                    .is_some(),
                "n={n} p={p}"
            );
        }
        run_rec(&mut net, n, |_, b| Box::new(SvssRec::new(b)));
        for p in (t + 1)..n {
            assert_eq!(net.output_as::<Fp>(PartyId(p), &rec_sid()), Some(&secret));
        }
    }
}

#[test]
fn silent_during_rec_only_is_tolerated() {
    let (n, t) = (7, 2);
    let secret = Fp::new(4242);
    let mut net = run_share(n, t, 5, "random", honest(0, secret));
    // Parties 1 and 2 complete share but withhold reconstruction messages.
    run_rec(&mut net, n, |p, b| {
        if p == 1 || p == 2 {
            Box::new(SilentInstance)
        } else {
            Box::new(SvssRec::new(b))
        }
    });
    for p in [0usize, 3, 4, 5, 6] {
        assert_eq!(net.output_as::<Fp>(PartyId(p), &rec_sid()), Some(&secret));
    }
}

#[test]
fn wrong_sigma_absorbed_by_error_correction() {
    let (n, t) = (7, 2);
    let secret = Fp::new(31337);
    for seed in 0..5 {
        let mut net = run_share(n, t, seed, "random", honest(0, secret));
        run_rec(&mut net, n, |p, b| {
            if p == 5 || p == 6 {
                Box::new(WrongSigma::new(b, Fp::new(17), false))
            } else {
                Box::new(SvssRec::new(b))
            }
        });
        for p in 0..5 {
            assert_eq!(
                net.output_as::<Fp>(PartyId(p), &rec_sid()),
                Some(&secret),
                "seed={seed} p={p}"
            );
        }
    }
}

#[test]
fn contradictory_sigma_and_reveal_causes_shun() {
    let (n, t) = (4, 1);
    let secret = Fp::new(8);
    let mut net = run_share(n, t, 7, "random", honest(0, secret));
    // Party 3 sends σ+17 but reveals the true row: self-contradiction.
    let in_core = net
        .output_as::<ShareBundle>(PartyId(3), &share_sid())
        .unwrap()
        .in_core();
    run_rec(&mut net, n, |p, b| {
        if p == 3 {
            Box::new(WrongSigma::new(b, Fp::new(17), true))
        } else {
            Box::new(SvssRec::new(b))
        }
    });
    for p in 0..3 {
        assert_eq!(net.output_as::<Fp>(PartyId(p), &rec_sid()), Some(&secret));
    }
    if in_core {
        assert!(
            net.metrics().shun_events > 0,
            "contradiction must trigger shunning"
        );
        // P3 must be shunned by at least one honest party.
        let shunned_by: usize = (0..3)
            .filter(|&p| {
                net.node(PartyId(p))
                    .shun_registry()
                    .shunned()
                    .any(|x| x == PartyId(3))
            })
            .count();
        assert!(shunned_by > 0);
    }
}

#[test]
fn equivocal_reveal_shunned_and_value_preserved() {
    let (n, t) = (7, 2);
    let secret = Fp::new(606);
    for seed in 0..5 {
        let mut net = run_share(n, t, seed, "random", honest(0, secret));
        let b5 = net
            .output_as::<ShareBundle>(PartyId(5), &share_sid())
            .unwrap()
            .clone();
        let attacker_in_core = b5.in_core();
        run_rec(&mut net, n, |p, b| {
            if p == 5 {
                Box::new(EquivocalReveal::new(b))
            } else {
                Box::new(SvssRec::new(b))
            }
        });
        for p in [0usize, 1, 2, 3, 4, 6] {
            assert_eq!(
                net.output_as::<Fp>(PartyId(p), &rec_sid()),
                Some(&secret),
                "seed={seed} p={p}"
            );
        }
        if attacker_in_core {
            assert!(net.metrics().shun_events > 0, "seed={seed}");
        }
    }
}

#[test]
fn honest_parties_never_shun_honest_parties() {
    // Across many seeds/schedulers with honest dealers and one byzantine
    // cross-corruptor, no honest party ever shuns an honest one.
    let (n, t) = (7, 2);
    for seed in 0..10u64 {
        for sched in ["random", "lifo"] {
            let mut net = run_share(n, t, seed, sched, |p| {
                if p == 0 {
                    Box::new(SvssShare::dealer(PartyId(0), Fp::new(1)))
                } else if p == 6 {
                    Box::new(WrongCross::new(PartyId(0), vec![PartyId(1), PartyId(2)]))
                } else {
                    Box::new(SvssShare::party(PartyId(0)))
                }
            });
            run_rec(&mut net, n, |_, b| Box::new(SvssRec::new(b)));
            for p in 0..6 {
                for shunned in net.node(PartyId(p)).shun_registry().shunned() {
                    assert_eq!(
                        shunned,
                        PartyId(6),
                        "honest P{p} shunned honest {shunned:?} (seed={seed})"
                    );
                }
            }
        }
    }
}

#[test]
fn two_faced_dealer_majority_group_binds_consistently() {
    // Dealer deals secret_a to a group of size n-t (incl. itself) and
    // secret_b to the rest: the core forms inside group A and every honest
    // party that reconstructs outputs the SAME value (binding-or-shun).
    let (n, t) = (4, 1);
    for seed in 0..20u64 {
        let group_a: Vec<PartyId> = vec![PartyId(0), PartyId(1), PartyId(2)];
        let mut net = run_share(n, t, seed, "random", |p| {
            if p == 0 {
                Box::new(TwoFacedDealer::new(
                    PartyId(0),
                    group_a.clone(),
                    Fp::new(111),
                    Fp::new(222),
                ))
            } else {
                Box::new(SvssShare::party(PartyId(0)))
            }
        });
        let completed: Vec<usize> = (1..n)
            .filter(|&p| {
                net.output_as::<ShareBundle>(PartyId(p), &share_sid())
                    .is_some()
            })
            .collect();
        if completed.is_empty() {
            continue; // faulty dealer may stall the share phase: allowed
        }
        run_rec(&mut net, n, |_, b| Box::new(SvssRec::new(b)));
        let outputs: Vec<Fp> = completed
            .iter()
            .filter_map(|&p| net.output_as::<Fp>(PartyId(p), &rec_sid()).copied())
            .collect();
        // Binding-or-shun: all equal, or at least one shun event recorded.
        let all_equal = outputs.windows(2).all(|w| w[0] == w[1]);
        assert!(
            all_equal || net.metrics().shun_events > 0,
            "seed={seed}: outputs {outputs:?} with no shun"
        );
        // In this configuration group A hosts the core, so the bound value
        // is secret_a.
        if all_equal && !outputs.is_empty() {
            assert_eq!(outputs[0], Fp::new(111), "seed={seed}");
        }
    }
}

#[test]
fn two_faced_dealer_even_split_stalls_but_quiesces() {
    // 2-2 split at n=4 leaves no (n-t)-clique: nobody completes the share
    // phase, and the run still reaches quiescence (no hang).
    let (n, t) = (4, 1);
    let net = run_share(n, t, 2, "random", |p| {
        if p == 0 {
            Box::new(TwoFacedDealer::new(
                PartyId(0),
                vec![PartyId(0), PartyId(1)],
                Fp::new(1),
                Fp::new(2),
            ))
        } else {
            Box::new(SvssShare::party(PartyId(0)))
        }
    });
    for p in 1..n {
        assert!(net
            .output_as::<ShareBundle>(PartyId(p), &share_sid())
            .is_none());
    }
}

#[test]
fn termination_totality_if_one_completes_all_complete() {
    // Under every scheduler: if any honest party completed the share
    // phase, every honest party did (Definition 3.2, Termination).
    for seed in 0..10u64 {
        for sched in ["random", "lifo", "starve:2"] {
            let net = run_share(7, 2, seed, sched, honest(3, Fp::new(50)));
            let done: Vec<bool> = (0..7)
                .map(|p| {
                    net.output_as::<ShareBundle>(PartyId(p), &share_sid())
                        .is_some()
                })
                .collect();
            let any = done.iter().any(|&b| b);
            let all = done.iter().all(|&b| b);
            assert!(
                !any || all,
                "sched={sched} seed={seed}: partial completion {done:?}"
            );
        }
    }
}

#[test]
fn cores_agree_across_parties() {
    let net = run_share(7, 2, 9, "random", honest(0, Fp::new(7)));
    let cores: Vec<Vec<PartyId>> = (0..7)
        .map(|p| {
            net.output_as::<ShareBundle>(PartyId(p), &share_sid())
                .unwrap()
                .core
                .clone()
        })
        .collect();
    for c in &cores[1..] {
        assert_eq!(c, &cores[0], "A-Cast must yield one agreed core");
    }
}

#[test]
fn perfect_hiding_constructive_witness() {
    // For ANY t rows+cols an adversary holds, and ANY alternative secret
    // s', there is a sharing polynomial consistent with that exact view and
    // secret s'. We construct it: F' = F + (s' - s)/Z(0,0) * Z with
    // Z = prod_{i in T} (x - x_i)(y - x_i), which vanishes on all of the
    // adversary's rows and columns.
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(99);
    let t = 2usize;
    let s = Fp::new(10);
    let s_alt = Fp::new(999);
    let f = BivarPoly::random_with_secret(s, t, &mut rng);
    let adversary: Vec<PartyId> = vec![PartyId(1), PartyId(4)]; // |T| = t

    // Z(x,y) as an evaluation closure.
    let z = |x: Fp, y: Fp| -> Fp {
        adversary
            .iter()
            .map(|&i| {
                let xi = party_point(i);
                (x - xi) * (y - xi)
            })
            .product()
    };
    let z00 = z(Fp::ZERO, Fp::ZERO);
    assert!(!z00.is_zero());
    let scale = (s_alt - s) / z00;
    let f_alt = |x: Fp, y: Fp| f.eval(x, y) + scale * z(x, y);

    // Same view: rows and cols of adversary parties agree everywhere.
    for &i in &adversary {
        let xi = party_point(i);
        for probe in 0..20u64 {
            let y = Fp::new(probe * 7 + 1);
            assert_eq!(f_alt(xi, y), f.eval(xi, y), "row of {i:?}");
            assert_eq!(f_alt(y, xi), f.eval(y, xi), "col of {i:?}");
        }
    }
    // Different secret.
    assert_eq!(f_alt(Fp::ZERO, Fp::ZERO), s_alt);
    // F' still has degree <= 2t in each variable... but crucially the
    // degree-t hiding argument needs |T| = t so deg Z = t per variable and
    // F' stays degree-t-per-variable: verify by interpolating a row of F'
    // from t+1 points and checking a fresh point.
    let pts: Vec<(Fp, Fp)> = (1..=t as u64 + 1)
        .map(|k| (Fp::new(100 + k), f_alt(Fp::new(55), Fp::new(100 + k))))
        .collect();
    let row_poly = aft_field::interpolate(&pts).unwrap();
    assert_eq!(
        row_poly.eval(Fp::new(777)),
        f_alt(Fp::new(55), Fp::new(777)),
        "F' row must still be degree t"
    );
}

#[test]
fn hiding_adversary_view_statistics_independent_of_secret() {
    // Statistical regression test: the parity of the adversary's row value
    // at a fixed probe point should be ~independent of the secret.
    let trials = 400;
    let mut count = [0usize; 2];
    for (si, s) in [Fp::ZERO, Fp::ONE].into_iter().enumerate() {
        for seed in 0..trials {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let f = BivarPoly::random_with_secret(s, 1, &mut rng);
            // adversary = party 2's row, probe at y=5
            let v = f.row(party_point(PartyId(2))).eval(Fp::new(5));
            if v.value() % 2 == 1 {
                count[si] += 1;
            }
        }
    }
    let diff = (count[0] as i64 - count[1] as i64).abs();
    assert!(
        diff < (trials as f64 * 0.15) as i64,
        "view statistic correlates with secret: {count:?}"
    );
}

#[test]
fn shun_bound_under_repeated_attacks() {
    // Run many SVSS instances with an equivocal revealer: total shun
    // events stay below n^2 because each ordered pair shuns once.
    let (n, t) = (4, 1);
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, 77),
        scheduler_by_name("random").unwrap(),
    );
    let instances = 12;
    for k in 0..instances {
        let ssid = SessionId::root().child(SessionTag::new("svss-share", k));
        for p in 0..n {
            let inst: Box<dyn Instance> = if p == 0 {
                Box::new(SvssShare::dealer(PartyId(0), Fp::new(k)))
            } else {
                Box::new(SvssShare::party(PartyId(0)))
            };
            net.spawn(PartyId(p), ssid.clone(), inst);
        }
    }
    net.run(20_000_000);
    for k in 0..instances {
        let ssid = SessionId::root().child(SessionTag::new("svss-share", k));
        let rsid = SessionId::root().child(SessionTag::new("svss-rec", k));
        let bundles: Vec<Option<ShareBundle>> = (0..n)
            .map(|p| net.output_as::<ShareBundle>(PartyId(p), &ssid).cloned())
            .collect();
        for (p, b) in bundles.into_iter().enumerate() {
            if let Some(b) = b {
                let inst: Box<dyn Instance> = if p == 3 {
                    Box::new(EquivocalReveal::new(b))
                } else {
                    Box::new(SvssRec::new(b))
                };
                net.spawn(PartyId(p), rsid.clone(), inst);
            }
        }
    }
    net.run(20_000_000);
    let shuns = net.metrics().shun_events;
    assert!(
        shuns < (n * n) as u64,
        "shun events {shuns} must stay under n^2 = {}",
        n * n
    );
    // And the attacker really is shunned by some honest party after the
    // first detected equivocation.
    assert!(shuns >= 1);
}

#[test]
fn deterministic_replay() {
    let run = |seed: u64| {
        let mut net = run_share(4, 1, seed, "random", honest(0, Fp::new(5)));
        run_rec(&mut net, 4, |_, b| Box::new(SvssRec::new(b)));
        (0..4)
            .map(|p| net.output_as::<Fp>(PartyId(p), &rec_sid()).copied())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(123), run(123));
}

#[test]
fn dealer_byzantine_junk_core_proposal_ignored() {
    // A dealer that A-Casts an invalid core (wrong size) must not crash
    // honest parties; nobody completes, run stays quiescent.
    struct JunkCoreDealer;
    impl Instance for JunkCoreDealer {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            // Send no shares, propose garbage core straight away.
            ctx.spawn(
                SessionTag::new(aft_svss::CORE_TAG, 0),
                Box::new(aft_broadcast::Acast::sender(
                    PartyId(0),
                    vec![0usize, 0, 99],
                )),
            );
        }
        fn on_message(&mut self, _f: PartyId, _p: &aft_sim::Payload, _c: &mut Context<'_>) {}
    }
    use aft_sim::Context;

    let net = run_share(4, 1, 4, "random", |p| {
        if p == 0 {
            Box::new(JunkCoreDealer)
        } else {
            Box::new(SvssShare::party(PartyId(0)))
        }
    });
    for p in 1..4 {
        assert!(net
            .output_as::<ShareBundle>(PartyId(p), &share_sid())
            .is_none());
    }
}

/// A vote may only name a party. A Byzantine participant that floods
/// `Ok(k)` for ten thousand `k ≥ n` — otherwise playing honestly — gets
/// nothing for it: under `fifo` (where junk cannot reorder anything else)
/// every party outputs the bundle it outputs without the flood, and not
/// one message more is sent in answer.
#[test]
fn ok_votes_for_non_parties_change_nothing() {
    use aft_sim::{Context, Payload};
    use aft_svss::ShareMsg;
    const JUNK: usize = 10_000;
    struct Flooder {
        inner: SvssShare,
        junk: usize,
    }
    impl Instance for Flooder {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.inner.on_start(ctx);
            for k in 0..self.junk {
                ctx.send_all(ShareMsg::Ok(PartyId(ctx.n() + k)));
            }
        }
        fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
            self.inner.on_message(from, payload, ctx);
        }
        fn on_child_output(&mut self, child: &SessionTag, out: &Payload, ctx: &mut Context<'_>) {
            self.inner.on_child_output(child, out, ctx);
        }
    }
    for (n, t) in [(4, 1), (7, 2)] {
        let run = |junk: usize| {
            let net = run_share(n, t, 8, "fifo", |p| match p {
                0 => Box::new(SvssShare::dealer(PartyId(0), Fp::new(9))),
                3 => Box::new(Flooder {
                    inner: SvssShare::party(PartyId(0)),
                    junk,
                }),
                _ => Box::new(SvssShare::party(PartyId(0))),
            });
            let bundles: Vec<String> = (0..n)
                .map(|p| {
                    let bundle = net.output_as::<ShareBundle>(PartyId(p), &share_sid());
                    format!("{:?}", bundle.expect("share completes"))
                })
                .collect();
            let m = net.metrics();
            assert_eq!(m.sent, m.delivered, "every vote, junk too, is delivered");
            (bundles, m.sent, m.sent_by_kind(aft_svss::CORE_TAG))
        };
        let (quiet, flooded) = (run(0), run(JUNK));
        assert_eq!(flooded.0, quiet.0, "n={n}: the same bundles");
        assert_eq!(flooded.1, quiet.1 + (JUNK * n) as u64, "n={n}: no answer");
        assert_eq!(flooded.2, quiet.2);
    }
}

/// The identical SVSS share phase driven through the `Runtime` trait on
/// every backend: all parties complete with consistent bundles.
#[test]
fn svss_share_through_runtime_trait_on_every_backend() {
    use aft_sim::{runtime_by_name, Runtime, RuntimeExt};
    for backend in ["sim", "threaded"] {
        let mut rt: Box<dyn Runtime> = runtime_by_name(backend, NetConfig::new(4, 1, 41)).unwrap();
        for p in 0..4 {
            let inst: Box<dyn Instance> = if p == 0 {
                Box::new(SvssShare::dealer(PartyId(0), Fp::new(77)))
            } else {
                Box::new(SvssShare::party(PartyId(0)))
            };
            rt.spawn(PartyId(p), share_sid(), inst);
        }
        let report = rt.run(1_000_000_000);
        assert_eq!(report.stop, StopReason::Quiescent, "{backend}");
        for p in 0..4 {
            assert!(
                rt.output_as::<ShareBundle>(PartyId(p), &share_sid())
                    .is_some(),
                "{backend}: party {p} must complete the share phase"
            );
        }
    }
}

/// A share phase that completed before the dealer's `Shares` reached it
/// still owes the dealing its cross points and its `Ok` votes: it sends
/// them on the late `Shares`, and only then is it spent.
#[test]
fn a_share_completed_before_its_shares_still_crosses_and_votes() {
    let (n, t) = (4, 1);
    let (me, dealer) = (PartyId(1), PartyId(0));
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
    let f = BivarPoly::random_with_secret(Fp::new(5), t, &mut rng);
    let x_me = party_point(me);
    let mut node = party_node(&NetConfig::new(n, t, 7), me.0);
    let _ = node.spawn(share_sid(), Box::new(SvssShare::party(dealer)));
    let core_sid = share_sid().child(SessionTag::new(CORE_TAG, dealer.0 as u64));
    let mut out = Vec::new();
    // Every peer's cross point, the dealer's core and every `Done`.
    for j in (0..n).map(PartyId) {
        let x_j = party_point(j);
        let (a, b) = (f.row(x_j).eval(x_me), f.col(x_j).eval(x_me));
        let cross = Payload::message(ShareMsg::Cross { a, b });
        node.deliver(j, share_sid(), cross, &mut out);
    }
    for j in (0..n).map(PartyId) {
        let core = Payload::message(AcastMsg::Ready(vec![0usize, 1, 2]));
        node.deliver(j, core_sid.clone(), core, &mut out);
    }
    for j in (0..n).map(PartyId) {
        node.deliver(j, share_sid(), Payload::message(ShareMsg::Done), &mut out);
    }
    assert!(
        node.output(&share_sid()).is_some(),
        "completed without a row"
    );
    assert_eq!(node.retired_count(), 0);
    out.clear();
    let shares = ShareMsg::Shares {
        row: f.row(x_me),
        col: f.col(x_me),
    };
    node.deliver(dealer, share_sid(), Payload::message(shares), &mut out);
    let sent: Vec<ShareMsg> = out.iter().filter_map(|o| o.payload.to_msg()).collect();
    let crosses = sent
        .iter()
        .filter(|m| matches!(m, ShareMsg::Cross { .. }))
        .count();
    let oks = sent.iter().filter(|m| matches!(m, ShareMsg::Ok(_))).count();
    assert_eq!(
        (crosses, oks),
        (n, n * n),
        "a cross to each, an Ok for each, to all"
    );
    assert_eq!(node.retired_count(), 1, "spent once every vote is cast");
}

/// After its output reconstruction still shuns a party that contradicts
/// itself — with a second, different σ, with a σ that contradicts the
/// reveal it had accepted before the output let go of the revealed rows,
/// with a reveal that contradicts the cross points it sent me, or with a
/// reveal whose `row(0)` contradicts the σ it sent.
#[test]
fn reconstruction_still_shuns_contradictions_after_output() {
    let (n, t) = (7, 2);
    let net = run_share(n, t, 5, "random", honest(0, Fp::new(9)));
    let bundle = |p: usize| {
        net.output_as::<ShareBundle>(PartyId(p), &share_sid())
            .cloned()
            .expect("completed")
    };
    let sigma = |p: usize| bundle(p).row.expect("a row").eval(Fp::ZERO);
    let reveal = |p: usize| {
        let b = bundle(p);
        (b.row.expect("a row"), b.col.expect("a col"))
    };
    let me = 1;
    let mine = bundle(me);
    let x_me = party_point(PartyId(me));
    // Three core peers that sent me their cross points: `j` reveals before
    // the output, `k1` and `k2` after it.
    let peers: Vec<usize> = mine
        .core
        .iter()
        .map(|p| p.0)
        .filter(|&p| p != me && mine.crosses.contains(PartyId(p)))
        .collect();
    let [j, k1, k2] = peers[..3] else {
        panic!("three core peers: {peers:?}")
    };
    let mut node = party_node(&NetConfig::new(n, t, 5), me);
    let _ = node.spawn(rec_sid(), Box::new(SvssRec::new(mine.clone())));
    let mut out = Vec::new();
    let mut deliver = |from: usize, msg: RecMsg| {
        node.deliver(PartyId(from), rec_sid(), Payload::message(msg), &mut out);
        node.shun_event_count()
    };
    // `j`'s reveal is accepted; σ from everyone else decodes the secret.
    let (row, col) = reveal(j);
    assert_eq!(deliver(j, RecMsg::Reveal { row, col }), 0);
    for p in (0..n).filter(|&p| p != j) {
        assert_eq!(deliver(p, RecMsg::Sigma(sigma(p))), 0);
    }
    let others = (0..n)
        .find(|p| ![j, k1, k2, me].contains(p))
        .expect("a fifth party");
    assert_eq!(
        deliver(j, RecMsg::Sigma(sigma(j) + Fp::ONE)),
        1,
        "contradicts its reveal"
    );
    assert_eq!(
        deliver(others, RecMsg::Sigma(sigma(others) + Fp::ONE)),
        2,
        "a second σ"
    );
    assert_eq!(
        deliver(others, RecMsg::Sigma(sigma(others))),
        2,
        "already shunned"
    );
    // `k1`'s row plus `x`: still its σ at zero, off its cross point at me.
    let (row, col) = reveal(k1);
    let row = &row + &Poly::from_coeffs(vec![Fp::ZERO, Fp::ONE]);
    assert_eq!(row.eval(Fp::ZERO), sigma(k1));
    assert_eq!(
        deliver(k1, RecMsg::Reveal { row, col }),
        3,
        "contradicts the crosses it sent me"
    );
    // `k2`'s row plus `x - x_me`: still its cross point at me, off its σ.
    let (row, col) = reveal(k2);
    let row = &row + &Poly::from_coeffs(vec![Fp::ZERO - x_me, Fp::ONE]);
    assert_eq!(row.eval(x_me), reveal(k2).0.eval(x_me));
    assert_eq!(
        deliver(k2, RecMsg::Reveal { row, col }),
        4,
        "row(0) contradicts its σ"
    );
    assert_eq!(
        node.output(&rec_sid()).and_then(|o| o.downcast_ref::<Fp>()),
        Some(&Fp::new(9))
    );
}

/// What a reconstruction keeps after output is what the full stack keeps
/// per dealing for the rest of the run: the tracks' state is boxed and
/// dropped at output, so the instance itself is the bundle handle, who
/// revealed and the σ table's header.
#[test]
fn a_finished_reconstruction_is_small() {
    const BUDGET: usize = 96;
    /// `size_of::<SvssRec>()` while the decoder, the reveals and the
    /// consistency graph sat inline, emptied but kept, after output.
    const INLINE_TRACKS: usize = 240;
    let size = std::mem::size_of::<SvssRec>();
    assert!(
        size <= BUDGET,
        "a finished reconstruction is {size} bytes, budget {BUDGET} (it was {INLINE_TRACKS} \
         with the tracks inline): keep what only the tracks read in the box output drops"
    );
}
