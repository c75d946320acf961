//! End-to-end protocol benchmarks: one full simulated execution per
//! iteration, for every layer of the stack (A-Cast → SVSS → BA →
//! CommonSubset → CoinFlip → FairChoice → FBA), plus the cross-backend
//! `ba_sweep_n64` entries comparing `sim` against `sharded:<k>` at scale,
//! the `session_id` interner hot-path microbenches, and the
//! `delivery/enqueue_pick_drain` queue microbench gating future changes
//! to the batched in-flight queue.

use aft_ba::{BinaryBa, OracleCoin};
use aft_broadcast::Acast;
use aft_core::{
    CoinFlip, CoinFlipParams, CoinKind, CommonSubsetInstance, FairChoice, FairChoiceParams, Fba,
};
use aft_field::Fp;
use aft_sim::{
    runtime_by_name, scheduler_by_name, Instance, NetConfig, PartyId, SessionId, SessionTag,
    SimNetwork,
};
use aft_svss::{ShareBundle, SvssRec, SvssShare};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;

fn sid() -> SessionId {
    SessionId::root().child(SessionTag::new("bench", 0))
}

fn run_net(n: usize, t: usize, seed: u64, mk: impl Fn(usize) -> Box<dyn Instance>) -> SimNetwork {
    let mut net = SimNetwork::new(
        NetConfig::new(n, t, seed),
        scheduler_by_name("random").unwrap(),
    );
    for p in 0..n {
        net.spawn(PartyId(p), sid(), mk(p));
    }
    net.run(u64::MAX);
    net
}

fn bench_acast(c: &mut Criterion) {
    for &(n, t) in &[(4usize, 1usize), (7, 2), (10, 3)] {
        c.bench_with_input(BenchmarkId::new("acast/full_run", n), &n, |b, _| {
            b.iter(|| {
                run_net(n, t, 7, |p| {
                    if p == 0 {
                        Box::new(Acast::sender(PartyId(0), 42u64))
                    } else {
                        Box::new(Acast::<u64>::receiver(PartyId(0)))
                    }
                })
            })
        });
    }
}

fn bench_svss(c: &mut Criterion) {
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        c.bench_with_input(BenchmarkId::new("svss/share", n), &n, |b, _| {
            b.iter(|| {
                run_net(n, t, 7, |p| {
                    if p == 0 {
                        Box::new(SvssShare::dealer(PartyId(0), Fp::new(5)))
                    } else {
                        Box::new(SvssShare::party(PartyId(0)))
                    }
                })
            })
        });
        c.bench_with_input(BenchmarkId::new("svss/share_and_rec", n), &n, |b, _| {
            b.iter(|| {
                let mut net = run_net(n, t, 7, |p| {
                    if p == 0 {
                        Box::new(SvssShare::dealer(PartyId(0), Fp::new(5)))
                    } else {
                        Box::new(SvssShare::party(PartyId(0)))
                    }
                });
                let rsid = SessionId::root().child(SessionTag::new("rec", 0));
                for p in 0..n {
                    if let Some(bundle) = net.output_as::<ShareBundle>(PartyId(p), &sid()).cloned()
                    {
                        net.spawn(PartyId(p), rsid.clone(), Box::new(SvssRec::new(bundle)));
                    }
                }
                net.run(u64::MAX);
                net
            })
        });
    }
}

fn bench_ba(c: &mut Criterion) {
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        c.bench_with_input(BenchmarkId::new("ba/split_inputs", n), &n, |b, _| {
            b.iter(|| {
                run_net(n, t, 7, |p| {
                    Box::new(BinaryBa::new(p % 2 == 0, Box::new(OracleCoin::new(1))))
                })
            })
        });
    }
}

fn bench_common_subset(c: &mut Criterion) {
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        c.bench_with_input(BenchmarkId::new("common_subset/full", n), &n, |b, _| {
            b.iter(|| {
                run_net(n, t, 7, |_| {
                    Box::new(CommonSubsetInstance::new(n - t, CoinKind::Oracle(1), true))
                })
            })
        });
    }
}

fn bench_coin_flip(c: &mut Criterion) {
    for &k in &[1usize, 2] {
        c.bench_with_input(BenchmarkId::new("coin_flip/n4_k", k), &k, |b, _| {
            b.iter(|| {
                run_net(4, 1, 7, |_| {
                    Box::new(CoinFlip::new(
                        CoinFlipParams::FixedK { k },
                        CoinKind::Oracle(1),
                    ))
                })
            })
        });
    }
}

fn bench_fair_choice(c: &mut Criterion) {
    c.bench_function("fair_choice/m3_n4", |b| {
        b.iter(|| {
            run_net(4, 1, 7, |_| {
                Box::new(FairChoice::new(
                    3,
                    FairChoiceParams::FixedK { k: 1 },
                    CoinKind::Oracle(1),
                ))
            })
        })
    });
}

fn bench_fba(c: &mut Criterion) {
    c.bench_function("fba/distinct_inputs_n4", |b| {
        b.iter(|| {
            run_net(4, 1, 7, |p| {
                Box::new(Fba::new(
                    p as u64,
                    FairChoiceParams::FixedK { k: 1 },
                    CoinKind::Oracle(1),
                ))
            })
        })
    });
}

/// The scale sweep behind the sharded backend: one full unanimous-input
/// BA execution at n = 64 per iteration, on the single-threaded simulator
/// and the sharded simulator. The two backends do identical logical work
/// (same protocol, same message complexity; the sharded schedule is a
/// pure function of the seed). `sharded:4` overtakes `sim` when worker
/// shards get real cores; on a single core it pays the price of genuine
/// per-party random scheduling, which `sim`'s fairness cap collapses to
/// FIFO pops under load.
fn bench_ba_sweep_n64(c: &mut Criterion) {
    let (n, t) = (64usize, 21usize);
    for backend in ["sim", "sharded:4"] {
        let label = backend.replace(':', "");
        c.bench_with_input(BenchmarkId::new("ba_sweep_n64", label), &n, |b, _| {
            b.iter(|| {
                let mut rt = runtime_by_name(backend, NetConfig::new(n, t, 7)).unwrap();
                for p in 0..n {
                    rt.spawn(
                        PartyId(p),
                        sid(),
                        Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(7)))),
                    );
                }
                rt.run(u64::MAX)
            })
        });
    }
}

/// The n = 256 stretch row: one unanimous-input BA execution at
/// `(n, t) = (256, 85)` per iteration, on both deterministic backends.
/// Sampled shallow (each iteration is a full four-figure-party BA run)
/// and non-gating in CI — its job is to prove the pipeline completes at
/// this scale and to track the trend, not to gate on noise.
fn bench_ba_sweep_n256(c: &mut Criterion) {
    let (n, t) = (256usize, 85usize);
    for backend in ["sim", "sharded:4"] {
        let label = backend.replace(':', "");
        c.bench_with_input_samples(BenchmarkId::new("ba_sweep_n256", label), &n, 3, |b, _| {
            b.iter(|| {
                let mut rt = runtime_by_name(backend, NetConfig::new(n, t, 7)).unwrap();
                for p in 0..n {
                    rt.spawn(
                        PartyId(p),
                        sid(),
                        Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(7)))),
                    );
                }
                rt.run(u64::MAX)
            })
        });
    }
}

/// The in-flight queue in isolation: bursts of same-destination pushes
/// (which merge into batches), random scheduler picks over the batch
/// view, and full drains — the enqueue/pick/drain cycle every simulated
/// message pays. Gates future queue changes.
fn bench_delivery_queue(c: &mut Criterion) {
    use aft_sim::{Envelope, Payload, Pending, RandomScheduler, Scheduler};
    let session = sid();
    c.bench_function("delivery/enqueue_pick_drain", |b| {
        b.iter(|| {
            let mut q = Pending::new();
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
            let mut sched = RandomScheduler;
            let mut seq = 0u64;
            let mut delivered = 0u64;
            // 16 waves: 32 senders burst 4 envelopes each at one
            // destination (merging into per-pair batches), then random
            // picks drain the queue down before the next wave.
            for wave in 0..16u64 {
                for src in 0..32usize {
                    let dst = (src + wave as usize) % 32;
                    for m in 0..4u64 {
                        q.push(Envelope {
                            from: PartyId(src),
                            to: PartyId(dst),
                            session: session.clone(),
                            // The send-path constructor: small messages
                            // small-box into inline frames, no Arc.
                            payload: Payload::message(m),
                            seq,
                            born_step: wave,
                        });
                        seq += 1;
                    }
                }
                while q.messages() > 64 {
                    let i = sched.pick(&q, &mut rng);
                    black_box(q.take(i));
                    delivered += 1;
                }
            }
            while !q.is_empty() {
                let i = sched.pick(&q, &mut rng);
                black_box(q.take(i));
                delivered += 1;
            }
            delivered
        })
    });
}

/// The typed wire codec in isolation: encode + decode round trips for a
/// small control message (the dominant wire traffic: inline-frame path)
/// and a polynomial-bearing SVSS share message (the large-frame path),
/// gating codec changes in the bench-regression diff.
fn bench_codec(c: &mut Criterion) {
    use aft_ba::V1;
    use aft_broadcast::AcastMsg;
    use aft_sim::wire::{decode_frame_as, encode_frame};
    use aft_svss::ShareMsg;

    c.bench_function("codec/encode_decode", |b| {
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
        let poly = aft_field::Poly::random(4, &mut rng);
        let small = AcastMsg::Echo(V1(true));
        let large = ShareMsg::Shares {
            row: poly.clone(),
            col: poly,
        };
        b.iter(|| {
            let mut buf = Vec::new();
            let mut acc = 0usize;
            for _ in 0..256 {
                buf.clear();
                encode_frame(black_box(&small), &mut buf);
                acc += decode_frame_as::<AcastMsg<V1>>(&buf).is_some() as usize;
                buf.clear();
                encode_frame(black_box(&large), &mut buf);
                acc += decode_frame_as::<ShareMsg>(&buf).is_some() as usize;
            }
            acc
        })
    });

    // The payload boundary itself: message construction (small-box) and
    // view-decode, as paid per delivered envelope on every backend.
    c.bench_function("codec/payload_message_view", |b| {
        use aft_sim::Payload;
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..256u64 {
                let p = Payload::message(black_box(i));
                acc += p.to_msg::<u64>().unwrap_or(0);
            }
            acc
        })
    });
}

/// The `SessionId` interner hot paths: per-send clones are pointer
/// copies, child derivation is one interner probe, equality is one word.
fn bench_session_id(c: &mut Criterion) {
    let base = SessionId::root()
        .child(SessionTag::new("coin", 3))
        .child(SessionTag::new("svss", 17));
    c.bench_function("session_id/clone_eq_last", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for _ in 0..1000 {
                let s = black_box(&base).clone();
                if s == base && s.last().is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    c.bench_function("session_id/child_intern", |b| {
        b.iter(|| {
            let mut depth = 0usize;
            for i in 0..1000u64 {
                // Mostly interner hits (64 distinct children), as on the
                // simulator's session-spawn path.
                let child = black_box(&base).child(SessionTag::new("ba", i % 64));
                depth += child.depth();
            }
            depth
        })
    });
}

/// The flight recorder's disabled fast path: a full BA run through the
/// instrumented delivery pipeline with tracing off must cost the same as
/// before the trace seam existed (the per-delivery check is one
/// statically predictable `Option` branch). Guarded by the bench
/// regression gate as `trace/off_overhead`.
fn bench_trace_off(c: &mut Criterion) {
    c.bench_function("trace/off_overhead", |b| {
        b.iter(|| {
            run_net(7, 2, 7, |p| {
                Box::new(BinaryBa::new(p % 2 == 0, Box::new(OracleCoin::new(1))))
            })
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_acast, bench_svss, bench_ba, bench_common_subset,
              bench_coin_flip, bench_fair_choice, bench_fba,
              bench_ba_sweep_n64, bench_ba_sweep_n256, bench_delivery_queue,
              bench_codec, bench_session_id, bench_trace_off
}
criterion_main!(benches);
