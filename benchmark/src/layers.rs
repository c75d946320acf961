//! Per-layer kernels: each times calls into one layer's public
//! functions at the workload's `(n, t)`, from outside the program.

use crate::spans::Spans;
use crate::workloads::{Env, CELL_BUDGET, FBA_BUDGET};
use aft_ba::{BinaryBa, OracleCoin, WeakSharedCoin, V1};
use aft_bench::deployment::{run_deployment, DeployOptions, DeployStack};
use aft_bench::session;
use aft_broadcast::{Acast, AcastMsg};
use aft_core::{
    CoinFlip, CoinFlipParams, CoinKind, CommonSubsetInstance, FairChoice, FairChoiceParams,
};
use aft_field::{
    batch_invert, interpolate, interpolate_at_zero, oec_decode, rs_decode, BivarPoly, Fp, Poly,
};
use aft_sim::wire::{decode_frame_as, encode_frame};
use aft_sim::{
    decode_envelope, encode_envelope, party_node, runtime_by_name, scheduler_by_name, Context,
    Envelope, Instance, NetConfig, PartyId, Payload, Pending, RunReport, Runtime, RuntimeExt,
    SessionId, SessionTag, StopReason,
};
use aft_svss::{ShareBundle, ShareMsg, SvssRec, SvssShare};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Named results in first-put order: `(name, value, unit)`.
pub struct Out(pub Vec<(String, f64, &'static str)>);

impl Out {
    /// Sets metric `name`, replacing an earlier value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => (entry.1, entry.2) = (value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }
}

/// Operations attempted and failed: executions, legs and kernels that
/// check their own result.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean of the middle half of `values` (sorted ranks n/4 up to 3n/4): as
/// robust as the median, without its jumps between the steps of a
/// quantised distribution.
pub fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let lo = v.len() / 4;
    mean(&v[lo..(v.len() - lo).max(lo)])
}

/// How long each micro-kernel is sampled.
const KERNEL_SLICE: Duration = Duration::from_millis(40);

/// Median nanoseconds per call of `f`: batches sized to about a
/// millisecond each, sampled for [`KERNEL_SLICE`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(1) || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let deadline = Instant::now() + KERNEL_SLICE;
    let mut samples = Vec::new();
    while samples.len() < 5 || Instant::now() < deadline {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// `aft_field` kernels at degree `t` over `n` evaluation points.
pub fn field(out: &mut Out, n: usize, t: usize, seed: u64) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let poly = Poly::random(t, &mut rng);
    let points = |count: usize| -> Vec<(Fp, Fp)> {
        (1..=count as u64)
            .map(|i| (Fp::new(i), poly.eval(Fp::new(i))))
            .collect()
    };
    let exact = points(t + 1);
    let mut noisy = points(n);
    for bad in noisy.iter_mut().take(t) {
        bad.1 += Fp::new(rng.gen_range(1..100));
    }
    let x = Fp::random(&mut rng);
    out.put(
        "field.interpolate_ns",
        ns_per_call(|| {
            black_box(interpolate(black_box(&exact)).expect("distinct points"));
        }),
        "ns",
    );
    out.put(
        "field.interpolate_at_zero_ns",
        ns_per_call(|| {
            black_box(interpolate_at_zero(black_box(&exact)).expect("distinct points"));
        }),
        "ns",
    );
    out.put(
        "field.rs_decode_ns",
        ns_per_call(|| {
            black_box(rs_decode(black_box(&noisy), t, t).expect("t errors decode"));
        }),
        "ns",
    );
    out.put(
        "field.oec_decode_ns",
        ns_per_call(|| {
            black_box(oec_decode(black_box(&noisy), t).expect("t errors decode"));
        }),
        "ns",
    );
    out.put(
        "field.bivar_deal_ns",
        ns_per_call(|| {
            let f = BivarPoly::random(t, &mut rng);
            for i in 1..=n as u64 {
                black_box((f.row(Fp::new(i)), f.col(Fp::new(i))));
            }
        }),
        "ns",
    );
    let values: Vec<Fp> = (0..n).map(|_| Fp::random(&mut rng)).collect();
    out.put(
        "field.batch_invert_ns",
        ns_per_call(|| {
            let mut v = values.clone();
            batch_invert(&mut v);
            black_box(v);
        }),
        "ns",
    );
    out.put(
        "field.poly_eval_ns",
        ns_per_call(|| {
            black_box(poly.eval(black_box(x)));
        }),
        "ns",
    );
}

/// Codec kernels: the small control frame that dominates traffic, the
/// polynomial-bearing SVSS share frame at degree `t`, the payload
/// boundary every delivery pays, and the deployment's envelope codec.
pub fn codec(out: &mut Out, t: usize, seed: u64) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let small = AcastMsg::Echo(V1(true));
    let poly = Poly::random(t, &mut rng);
    let large = ShareMsg::Shares {
        row: poly.clone(),
        col: poly,
    };
    let mut buf = Vec::new();
    out.put(
        "wire.encode_small_ns",
        ns_per_call(|| {
            buf.clear();
            encode_frame(black_box(&small), &mut buf);
        }),
        "ns",
    );
    let frame = buf.clone();
    out.put(
        "wire.decode_small_ns",
        ns_per_call(|| {
            black_box(decode_frame_as::<AcastMsg<V1>>(black_box(&frame)).expect("round trip"));
        }),
        "ns",
    );
    out.put(
        "wire.encode_poly_ns",
        ns_per_call(|| {
            buf.clear();
            encode_frame(black_box(&large), &mut buf);
        }),
        "ns",
    );
    let frame = buf.clone();
    out.put(
        "wire.decode_poly_ns",
        ns_per_call(|| {
            black_box(decode_frame_as::<ShareMsg>(black_box(&frame)).expect("round trip"));
        }),
        "ns",
    );
    out.put(
        "payload.message_view_ns",
        ns_per_call(|| {
            let p = Payload::message(black_box(AcastMsg::Echo(V1(true))));
            black_box(p.view::<AcastMsg<V1>>().is_some());
        }),
        "ns",
    );
    let sid = session("ba").child(SessionTag::new("bav1", 3));
    let payload = Payload::message(AcastMsg::Echo(V1(true)));
    out.put(
        "deploy.envelope_encode_ns",
        ns_per_call(|| {
            buf.clear();
            black_box(encode_envelope(PartyId(2), &sid, &payload, &mut buf));
        }),
        "ns",
    );
    let bytes = buf.clone();
    out.put(
        "deploy.envelope_decode_ns",
        ns_per_call(|| {
            black_box(decode_envelope(black_box(&bytes)).expect("round trip"));
        }),
        "ns",
    );
}

fn envelope(n: usize, seq: u64, sid: &SessionId) -> Envelope {
    Envelope {
        from: PartyId(seq as usize % n),
        to: PartyId((seq as usize / n) % n),
        session: sid.clone(),
        payload: Payload::message(seq),
        seq,
        born_step: 0,
    }
}

/// In-flight queue and scheduler kernels at `n` parties and an in-flight
/// depth of `n²` (one broadcast per party), capped at 4096.
pub fn queue(out: &mut Out, n: usize, t: usize, seed: u64) {
    let sid = session("bench");
    let depth = (n * n).min(4096) as u64;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);

    // Replay: keep `depth` envelopes in flight; each call pushes one and
    // takes one at a random pick.
    let mut q = Pending::new();
    let mut sched = scheduler_by_name("random").expect("random scheduler");
    let mut seq = 0u64;
    while seq < depth {
        q.push(envelope(n, seq, &sid));
        seq += 1;
    }
    out.put(
        "queue.push_take_ns_per_msg",
        ns_per_call(|| {
            q.push(envelope(n, seq, &sid));
            seq += 1;
            let i = sched.pick(&q, &mut rng);
            black_box(q.take(i));
        }),
        "ns",
    );

    // One pick over a standing queue of `depth` envelopes, per family.
    let net = "net:lat=exp:5,partition=p50,heal=200";
    for (metric, name) in [
        ("scheduler.pick_ns.random", "random"),
        ("scheduler.pick_ns.block8", "block:8"),
        ("scheduler.pick_ns.net", net),
    ] {
        let mut sched = scheduler_by_name(name).expect("scheduler parses");
        sched.configure(&NetConfig::new(n, t, seed));
        out.put(
            metric,
            ns_per_call(|| {
                black_box(sched.pick(&q, &mut rng));
            }),
            "ns",
        );
    }
}

struct Nop;
impl Instance for Nop {
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}
    fn on_message(&mut self, _from: PartyId, _p: &Payload, _ctx: &mut Context<'_>) {}
}

/// `Node` dispatch and session-id kernels.
pub fn dispatch(out: &mut Out, n: usize, t: usize, seed: u64) {
    let config = NetConfig::new(n, t, seed);
    let mut node = party_node(&config, 0);
    let sid = session("bench");
    node.spawn(sid.clone(), Box::new(Nop));
    let mut effects = Vec::new();
    let mut i = 0u64;
    out.put(
        "node.deliver_ns_per_msg",
        ns_per_call(|| {
            i += 1;
            node.deliver(PartyId(1), sid.clone(), Payload::message(i), &mut effects);
        }),
        "ns",
    );

    // Deliver-before-spawn: `burst` messages buffer in a fresh session's
    // early queue, then the spawn replays them.
    let burst = 4 * n as u64;
    let mut round = 0u64;
    let per_round = ns_per_call(|| {
        round += 1;
        let early = sid.child(SessionTag::new("early", round % 512));
        for m in 0..burst {
            node.deliver(PartyId(1), early.clone(), Payload::message(m), &mut effects);
        }
        node.spawn(early.clone(), Box::new(Nop));
        node.retire_session(&early);
    });
    out.put(
        "node.early_buffer_replay_ns_per_msg",
        per_round / burst as f64,
        "ns",
    );

    // Mostly interner hits (64 distinct children), as on the session
    // spawn path.
    let base = session("coin").child(SessionTag::new("svss", 17));
    let mut k = 0u64;
    out.put(
        "ids.child_intern_ns",
        ns_per_call(|| {
            k += 1;
            black_box(black_box(&base).child(SessionTag::new("ba", k % 64)));
        }),
        "ns",
    );
}

/// A do-nothing protocol: every party opens with `burst` messages spread
/// over its peers, then answers each message it gets with one message
/// back until its quota is spent, so the in-flight depth stays at
/// `n * burst`. The handlers do no work, so a run costs what the engine
/// costs.
struct Flood {
    burst: u64,
    quota: u64,
    sent: u64,
}

impl Instance for Flood {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let (me, n) = (ctx.me().0 as u64, ctx.n() as u64);
        for i in 0..self.burst {
            ctx.send(PartyId(((me + 1 + i) % n) as usize), i);
        }
        self.sent = self.burst;
    }
    fn on_message(&mut self, from: PartyId, _p: &Payload, ctx: &mut Context<'_>) {
        if self.sent < self.quota {
            ctx.send(from, self.sent);
            self.sent += 1;
        }
    }
}

/// Runs about `deliveries` flood deliveries on `backend` at an in-flight
/// depth of about `depth`; returns nanoseconds per delivery, or `None`
/// if the run misbehaved.
pub fn flood(
    backend: &str,
    n: usize,
    t: usize,
    seed: u64,
    deliveries: u64,
    depth: u64,
) -> Option<f64> {
    let mut rt = runtime_by_name(backend, NetConfig::new(n, t, seed))?;
    let burst = depth.div_ceil(n as u64).max(1);
    let quota = (deliveries / n as u64).max(burst);
    let sid = session("flood");
    for p in 0..n {
        let flood = Flood {
            burst,
            quota,
            sent: 0,
        };
        rt.spawn(PartyId(p), sid.clone(), Box::new(flood));
    }
    let t0 = Instant::now();
    let report = rt.run(CELL_BUDGET);
    let wall = t0.elapsed();
    let ok = report.stop == StopReason::Quiescent && report.metrics.delivered == quota * n as u64;
    ok.then(|| wall.as_nanos() as f64 / report.metrics.steps as f64)
}

fn deploy(
    n: usize,
    t: usize,
    seed: u64,
    sid: &SessionId,
    mk: impl Fn(usize) -> Box<dyn Instance>,
) -> Box<dyn Runtime> {
    let mut rt = runtime_by_name("sim:random", NetConfig::new(n, t, seed)).expect("sim backend");
    for p in 0..n {
        rt.spawn(PartyId(p), sid.clone(), mk(p));
    }
    rt
}

/// Whether `report` quiesced and every party has an output at `sid`.
fn finished(rt: &dyn Runtime, report: &RunReport, n: usize, sid: &SessionId) -> bool {
    report.stop == StopReason::Quiescent && (0..n).all(|p| rt.output(PartyId(p), sid).is_some())
}

/// Standalone sub-protocol executions on the simulator, one span each.
/// The SVSS-backed ones cost seconds beyond ten parties, so `(n, t)` is
/// the workload's capped at `(10, 3)`.
pub fn protocols(
    out: &mut Out,
    tally: &mut Tally,
    spans: &mut Spans,
    n: usize,
    t: usize,
    seed: u64,
) {
    let (n, t) = if n > 10 { (10, 3) } else { (n, t) };
    let sid = session("bench");
    let mut one = |spans: &mut Spans,
                   out: &mut Out,
                   metric: &str,
                   mk: &dyn Fn(usize) -> Box<dyn Instance>| {
        let mut rt = deploy(n, t, seed, &sid, mk);
        let (report, ms) = spans.timed(metric, || rt.run(FBA_BUDGET));
        tally.record(finished(rt.as_ref(), &report, n, &sid));
        out.put(metric, ms, "ms");
    };
    one(spans, out, "broadcast.acast_ms", &|p| {
        if p == 0 {
            Box::new(Acast::sender(PartyId(0), 42u64))
        } else {
            Box::new(Acast::<u64>::receiver(PartyId(0)))
        }
    });
    one(spans, out, "ba.decide_oracle_ms", &|p| {
        Box::new(BinaryBa::new(p % 2 == 0, Box::new(OracleCoin::new(seed))))
    });
    one(spans, out, "ba.decide_weakcoin_ms", &|p| {
        Box::new(BinaryBa::new(p % 2 == 0, Box::new(WeakSharedCoin)))
    });
    one(spans, out, "core.common_subset_ms", &|_| {
        Box::new(CommonSubsetInstance::new(
            n - t,
            CoinKind::Oracle(seed),
            true,
        ))
    });
    one(spans, out, "core.coin_flip_ms", &|_| {
        Box::new(CoinFlip::new(
            CoinFlipParams::FixedK { k: 1 },
            CoinKind::WeakShared,
        ))
    });
    one(spans, out, "core.fair_choice_ms", &|_| {
        Box::new(FairChoice::new(
            n,
            FairChoiceParams::FixedK { k: 1 },
            CoinKind::WeakShared,
        ))
    });

    // SVSS share, then reconstruct on the same node state.
    let mut rt = deploy(n, t, seed, &sid, |p| {
        if p == 0 {
            Box::new(SvssShare::dealer(PartyId(0), Fp::new(seed)))
        } else {
            Box::new(SvssShare::party(PartyId(0)))
        }
    });
    let (report, share_ms) = spans.timed("svss.share_ms", || rt.run(FBA_BUDGET));
    let mut ok = finished(rt.as_ref(), &report, n, &sid);
    let rec_sid = session("bench-rec");
    for p in 0..n {
        if let Some(bundle) = rt.output_as::<ShareBundle>(PartyId(p), &sid).cloned() {
            rt.spawn(PartyId(p), rec_sid.clone(), Box::new(SvssRec::new(bundle)));
        }
    }
    let (report, rec_ms) = spans.timed("svss.rec_ms", || rt.run(FBA_BUDGET));
    ok &= finished(rt.as_ref(), &report, n, &rec_sid)
        && (0..n).all(|p| rt.output_as::<Fp>(PartyId(p), &rec_sid) == Some(&Fp::new(seed)));
    tally.record(ok);
    out.put("svss.share_ms", share_ms, "ms");
    out.put("svss.rec_ms", rec_ms, "ms");
}

/// Spawns one `aft-partyd` through its command line and times how long
/// it takes to print `ready`; median of five.
pub fn spawn_ready_ms(env: &Env) -> Option<f64> {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut child = Command::new(&env.partyd)
            .args(["--party", "0", "--stack", "ba", "--seed", "1"])
            .args(["--scenario", "n=4,t=1,rt=proc"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .ok()?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take()?);
        let ready = stdout.read_line(&mut line).is_ok() && line.starts_with("ready");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let asked = child
            .stdin
            .take()
            .is_some_and(|mut stdin| writeln!(stdin, "shutdown").is_ok());
        if !ready || !asked {
            let _ = child.kill();
        }
        let _ = child.wait();
        if !ready {
            return None;
        }
        samples.push(ms);
    }
    Some(median(&samples))
}

/// Deployment legs beyond the workload's own: service through a SIGKILL
/// plus respawn (three runs), and common subset at n = 7 (four runs).
pub fn deployment_legs(out: &mut Out, tally: &mut Tally, spans: &mut Spans, env: &Env, seed: u64) {
    let mut leg = |span: &str, spec: &str, stack, runs: u64| {
        let mut walls = Vec::new();
        let mut restarts = 0usize;
        for i in 0..runs {
            let mut opts = DeployOptions::new(spec, stack, seed + i);
            opts.partyd = Some(env.partyd.clone());
            let (report, ms) = spans.timed(span, || run_deployment(&opts));
            walls.push(ms);
            let clean = report.ok().filter(|r| r.violations.is_empty());
            tally.record(clean.is_some());
            restarts += clean.map_or(0, |r| r.restarts);
        }
        (median(&walls), restarts)
    };
    let recover = "n=4,t=1,corrupt=recover:300@3,rt=proc";
    let (wall, restarts) = leg("diff.restart", recover, DeployStack::Ba, 3);
    out.put("deploy.restart_wall_ms", wall, "ms");
    out.put("deploy.restarts", restarts as f64, "count");
    let (wall, _) = leg(
        "diff.cs_n7",
        "n=7,t=2,rt=proc",
        DeployStack::CommonSubset,
        4,
    );
    out.put("deploy.cs_n7_wall_ms", wall, "ms");
}
