//! The traced pass: everything behind the per-layer metrics.

use crate::layers::{self, median, Out, Tally};
use crate::spans::Spans;
use crate::workloads::{Env, Exec, Workload};
use crate::{determinism_guard, exact_counts, exec_seed, timed_exec, Args, Sample};
use aft_sim::{Metrics, TraceMode};
use std::time::Instant;

/// Session kinds `Metrics::kinds()` reports across the five workloads.
const KINDS: [&str; 14] = [
    "bav1",
    "bav2",
    "bav3",
    "ba",
    "cs",
    "cs-ba",
    "bacoin",
    "wc-share",
    "wc-rec",
    "svss-core",
    "cf-share",
    "cf-rec",
    "cf-final",
    "fba-in",
];

/// Metrics measured by a leg only one workload has; everywhere else they
/// keep the 0 they are given up front.
const LEG_METRICS: [(&str, &str); 14] = [
    ("network.full_size_wall_ms", "ms"),
    ("network.full_size_ns_per_delivery", "ns"),
    ("wire_rt.overhead_ms_per_exec", "ms"),
    ("net.clock_overhead_ms_per_exec", "ms"),
    ("shard.wall_ms_per_exec.k1", "ms"),
    ("shard.wall_ms_per_exec.k2", "ms"),
    ("async_rt.wall_ms_per_exec", "ms"),
    ("async_rt.overhead_ns_per_delivery", "ns"),
    ("network.ns_per_delivery_n128", "ns"),
    ("deploy.sent_per_exec", "count"),
    ("deploy.delivered_per_exec", "count"),
    ("deploy.restart_wall_ms", "ms"),
    ("deploy.restarts", "count"),
    ("deploy.cs_n7_wall_ms", "ms"),
];

/// Whether two executions of one seed agree on every exact count. The
/// deployment's interleaving is real, so there only correctness counts.
fn agree(w: &Workload, a: &Exec, b: &Exec) -> bool {
    !w.deterministic() || exact_counts(a) == exact_counts(b)
}

/// What the paired loop and the legs after it share.
struct Refs<'a> {
    args: &'a Args,
    env: &'a Env,
    /// One-call executions of seeds 1, 2, … of this run.
    samples: Vec<Sample>,
}

impl Refs<'_> {
    fn median(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }

    /// A counter the program reports, as execution 1 reported it: counts
    /// depend on the seed alone, and how many more executions fit into
    /// the pass does not, so a median over them would not repeat.
    fn counter(&self, f: impl Fn(&Metrics) -> u64) -> f64 {
        self.samples[0].exec.metrics.as_ref().map_or(0, f) as f64
    }

    /// A differential leg: `spec` replaces the workload's own on seeds
    /// `1..=runs` of this run; with `same`, each fingerprint must equal
    /// the reference's. Returns the median wall time in milliseconds.
    fn leg(
        &self,
        tally: &mut Tally,
        spans: &mut Spans,
        span: &str,
        spec: &'static str,
        same: bool,
        runs: usize,
    ) -> f64 {
        let variant = Workload {
            spec,
            ..*self.args.workload
        };
        let mut walls = Vec::new();
        for (i, reference) in self.samples.iter().take(runs).enumerate() {
            let seed = exec_seed(self.args.seed, i as u64 + 1);
            let (sample, _) = spans.timed(span, || timed_exec(&variant, self.env, seed));
            let same_result = !same || sample.exec.fingerprint == reference.exec.fingerprint;
            if !same_result {
                eprintln!(
                    "{} seed {seed}: FAILED {span}: fingerprint differs",
                    variant.name
                );
            }
            tally.record(sample.exec.failures.is_empty() && same_result);
            walls.push(sample.wall_ms);
        }
        median(&walls)
    }
}

/// Runs the traced pass of `args.workload`, filling `out` with every
/// per-layer metric and `spans` with the trace.
pub fn run(args: &Args, env: &Env, out: &mut Out, spans: &mut Spans) -> Tally {
    let w = args.workload;
    let (n, t) = (w.n, w.t);
    let mut tally = Tally::default();
    for (name, unit) in LEG_METRICS {
        out.put(name, 0.0, unit);
    }

    // Cold first execution: fresh interner, registry and allocator.
    let first = timed_exec(w, env, exec_seed(args.seed, 1));
    out.put("network.wall_ms_first_exec", first.wall_ms, "ms");
    tally.record(first.exec.failures.is_empty());

    // Paired loop: the one-call reference, then the split execution of
    // the same seed under spans.
    let mut refs = Refs {
        args,
        env,
        samples: Vec::new(),
    };
    let start = Instant::now();
    while refs.samples.len() < 2 || start.elapsed().as_secs_f64() < args.seconds * 0.3 {
        let seed = exec_seed(args.seed, refs.samples.len() as u64 + 1);
        spans.set_exec(seed);
        let (reference, _) = spans.timed("diff.onecall", || timed_exec(w, env, seed));
        let id = spans.enter("exec");
        let split = w.exec_split(env, seed, spans, TraceMode::Off);
        spans.exit(id);
        for f in &split.failures {
            eprintln!("{} seed {seed}: FAILED split: {f}", w.name);
        }
        let agreed = agree(w, &reference.exec, &split);
        if !agreed {
            eprintln!("{} seed {seed}: FAILED one-call and split differ", w.name);
        }
        tally.record(reference.exec.failures.is_empty() && split.failures.is_empty() && agreed);
        refs.samples.push(reference);
    }
    determinism_guard(w, &first.exec, &refs.samples[0].exec);
    spans.set_exec(0);
    // Resident peak of the pass's own executions, before the legs add theirs.
    let rss = crate::sys::self_peak_rss_mb().max(crate::sys::children_peak_rss_mb());
    out.put("alloc.peak_rss_mb", rss, "MiB");
    let seed1 = exec_seed(args.seed, 1);
    let reference1 = &refs.samples[0].exec;

    // Spans of the split executions.
    let onecall_ms = refs.median(|s| s.wall_ms);
    let run_ms = median(&spans.durations_ms("run"));
    let steps = refs.median(|s| s.exec.steps as f64);
    let ns_per_delivery = run_ms * 1e6 / steps.max(1.0);
    for (metric, span) in [
        ("network.build_ms_per_exec", "build"),
        ("network.run_ms_per_exec", "run"),
        ("network.check_ms_per_exec", "check"),
    ] {
        out.put(metric, median(&spans.durations_ms(span)), "ms");
    }
    out.put(
        "network.exec_self_ms_per_exec",
        median(&spans.self_ms("exec")),
        "ms",
    );
    out.put("network.steps_per_exec", reference1.steps as f64, "count");
    out.put("network.ns_per_delivery", ns_per_delivery, "ns");
    let exec_ms = median(&spans.durations_ms("exec"));
    out.put(
        "trace.overhead_pct",
        (exec_ms - onecall_ms) / onecall_ms * 100.0,
        "%",
    );

    // Counters of execution 1.
    let sent = reference1.sent as f64;
    let wire_bytes = refs.counter(|m| m.wire_bytes);
    out.put(
        "wire_rt.frames_per_exec",
        refs.counter(|m| m.wire_frames),
        "count",
    );
    out.put("wire_rt.bytes_per_exec", wire_bytes, "B");
    out.put("wire_rt.bytes_per_msg", wire_bytes / sent.max(1.0), "B");
    out.put(
        "wire_rt.malformed_per_exec",
        refs.counter(|m| m.wire_malformed),
        "count",
    );
    let (fresh, reused) = (
        refs.counter(|m| m.pool_alloc),
        refs.counter(|m| m.pool_reused),
    );
    out.put("queue.pool_alloc_per_exec", fresh, "count");
    out.put("queue.pool_reused_per_exec", reused, "count");
    out.put(
        "queue.pool_hit_ratio",
        reused / (fresh + reused).max(1.0),
        "ratio",
    );
    out.put(
        "net.vtime_ms_per_exec",
        refs.counter(|m| m.virtual_time),
        "vms",
    );
    let misses = refs.counter(|m| m.decode_misses().map(|(_, c)| c).sum());
    out.put("node.decode_miss_per_exec", misses, "count");
    out.put(
        "node.dropped_shunned_per_exec",
        refs.counter(|m| m.dropped_shunned),
        "count",
    );
    out.put(
        "node.dropped_crashed_per_exec",
        refs.counter(|m| m.dropped_crashed),
        "count",
    );
    out.put(
        "node.shun_events_per_exec",
        refs.counter(|m| m.shun_events),
        "count",
    );
    for kind in KINDS {
        let name = format!("msgs.{kind}_per_exec");
        out.put(&name, refs.counter(|m| m.sent_by_kind(kind)), "count");
    }
    let allocs = refs.samples[0].allocs as f64;
    out.put("alloc.count_per_exec", allocs, "count");
    let alloc_bytes = refs.samples[0].alloc_bytes as f64;
    out.put("alloc.bytes_per_exec", alloc_bytes, "B");
    let per_delivery = allocs / (reference1.steps as f64).max(1.0);
    out.put("alloc.count_per_delivery", per_delivery, "count");

    // Layer kernels at the workload's (n, t).
    let kseed = exec_seed(args.seed, 0);
    type Kernel<'a> = &'a dyn Fn(&mut Out);
    let kernels: [(&str, Kernel); 4] = [
        ("kernel.field", &|out| layers::field(out, n, t, kseed)),
        ("kernel.codec", &|out| layers::codec(out, t, kseed)),
        ("kernel.queue", &|out| layers::queue(out, n, t, kseed)),
        ("kernel.dispatch", &|out| layers::dispatch(out, n, t, kseed)),
    ];
    for (span, kernel) in kernels {
        spans.timed(span, || kernel(out));
    }
    let id = spans.enter("kernel.protocols");
    layers::protocols(out, &mut tally, spans, n, t, kseed);
    spans.exit(id);
    let spawn_ready = layers::spawn_ready_ms(env);
    tally.record(spawn_ready.is_some());
    out.put("deploy.spawn_ready_ms", spawn_ready.unwrap_or(0.0), "ms");

    // The in-flight queue, sampled from outside on a bare `SimNetwork`.
    let (probe, _) = spans.timed("diff.queue_probe", || w.exec_probing_queue(env, seed1));
    tally.record(probe.exec.failures.is_empty() && agree(w, reference1, &probe.exec));
    let picks = probe.picks.max(1) as f64;
    let depth_mean = probe.depth_sum as f64 / picks;
    out.put("queue.inflight_mean", depth_mean, "count");
    out.put("queue.inflight_max", probe.depth_max as f64, "count");
    out.put(
        "queue.run_len_mean",
        probe.exec.steps as f64 / picks,
        "count",
    );

    // Engine-only cost: the workload's n, delivery count and in-flight
    // depth through handlers that do nothing, on the workload's own backend.
    let (flood, _) = spans.timed("kernel.engine", || {
        layers::flood(&w.backend(), n, t, kseed, steps as u64, depth_mean as u64)
    });
    tally.record(flood.is_some());
    let flood_ns = flood.unwrap_or(0.0);
    out.put("network.flood_ns_per_delivery", flood_ns, "ns");
    out.put("handlers.ns_per_delivery", ns_per_delivery - flood_ns, "ns");
    let share = (ns_per_delivery - flood_ns) / ns_per_delivery * 100.0;
    out.put("handlers.share", share, "%");

    // Critical-path length from the flight recorder: one fully recorded
    // execution, where the event log stays small enough to hold.
    let mut depth = 0u64;
    if w.deterministic() && steps <= 3_000_000.0 {
        let mut unused = Spans::new();
        let (full, _) = spans.timed("diff.trace_full", || {
            w.exec_split(env, seed1, &mut unused, TraceMode::Full)
        });
        tally.record(full.failures.is_empty() && agree(w, reference1, &full));
        depth = full.causal_depth;
    }
    out.put("trace.causal_depth_max", depth as f64, "count");

    // The size the measured pass is too noisy for: one execution.
    if let Some(full) = w.full_size() {
        let (sample, _) = spans.timed("diff.full_size", || timed_exec(&full, env, seed1));
        tally.record(sample.exec.failures.is_empty());
        out.put("network.full_size_wall_ms", sample.wall_ms, "ms");
        let ns = sample.wall_ms * 1e6 / sample.exec.steps.max(1) as f64;
        out.put("network.full_size_ns_per_delivery", ns, "ns");
    }

    // Differential legs, each on the one workload that isolates it.
    let runs = refs.samples.len().min(3);
    match w.name {
        "fba-n4-wire" => {
            // Same seeds on `sim`: the schedule is bit-identical, so the
            // difference is the codec plus the socket transport.
            let sim_ms = refs.leg(&mut tally, spans, "diff.sim", "sim", true, runs);
            out.put("wire_rt.overhead_ms_per_exec", onecall_ms - sim_ms, "ms");
        }
        "cs-n7-faults-net" => {
            // Same fault plan under random picks: what the virtual clock costs.
            let spec = "n=7,t=2,corrupt=garbage:40@3;crash@5,sched=random,rt=sim";
            let random_ms = refs.leg(&mut tally, spans, "diff.random", spec, false, runs);
            out.put(
                "net.clock_overhead_ms_per_exec",
                onecall_ms - random_ms,
                "ms",
            );
        }
        "ba-n32-sim" => {
            let mut hosted =
                |span: &str, spec, same| refs.leg(&mut tally, spans, span, spec, same, 1);
            let k1 = hosted(
                "diff.sharded1",
                "n=32,t=10,sched=random,rt=sharded:1",
                false,
            );
            out.put("shard.wall_ms_per_exec.k1", k1, "ms");
            // Never more worker threads than cores.
            if std::thread::available_parallelism().is_ok_and(|c| c.get() >= 2) {
                let k2 = hosted(
                    "diff.sharded2",
                    "n=32,t=10,sched=random,rt=sharded:2",
                    false,
                );
                out.put("shard.wall_ms_per_exec.k2", k2, "ms");
            }
            let async_ms = hosted("diff.async", "n=32,t=10,sched=random,rt=async", true);
            out.put("async_rt.wall_ms_per_exec", async_ms, "ms");
            let overhead_ns = (async_ms - onecall_ms) * 1e6 / steps;
            out.put("async_rt.overhead_ns_per_delivery", overhead_ns, "ns");
            // Working-set scaling toward the n = 256 gate: one execution.
            let big = Workload {
                n: 128,
                t: 42,
                spec: "n=128,t=42,sched=random,rt=sim",
                ..*w
            };
            let (sample, _) = spans.timed("diff.n128", || timed_exec(&big, env, seed1));
            tally.record(sample.exec.failures.is_empty());
            let ns = sample.wall_ms * 1e6 / sample.exec.steps.max(1) as f64;
            out.put("network.ns_per_delivery_n128", ns, "ns");
        }
        "deploy-ba-n4" => {
            // The deployment's counts are real interleavings: medians.
            let sent = refs.median(|s| s.exec.sent as f64);
            out.put("deploy.sent_per_exec", sent, "count");
            let delivered = refs.median(|s| s.exec.delivered as f64);
            out.put("deploy.delivered_per_exec", delivered, "count");
            layers::deployment_legs(out, &mut tally, spans, env, seed1)
        }
        _ => {}
    }
    tally
}
