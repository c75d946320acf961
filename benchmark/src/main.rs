//! The repo benchmark's worker: runs one workload for one pass and prints
//! one JSON line `{"attempted", "failed", "metrics"}` on stdout.
//!
//! `run.py` builds this binary and `aft-partyd`, launches it, and adds
//! `setup_s`; see `README.md` for the metrics and the workloads.
//!
//! * measured pass (`--trace 0`): a closed loop with one client — the
//!   next execution starts when the previous one has quiesced and been
//!   checked — through the program's one-call entry points, nothing
//!   recorded but wall time and the counters the program returns.
//! * traced pass (`--trace 1`): the per-layer numbers — kernels timed
//!   against each layer's public functions, executions split into
//!   `build`/`run`/`check` spans, and differential legs on backends that
//!   are bit-identical by construction. Spans are kept in memory and
//!   written once at exit.

mod layers;
mod spans;
mod sys;
mod traced;
mod workloads;

use layers::{mean, median, midmean, Out};
use spans::Spans;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Env, Exec, Workload};

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

pub(crate) struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    setup_only: bool,
    partyd: PathBuf,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "aft-benchmark: {problem}\n\
         usage: aft-benchmark --workload <name> --partyd <path> --out <dir>\n\
         \x20      [--seed <n>] [--seconds <s>] [--trace 0|1] [--setup-only]\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut setup_only = false;
    let mut partyd = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--partyd" => partyd = Some(PathBuf::from(value)),
            "--out" => out_dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    // Seeds derive as seed * 1000 + i; keep that inside u64.
    if seed > u64::MAX / 2000 {
        usage("--seed too large");
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        usage("--seconds must be positive");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        setup_only,
        partyd: partyd.unwrap_or_else(|| usage("--partyd is required")),
        out_dir: out_dir.unwrap_or_else(|| usage("--out is required")),
    }
}

/// Seed of execution `i` of a run started with `--seed s`.
pub(crate) fn exec_seed(s: u64, i: u64) -> u64 {
    s * 1000 + i
}

/// One timed execution of the closed loop.
pub(crate) struct Sample {
    pub exec: Exec,
    pub wall_ms: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub(crate) fn timed_exec(w: &Workload, env: &Env, seed: u64) -> Sample {
    let (a0, b0) = sys::alloc_snapshot();
    let t0 = Instant::now();
    let exec = w.exec(env, seed);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (a1, b1) = sys::alloc_snapshot();
    for f in &exec.failures {
        eprintln!("{} seed {seed}: FAILED {f}", w.name);
    }
    Sample {
        exec,
        wall_ms,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Everything the simulator workloads must reproduce exactly for one
/// seed: message and step counts, per-kind counts, virtual completion
/// time and the fingerprint.
pub(crate) fn exact_counts(e: &Exec) -> (u64, u64, u64, u64, Vec<(&'static str, u64)>) {
    let (vtime, mut kinds) = e.metrics.as_ref().map_or((0, Vec::new()), |m| {
        (m.virtual_time, m.kinds().collect::<Vec<_>>())
    });
    kinds.sort();
    (e.sent, e.steps, e.fingerprint, vtime, kinds)
}

/// The determinism guard: two executions of one seed on a simulator
/// workload must agree exactly, or every exact-count metric is void.
pub(crate) fn determinism_guard(w: &Workload, a: &Exec, b: &Exec) {
    if w.deterministic() && exact_counts(a) != exact_counts(b) {
        eprintln!(
            "{}: determinism guard: the same seed gave {:?} then {:?}",
            w.name,
            exact_counts(a),
            exact_counts(b)
        );
        std::process::exit(3);
    }
}

/// One seed's wall time from its repeats. A simulator execution is a
/// deterministic computation: its repeats differ only by what the
/// machine's other tenants take away, which only ever adds time (in bursts
/// of seconds that can cover most of a pass), so the fastest repeat is the
/// one that says most about the program. A deployment's repeats differ by
/// themselves (real interleaving, loopback TCP's delayed-ACK timers, in
/// steps of 44 ms): there the middle counts, as a mean so that it does not
/// jump between the steps.
pub(crate) fn seed_wall_ms(w: &Workload, repeats: &[f64]) -> f64 {
    if w.deterministic() {
        repeats.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        midmean(repeats)
    }
}

/// The measured pass: a pool of `w.pool` executions, seeds `s*1000 + 1`
/// to `s*1000 + w.pool`, run round-robin until the time is up (at least
/// one round). The warm-up runs execution 1's seed and is not timed. On the
/// simulator workloads every repeat of a seed must reproduce its counts
/// exactly: the determinism guard.
fn measured(args: &Args, env: &Env, out: &mut Out) -> (u64, u64, String) {
    /// What the pass keeps of one seed: its first execution, for the
    /// guard, and two numbers per repeat (keeping every repeat's `Exec`
    /// would make `peak_mem_mb` grow with the repeat count).
    struct Seed {
        first: Exec,
        walls: Vec<f64>,
        sent: Vec<f64>,
    }
    let w = args.workload;
    let warmup = timed_exec(w, env, exec_seed(args.seed, 1));
    let mut failed = u64::from(!warmup.exec.failures.is_empty());
    let mut pool: Vec<Seed> = Vec::new();
    let mut attempted = 1u64;
    let start = Instant::now();
    while attempted <= w.pool || start.elapsed().as_secs_f64() < args.seconds {
        let slot = ((attempted - 1) % w.pool) as usize;
        let repeat = timed_exec(w, env, exec_seed(args.seed, slot as u64 + 1));
        attempted += 1;
        failed += u64::from(!repeat.exec.failures.is_empty());
        let (wall_ms, sent) = (repeat.wall_ms, repeat.exec.sent as f64);
        if slot == pool.len() {
            pool.push(Seed {
                first: repeat.exec,
                walls: Vec::new(),
                sent: Vec::new(),
            });
        } else {
            determinism_guard(w, &pool[slot].first, &repeat.exec);
        }
        pool[slot].walls.push(wall_ms);
        pool[slot].sent.push(sent);
    }
    determinism_guard(w, &warmup.exec, &pool[0].first);

    let walls: Vec<f64> = pool.iter().map(|s| seed_wall_ms(w, &s.walls)).collect();
    let sent: Vec<f64> = pool.iter().map(|s| median(&s.sent)).collect();
    out.put("wall_ms_per_exec", median(&walls), "ms");
    out.put("msgs_per_exec", mean(&sent), "count");
    out.put(
        "peak_mem_mb",
        sys::peak_heap_mb().max(sys::children_peak_rss_mb()),
        "MiB",
    );
    // Per-seed values, so the caller can report quartiles, and execution
    // 1's exact counts, which depend on the seed alone.
    let list = |values: &[f64]| {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        values.join(",")
    };
    let first = &pool[0].first;
    let extra = format!(
        "\"samples\":{{\"wall_ms_per_exec\":[{}],\"msgs_per_exec\":[{}]}},\
         \"first_exec\":{{\"sent\":{},\"steps\":{},\"fingerprint\":\"{:016x}\"}}",
        list(&walls),
        list(&sent),
        first.sent,
        first.steps,
        first.fingerprint
    );
    (attempted, failed, extra)
}

fn to_json(attempted: u64, failed: u64, out: &Out, extra: &str) -> String {
    let metrics: Vec<String> = out
        .0
        .iter()
        .map(|(name, value, unit)| {
            // Names and units are ASCII identifiers chosen by this crate.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}},{extra}}}",
        metrics.join(",")
    )
}

fn main() {
    let args = parse_args();
    // Codec registration and the attack registry: process set-up, paid
    // once before the first execution.
    let env = Env {
        registry: aft_core::scenarios::standard_registry(),
        partyd: args.partyd.clone(),
    };
    if args.setup_only {
        // A cold start: everything up to the end of the warm-up execution,
        // which fills the interner and the allocator's free lists. Its
        // seed is fixed: an execution's cost varies with its seed, and
        // set-up time should not. A deployment keeps nothing from one
        // execution to the next (its daemons start up inside every one of
        // them), so its cold start ends here.
        let ok = !args.workload.deterministic()
            || timed_exec(args.workload, &env, exec_seed(0, 1))
                .exec
                .failures
                .is_empty();
        std::process::exit(i32::from(!ok));
    }
    let mut out = Out(Vec::new());
    let (attempted, failed, extra) = if args.trace {
        let mut spans = Spans::new();
        let tally = traced::run(&args, &env, &mut out, &mut spans);
        let path = args
            .out_dir
            .join(format!("{}.trace.json", args.workload.name));
        if let Err(e) = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_trace()))
        {
            eprintln!("aft-benchmark: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        (tally.attempted, tally.failed, "\"samples\":{}".to_string())
    } else {
        measured(&args, &env, &mut out)
    };
    println!("{}", to_json(attempted, failed, &out, &extra));
}
