//! # aft-sim
//!
//! A deterministic discrete-event simulator for asynchronous Byzantine
//! message-passing protocols — the execution substrate of the `aft`
//! reproduction of *Revisiting Asynchronous Fault Tolerant Computation with
//! Optimal Resilience* (Abraham–Dolev–Stern, PODC 2020).
//!
//! ## Model
//!
//! * `n` parties, up to `t` Byzantine, `n ≥ 3t + 1` (optimal resilience).
//! * Protocols are event-driven [`Instance`]s composed hierarchically via
//!   [`SessionId`]s: instances spawn children, children's outputs flow back
//!   to their parents.
//! * The asynchronous adversary is a [`Scheduler`]: it chooses the delivery
//!   order of in-flight messages, subject to a fairness cap (every message
//!   is eventually delivered — the paper's model).
//! * Byzantine parties run arbitrary [`Instance`]s instead of honest ones;
//!   whole-party crashes are injected with [`Runtime::crash`] between
//!   runs. A spawn starts with the next run on every engine, so a party
//!   crashed before then starts nothing.
//! * A run is a pure function of its seed: Monte-Carlo estimation of
//!   probabilistic guarantees ([`run_trials`]) and byte-exact replay of
//!   adversarial schedules both follow.
//! * Shunning (Definition 3.2 of the paper) is enforced by the per-party
//!   router: after `Shun(i → j)`, party `i` drops `j`'s messages outside
//!   the invocation in which the shun occurred; each ordered pair shuns at
//!   most once, so fewer than `n²` shun events occur globally.
//!
//! ## The runtime seam
//!
//! Three engines implement the [`Runtime`] trait, so the same deployment
//! runs unchanged on each; the `rt=` names configure them (the
//! [`backend`] table is the one place that knows how):
//!
//! * [`SimNetwork`] — the deterministic simulator (adversarial schedulers,
//!   traces, replay). `rt=sim` is the bare engine; `rt=wire` has it encode
//!   every envelope to a self-describing byte frame (see the [`wire`]
//!   codec module), hand the receiver a copy of exactly those bytes and
//!   decode it lazily there — the byte-level seam the
//!   `garbage`/`equivocate` adversaries fuzz with malformed frames;
//!   `rt=async` has it host every party on a task of a single-threaded
//!   executor, each delivery a channel round-trip, while all scheduling
//!   stays in the network. Both are bit-for-bit the simulator's schedule;
//! * [`ShardedSimRuntime`] (`rt=sharded:<k>`) — the sharded deterministic
//!   simulator: parties partitioned across worker threads, epoch-barrier
//!   merge, schedules that are a pure function of `(seed, scheduler)` for
//!   *every* shard count;
//! * [`ThreadedRuntime`] (`rt=threaded`) — real OS threads and channels
//!   (genuine asynchrony, no determinism). `rt=proc` is the same engine
//!   in-process; it is the name the real one-OS-process-per-party
//!   deployment with supervised crash/restart is asked for, which lives in
//!   `aft-bench` (`aft-partyd` + `exp_deployment`) on top of [`deploy`]'s
//!   envelope codec.
//!
//! Every engine, and an `aft-partyd` process, drives one [`PartyHost`] per
//! party: dispatch, accounting, send numbering (`emit·n + party`, so an
//! envelope has the same identity on every backend) and the party's trace
//! events are written once. Every engine also holds its hosts, waiting
//! spawns, recorder, recoveries and step clock in one front, over which
//! every [`Runtime`] method but `run` and `metrics` is written once; the
//! engines differ in where a send goes next.
//!
//! [`runtime_by_name`] builds any of them from a string, which is what the
//! `exp_*` binaries' `--runtime` flags and the cross-backend test suites
//! use. See the crate-level example on [`SimNetwork`] and the trait
//! example on [`Runtime`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod async_rt;
pub mod backend;
mod behaviors;
pub mod cluster;
pub mod deploy;
mod ids;
mod instance;
mod montecarlo;
pub mod net;
mod network;
mod node;
mod payload;
mod queue;
mod runtime;
pub mod scenario;
mod scheduler;
pub mod shard;
pub mod threaded;
pub mod trace;
pub mod wire;
mod wire_rt;

pub use adaptive::{
    AdaptiveAttack, AdaptiveController, AdaptiveShell, CorruptMode, CorruptionPlan, PinPolicy,
    SharedAdaptive,
};
pub use backend::{Backend, BackendFamily, ALL_BACKENDS, DEFAULT_BACKEND};
pub use behaviors::{Equivocator, Garbage, GarbageInstance, MuteAfter, SilentInstance};
pub use deploy::party_node;
pub use ids::{PartyId, PartyMap, PartySet, SessionId, SessionTag};
pub use instance::{Context, Instance};
pub use montecarlo::{run_trials, Bernoulli};
pub use net::{LatencyDist, NetEvent, NetScheduler, NetSpec, PartitionSpec};
pub use network::{Envelope, SimNetwork};
pub use node::{Node, Outgoing, ShunRegistry};
pub use payload::{FrameBytes, MsgView, Payload};
pub use queue::{BatchSlot, MsgMeta, Pending};
pub use runtime::{
    runtime_by_name, Metrics, NetConfig, PartyHost, RunReport, Runtime, RuntimeExt, StopReason,
};
pub use scenario::{
    AdaptiveCtx, AdaptiveSpec, AttackCtx, AttackRegistry, AttackRole, Corruption, FaultSpec,
    Fingerprint, MatrixCell, Scenario, ScenarioMatrix,
};
pub use scheduler::{
    BlockScheduler, FifoScheduler, LifoScheduler, RandomScheduler, Scheduler, StarveScheduler,
    WindowScheduler, MAX_AGE,
};
pub use shard::ShardedSimRuntime;
pub use threaded::ThreadedRuntime;
pub use trace::{
    DepthHistogram, DropReason, RingRecorder, TraceEvent, TraceMode, TraceSink, TraceSummary,
};
pub use wire::{decode_envelope, encode_envelope, CodecRegistry, WireMessage};

/// SplitMix64 finalizer — a well-distributed integer hash. Oracle-coin
/// salts and the bytes of [`Garbage`] frames are derived with it, so its
/// output is part of every recorded schedule.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds a boxed scheduler by name — convenience for experiment sweeps.
///
/// Supported names:
///
/// * `"fifo"`, `"random"`, `"lifo"`;
/// * `"window<k>"` for any positive `k` (e.g. `"window4"`, `"window128"`);
/// * `"block:<b>"` for any positive block size — the locality-preserving
///   random scheduler ([`BlockScheduler`], e.g. `"block:16"`);
/// * `"starve:<ids>"` with a comma-separated victim list
///   (e.g. `"starve:2"`, `"starve:1,3"`);
/// * `"net"` / `"net:<args>"` — the virtual-time network model
///   ([`NetScheduler`], e.g. `"net:lat=1..20,partition=p50,heal=200"`).
///
/// # Examples
///
/// ```
/// let s = aft_sim::scheduler_by_name("random").unwrap();
/// assert_eq!(s.name(), "random");
/// assert!(aft_sim::scheduler_by_name("window9").is_some());
/// assert!(aft_sim::scheduler_by_name("block:16").is_some());
/// assert!(aft_sim::scheduler_by_name("starve:1,3").is_some());
/// assert!(aft_sim::scheduler_by_name("net:lat=1..20,partition=p50,heal=200").is_some());
/// assert!(aft_sim::scheduler_by_name("bogus").is_none());
/// ```
pub fn scheduler_by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    ALL_SCHEDULERS.iter().find_map(|family| family.parse(name))
}

/// Why `spec` did not resolve through [`scheduler_by_name`]: a known
/// family with malformed arguments gets that family's grammar example,
/// an unknown family the list of families.
pub(crate) fn scheduler_error(spec: &str) -> String {
    let family = spec.split(':').next().unwrap_or(spec);
    match ALL_SCHEDULERS.iter().find(|f| f.name == family) {
        Some(f) => format!(
            "scheduler {spec:?} has malformed arguments for the {:?} family \
             (grammar example: sched={})",
            f.name, f.example
        ),
        None => {
            let names: Vec<&str> = ALL_SCHEDULERS.iter().map(|f| f.name).collect();
            format!(
                "unknown scheduler {spec:?} (families: {})",
                names.join(", ")
            )
        }
    }
}

/// One scheduler family known to [`scheduler_by_name`].
///
/// The registry is a table so that everything downstream derives from one
/// place: the parser tries each family in order, coverage tests iterate
/// the table, and conformance matrices use each family's
/// [`example`](SchedulerFamily::example) as their scheduler-axis row — a
/// newly registered scheduler is automatically parsed, tested and swept.
pub struct SchedulerFamily {
    /// The family name, as reported by [`Scheduler::name`].
    pub name: &'static str,
    /// A canonical example spec that parses into this family; conformance
    /// matrices use it as the family's representative.
    pub example: &'static str,
    parser: fn(&str) -> Option<Box<dyn Scheduler>>,
}

impl SchedulerFamily {
    /// Parses `spec` as a member of this family (`None` when `spec`
    /// belongs to another family or is malformed).
    pub fn parse(&self, spec: &str) -> Option<Box<dyn Scheduler>> {
        (self.parser)(spec)
    }
}

impl std::fmt::Debug for SchedulerFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerFamily")
            .field("name", &self.name)
            .field("example", &self.example)
            .finish_non_exhaustive()
    }
}

/// Every scheduler family [`scheduler_by_name`] can build — THE registry.
/// Register new schedulers here (and only here): parsing, the
/// `scheduler_by_name` coverage test and the adversarial conformance
/// matrix all derive their scheduler lists from this table.
pub static ALL_SCHEDULERS: &[SchedulerFamily] = &[
    SchedulerFamily {
        name: "fifo",
        example: "fifo",
        parser: |s| (s == "fifo").then(|| Box::new(FifoScheduler) as Box<dyn Scheduler>),
    },
    SchedulerFamily {
        name: "random",
        example: "random",
        parser: |s| (s == "random").then(|| Box::new(RandomScheduler) as Box<dyn Scheduler>),
    },
    SchedulerFamily {
        name: "lifo",
        example: "lifo",
        parser: |s| (s == "lifo").then(|| Box::new(LifoScheduler) as Box<dyn Scheduler>),
    },
    SchedulerFamily {
        name: "window",
        example: "window4",
        parser: |s| {
            let k: usize = s.strip_prefix("window")?.parse().ok()?;
            (k > 0).then(|| Box::new(WindowScheduler::new(k)) as Box<dyn Scheduler>)
        },
    },
    SchedulerFamily {
        name: "block",
        example: "block:8",
        parser: |s| {
            let b: usize = s.strip_prefix("block:")?.parse().ok()?;
            (b > 0).then(|| Box::new(BlockScheduler::new(b)) as Box<dyn Scheduler>)
        },
    },
    SchedulerFamily {
        name: "starve",
        example: "starve:1",
        parser: |s| Some(Box::new(StarveScheduler::parse(s)?)),
    },
    SchedulerFamily {
        name: "net",
        example: "net:lat=1..8",
        parser: |s| {
            let spec = NetSpec::parse(s)?;
            Some(Box::new(NetScheduler::new(spec)) as Box<dyn Scheduler>)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_spreads_indices() {
        // Adjacent indices must map to very different salts.
        let a = mix(1);
        let b = mix(2);
        assert_ne!(a, b);
        assert!(((a ^ b).count_ones()) > 8);
    }

    #[test]
    fn scheduler_by_name_covers_all() {
        // Derived from the shared ALL_SCHEDULERS table: a newly registered
        // family is covered here (and by the conformance matrix's
        // scheduler axis) automatically — no hardcoded name list to forget.
        for family in ALL_SCHEDULERS {
            let s = scheduler_by_name(family.example)
                .unwrap_or_else(|| panic!("example {:?} must parse", family.example));
            assert_eq!(s.name(), family.name, "example {:?}", family.example);
            assert!(
                family.parse(family.example).is_some(),
                "family {} accepts its own example",
                family.name
            );
        }
        assert!(scheduler_by_name("nope").is_none());
        assert!(scheduler_by_name("starve:x").is_none());
        assert!(scheduler_by_name("block:0").is_none(), "zero block");
        assert!(scheduler_by_name("block:").is_none(), "missing size");
        assert!(scheduler_by_name("block:x").is_none(), "non-numeric size");
    }

    #[test]
    fn scheduler_family_examples_are_unique_and_exhaustive() {
        // Each example parses into exactly one family — so a matrix axis
        // built from the examples exercises every family exactly once.
        for family in ALL_SCHEDULERS {
            let owners: Vec<&str> = ALL_SCHEDULERS
                .iter()
                .filter(|f| f.parse(family.example).is_some())
                .map(|f| f.name)
                .collect();
            assert_eq!(owners, vec![family.name], "example {:?}", family.example);
        }
        // Sanity: the Scheduler impls in this crate are all represented.
        let names: Vec<&str> = ALL_SCHEDULERS.iter().map(|f| f.name).collect();
        for required in ["fifo", "random", "lifo", "window", "block", "starve", "net"] {
            assert!(names.contains(&required), "{required} missing from table");
        }
    }

    #[test]
    fn scheduler_by_name_window_arbitrary_k() {
        for k in [1usize, 2, 3, 7, 9, 100, 4096] {
            let s = scheduler_by_name(&format!("window{k}")).unwrap();
            assert_eq!(s.name(), "window", "window{k}");
        }
        assert!(scheduler_by_name("window0").is_none(), "zero window");
        assert!(scheduler_by_name("window").is_none(), "missing k");
        assert!(scheduler_by_name("window-3").is_none(), "negative k");
        assert!(scheduler_by_name("windowabc").is_none(), "non-numeric k");
    }

    #[test]
    fn scheduler_by_name_starve_multi_party() {
        for spec in ["starve:0", "starve:1,3", "starve:0,1,2", "starve: 1, 3"] {
            let s = scheduler_by_name(spec).unwrap();
            assert_eq!(s.name(), "starve", "{spec}");
        }
        assert!(scheduler_by_name("starve:").is_none(), "empty list");
        assert!(scheduler_by_name("starve:1,,3").is_none(), "empty element");
        assert!(scheduler_by_name("starve:1,x").is_none(), "bad element");
    }

    #[test]
    fn starve_multi_party_actually_starves_all_victims() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha12Rng;
        // Build a pending set where only one entry avoids both victims.
        let mut q = Pending::new();
        let mk = |from: usize, to: usize, seq: u64| Envelope {
            from: PartyId(from),
            to: PartyId(to),
            session: SessionId::root().child(SessionTag::new("x", 0)),
            payload: Payload::new(0u8),
            seq,
            born_step: 0,
        };
        q.push(mk(1, 0, 0)); // touches victim 1
        q.push(mk(0, 3, 1)); // touches victim 3
        q.push(mk(0, 2, 2)); // clean
        let mut sched = scheduler_by_name("starve:1,3").unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        for _ in 0..50 {
            assert_eq!(sched.pick(&q, &mut rng), 2);
        }
    }
}
