//! The backend table: every `rt=` / `--runtime` name is parsed, described
//! and built here, and nowhere else.
//!
//! The paper states its protocols against *one* asynchronous network whose
//! only free variable is the adversary's delivery order; the `rt=` names
//! are hosts of that one model. A backend spec is
//!
//! ```text
//! backend := family [":" arg] [":" scheduler-spec]
//! ```
//!
//! where `family` is a row of [`ALL_BACKENDS`], `arg` is the number that
//! row's grammar shows — only `sharded:<k>` has one — and the trailing
//! scheduler — any [`scheduler_by_name`](crate::scheduler_by_name) spec —
//! exists only on the **deterministic** families. That one capability is all that varies
//! between families from a caller's point of view: a deterministic family
//! honours `sched=`, replays bit-for-bit from `(seed, spec)`, and so may
//! host `corrupt=adaptive:…@*` and `corrupt=recover:<vt>@p`; the others
//! leave the delivery order to the OS.
//!
//! Three engines implement [`Runtime`]; the table maps names onto them:
//!
//! | names | engine | what the name configures |
//! |---|---|---|
//! | `sim`, `wire`, `async` | [`SimNetwork`] | nothing / every envelope encoded by the wire codec and decoded from a copy of the bytes / the party hosts on per-party event-loop tasks |
//! | `sharded:<k>` | [`ShardedSimRuntime`] | `k` worker shards |
//! | `threaded`, `proc` | [`ThreadedRuntime`] | nothing — `proc` is the name the real `aft-partyd` deployment is asked for, and in-process it is one thread per party |
//!
//! Every engine drives one [`PartyHost`](crate::PartyHost) per party, as
//! an `aft-partyd` process does: what happens at a party — dispatch,
//! accounting, the send number `emit·n + party`, the party's trace events
//! — is the same code under every name.

use crate::network::SimNetwork;
use crate::runtime::{NetConfig, Runtime};
use crate::shard::ShardedSimRuntime;
use crate::threaded::ThreadedRuntime;
use std::fmt;

/// The backend a scenario or `--runtime` flag gets when it names none.
pub const DEFAULT_BACKEND: &str = "sim";

/// What a family's name selects: an engine and how it is set up, and with
/// it the meaning of the family's `:<arg>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Sim,
    Wire,
    EventLoop,
    /// The argument (required, `≥ 1`) is the shard count.
    Sharded,
    Threaded,
    /// One thread per party here, one OS process per party under
    /// `exp_deployment`: either way as many as the scenario has parties.
    Proc,
}

/// One row of [`ALL_BACKENDS`].
#[derive(Debug, PartialEq, Eq)]
pub struct BackendFamily {
    /// The family name — the spec's first segment and what
    /// [`Runtime::backend_name`] reports.
    pub name: &'static str,
    /// The family's spec without a scheduler, arguments in angle brackets.
    pub grammar: &'static str,
    /// A canonical spec of the family, usable as a matrix row.
    pub example: &'static str,
    /// Whether a run is a pure function of `(seed, spec)` — see the
    /// [module docs](self) for everything that follows from it.
    pub deterministic: bool,
    engine: Engine,
}

/// Every backend family — THE registry. Parsing, error messages, building
/// and the table-driven tests all derive from it.
pub static ALL_BACKENDS: &[BackendFamily] = &[
    BackendFamily {
        name: "sim",
        grammar: "sim",
        example: "sim",
        deterministic: true,
        engine: Engine::Sim,
    },
    BackendFamily {
        name: "wire",
        grammar: "wire",
        example: "wire",
        deterministic: true,
        engine: Engine::Wire,
    },
    BackendFamily {
        name: "async",
        grammar: "async",
        example: "async",
        deterministic: true,
        engine: Engine::EventLoop,
    },
    BackendFamily {
        name: "sharded",
        grammar: "sharded:<k>",
        example: "sharded:2",
        deterministic: true,
        engine: Engine::Sharded,
    },
    BackendFamily {
        name: "threaded",
        grammar: "threaded",
        example: "threaded",
        deterministic: false,
        engine: Engine::Threaded,
    },
    BackendFamily {
        name: "proc",
        grammar: "proc",
        example: "proc",
        deterministic: false,
        engine: Engine::Proc,
    },
];

/// The grammars of the families `keep` selects, as `rt=a, rt=b or rt=c`.
fn grammars(keep: impl Fn(&BackendFamily) -> bool) -> String {
    let all: Vec<String> = ALL_BACKENDS
        .iter()
        .filter(|f| keep(f))
        .map(|f| format!("rt={}", f.grammar))
        .collect();
    let (last, init) = all.split_last().expect("the table is not empty");
    format!("{} or {last}", init.join(", "))
}

/// A parsed backend spec: a family, its argument and, on deterministic
/// families, possibly a pinned scheduler. `Display` prints the spec back;
/// `parse ∘ to_string` is the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    family: &'static BackendFamily,
    arg: Option<u64>,
    sched: Option<String>,
}

impl Backend {
    /// Parses a full backend spec, `<family>[:<arg>][:<scheduler>]` — the
    /// form `--runtime` flags and [`runtime_by_name`] take. The error
    /// names the family's grammar and example.
    ///
    /// [`runtime_by_name`]: crate::runtime_by_name
    pub fn parse(spec: &str) -> Result<Backend, String> {
        let (backend, sched) = Backend::split(spec)?;
        match sched {
            None => Ok(backend),
            Some(sched) if crate::scheduler_by_name(sched).is_some() => {
                Ok(backend.with_sched(sched))
            }
            Some(sched) => Err(crate::scheduler_error(sched)),
        }
    }

    /// Parses the `rt=` field of a scenario: a backend spec *without* a
    /// scheduler, which a scenario carries in `sched=`.
    pub fn parse_rt(spec: &str) -> Result<Backend, String> {
        let (backend, sched) = Backend::split(spec)?;
        match sched {
            None => Ok(backend),
            Some(_) => Err(format!(
                "runtime {spec:?} nests a scheduler: write rt={backend} and put the scheduler \
                 in sched= (cells compose as {backend}:<sched> internally)"
            )),
        }
    }

    /// Splits `spec` into its scheduler-less backend and whatever follows
    /// it, which only a deterministic family may have.
    fn split(spec: &str) -> Result<(Backend, Option<&str>), String> {
        let (name, rest) = match spec.split_once(':') {
            Some((name, rest)) => (name, Some(rest)),
            None => (spec, None),
        };
        let family = ALL_BACKENDS
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown runtime {spec:?} (expected {})", grammars(|_| true)))?;
        let malformed = || {
            let note = if family.deterministic {
                String::new()
            } else {
                format!(
                    ": the family takes no argument (it runs one thread or process per party) \
                     and takes no scheduler (the OS picks the delivery order) — write rt={}",
                    family.name
                )
            };
            format!(
                "runtime {spec:?} does not match the {} family's grammar {} (e.g. rt={}){note}",
                family.name, family.grammar, family.example
            )
        };
        let (arg, rest) = match (family.engine, rest) {
            (Engine::Sharded, rest) => {
                let (arg, rest) = match rest.and_then(|rest| rest.split_once(':')) {
                    Some((arg, rest)) => (arg, Some(rest)),
                    None => (rest.unwrap_or(""), None),
                };
                let k = arg.parse::<u64>().ok().filter(|&k| k > 0);
                (Some(k.ok_or_else(malformed)?), rest)
            }
            (_, rest) => (None, rest),
        };
        if rest.is_some() && !family.deterministic {
            return Err(malformed());
        }
        let backend = Backend {
            family,
            arg,
            sched: None,
        };
        Ok((backend, rest))
    }

    /// Whether runs replay bit-for-bit from `(seed, spec)`.
    pub fn is_deterministic(&self) -> bool {
        self.family.deterministic
    }

    /// Whether this is the family `exp_deployment` runs as one real
    /// `aft-partyd` OS process per party.
    pub fn is_process_per_party(&self) -> bool {
        matches!(self.family.engine, Engine::Proc)
    }

    /// Whether [`with_sched`](Backend::with_sched) changes anything: the
    /// family is deterministic and the spec pins no scheduler.
    pub fn honors_schedulers(&self) -> bool {
        self.is_deterministic() && self.sched.is_none()
    }

    /// This backend running `sched`, where a scheduler can be chosen
    /// ([`honors_schedulers`](Backend::honors_schedulers)); unchanged
    /// otherwise — a pinned scheduler wins, the OS ignores them.
    pub fn with_sched(mut self, sched: &str) -> Backend {
        if self.honors_schedulers() {
            self.sched = Some(sched.to_string());
        }
        self
    }

    /// Splits off the scheduler this spec pins, if any: what is left is a
    /// scenario's `rt=`, the scheduler its `sched=`.
    pub fn split_sched(mut self) -> (Backend, Option<String>) {
        let sched = self.sched.take();
        (self, sched)
    }

    /// Refuses the plan entry `what`, which only a deterministic backend
    /// can host, unless this backend is one.
    pub(crate) fn require_deterministic(&self, what: &str) -> Result<(), String> {
        if self.is_deterministic() {
            return Ok(());
        }
        Err(format!(
            "{what} needs a deterministic backend: use {} ({} delivery order is the OS's, \
             with no virtual clock and no replay; to kill and restart real processes, \
             run an rt=proc scenario through exp_deployment)",
            grammars(|f| f.deterministic),
            self.family.name
        ))
    }

    /// Builds the runtime for one run. Fails on a scheduler that does not
    /// resolve.
    pub fn build(&self, config: NetConfig) -> Result<Box<dyn Runtime>, String> {
        let sched = self.sched.as_deref().unwrap_or("random");
        let scheduler =
            || crate::scheduler_by_name(sched).ok_or_else(|| crate::scheduler_error(sched));
        let family = self.family;
        Ok(match family.engine {
            Engine::Sim => Box::new(SimNetwork::new(config, scheduler()?)),
            Engine::Wire => Box::new(SimNetwork::with_codec(config, scheduler()?, family.name)),
            Engine::EventLoop => {
                Box::new(SimNetwork::on_event_loop(config, scheduler()?, family.name))
            }
            Engine::Sharded => {
                scheduler()?;
                let k = self.arg.expect("split requires a shard count") as usize;
                Box::new(ShardedSimRuntime::with_scheduler_factory(config, k, |_| {
                    crate::scheduler_by_name(sched).expect("resolved above")
                }))
            }
            Engine::Threaded => Box::new(ThreadedRuntime::new(config)),
            Engine::Proc => Box::new(ThreadedRuntime::named(config, family.name)),
        })
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.family.name)?;
        if let Some(arg) = self.arg {
            write!(f, ":{arg}")?;
        }
        if let Some(sched) = &self.sched {
            write!(f, ":{sched}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveController, CorruptionPlan, PinPolicy};
    use crate::{PartyId, SessionId, SessionTag, SilentInstance};
    use std::sync::{Arc, Mutex};

    #[test]
    fn every_family_round_trips_builds_and_composes() {
        let config = NetConfig::new(4, 1, 1);
        for family in ALL_BACKENDS {
            let example = family.example;
            let b = Backend::parse(example).unwrap_or_else(|e| panic!("{example}: {e}"));
            assert_eq!(b.to_string(), example);
            assert_eq!(Backend::parse_rt(example), Ok(b.clone()));
            let mut rt = b.build(config).unwrap();
            assert_eq!(rt.backend_name(), family.name);
            // One flag answers both capability questions on every engine.
            let policy = PinPolicy::parse("storm:1").expect("a policy");
            let plan = CorruptionPlan::new(4, 1);
            let ctrl = Arc::new(Mutex::new(AdaptiveController::new(Box::new(policy), plan)));
            assert_eq!(rt.install_adaptive(ctrl), family.deterministic, "{example}");
            assert_eq!(rt.adaptive_handle().is_some(), family.deterministic);
            let sid = SessionId::root().child(SessionTag::new("rejoin", 0));
            let recover = rt.schedule_recover(PartyId(3), 50, sid, Box::new(SilentInstance));
            assert_eq!(recover, family.deterministic, "{example}");
            assert_eq!(b.is_deterministic(), family.deterministic);
            assert_eq!(b.honors_schedulers(), family.deterministic);

            // `:sched` composes iff the family is deterministic, whether
            // it is parsed in or added.
            let pinned = format!("{example}:starve:1,3");
            if family.deterministic {
                let p = Backend::parse(&pinned).unwrap_or_else(|e| panic!("{pinned}: {e}"));
                assert_eq!(p.to_string(), pinned);
                assert_eq!(Backend::parse(&p.to_string()), Ok(p.clone()));
                assert_eq!(b.clone().with_sched("starve:1,3"), p);
                assert_eq!(p.clone().with_sched("lifo"), p, "a pinned scheduler wins");
                assert_eq!(p.build(config).unwrap().backend_name(), family.name);
                let err = Backend::parse_rt(&pinned).unwrap_err();
                assert!(err.contains(&format!("write rt={example} and")), "{err}");
                let err = Backend::parse(&format!("{example}:bogus")).unwrap_err();
                assert!(err.contains("unknown scheduler"), "{err}");
            } else {
                let err = Backend::parse(&pinned).unwrap_err();
                assert!(err.contains("takes no scheduler"), "{err}");
                assert!(err.contains(family.grammar), "{err}");
                assert_eq!(b.clone().with_sched("lifo"), b, "the OS schedules");
            }
            assert_eq!(b.is_process_per_party(), example == "proc");
        }
    }

    /// One construction rule: every engine builds its parties through
    /// `Parties::new`, so every family refuses `n < 3t + 1` in the same
    /// words.
    #[test]
    fn every_family_refuses_too_few_parties_alike() {
        for family in ALL_BACKENDS {
            let backend = Backend::parse(family.example).unwrap();
            let build = || backend.build(NetConfig::new(3, 1, 0)).map(|_| ());
            let panic = std::panic::catch_unwind(build).expect_err(family.name);
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("optimal resilience requires n >= 3t + 1 (n=3, t=1)"),
                "{}",
                family.name
            );
        }
    }

    #[test]
    fn arguments_follow_each_family_grammar() {
        let config = NetConfig::new(4, 1, 1);
        for spec in ["sharded:1", "sharded:4:lifo"] {
            let b = Backend::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(b.to_string(), spec);
            assert!(b.build(config).is_ok(), "{spec}");
        }
        // Errors carry the family's grammar example.
        for (spec, family) in [
            ("sharded", "sharded"),
            ("sharded:", "sharded"),
            ("sharded:0", "sharded"),
            ("sharded:abc", "sharded"),
            ("sharded:-1", "sharded"),
            ("threaded:5", "threaded"),
            ("proc:4", "proc"),
        ] {
            let err = Backend::parse(spec).unwrap_err();
            let family = ALL_BACKENDS.iter().find(|f| f.name == family).unwrap();
            assert!(
                err.contains(&format!("e.g. rt={}", family.example)),
                "{err}"
            );
        }
        for spec in ["threaded:5", "proc:4"] {
            let err = Backend::parse(spec).unwrap_err();
            assert!(err.contains("takes no argument"), "{err}");
            let family = spec.split_once(':').unwrap().0;
            assert!(err.ends_with(&format!("write rt={family}")), "{err}");
        }
        // A starve victim is never sized by: a huge id parses and builds
        // at once (it simply matches no party); a scenario refuses it.
        let huge = format!("sim:starve:{}", u64::MAX);
        let b = Backend::parse(&huge).unwrap_or_else(|e| panic!("{huge}: {e}"));
        assert!(b.build(config).is_ok(), "{huge}");
        for spec in ["", "hovercraft", "sim:", "wire:", "sharded:2:bogus"] {
            assert!(Backend::parse(spec).is_err(), "{spec:?}");
            assert!(crate::runtime_by_name(spec, config).is_none(), "{spec:?}");
        }
        let err = Backend::parse("hovercraft").unwrap_err();
        for family in ALL_BACKENDS {
            assert!(err.contains(family.grammar), "{err}");
        }
    }
}
