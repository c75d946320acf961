//! Flight recorder: a schedule-invisible structured trace subsystem.
//!
//! Every backend can record a stream of [`TraceEvent`]s — sends,
//! deliveries, drops, crashes, shuns, outputs, decode misses and
//! scheduler picks — into a pluggable [`TraceSink`]. Tracing is off by
//! default and is **observational only**: sinks are consulted behind a
//! single `Option` check on the delivery path, never touch RNGs,
//! fingerprints or schedules, and a traced run is bit-for-bit identical
//! to an untraced one (the conformance suite pins this).
//!
//! # The causal message DAG
//!
//! Each [`TraceEvent::Send`] carries a `causal_parent`: the step of the
//! delivery whose handler emitted the send (`None` for sends made from
//! the spawn phase — the roots of the DAG). A delivery's parent is
//! therefore recovered by joining its `seq` against the matching `Send`
//! and looking up the delivery `(send.from, send.causal_parent)`. A
//! party's own events carry its own step — how many deliveries it has
//! had — and its sends are numbered `emit·n + party`, on every backend, so
//! `(party, step)` names a delivery and `seq` an envelope everywhere and
//! the same join works on every backend. [`depth_histograms`] folds
//! this DAG into per-kind critical-path depth ("virtual latency" in
//! delivery steps, the paper-relevant unit: the adversary controls
//! scheduling, so wall-clock time is meaningless but delivery depth is
//! not).
//!
//! # Exporters
//!
//! [`to_jsonl`] renders one JSON object per line for ad-hoc analysis;
//! [`to_chrome_trace`] renders the Chrome trace-event format (load in
//! Perfetto via <https://ui.perfetto.dev>) with one process per party and
//! one thread lane per session path.

use crate::ids::{PartyId, SessionId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a queued envelope was dropped instead of delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The receiver had shunned the sender (Definition 3.2 discard rule).
    Shunned,
    /// The receiver was crashed.
    Crashed,
}

impl DropReason {
    /// Short label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::Shunned => "shunned",
            DropReason::Crashed => "crashed",
        }
    }
}

/// One structured flight-recorder event.
///
/// `step` is a delivery count when the event fired. A party's own events
/// — `Send`, `Deliver`, `Drop`, `Shun`, `Output`, `DecodeMiss` — carry
/// that party's count on every backend, so `(party, step)` names a
/// delivery; the engine's events — episodes, crashes, recoveries,
/// scheduler picks, partitions — carry the engine's count of all
/// deliveries (on `sharded:<k>`, where each party picks from its own
/// inbox, a pick carries the picking party's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A `run(..)` episode began.
    EpisodeStart {
        /// Step counter at episode entry.
        step: u64,
    },
    /// A `run(..)` episode ended (quiescent or budget-limited).
    EpisodeEnd {
        /// Step counter at episode exit.
        step: u64,
    },
    /// A handler (or the spawn phase) emitted a message.
    Send {
        /// Sender's step counter at emission time.
        step: u64,
        /// Emitting party.
        from: PartyId,
        /// Destination party.
        to: PartyId,
        /// Session the message belongs to.
        session: SessionId,
        /// The sender's number for the envelope, `emit·n + from` on
        /// every backend (joins with [`TraceEvent::Deliver`]).
        seq: u64,
        /// Step of the delivery whose handler emitted this send;
        /// `None` for spawn-phase roots.
        causal_parent: Option<u64>,
    },
    /// An envelope was delivered to its destination's handler.
    Deliver {
        /// The delivery's own step number.
        step: u64,
        /// Receiving party.
        party: PartyId,
        /// Originating party.
        from: PartyId,
        /// Session the message belongs to.
        session: SessionId,
        /// Envelope sequence number (joins with [`TraceEvent::Send`]).
        seq: u64,
        /// Virtual arrival time in virtual milliseconds, when the run's
        /// scheduler keeps a virtual clock (the `net:` family).
        vtime: Option<u64>,
    },
    /// An envelope was consumed without reaching a handler.
    Drop {
        /// The step that consumed the envelope.
        step: u64,
        /// Would-be receiving party.
        party: PartyId,
        /// Originating party.
        from: PartyId,
        /// Session the message belonged to.
        session: SessionId,
        /// Envelope sequence number.
        seq: u64,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A party crashed (operator-driven or scripted `crash-at`).
    Crash {
        /// Step counter when the crash took effect.
        step: u64,
        /// The crashed party.
        party: PartyId,
    },
    /// A delivery caused the receiver to shun one or more parties.
    Shun {
        /// The delivery's step number.
        step: u64,
        /// The shunning party.
        party: PartyId,
        /// Session of the triggering delivery.
        session: SessionId,
        /// How many new shun edges this delivery recorded.
        count: u64,
    },
    /// A delivery caused one or more session outputs to be recorded.
    Output {
        /// The delivery's step number (0 for spawn-phase outputs).
        step: u64,
        /// The outputting party.
        party: PartyId,
        /// Session of the triggering delivery (outputs may land on child
        /// sessions of this one).
        session: SessionId,
        /// How many outputs this delivery recorded.
        count: u64,
    },
    /// A delivery's typed-payload downcast missed (see
    /// [`Metrics::decode_misses`](crate::Metrics::decode_misses)).
    DecodeMiss {
        /// The delivery's step number.
        step: u64,
        /// The receiving party.
        party: PartyId,
        /// Session of the triggering delivery.
        session: SessionId,
        /// How many misses the delivery produced.
        count: u64,
    },
    /// The scheduler chose the next delivery batch.
    SchedulerPick {
        /// Step counter before the picked batch runs.
        step: u64,
        /// Destination party of the picked batch.
        party: PartyId,
        /// Queued batches at pick time.
        queued: usize,
        /// Length of the picked same-`(from, to)` run.
        run: usize,
    },
    /// A network partition went up (the `net:` virtual-time model).
    PartitionStart {
        /// Step counter when the clock crossed the cut time.
        step: u64,
        /// Virtual time of the cut.
        vtime: u64,
        /// The isolated parties (sorted).
        cut: Vec<PartyId>,
    },
    /// A network partition healed.
    PartitionHeal {
        /// Step counter when the clock crossed the heal time.
        step: u64,
        /// Virtual time of the heal.
        vtime: u64,
    },
    /// A crashed party recovered (crash-recovery under the `net:` model):
    /// it resumes processing and its stale session state is retired ahead
    /// of the respawn.
    Recover {
        /// Step counter when the recovery took effect.
        step: u64,
        /// Virtual time the recovery was scheduled for.
        vtime: u64,
        /// The recovering party.
        party: PartyId,
    },
}

impl TraceEvent {
    /// The event's step counter value.
    pub fn step(&self) -> u64 {
        match self {
            TraceEvent::EpisodeStart { step }
            | TraceEvent::EpisodeEnd { step }
            | TraceEvent::Send { step, .. }
            | TraceEvent::Deliver { step, .. }
            | TraceEvent::Drop { step, .. }
            | TraceEvent::Crash { step, .. }
            | TraceEvent::Shun { step, .. }
            | TraceEvent::Output { step, .. }
            | TraceEvent::DecodeMiss { step, .. }
            | TraceEvent::SchedulerPick { step, .. }
            | TraceEvent::PartitionStart { step, .. }
            | TraceEvent::PartitionHeal { step, .. }
            | TraceEvent::Recover { step, .. } => *step,
        }
    }

    /// The event's virtual timestamp, if it carries one.
    pub fn vtime(&self) -> Option<u64> {
        match self {
            TraceEvent::Deliver { vtime, .. } => *vtime,
            TraceEvent::PartitionStart { vtime, .. }
            | TraceEvent::PartitionHeal { vtime, .. }
            | TraceEvent::Recover { vtime, .. } => Some(*vtime),
            _ => None,
        }
    }

    /// Short event-kind label (`"send"`, `"deliver"`, …).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::EpisodeStart { .. } => "episode-start",
            TraceEvent::EpisodeEnd { .. } => "episode-end",
            TraceEvent::Send { .. } => "send",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Shun { .. } => "shun",
            TraceEvent::Output { .. } => "output",
            TraceEvent::DecodeMiss { .. } => "decode-miss",
            TraceEvent::SchedulerPick { .. } => "scheduler-pick",
            TraceEvent::PartitionStart { .. } => "partition-start",
            TraceEvent::PartitionHeal { .. } => "partition-heal",
            TraceEvent::Recover { .. } => "recover",
        }
    }

    /// The session the event concerns, if any.
    pub fn session(&self) -> Option<&SessionId> {
        match self {
            TraceEvent::Send { session, .. }
            | TraceEvent::Deliver { session, .. }
            | TraceEvent::Drop { session, .. }
            | TraceEvent::Shun { session, .. }
            | TraceEvent::Output { session, .. }
            | TraceEvent::DecodeMiss { session, .. } => Some(session),
            _ => None,
        }
    }
}

/// Leaf protocol kind of a session (`"root"` for the root session),
/// the key the per-kind histograms bucket by.
pub fn session_kind(session: &SessionId) -> &'static str {
    session.last().map_or("root", |t| t.kind)
}

/// A destination for trace events.
///
/// Sinks must be cheap to call (they sit behind one `Option` check on the
/// delivery path) and must not observe anything but the events handed to
/// them — a sink that, say, consulted a RNG would break the trace-on ≡
/// trace-off bit-for-bit guarantee.
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);
    /// The retained events, oldest first.
    fn snapshot(&self) -> Vec<TraceEvent>;
    /// Total events ever recorded (including any no longer retained).
    fn recorded(&self) -> u64;
}

/// A plain buffer is the unbounded recorder: [`TraceMode::Full`] builds
/// one, and the sharded backend records into one per party and flattens
/// them at merge barriers.
impl TraceSink for Vec<TraceEvent> {
    fn record(&mut self, event: TraceEvent) {
        self.push(event);
    }
    fn snapshot(&self) -> Vec<TraceEvent> {
        self.clone()
    }
    fn recorded(&self) -> u64 {
        self.len() as u64
    }
}

/// Bounded last-K recorder: keeps the most recent `capacity` events,
/// overwriting the oldest. This is the forensics sink — cheap enough to
/// leave on for long runs, and its tail is exactly what a violation
/// repro bundle wants.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    buf: Vec<TraceEvent>,
    head: usize,
    total: u64,
}

impl RingRecorder {
    /// Creates a recorder retaining the last `capacity` events
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingRecorder {
            capacity,
            buf: Vec::new(),
            head: 0,
            total: 0,
        }
    }

    /// How many events were overwritten by wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, event: TraceEvent) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    fn recorded(&self) -> u64 {
        self.total
    }
}

/// How a backend should trace, set via
/// [`Runtime::set_trace`](crate::Runtime::set_trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing (the default): the delivery path pays one predictable
    /// `Option` check.
    #[default]
    Off,
    /// Bounded last-K ring buffer ([`RingRecorder`]).
    Ring(usize),
    /// Every event, in a plain `Vec<TraceEvent>`: for exports and the
    /// causal DAG. Prefer [`TraceMode::Ring`] for always-on forensics.
    Full,
}

impl TraceMode {
    /// Builds the sink this mode describes (`None` for [`TraceMode::Off`]).
    pub fn build(self) -> Option<Box<dyn TraceSink>> {
        match self {
            TraceMode::Off => None,
            TraceMode::Ring(k) => Some(Box::new(RingRecorder::new(k))),
            TraceMode::Full => Some(Box::new(Vec::new())),
        }
    }
}

/// Log-bucketed histogram of causal delivery depths: bucket `i` counts
/// depths in `[2^i − 1, 2^(i+1) − 2]` (so bucket 0 is exactly depth 0,
/// the roots).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    /// Per-bucket counts (grown on demand).
    pub buckets: Vec<u64>,
    /// Total deliveries recorded.
    pub count: u64,
    /// Sum of all depths (for the mean).
    pub sum: u64,
    /// Largest depth seen — the critical-path length for this kind.
    pub max: u64,
}

impl DepthHistogram {
    /// Bucket index for `depth`.
    pub fn bucket_of(depth: u64) -> usize {
        (depth + 1).ilog2() as usize
    }

    /// Inclusive `(lo, hi)` depth range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        ((1u64 << i) - 1, (1u64 << (i + 1)) - 2)
    }

    /// Records one delivery at `depth`.
    pub fn record(&mut self, depth: u64) {
        let b = Self::bucket_of(depth);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += depth;
        self.max = self.max.max(depth);
    }

    /// Mean depth (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Folds the causal DAG in `events` into per-kind depth histograms,
/// sorted by kind.
///
/// A delivery's depth is `0` if its envelope was sent from the spawn
/// phase (`Send.causal_parent == None`, or the send was not retained by
/// the sink), else `1 +` the depth of the delivery `(send.from,
/// send.causal_parent)`.
pub fn depth_histograms(events: &[TraceEvent]) -> Vec<(&'static str, DepthHistogram)> {
    let mut send_parent: HashMap<u64, (PartyId, u64)> = HashMap::new();
    let mut depths: HashMap<(PartyId, u64), u64> = HashMap::new();
    let mut by_kind: BTreeMap<&'static str, DepthHistogram> = BTreeMap::new();
    for ev in events {
        match ev {
            TraceEvent::Send {
                seq,
                from,
                causal_parent: Some(cp),
                ..
            } => {
                send_parent.insert(*seq, (*from, *cp));
            }
            TraceEvent::Deliver {
                step,
                party,
                session,
                seq,
                ..
            } => {
                let depth = send_parent
                    .get(seq)
                    .and_then(|key| depths.get(key))
                    .map_or(0, |d| d + 1);
                depths.insert((*party, *step), depth);
                by_kind
                    .entry(session_kind(session))
                    .or_default()
                    .record(depth);
            }
            _ => {}
        }
    }
    by_kind.into_iter().collect()
}

/// Digest of a recorded trace, folded into
/// [`RunReport::trace`](crate::RunReport::trace) when tracing is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events recorded (including any overwritten by a ring).
    pub recorded: u64,
    /// Events still retained by the sink.
    pub retained: usize,
    /// Per-kind causal delivery-depth histograms.
    pub depths: Vec<(&'static str, DepthHistogram)>,
}

/// Computes a [`TraceSummary`] from a sink's current contents.
pub fn summarize(sink: &dyn TraceSink) -> TraceSummary {
    let events = sink.snapshot();
    TraceSummary {
        recorded: sink.recorded(),
        retained: events.len(),
        depths: depth_histograms(&events),
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events recorded, {} retained",
            self.recorded, self.retained
        )?;
        for (kind, h) in &self.depths {
            write!(
                f,
                "  depth[{kind}]: n={} mean={:.2} max={} buckets=[",
                h.count,
                h.mean(),
                h.max
            )?;
            for (i, c) in h.buckets.iter().enumerate() {
                let (lo, hi) = DepthHistogram::bucket_bounds(i);
                if i > 0 {
                    write!(f, " ")?;
                }
                if lo == hi {
                    write!(f, "{lo}:{c}")?;
                } else {
                    write!(f, "{lo}-{hi}:{c}")?;
                }
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Appends `s` to `out` as a quoted JSON string, escaping quotes,
/// backslashes and control characters.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_common(out: &mut String, ev: &str, step: u64) {
    out.push_str("{\"ev\":");
    push_json_str(out, ev);
    out.push_str(&format!(",\"step\":{step}"));
}

fn push_session(out: &mut String, session: &SessionId) {
    out.push_str(",\"session\":");
    push_json_str(out, &session.to_string());
    out.push_str(",\"kind\":");
    push_json_str(out, session_kind(session));
}

/// Renders one event as a single-line JSON object.
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    match ev {
        TraceEvent::EpisodeStart { step } | TraceEvent::EpisodeEnd { step } => {
            push_common(&mut out, ev.label(), *step);
        }
        TraceEvent::Send {
            step,
            from,
            to,
            session,
            seq,
            causal_parent,
        } => {
            push_common(&mut out, "send", *step);
            out.push_str(&format!(",\"from\":{},\"to\":{}", from.0, to.0));
            push_session(&mut out, session);
            out.push_str(&format!(",\"seq\":{seq}"));
            match causal_parent {
                Some(cp) => out.push_str(&format!(",\"causal_parent\":{cp}")),
                None => out.push_str(",\"causal_parent\":null"),
            }
        }
        TraceEvent::Deliver {
            step,
            party,
            from,
            session,
            seq,
            vtime,
        } => {
            push_common(&mut out, "deliver", *step);
            out.push_str(&format!(",\"party\":{},\"from\":{}", party.0, from.0));
            push_session(&mut out, session);
            out.push_str(&format!(",\"seq\":{seq}"));
            if let Some(vt) = vtime {
                out.push_str(&format!(",\"vtime\":{vt}"));
            }
        }
        TraceEvent::Drop {
            step,
            party,
            from,
            session,
            seq,
            reason,
        } => {
            push_common(&mut out, "drop", *step);
            out.push_str(&format!(",\"party\":{},\"from\":{}", party.0, from.0));
            push_session(&mut out, session);
            out.push_str(&format!(",\"seq\":{seq},\"reason\":"));
            push_json_str(&mut out, reason.label());
        }
        TraceEvent::Crash { step, party } => {
            push_common(&mut out, "crash", *step);
            out.push_str(&format!(",\"party\":{}", party.0));
        }
        TraceEvent::Shun {
            step,
            party,
            session,
            count,
        }
        | TraceEvent::Output {
            step,
            party,
            session,
            count,
        }
        | TraceEvent::DecodeMiss {
            step,
            party,
            session,
            count,
        } => {
            push_common(&mut out, ev.label(), *step);
            out.push_str(&format!(",\"party\":{}", party.0));
            push_session(&mut out, session);
            out.push_str(&format!(",\"count\":{count}"));
        }
        TraceEvent::SchedulerPick {
            step,
            party,
            queued,
            run,
        } => {
            push_common(&mut out, "scheduler-pick", *step);
            out.push_str(&format!(
                ",\"party\":{},\"queued\":{queued},\"run\":{run}",
                party.0
            ));
        }
        TraceEvent::PartitionStart { step, vtime, cut } => {
            push_common(&mut out, "partition-start", *step);
            let ids: Vec<String> = cut.iter().map(|p| p.0.to_string()).collect();
            out.push_str(&format!(",\"vtime\":{vtime},\"cut\":[{}]", ids.join(",")));
        }
        TraceEvent::PartitionHeal { step, vtime } => {
            push_common(&mut out, "partition-heal", *step);
            out.push_str(&format!(",\"vtime\":{vtime}"));
        }
        TraceEvent::Recover { step, vtime, party } => {
            push_common(&mut out, "recover", *step);
            out.push_str(&format!(",\"vtime\":{vtime},\"party\":{}", party.0));
        }
    }
    out.push('}');
    out
}

/// Renders events as JSON Lines (one object per line, oldest first).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Process id used for scheduler / episode control events in the Chrome
/// trace export (parties use their own ids as pids).
const CTL_PID: usize = 1_000_000;

/// Renders events in the Chrome trace-event format (open in Perfetto:
/// <https://ui.perfetto.dev>). One process per party, one thread lane per
/// session path; deliveries are 1-step slices, everything else instants.
/// `ts` is the delivery-step counter (microseconds in the viewer).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut lanes: HashMap<String, usize> = HashMap::new();
    let mut lane_of = |session: &SessionId| -> usize {
        let key = session.to_string();
        let next = lanes.len() + 1;
        *lanes.entry(key).or_insert(next)
    };
    let mut body = String::with_capacity(events.len() * 128);
    let mut named: HashMap<(usize, usize), String> = HashMap::new();
    let push = |body: &mut String, line: String| {
        if !body.is_empty() {
            body.push(',');
        }
        body.push_str(&line);
    };
    for ev in events {
        let (pid, tid) = match ev {
            TraceEvent::EpisodeStart { .. }
            | TraceEvent::EpisodeEnd { .. }
            | TraceEvent::SchedulerPick { .. }
            | TraceEvent::PartitionStart { .. }
            | TraceEvent::PartitionHeal { .. } => (CTL_PID, 0),
            TraceEvent::Crash { party, .. } | TraceEvent::Recover { party, .. } => (party.0, 0),
            TraceEvent::Send { from, session, .. } => (from.0, lane_of(session)),
            TraceEvent::Deliver { party, session, .. }
            | TraceEvent::Drop { party, session, .. }
            | TraceEvent::Shun { party, session, .. }
            | TraceEvent::Output { party, session, .. }
            | TraceEvent::DecodeMiss { party, session, .. } => (party.0, lane_of(session)),
        };
        if let Some(session) = ev.session() {
            named
                .entry((pid, tid))
                .or_insert_with(|| session.to_string());
        }
        let ts = ev.step();
        let mut name = String::new();
        let mut args = String::new();
        let mut ph = "i";
        match ev {
            TraceEvent::EpisodeStart { .. } | TraceEvent::EpisodeEnd { .. } => {
                name.push_str(ev.label());
            }
            TraceEvent::SchedulerPick {
                party, queued, run, ..
            } => {
                name.push_str("pick");
                args = format!("\"party\":{},\"queued\":{queued},\"run\":{run}", party.0);
            }
            TraceEvent::Crash { .. } => name.push_str("crash"),
            TraceEvent::Send {
                to,
                seq,
                causal_parent,
                ..
            } => {
                name.push_str("send");
                args = format!(
                    "\"to\":{},\"seq\":{seq},\"causal_parent\":{}",
                    to.0,
                    causal_parent.map_or("null".to_string(), |c| c.to_string())
                );
            }
            TraceEvent::Deliver {
                from,
                session,
                seq,
                vtime,
                ..
            } => {
                ph = "X";
                name.push_str(session_kind(session));
                args = match vtime {
                    Some(vt) => format!("\"from\":{},\"seq\":{seq},\"vtime\":{vt}", from.0),
                    None => format!("\"from\":{},\"seq\":{seq}", from.0),
                };
            }
            TraceEvent::Drop {
                from, seq, reason, ..
            } => {
                name = format!("drop({})", reason.label());
                args = format!("\"from\":{},\"seq\":{seq}", from.0);
            }
            TraceEvent::Shun { count, .. }
            | TraceEvent::Output { count, .. }
            | TraceEvent::DecodeMiss { count, .. } => {
                name.push_str(ev.label());
                args = format!("\"count\":{count}");
            }
            TraceEvent::PartitionStart { vtime, cut, .. } => {
                name.push_str("partition-start");
                let ids: Vec<String> = cut.iter().map(|p| p.0.to_string()).collect();
                args = format!("\"vtime\":{vtime},\"cut\":[{}]", ids.join(","));
            }
            TraceEvent::PartitionHeal { vtime, .. } => {
                name.push_str("partition-heal");
                args = format!("\"vtime\":{vtime}");
            }
            TraceEvent::Recover { vtime, .. } => {
                name.push_str("recover");
                args = format!("\"vtime\":{vtime}");
            }
        }
        let mut line = String::with_capacity(128);
        line.push_str("{\"name\":");
        push_json_str(&mut line, &name);
        line.push_str(&format!(
            ",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}"
        ));
        if ph == "X" {
            line.push_str(",\"dur\":1");
        } else {
            line.push_str(",\"s\":\"t\"");
        }
        line.push_str(&format!(",\"cat\":\"{}\"", ev.label()));
        if !args.is_empty() {
            line.push_str(&format!(",\"args\":{{{args}}}"));
        }
        line.push('}');
        push(&mut body, line);
    }
    // Metadata: name each party process and each session lane.
    let mut pids: Vec<usize> = named.keys().map(|(p, _)| *p).collect();
    pids.push(CTL_PID);
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        let pname = if pid == CTL_PID {
            "scheduler".to_string()
        } else {
            format!("party {pid}")
        };
        let mut line = String::new();
        line.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        ));
        push_json_str(&mut line, &pname);
        line.push_str("}}");
        push(&mut body, line);
    }
    let mut lanes_sorted: Vec<((usize, usize), String)> = named.into_iter().collect();
    lanes_sorted.sort();
    for ((pid, tid), session) in lanes_sorted {
        let mut line = String::new();
        line.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        ));
        push_json_str(&mut line, &session);
        line.push_str("}}");
        push(&mut body, line);
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{body}]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SessionTag;

    fn sid(kind: &'static str) -> SessionId {
        SessionId::root().child(SessionTag::new(kind, 0))
    }

    fn deliver(step: u64, party: usize, from: usize, seq: u64) -> TraceEvent {
        TraceEvent::Deliver {
            step,
            party: PartyId(party),
            from: PartyId(from),
            session: sid("acast"),
            seq,
            vtime: None,
        }
    }

    fn send(step: u64, from: usize, to: usize, seq: u64, cp: Option<u64>) -> TraceEvent {
        TraceEvent::Send {
            step,
            from: PartyId(from),
            to: PartyId(to),
            session: sid("acast"),
            seq,
            causal_parent: cp,
        }
    }

    #[test]
    fn ring_recorder_wraps_around() {
        let mut ring = RingRecorder::new(4);
        for i in 0..10 {
            ring.record(TraceEvent::EpisodeStart { step: i });
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let steps: Vec<u64> = snap.iter().map(|e| e.step()).collect();
        assert_eq!(steps, vec![6, 7, 8, 9], "oldest-first tail of the stream");
    }

    #[test]
    fn ring_recorder_under_capacity_keeps_order() {
        let mut ring = RingRecorder::new(8);
        for i in 0..3 {
            ring.record(TraceEvent::EpisodeEnd { step: i });
        }
        let steps: Vec<u64> = ring.snapshot().iter().map(|e| e.step()).collect();
        assert_eq!(steps, vec![0, 1, 2]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn depth_buckets_are_log_spaced() {
        assert_eq!(DepthHistogram::bucket_of(0), 0);
        assert_eq!(DepthHistogram::bucket_of(1), 1);
        assert_eq!(DepthHistogram::bucket_of(2), 1);
        assert_eq!(DepthHistogram::bucket_of(3), 2);
        assert_eq!(DepthHistogram::bucket_of(6), 2);
        assert_eq!(DepthHistogram::bucket_of(7), 3);
        for i in 0..8 {
            let (lo, hi) = DepthHistogram::bucket_bounds(i);
            assert_eq!(DepthHistogram::bucket_of(lo), i);
            assert_eq!(DepthHistogram::bucket_of(hi), i);
            if lo > 0 {
                assert_eq!(DepthHistogram::bucket_of(lo - 1), i - 1);
            }
        }
    }

    #[test]
    fn depth_histograms_follow_the_causal_chain() {
        // Root send (spawn phase) -> deliver at (1, step 1); its handler
        // sends seq 1 -> deliver at (2, step 2); whose handler sends
        // seq 2 -> deliver at (0, step 3). Depths 0, 1, 2.
        let events = vec![
            send(0, 0, 1, 0, None),
            deliver(1, 1, 0, 0),
            send(1, 1, 2, 1, Some(1)),
            deliver(2, 2, 1, 1),
            send(2, 2, 0, 2, Some(2)),
            deliver(3, 0, 2, 2),
        ];
        let hists = depth_histograms(&events);
        assert_eq!(hists.len(), 1);
        let (kind, h) = &hists[0];
        assert_eq!(*kind, "acast");
        assert_eq!(h.count, 3);
        assert_eq!(h.max, 2);
        assert_eq!(h.sum, 3);
        assert_eq!(h.buckets, vec![1, 2]); // depth 0 -> bucket 0; depths 1,2 -> bucket 1
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let events = vec![
            TraceEvent::EpisodeStart { step: 0 },
            send(0, 0, 1, 0, None),
            deliver(1, 1, 0, 0),
            TraceEvent::Drop {
                step: 2,
                party: PartyId(2),
                from: PartyId(0),
                session: sid("ba"),
                seq: 1,
                reason: DropReason::Shunned,
            },
            TraceEvent::EpisodeEnd { step: 2 },
        ];
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[1].contains("\"causal_parent\":null"), "{}", lines[1]);
        assert!(lines[2].contains("\"kind\":\"acast\""), "{}", lines[2]);
        assert!(lines[3].contains("\"reason\":\"shunned\""), "{}", lines[3]);
    }

    #[test]
    fn json_escaping_is_applied() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn chrome_trace_has_lanes_and_metadata() {
        let events = vec![send(0, 0, 1, 0, None), deliver(1, 1, 0, 0)];
        let json = to_chrome_trace(&events);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\""), "deliver becomes a slice");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("/acast[0]"), "lane named by session path");
    }

    #[test]
    fn trace_mode_builds_the_right_sink() {
        assert!(TraceMode::Off.build().is_none());
        let mut ring = TraceMode::Ring(2).build().unwrap();
        let mut full = TraceMode::Full.build().unwrap();
        for i in 0..5 {
            ring.record(TraceEvent::EpisodeStart { step: i });
            full.record(TraceEvent::EpisodeStart { step: i });
        }
        assert_eq!(ring.snapshot().len(), 2);
        assert_eq!(full.snapshot().len(), 5);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn net_lifecycle_events_export_with_virtual_timestamps() {
        let events = vec![
            TraceEvent::PartitionStart {
                step: 1,
                vtime: 40,
                cut: vec![PartyId(0), PartyId(2)],
            },
            TraceEvent::Deliver {
                step: 2,
                party: PartyId(1),
                from: PartyId(0),
                session: sid("ba"),
                seq: 9,
                vtime: Some(57),
            },
            TraceEvent::PartitionHeal {
                step: 3,
                vtime: 240,
            },
            TraceEvent::Recover {
                step: 4,
                vtime: 300,
                party: PartyId(2),
            },
        ];
        assert_eq!(events[0].vtime(), Some(40));
        assert_eq!(events[1].vtime(), Some(57));
        assert_eq!(events[3].label(), "recover");
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"cut\":[0,2]"), "{}", lines[0]);
        assert!(lines[1].contains("\"vtime\":57"), "{}", lines[1]);
        assert!(lines[2].contains("\"vtime\":240"), "{}", lines[2]);
        assert!(lines[3].contains("\"party\":2"), "{}", lines[3]);
        let chrome = to_chrome_trace(&events);
        assert!(chrome.contains("\"partition-start\""), "{chrome}");
        assert!(chrome.contains("\"vtime\":300"), "{chrome}");
    }

    #[test]
    fn summarize_reports_recorded_and_retained() {
        let mut ring = RingRecorder::new(2);
        ring.record(send(0, 0, 1, 0, None));
        ring.record(deliver(1, 1, 0, 0));
        ring.record(deliver(2, 2, 0, 7)); // send for seq 7 not retained -> depth 0
        let summary = summarize(&ring);
        assert_eq!(summary.recorded, 3);
        assert_eq!(summary.retained, 2);
        assert_eq!(summary.depths.len(), 1);
        let text = summary.to_string();
        assert!(text.contains("3 events recorded"), "{text}");
        assert!(text.contains("depth[acast]"), "{text}");
    }
}
