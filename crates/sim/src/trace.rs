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
//! One schema: each event is its `ev` label, its `step` and its members.
//! [`to_jsonl`] renders one JSON object per event and line;
//! [`to_chrome_trace`] renders the Chrome trace-event format (load in
//! Perfetto via <https://ui.perfetto.dev>) with one process per party,
//! one thread lane per session path, and the same members as each
//! event's `args`. [`write_trace`] writes every capture as the pair
//! `X.jsonl` + `X.perfetto.json`.

use crate::ids::{PartyId, SessionId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
/// [`RunReport::trace`](crate::RunReport::trace) when tracing is on. It is
/// data for callers to read, not a rendering: the events themselves leave
/// a run only through [`write_trace`], in the one schema.
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

/// Appends the member `,"key":value`, `value` written as it displays.
fn push_member(out: &mut String, key: &str, value: impl fmt::Display) {
    out.push_str(&format!(",\"{key}\":{value}"));
}

/// Appends the members of an envelope's delivery or drop.
fn push_envelope(out: &mut String, party: PartyId, from: PartyId, session: &SessionId, seq: u64) {
    push_member(out, "party", party.0);
    push_member(out, "from", from.0);
    push_session(out, session);
    push_member(out, "seq", seq);
}

fn push_session(out: &mut String, session: &SessionId) {
    out.push_str(",\"session\":");
    push_json_str(out, &session.to_string());
    out.push_str(",\"kind\":");
    push_json_str(out, session_kind(session));
}

/// The one schema: appends every member of `ev` after `ev` and `step`,
/// each as `,"key":value`. A JSONL line and a Perfetto `args` object are
/// both these members.
fn push_members(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::EpisodeStart { .. } | TraceEvent::EpisodeEnd { .. } => {}
        TraceEvent::Send {
            from,
            to,
            session,
            seq,
            causal_parent,
            ..
        } => {
            push_member(out, "from", from.0);
            push_member(out, "to", to.0);
            push_session(out, session);
            push_member(out, "seq", seq);
            let parent = causal_parent.map_or("null".to_string(), |cp| cp.to_string());
            push_member(out, "causal_parent", parent);
        }
        TraceEvent::Deliver {
            party,
            from,
            session,
            seq,
            vtime,
            ..
        } => {
            push_envelope(out, *party, *from, session, *seq);
            if let Some(vt) = vtime {
                push_member(out, "vtime", vt);
            }
        }
        TraceEvent::Drop {
            party,
            from,
            session,
            seq,
            reason,
            ..
        } => {
            push_envelope(out, *party, *from, session, *seq);
            out.push_str(",\"reason\":");
            push_json_str(out, reason.label());
        }
        TraceEvent::Crash { party, .. } => push_member(out, "party", party.0),
        TraceEvent::Shun {
            party,
            session,
            count,
            ..
        }
        | TraceEvent::Output {
            party,
            session,
            count,
            ..
        }
        | TraceEvent::DecodeMiss {
            party,
            session,
            count,
            ..
        } => {
            push_member(out, "party", party.0);
            push_session(out, session);
            push_member(out, "count", count);
        }
        TraceEvent::SchedulerPick {
            party, queued, run, ..
        } => {
            push_member(out, "party", party.0);
            push_member(out, "queued", queued);
            push_member(out, "run", run);
        }
        TraceEvent::PartitionStart { vtime, cut, .. } => {
            push_member(out, "vtime", vtime);
            let ids: Vec<String> = cut.iter().map(|p| p.0.to_string()).collect();
            push_member(out, "cut", format!("[{}]", ids.join(",")));
        }
        TraceEvent::PartitionHeal { vtime, .. } => push_member(out, "vtime", vtime),
        TraceEvent::Recover { vtime, party, .. } => {
            push_member(out, "vtime", vtime);
            push_member(out, "party", party.0);
        }
    }
}

/// Renders one event as a single-line JSON object: `ev`, `step`, then
/// the event's members.
pub fn event_to_json(ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ev\":");
    push_json_str(&mut out, ev.label());
    push_member(&mut out, "step", ev.step());
    push_members(&mut out, ev);
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
/// `ts` is the delivery-step counter (microseconds in the viewer), and
/// each event's `args` are its JSONL members after `ev` and `step`.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut lanes: HashMap<String, usize> = HashMap::new();
    let mut named: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut lines = Vec::with_capacity(events.len());
    for ev in events {
        let pid = match ev {
            TraceEvent::EpisodeStart { .. }
            | TraceEvent::EpisodeEnd { .. }
            | TraceEvent::SchedulerPick { .. }
            | TraceEvent::PartitionStart { .. }
            | TraceEvent::PartitionHeal { .. } => CTL_PID,
            TraceEvent::Send { from, .. } => from.0,
            TraceEvent::Deliver { party, .. }
            | TraceEvent::Drop { party, .. }
            | TraceEvent::Crash { party, .. }
            | TraceEvent::Shun { party, .. }
            | TraceEvent::Output { party, .. }
            | TraceEvent::DecodeMiss { party, .. }
            | TraceEvent::Recover { party, .. } => party.0,
        };
        let tid = ev.session().map_or(0, |session| {
            let next = lanes.len() + 1;
            let tid = *lanes.entry(session.to_string()).or_insert(next);
            named
                .entry((pid, tid))
                .or_insert_with(|| session.to_string());
            tid
        });
        let (name, ph) = match ev {
            TraceEvent::SchedulerPick { .. } => ("pick".to_string(), "i"),
            TraceEvent::Deliver { session, .. } => (session_kind(session).to_string(), "X"),
            TraceEvent::Drop { reason, .. } => (format!("drop({})", reason.label()), "i"),
            _ => (ev.label().to_string(), "i"),
        };
        let mut line = String::with_capacity(128);
        line.push_str("{\"name\":");
        push_json_str(&mut line, &name);
        let extent = if ph == "X" {
            "\"dur\":1"
        } else {
            "\"s\":\"t\""
        };
        line.push_str(&format!(
            ",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},{extent},\"cat\":\"{}\"",
            ev.step(),
            ev.label()
        ));
        let mut args = String::new();
        push_members(&mut args, ev);
        line.push_str(&format!(",\"args\":{{{}}}}}", args.trim_start_matches(',')));
        lines.push(line);
    }
    // Metadata: name each party process and each session lane.
    let mut pids: Vec<usize> = named.keys().map(|(p, _)| *p).collect();
    pids.push(CTL_PID);
    pids.sort_unstable();
    pids.dedup();
    let metadata = |kind: &str, pid: usize, tid: usize, name: &str| {
        let mut line = format!(
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_json_str(&mut line, name);
        line.push_str("}}");
        line
    };
    for pid in pids {
        let pname = if pid == CTL_PID {
            "scheduler".to_string()
        } else {
            format!("party {pid}")
        };
        lines.push(metadata("process_name", pid, 0, &pname));
    }
    for ((pid, tid), session) in named {
        lines.push(metadata("thread_name", pid, tid, &session));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        lines.join(",")
    )
}

/// Writes one capture of `events`: JSON Lines to `path` (`X.jsonl`) and
/// the Perfetto view of the same events to its sibling `X.perfetto.json`,
/// creating parent directories first. Returns the Perfetto path; an error
/// names the file it could not write.
pub fn write_trace(path: &Path, events: &[TraceEvent]) -> io::Result<PathBuf> {
    let named =
        |at: &Path, e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", at.display()));
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| named(path, e))?;
    }
    fs::write(path, to_jsonl(events)).map_err(|e| named(path, e))?;
    let perfetto = path.with_extension("perfetto.json");
    fs::write(&perfetto, to_chrome_trace(events)).map_err(|e| named(&perfetto, e))?;
    Ok(perfetto)
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

    /// Every variant once: the event, its JSONL line, and the Perfetto
    /// `name` and `ph` it is drawn with.
    fn every_variant() -> Vec<(TraceEvent, &'static str, &'static str, &'static str)> {
        let (p1, p2) = (PartyId(1), PartyId(2));
        let ba = || sid("ba");
        vec![
            (
                TraceEvent::EpisodeStart { step: 0 },
                r#"{"ev":"episode-start","step":0}"#,
                "episode-start",
                "i",
            ),
            (
                send(0, 0, 1, 0, None),
                r#"{"ev":"send","step":0,"from":0,"to":1,"session":"/acast[0]","kind":"acast","seq":0,"causal_parent":null}"#,
                "send",
                "i",
            ),
            (
                send(3, 1, 2, 5, Some(3)),
                r#"{"ev":"send","step":3,"from":1,"to":2,"session":"/acast[0]","kind":"acast","seq":5,"causal_parent":3}"#,
                "send",
                "i",
            ),
            (
                deliver(1, 1, 0, 0),
                r#"{"ev":"deliver","step":1,"party":1,"from":0,"session":"/acast[0]","kind":"acast","seq":0}"#,
                "acast",
                "X",
            ),
            (
                TraceEvent::Deliver {
                    step: 2,
                    party: p1,
                    from: PartyId(0),
                    session: ba(),
                    seq: 9,
                    vtime: Some(57),
                },
                r#"{"ev":"deliver","step":2,"party":1,"from":0,"session":"/ba[0]","kind":"ba","seq":9,"vtime":57}"#,
                "ba",
                "X",
            ),
            (
                TraceEvent::Drop {
                    step: 2,
                    party: p2,
                    from: PartyId(0),
                    session: ba(),
                    seq: 1,
                    reason: DropReason::Shunned,
                },
                r#"{"ev":"drop","step":2,"party":2,"from":0,"session":"/ba[0]","kind":"ba","seq":1,"reason":"shunned"}"#,
                "drop(shunned)",
                "i",
            ),
            (
                TraceEvent::Crash { step: 4, party: p2 },
                r#"{"ev":"crash","step":4,"party":2}"#,
                "crash",
                "i",
            ),
            (
                TraceEvent::Shun {
                    step: 5,
                    party: p1,
                    session: ba(),
                    count: 2,
                },
                r#"{"ev":"shun","step":5,"party":1,"session":"/ba[0]","kind":"ba","count":2}"#,
                "shun",
                "i",
            ),
            (
                TraceEvent::Output {
                    step: 6,
                    party: p1,
                    session: ba(),
                    count: 1,
                },
                r#"{"ev":"output","step":6,"party":1,"session":"/ba[0]","kind":"ba","count":1}"#,
                "output",
                "i",
            ),
            (
                TraceEvent::DecodeMiss {
                    step: 7,
                    party: p2,
                    session: ba(),
                    count: 3,
                },
                r#"{"ev":"decode-miss","step":7,"party":2,"session":"/ba[0]","kind":"ba","count":3}"#,
                "decode-miss",
                "i",
            ),
            (
                TraceEvent::SchedulerPick {
                    step: 8,
                    party: p1,
                    queued: 4,
                    run: 2,
                },
                r#"{"ev":"scheduler-pick","step":8,"party":1,"queued":4,"run":2}"#,
                "pick",
                "i",
            ),
            (
                TraceEvent::PartitionStart {
                    step: 1,
                    vtime: 40,
                    cut: vec![PartyId(0), p2],
                },
                r#"{"ev":"partition-start","step":1,"vtime":40,"cut":[0,2]}"#,
                "partition-start",
                "i",
            ),
            (
                TraceEvent::PartitionHeal {
                    step: 3,
                    vtime: 240,
                },
                r#"{"ev":"partition-heal","step":3,"vtime":240}"#,
                "partition-heal",
                "i",
            ),
            (
                TraceEvent::Recover {
                    step: 4,
                    vtime: 300,
                    party: p2,
                },
                r#"{"ev":"recover","step":4,"vtime":300,"party":2}"#,
                "recover",
                "i",
            ),
            (
                TraceEvent::EpisodeEnd { step: 9 },
                r#"{"ev":"episode-end","step":9}"#,
                "episode-end",
                "i",
            ),
        ]
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let table = every_variant();
        let labels: std::collections::BTreeSet<&str> =
            table.iter().map(|(ev, ..)| ev.label()).collect();
        assert_eq!(labels.len(), 13, "every variant is in the table");
        let events: Vec<TraceEvent> = table.iter().map(|(ev, ..)| ev.clone()).collect();
        let jsonl = to_jsonl(&events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len());
        for ((ev, line, name, ph), got) in table.iter().zip(&lines) {
            assert_eq!(got, line);
            // Perfetto keeps its name and phase, and its `args` are the
            // line's members after `ev` and `step`.
            let head = format!("{{\"ev\":\"{}\",\"step\":{}", ev.label(), ev.step());
            let members = line.strip_prefix(&head).and_then(|m| m.strip_suffix('}'));
            let members = members
                .unwrap_or_else(|| panic!("{line}"))
                .trim_start_matches(',');
            let chrome = to_chrome_trace(std::slice::from_ref(ev));
            let drawn = chrome
                .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
                .and_then(|rest| rest.split(",{\"name\":\"process_name\"").next())
                .unwrap_or_else(|| panic!("{chrome}"));
            let start = format!("{{\"name\":\"{name}\",\"ph\":\"{ph}\",");
            assert!(drawn.starts_with(&start), "{drawn}");
            assert!(
                drawn.ends_with(&format!(",\"args\":{{{members}}}}}")),
                "{drawn}"
            );
        }
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
    }
}
