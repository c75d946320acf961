//! Coverage-guided scenario search: an autonomous bug hunter over the
//! adversarial scenario grammar.
//!
//! The searcher breeds scenario strings (mutate `n`/`t`, fault plans,
//! schedulers, backends; cross over plan lists) and scores each run by a
//! *coverage signal* extracted from the observability the substrate
//! already has: per-kind send counts, decode-miss counters, shun/drop
//! totals, wire malformation counts, causal depth-histogram tails and
//! virtual completion time, each bucketed to a log₂ feature. A candidate
//! that lights up a feature no earlier run produced joins the corpus;
//! one that violates an invariant is [shrunk](shrink) to a minimal
//! scenario string that still reproduces the *same* violation signature,
//! ready for a repro bundle
//! ([`write_repro_bundle`](crate::scenarios::write_repro_bundle)).
//!
//! Everything is deterministic in `(corpus, round seed)`: mutation
//! choices come from a seeded ChaCha stream and every cell run is a pure
//! function of `(scenario, seed)`, so a search round replays bit-for-bit
//! — the property the `exp_scenario_search --smoke` gate asserts.

use crate::scenarios::{run_cell_instrumented, CellOutcome, CellReport, StackKind};
use aft_sim::{
    AdaptiveSpec, AttackRegistry, Corruption, FaultSpec, Fingerprint, PartyId, Scenario, TraceMode,
    DEFAULT_BACKEND,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeSet;
use std::path::Path;

/// Default per-episode step budget for search runs: generous enough that
/// every honest stack at `n ≤ 10` quiesces, small enough that a planted
/// non-quiescing scenario (e.g. an adaptive storm) reports `StepLimit`
/// in well under a second instead of burning the conformance budget.
pub const SEARCH_STEP_BUDGET: u64 = 500_000;

/// Trace ring retained during search runs — the depth-histogram tail is
/// part of the coverage signal, but unbounded retention would dominate
/// run cost.
const SEARCH_TRACE_RING: usize = 4096;

/// One corpus member: a stack, a seed and a scenario spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Which reference stack the spec runs against.
    pub stack: StackKind,
    /// The cell seed.
    pub seed: u64,
    /// The scenario spec string (always re-parses).
    pub spec: String,
}

impl CorpusEntry {
    /// Persisted line form: `<stack-label> <seed> <spec>`.
    pub fn to_line(&self) -> String {
        format!("{} {} {}", self.stack.label(), self.seed, self.spec)
    }

    /// Parses [`CorpusEntry::to_line`] output; `None` on malformed lines
    /// (including specs that no longer parse under the current grammar —
    /// a stale corpus degrades, it doesn't wedge the searcher).
    pub fn from_line(line: &str) -> Option<CorpusEntry> {
        let (label, rest) = line.trim().split_once(' ')?;
        let (seed, spec) = rest.split_once(' ')?;
        let entry = CorpusEntry {
            stack: StackKind::from_label(label)?,
            seed: seed.parse().ok()?,
            spec: spec.to_string(),
        };
        Scenario::parse(&entry.spec)?;
        Some(entry)
    }
}

/// The persistent search corpus: entries plus the coverage features and
/// report fingerprints they have produced (dedup state).
#[derive(Debug, Default)]
pub struct Corpus {
    /// Corpus members in discovery order.
    pub entries: Vec<CorpusEntry>,
    features: BTreeSet<String>,
    fingerprints: BTreeSet<u64>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Seeds the corpus with the standard conformance axes: every stack's
    /// standard fault plans plus one adaptive entry per stack, all at the
    /// smallest system size. These are the mutation parents of round 0.
    pub fn seed_defaults(&mut self) {
        for kind in StackKind::all() {
            for plan in kind.standard_plans() {
                let spec = if plan.is_empty() {
                    "n=4,t=1,sched=random,rt=sim".to_string()
                } else {
                    format!("n=4,t=1,corrupt={plan},sched=random,rt=sim")
                };
                self.push_unique(CorpusEntry {
                    stack: kind,
                    seed: 5,
                    spec,
                });
            }
            let adaptive = match kind {
                StackKind::Ba => "coin-favorite",
                StackKind::SvssChain | StackKind::CommonSubset => "core-candidates",
            };
            self.push_unique(CorpusEntry {
                stack: kind,
                seed: 5,
                spec: format!("n=4,t=1,corrupt=adaptive:{adaptive}@*,sched=random,rt=sim"),
            });
        }
    }

    fn push_unique(&mut self, entry: CorpusEntry) {
        if !self.entries.contains(&entry) {
            self.entries.push(entry);
        }
    }

    /// Records a run's coverage; returns `true` (and keeps `entry`) iff it
    /// produced a feature or report fingerprint no earlier run did.
    pub fn add_if_interesting(
        &mut self,
        entry: CorpusEntry,
        features: &BTreeSet<String>,
        report_fingerprint: u64,
    ) -> bool {
        let mut fresh = self.fingerprints.insert(report_fingerprint);
        for f in features {
            fresh |= self.features.insert(f.clone());
        }
        if fresh {
            self.push_unique(entry);
        }
        fresh
    }

    /// Number of distinct coverage features observed so far.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Deterministic fingerprint of the corpus *contents* (sorted entry
    /// lines, discovery order ignored) — the smoke gate's replay check.
    pub fn fingerprint(&self) -> u64 {
        let mut lines: Vec<String> = self.entries.iter().map(CorpusEntry::to_line).collect();
        lines.sort();
        let mut fp = Fingerprint::new();
        for line in &lines {
            fp.write_str(line);
        }
        fp.finish()
    }

    /// Loads a corpus from `path` (one [`CorpusEntry::to_line`] per line;
    /// unparseable lines are dropped). Missing file → empty corpus.
    pub fn load(path: &Path) -> std::io::Result<Corpus> {
        let mut corpus = Corpus::new();
        match std::fs::read_to_string(path) {
            Ok(text) => {
                for line in text.lines() {
                    if let Some(entry) = CorpusEntry::from_line(line) {
                        corpus.push_unique(entry);
                    }
                }
                Ok(corpus)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(corpus),
            Err(e) => Err(e),
        }
    }

    /// Persists the corpus to `path`, creating parent directories.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut text = String::new();
        for entry in &self.entries {
            text.push_str(&entry.to_line());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Log₂ bucket of a counter (0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, …): the
/// coverage signal cares about order-of-magnitude changes, not exact
/// counts, so runs that differ only by scheduling noise map to the same
/// features.
fn bucket(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// The canonical violation class of one violation message — the unit the
/// violation signature and the shrinker compare by, so that two runs with
/// differently-worded but same-kind violations count as the same bug.
pub fn violation_class(violation: &str) -> &str {
    const CLASSES: [&str; 10] = [
        "conservation",
        "termination",
        "agreement",
        "validity",
        "binding",
        "secrecy",
        "subset",
        "consistency",
        "liveness",
        "deploy",
    ];
    if violation.contains("did not quiesce") {
        return "quiesce";
    }
    for class in CLASSES {
        if violation.contains(class) {
            return class;
        }
    }
    violation
        .split([':', ' '])
        .next()
        .filter(|s| !s.is_empty())
        .unwrap_or("unknown")
}

/// Deterministic signature of *which bug* a violating run exhibits: the
/// stack plus the sorted, deduplicated set of violation classes. The
/// shrinker only accepts candidates preserving this.
pub fn violation_signature(stack: StackKind, report: &CellReport) -> u64 {
    let classes: BTreeSet<&str> = report
        .violations
        .iter()
        .map(|v| violation_class(v))
        .collect();
    let mut fp = Fingerprint::new();
    fp.write_str(stack.label());
    for class in classes {
        fp.write_str(class);
    }
    fp.finish()
}

/// Extracts the coverage features of one instrumented run (see the module
/// docs for the feature families). All features are prefixed by the stack
/// label so the three stacks accumulate coverage independently.
pub fn coverage_features(stack: StackKind, outcome: &CellOutcome) -> BTreeSet<String> {
    let label = stack.label();
    let m = &outcome.metrics;
    let mut features = BTreeSet::new();
    for (kind, sent) in m.kinds() {
        features.insert(format!("{label}/sent/{kind}/{}", bucket(sent)));
    }
    for (kind, misses) in m.decode_misses() {
        features.insert(format!("{label}/decode-miss/{kind}/{}", bucket(misses)));
    }
    features.insert(format!("{label}/shun/{}", bucket(m.shun_events)));
    features.insert(format!("{label}/drop-shun/{}", bucket(m.dropped_shunned)));
    features.insert(format!("{label}/drop-crash/{}", bucket(m.dropped_crashed)));
    features.insert(format!("{label}/steps/{}", bucket(m.steps)));
    if m.wire_malformed > 0 {
        features.insert(format!(
            "{label}/wire-malformed/{}",
            bucket(m.wire_malformed)
        ));
    }
    if m.virtual_time > 0 {
        features.insert(format!("{label}/vtime/{}", bucket(m.virtual_time)));
    }
    for (kind, hist) in aft_sim::trace::depth_histograms(&outcome.events) {
        features.insert(format!("{label}/depth/{kind}/{}", bucket(hist.max)));
    }
    features.insert(format!("{label}/victims/{}", outcome.victims.len()));
    for v in &outcome.report.violations {
        features.insert(format!("{label}/violation/{}", violation_class(v)));
    }
    features
}

/// Scheduler alphabet for mutations — one representative per family plus
/// extra `net:` shapes (latency spread, partition with healing).
const SCHED_CHOICES: [&str; 9] = [
    "fifo",
    "lifo",
    "random",
    "window4",
    "block:8",
    "starve:1",
    "net:lat=1..8",
    "net:lat=2..6",
    "net:lat=1..20,partition=p50,heal=200",
];

/// Backend alphabet for mutations. `threaded` is deliberately absent: it
/// cannot honor replay (and rejects adaptive plans outright).
const RT_CHOICES: [&str; 4] = ["sim", "sharded:2", "sharded:4", "wire"];

/// Adaptive-attack alphabet per stack: `(name, args)`.
fn adaptive_choices(stack: StackKind) -> &'static [(&'static str, &'static str)] {
    match stack {
        StackKind::Ba => &[
            ("coin-favorite", ""),
            ("coin-favorite", "equivocate"),
            ("pin", "mute:1"),
            ("pin", "storm:2"),
        ],
        StackKind::SvssChain | StackKind::CommonSubset => &[
            ("core-candidates", ""),
            ("core-candidates", "50"),
            ("pin", "mute:3"),
            ("pin", "storm:2"),
        ],
    }
}

/// Static-fault alphabet for a stack: its standard plan entries with the
/// `@party` suffix stripped (the mutator retargets parties itself).
fn fault_alphabet(stack: StackKind) -> Vec<&'static str> {
    stack
        .standard_plans()
        .iter()
        .filter(|p| !p.is_empty())
        .filter_map(|p| p.rsplit_once('@').map(|(fault, _)| fault))
        .collect()
}

/// Applies one random mutation to `scenario` in place. The result may be
/// invalid (e.g. duplicate party) — the caller re-renders and re-parses,
/// discarding rejects, so this only needs to be *usually* productive.
fn mutate_once(scenario: &mut Scenario, stack: StackKind, rng: &mut ChaCha12Rng) {
    match rng.gen_range(0..7u32) {
        // Resample the system size; corruptions out of range are dropped
        // and the plan is truncated to the new budget.
        0 => {
            let n = rng.gen_range(4..=10usize);
            let t = (n - 1) / 3;
            scenario.n = n;
            scenario.t = t;
            scenario.corruptions.retain(|c| c.party.0 < n);
            scenario.corruptions.truncate(t);
        }
        1 => scenario.sched = SCHED_CHOICES[rng.gen_range(0..SCHED_CHOICES.len())].to_string(),
        2 => scenario.rt = RT_CHOICES[rng.gen_range(0..RT_CHOICES.len())].to_string(),
        // Add a corruption from the stack's fault alphabet on a currently
        // honest party (no-op when the budget is spent).
        3 => {
            if scenario.corruptions.len() < scenario.t {
                let alphabet = fault_alphabet(stack);
                let fault = alphabet[rng.gen_range(0..alphabet.len())];
                let party = PartyId(rng.gen_range(0..scenario.n));
                if !scenario.is_corrupt(party) {
                    if let Some(fault) = FaultSpec::parse(fault) {
                        scenario.corruptions.push(Corruption { party, fault });
                    }
                }
            }
        }
        4 => {
            if !scenario.corruptions.is_empty() {
                let idx = rng.gen_range(0..scenario.corruptions.len());
                scenario.corruptions.remove(idx);
            }
        }
        // Retarget one corruption to a random party (discarded on
        // collision by the re-parse).
        5 => {
            if !scenario.corruptions.is_empty() {
                let idx = rng.gen_range(0..scenario.corruptions.len());
                scenario.corruptions[idx].party = PartyId(rng.gen_range(0..scenario.n));
            }
        }
        // Toggle the adaptive adversary.
        _ => {
            if scenario.adaptive.is_some() && rng.gen_bool(0.5) {
                scenario.adaptive = None;
            } else {
                let choices = adaptive_choices(stack);
                let (name, args) = choices[rng.gen_range(0..choices.len())];
                scenario.adaptive = Some(AdaptiveSpec {
                    name: name.to_string(),
                    args: args.to_string(),
                });
            }
        }
    }
    scenario.corruptions.sort_by_key(|c| c.party);
}

/// Breeds one candidate from `parent` (and optionally `mate`: crossover
/// takes the mate's fault plan and adaptive spec, the parent's topology).
/// Returns `None` when the mutated scenario fails to re-parse or resolve
/// its attacks — the search loop just breeds again.
fn breed(
    parent: &CorpusEntry,
    mate: Option<&CorpusEntry>,
    registry: &AttackRegistry,
    rng: &mut ChaCha12Rng,
) -> Option<CorpusEntry> {
    let mut scenario = Scenario::parse(&parent.spec)?;
    if let Some(mate) = mate {
        let donor = Scenario::parse(&mate.spec)?;
        scenario.corruptions = donor
            .corruptions
            .into_iter()
            .filter(|c| c.party.0 < scenario.n)
            .take(scenario.t)
            .collect();
        scenario.adaptive = donor.adaptive;
    }
    for _ in 0..rng.gen_range(1..=3u32) {
        mutate_once(&mut scenario, parent.stack, rng);
    }
    let seed = if rng.gen_bool(0.3) {
        rng.gen_range(0..64u64)
    } else {
        parent.seed
    };
    let spec = scenario.to_string();
    let reparsed = Scenario::parse(&spec)?;
    reparsed.validate_attacks(registry).ok()?;
    Some(CorpusEntry {
        stack: parent.stack,
        seed,
        spec,
    })
}

/// One invariant violation the search surfaced, before shrinking.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The violating corpus entry.
    pub entry: CorpusEntry,
    /// Signature of the bug ([`violation_signature`]).
    pub signature: u64,
    /// The violating run's report.
    pub report: CellReport,
}

/// What one search round did.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Candidates executed.
    pub executed: usize,
    /// Candidates that entered the corpus (new coverage).
    pub added: usize,
    /// Invariant violations found this round (deduplicated by signature).
    pub violations: Vec<FoundViolation>,
}

/// Runs one search round: breed `runs` candidates from the corpus, run
/// each instrumented, keep the interesting ones, report the violating
/// ones. Deterministic in `(corpus contents, round_seed, runs, budget)`.
pub fn search_round(
    corpus: &mut Corpus,
    registry: &AttackRegistry,
    round_seed: u64,
    runs: usize,
    budget: u64,
) -> RoundOutcome {
    if corpus.entries.is_empty() {
        corpus.seed_defaults();
    }
    let mut rng = ChaCha12Rng::seed_from_u64(round_seed);
    let mut outcome = RoundOutcome::default();
    let mut seen_signatures = BTreeSet::new();
    let mut bred = 0usize;
    // Each breeding attempt may be discarded by the re-parse; bound the
    // total attempts so a degenerate corpus cannot loop forever.
    while outcome.executed < runs && bred < runs * 8 {
        bred += 1;
        let parent = corpus.entries[rng.gen_range(0..corpus.entries.len())].clone();
        let mate = if rng.gen_bool(0.2) {
            let m = corpus.entries[rng.gen_range(0..corpus.entries.len())].clone();
            (m.stack == parent.stack).then_some(m)
        } else {
            None
        };
        let Some(candidate) = breed(&parent, mate.as_ref(), registry, &mut rng) else {
            continue;
        };
        let scenario = Scenario::parse(&candidate.spec).expect("bred specs re-parse");
        let run = run_cell_instrumented(
            candidate.stack,
            &scenario,
            candidate.seed,
            registry,
            budget,
            TraceMode::Ring(SEARCH_TRACE_RING),
        );
        outcome.executed += 1;
        let features = coverage_features(candidate.stack, &run);
        if corpus.add_if_interesting(candidate.clone(), &features, run.report.fingerprint) {
            outcome.added += 1;
        }
        if !run.report.violations.is_empty() {
            let signature = violation_signature(candidate.stack, &run.report);
            if seen_signatures.insert(signature) {
                outcome.violations.push(FoundViolation {
                    entry: candidate,
                    signature,
                    report: run.report,
                });
            }
        }
    }
    outcome
}

/// A shrunk violation: the minimal scenario the shrinker reached that
/// still reproduces the original violation signature.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized entry (re-parses; replaying it reproduces `report`).
    pub entry: CorpusEntry,
    /// The preserved bug signature.
    pub signature: u64,
    /// The minimized run's report.
    pub report: CellReport,
    /// Shrink candidates evaluated.
    pub attempts: usize,
}

/// Token count of a spec string — the shrinker's size measure (fields and
/// plan entries, so dropping a corruption or the adaptive spec always
/// shrinks).
pub fn spec_tokens(spec: &str) -> usize {
    spec.split([',', ';']).count()
}

/// Shrinks a violating `(stack, spec, seed)` to a minimal spec with the
/// same violation signature: greedily drop corruptions and the adaptive
/// spec, normalize scheduler and backend, reduce `n` — re-running each
/// candidate and keeping it only if it still violates identically and is
/// no larger. Returns `None` if the input doesn't violate at all.
pub fn shrink(
    stack: StackKind,
    spec: &str,
    seed: u64,
    registry: &AttackRegistry,
    budget: u64,
) -> Option<Shrunk> {
    let scenario = Scenario::parse(spec)?;
    let report =
        run_cell_instrumented(stack, &scenario, seed, registry, budget, TraceMode::Off).report;
    if report.violations.is_empty() {
        return None;
    }
    let signature = violation_signature(stack, &report);
    let mut current = (spec.to_string(), report);
    let mut attempts = 0usize;
    loop {
        let mut improved = false;
        for candidate in shrink_candidates(&current.0) {
            if spec_tokens(&candidate) > spec_tokens(&current.0) {
                continue;
            }
            let Some(parsed) = Scenario::parse(&candidate) else {
                continue;
            };
            if parsed.validate_attacks(registry).is_err() {
                continue;
            }
            attempts += 1;
            let cand_report =
                run_cell_instrumented(stack, &parsed, seed, registry, budget, TraceMode::Off)
                    .report;
            if cand_report.violations.is_empty()
                || violation_signature(stack, &cand_report) != signature
            {
                continue;
            }
            current = (candidate, cand_report);
            improved = true;
            break; // restart the pass from the smaller spec
        }
        if !improved {
            break;
        }
    }
    Some(Shrunk {
        entry: CorpusEntry {
            stack,
            seed,
            spec: current.0,
        },
        signature,
        report: current.1,
        attempts,
    })
}

/// The shrink moves from `spec`, most aggressive first: drop each static
/// corruption, drop the adaptive spec, normalize the scheduler to
/// `random` and the backend to `sim`, then reduce `n` (smallest first).
fn shrink_candidates(spec: &str) -> Vec<String> {
    let Some(scenario) = Scenario::parse(spec) else {
        return Vec::new();
    };
    let mut candidates = Vec::new();
    for i in 0..scenario.corruptions.len() {
        let mut s = scenario.clone();
        s.corruptions.remove(i);
        candidates.push(s.to_string());
    }
    if scenario.adaptive.is_some() {
        let mut s = scenario.clone();
        s.adaptive = None;
        candidates.push(s.to_string());
    }
    if scenario.sched != "random" {
        let mut s = scenario.clone();
        s.sched = "random".to_string();
        candidates.push(s.to_string());
    }
    if scenario.rt != DEFAULT_BACKEND {
        let mut s = scenario.clone();
        s.rt = DEFAULT_BACKEND.to_string();
        candidates.push(s.to_string());
    }
    for n in 4..scenario.n {
        let t = (n - 1) / 3;
        let mut s = scenario.clone();
        s.n = n;
        s.t = t;
        s.corruptions.retain(|c| c.party.0 < n);
        s.corruptions.truncate(t);
        candidates.push(s.to_string());
    }
    candidates.retain(|c| c != spec);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::standard_registry;

    #[test]
    fn corpus_lines_round_trip() {
        let entry = CorpusEntry {
            stack: StackKind::SvssChain,
            seed: 11,
            spec: "n=7,t=2,corrupt=silent@3;adaptive:core-candidates@*,sched=lifo,rt=wire"
                .to_string(),
        };
        assert_eq!(CorpusEntry::from_line(&entry.to_line()), Some(entry));
        assert_eq!(CorpusEntry::from_line("ba 3 not-a-spec"), None);
        assert_eq!(CorpusEntry::from_line("nope 3 n=4,t=1"), None);
    }

    #[test]
    fn violation_classes_normalize_wording() {
        assert_eq!(
            violation_class("ba: run did not quiesce (StepLimit)"),
            "quiesce"
        );
        assert_eq!(
            violation_class("rec: message conservation broken (sent 3 != ...)"),
            "conservation"
        );
        assert_eq!(
            violation_class("termination: honest outputs [None]"),
            "termination"
        );
        assert_eq!(violation_class("deploy: no such attack"), "deploy");
        assert_eq!(violation_class("weird-new-thing: x"), "weird-new-thing");
    }

    #[test]
    fn search_round_is_deterministic() {
        let registry = standard_registry();
        let mut a = Corpus::new();
        let mut b = Corpus::new();
        let out_a = search_round(&mut a, &registry, 42, 6, SEARCH_STEP_BUDGET);
        let out_b = search_round(&mut b, &registry, 42, 6, SEARCH_STEP_BUDGET);
        assert_eq!(out_a.executed, out_b.executed);
        assert_eq!(out_a.added, out_b.added);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn planted_storm_is_found_and_shrunk() {
        // The planted bug: an adaptive pin policy that storms (a corrupted
        // party re-sending itself garbage on every activation) never
        // quiesces — StepLimit plus broken conservation, on any backend.
        let registry = standard_registry();
        let spec =
            "n=7,t=2,corrupt=garbage:9@5;adaptive:pin:storm:2@*,sched=net:lat=2..6,rt=sharded:2";
        let shrunk = shrink(StackKind::Ba, spec, 5, &registry, 200_000)
            .expect("the planted storm must violate");
        assert!(
            spec_tokens(&shrunk.entry.spec) < spec_tokens(spec),
            "{}",
            shrunk.entry.spec
        );
        // The minimal spec keeps the adaptive storm (it IS the bug) but
        // sheds the decoy corruption and the exotic scheduler/backend.
        assert!(
            shrunk.entry.spec.contains("adaptive:pin:storm"),
            "{}",
            shrunk.entry.spec
        );
        assert!(
            !shrunk.entry.spec.contains("garbage"),
            "{}",
            shrunk.entry.spec
        );
        // Replay: the shrunk spec reproduces the same signature.
        let replay = run_cell_instrumented(
            StackKind::Ba,
            &Scenario::parse(&shrunk.entry.spec).unwrap(),
            5,
            &registry,
            200_000,
            TraceMode::Off,
        )
        .report;
        assert_eq!(
            violation_signature(StackKind::Ba, &replay),
            shrunk.signature
        );
        assert_eq!(replay.fingerprint, shrunk.report.fingerprint);
    }
}
