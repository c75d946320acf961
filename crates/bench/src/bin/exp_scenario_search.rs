//! E12 — coverage-guided adversarial scenario search.
//!
//! An autonomous bug hunter over the scenario grammar: breed scenario
//! strings from a persisted corpus (mutating topology, fault plans,
//! schedulers, backends and the adaptive adversary; crossing over plan
//! lists), score every run by the coverage signal the substrate's
//! observability already provides, keep what lights up new features, and
//! shrink every invariant violation to a minimal scenario string that
//! replays to the same violation signature, with a repro bundle on disk.
//!
//! Flags and environment:
//!
//! * `--smoke` — the bounded CI gate: runs a seeded search round twice
//!   from scratch and asserts bit-identical corpus fingerprints, then
//!   plants a known bug (an adaptive storm that never quiesces), requires
//!   the shrinker to minimize it and the minimized spec to replay to the
//!   same signature, and writes its repro bundle. Exits 1 only on an
//!   *un-shrunk* violation or a determinism failure.
//! * default (soak) — loads the persisted corpus, runs `AFT_TRIALS`
//!   search rounds (default 4), shrinks and bundles every violation,
//!   saves the corpus back. Leave it running overnight with a large
//!   `AFT_TRIALS`.
//! * `AFT_CORPUS_DIR` — corpus directory (default
//!   `target/scenario-corpus`); the corpus itself is `corpus.txt`.
//! * `AFT_REPRO_DIR` — repro-bundle directory (default `target/repro`).
//!
//! Exits nonzero if a violation resists shrinking or the smoke gate's
//! determinism check fails.

use aft_bench::cli::{trials, Cli, Flag};
use aft_bench::Output;
use aft_core::scenarios::{run_cell_to_bundle, standard_registry};
use aft_core::search::{
    search_round, shrink, spec_tokens, Corpus, FoundViolation, RoundOutcome, Shrunk,
    SEARCH_STEP_BUDGET,
};
use aft_sim::{AttackRegistry, Scenario, TraceMode};
use std::path::{Path, PathBuf};

/// Corpus directory: `$AFT_CORPUS_DIR`, or `target/scenario-corpus`.
fn corpus_dir() -> PathBuf {
    std::env::var_os("AFT_CORPUS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/scenario-corpus"))
}

/// The smoke gate's planted bug: an adaptive pin policy that storms — a
/// corrupted party re-sends itself garbage on every activation, so the
/// run never quiesces (StepLimit + broken message conservation), dressed
/// up with a decoy static corruption and an exotic scheduler/backend for
/// the shrinker to strip.
const PLANTED: &str =
    "n=7,t=2,corrupt=garbage:9@5;adaptive:pin:storm:2@*,sched=net:lat=2..6,rt=sharded:2";
const PLANTED_SEED: u64 = 5;

fn main() {
    let cli = Cli::parse(&[Flag::Smoke, Flag::Json]);
    let registry = standard_registry();
    if cli.has(Flag::Smoke) {
        run_smoke(&cli.out, &registry);
    } else {
        run_soak(&cli.out, &registry);
    }
}

/// Shrinks one violation and writes the repro bundle for the minimized
/// scenario. Returns the shrunk form, or `None` when the shrinker could
/// not reproduce the violation (the un-shrunk case callers must escalate).
fn shrink_and_bundle(
    found: &FoundViolation,
    registry: &AttackRegistry,
    budget: u64,
) -> Option<Shrunk> {
    let shrunk = shrink(
        found.entry.stack,
        &found.entry.spec,
        found.entry.seed,
        registry,
        budget,
    )?;
    if shrunk.signature != found.signature {
        return None;
    }
    let scenario = Scenario::parse(&shrunk.entry.spec).expect("shrunk specs re-parse");
    // Replay the minimized cell with the flight recorder for the bundle;
    // cells are pure functions of (scenario, seed), so this reproduces
    // the shrunk report bit-for-bit.
    run_cell_to_bundle(
        shrunk.entry.stack,
        &scenario,
        shrunk.entry.seed,
        registry,
        budget,
        TraceMode::Ring(4096),
    );
    Some(shrunk)
}

/// The bounded CI gate; see the module docs.
fn run_smoke(out: &Output, registry: &AttackRegistry) {
    out.note("# E12 — coverage-guided scenario search (smoke)");
    let mut failures: Vec<String> = Vec::new();

    // Determinism: the same seeded rounds from scratch, twice, must build
    // bit-identical corpora.
    let run_search = || {
        let mut corpus = Corpus::new();
        let mut rows = Vec::new();
        let mut violations = Vec::new();
        for round in 0..2u64 {
            let outcome = search_round(&mut corpus, registry, 42 + round, 16, SEARCH_STEP_BUDGET);
            rows.push(round_row(round, &outcome, &corpus));
            violations.extend(outcome.violations);
        }
        (corpus, rows, violations)
    };
    let (corpus_a, rows, violations) = run_search();
    let (corpus_b, _, _) = run_search();
    if corpus_a.fingerprint() != corpus_b.fingerprint() {
        failures.push(format!(
            "corpus replay diverged: {:#018x} vs {:#018x}",
            corpus_a.fingerprint(),
            corpus_b.fingerprint()
        ));
    }
    let title = "Seeded search rounds (replayed twice, bit-identical)";
    out.table(title, &ROUND_HEADERS, &rows);
    out.note(&format!(
        "corpus fingerprint: {:#018x} (replay identical: {})",
        corpus_a.fingerprint(),
        corpus_a.fingerprint() == corpus_b.fingerprint()
    ));

    // Violations the seeded rounds bred (the mutation alphabet includes
    // the storm pin, so these are expected) must all shrink.
    for found in &violations {
        match shrink_and_bundle(found, registry, SEARCH_STEP_BUDGET) {
            Some(shrunk) => out.note(&format!(
                "shrunk {} -> {} ({} -> {} tokens, signature {:#018x})",
                found.entry.spec,
                shrunk.entry.spec,
                spec_tokens(&found.entry.spec),
                spec_tokens(&shrunk.entry.spec),
                shrunk.signature
            )),
            None => failures.push(format!("UN-SHRUNK violation: {}", found.entry.spec)),
        }
    }

    // The planted bug must be found (it violates), shrunk to something
    // strictly smaller, and its minimal spec must replay to the same
    // violation signature.
    let planted = FoundViolation {
        entry: aft_core::search::CorpusEntry {
            stack: aft_core::scenarios::StackKind::Ba,
            seed: PLANTED_SEED,
            spec: PLANTED.to_string(),
        },
        signature: 0, // filled by the shrinker's own baseline run below
        report: aft_core::scenarios::CellReport {
            violations: Vec::new(),
            fingerprint: 0,
            sent: 0,
            delivered: 0,
            steps: 0,
        },
    };
    match shrink(
        planted.entry.stack,
        &planted.entry.spec,
        planted.entry.seed,
        registry,
        SEARCH_STEP_BUDGET,
    ) {
        None => failures.push(format!("planted bug did not violate: {PLANTED}")),
        Some(shrunk) if spec_tokens(&shrunk.entry.spec) >= spec_tokens(PLANTED) => {
            failures.push(format!("planted bug did not shrink: {}", shrunk.entry.spec))
        }
        Some(shrunk) => {
            let replayed = shrink(
                shrunk.entry.stack,
                &shrunk.entry.spec,
                shrunk.entry.seed,
                registry,
                SEARCH_STEP_BUDGET,
            )
            .map(|s| s.signature);
            if replayed != Some(shrunk.signature) {
                failures.push(format!(
                    "shrunk planted bug failed to replay its signature: {}",
                    shrunk.entry.spec
                ));
            } else {
                let mut found = planted;
                found.signature = shrunk.signature;
                if shrink_and_bundle(&found, registry, SEARCH_STEP_BUDGET).is_none() {
                    failures.push("planted bug bundle pass failed".into());
                }
                out.note(&format!(
                    "planted: {PLANTED}\nshrunk:  {} ({} -> {} tokens, {} attempts)",
                    shrunk.entry.spec,
                    spec_tokens(PLANTED),
                    spec_tokens(&shrunk.entry.spec),
                    shrunk.attempts
                ));
            }
        }
    }

    // Persist the smoke corpus so CI uploads it as an artifact.
    save_corpus(out, &corpus_a, &corpus_dir().join("corpus.txt"));
    finish(out, &failures);
}

/// The overnight soak loop; see the module docs.
fn run_soak(out: &Output, registry: &AttackRegistry) {
    out.note("# E12 — coverage-guided scenario search (soak)");
    let path = corpus_dir().join("corpus.txt");
    let mut corpus = match Corpus::load(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus load failed ({e}); starting fresh");
            Corpus::new()
        }
    };
    out.note(&format!("corpus loaded: {} entries", corpus.entries.len()));
    let rounds = trials(4);
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut found_total = 0usize;
    for round in 0..rounds {
        let outcome = search_round(&mut corpus, registry, round, 32, SEARCH_STEP_BUDGET);
        found_total += outcome.violations.len();
        rows.push(round_row(round, &outcome, &corpus));
        for found in &outcome.violations {
            match shrink_and_bundle(found, registry, SEARCH_STEP_BUDGET) {
                Some(shrunk) => out.note(&format!(
                    "violation {:#018x}: {} shrunk to {}",
                    found.signature, found.entry.spec, shrunk.entry.spec
                )),
                None => failures.push(format!("UN-SHRUNK violation: {}", found.entry.spec)),
            }
        }
    }
    out.table("Search rounds", &ROUND_HEADERS, &rows);
    out.note(&format!(
        "{found_total} violation(s) found across {rounds} round(s); corpus fingerprint {:#018x}",
        corpus.fingerprint()
    ));
    save_corpus(out, &corpus, &path);
    finish(out, &failures);
}

const ROUND_HEADERS: [&str; 6] = [
    "round",
    "executed",
    "added",
    "corpus",
    "features",
    "violations",
];

/// One row of the rounds table: what `round` did to `corpus`.
fn round_row(round: u64, outcome: &RoundOutcome, corpus: &Corpus) -> Vec<String> {
    vec![
        round.to_string(),
        outcome.executed.to_string(),
        outcome.added.to_string(),
        corpus.entries.len().to_string(),
        corpus.feature_count().to_string(),
        outcome.violations.len().to_string(),
    ]
}

fn save_corpus(out: &Output, corpus: &Corpus, path: &Path) {
    match corpus.save(path) {
        Err(e) => eprintln!("corpus save failed: {e}"),
        Ok(()) => out.note(&format!(
            "corpus saved: {} entries -> {}",
            corpus.entries.len(),
            path.display()
        )),
    }
}

fn finish(out: &Output, failures: &[String]) {
    if failures.is_empty() {
        out.note("\nsearch gate clean: every violation shrunk and bundled");
    } else {
        out.note("\nSEARCH GATE FAILURES:");
        for f in failures {
            out.note(&format!("  {f}"));
        }
        std::process::exit(1);
    }
}
