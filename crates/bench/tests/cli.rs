//! The command line of every binary of this crate, driven end to end:
//! what a binary does not accept or cannot parse ends the process with
//! exit 2 and one `error:` line naming it — never a run on a default the
//! user did not ask for — and the flags table of the crate docs lists
//! exactly what each binary accepts.

use std::process::{Command, Output};

macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// Every binary of the crate: its name and where cargo built it.
const BINS: [(&str, &str); 6] = bins!(
    "aft-partyd",
    "exp_claims",
    "exp_deployment",
    "exp_scenario_matrix",
    "exp_scenario_search",
    "exp_trace",
);

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let path = BINS
        .iter()
        .find(|(name, _)| *name == bin)
        .expect("a listed binary")
        .1;
    let mut cmd = Command::new(path);
    cmd.args(args)
        .env_remove("AFT_TRIALS")
        .env_remove("AFT_EPSILON");
    cmd.envs(env.iter().copied());
    cmd.output().expect("spawn the binary")
}

/// Asserts that the invocation is refused: exit 2, nothing measured on
/// stdout, and a one-line `error:` that names `culprit`.
fn assert_refused(bin: &str, args: &[&str], env: &[(&str, &str)], culprit: &str) {
    let out = run(bin, args, env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains('|'),
        "{bin} {args:?} printed a table"
    );
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(errors.len(), 1, "{bin} {args:?}: {stderr}");
    assert!(errors[0].contains(culprit), "{bin} {args:?}: {stderr}");
}

#[test]
fn a_mistyped_flag_value_or_variable_is_refused_not_ignored() {
    const PARTYD: &str = "--stack ba --seed 2 --scenario n=4,t=1,rt=proc";
    let flags: [(&str, &str, &str); 14] = [
        (
            "exp_claims",
            "thm3.5-termination --runtme threaded",
            "--runtme",
        ),
        ("exp_claims", "thm4.3 --runtime", "--runtime needs a value"),
        (
            "exp_claims",
            "thm4.3 --runtime --json",
            "--runtime needs a value",
        ),
        (
            "exp_claims",
            "thm3.5-bias --json=yes",
            "--json takes no value",
        ),
        ("exp_trace", "--scenario n=4,t=1 --sed 5", "--sed"),
        ("exp_trace", "--scenario n=4,t=9", "--scenario \"n=4,t=9\""),
        (
            "exp_deployment",
            "--scenario n=4,t=1,rt=proc --timeout-secs abc",
            "--timeout-secs \"abc\"",
        ),
        (
            "exp_deployment",
            "--scenario n=4,t=1,rt=proc --stack all",
            "--stack \"all\"",
        ),
        (
            "aft-partyd",
            &format!("--party x {PARTYD}"),
            "--party \"x\"",
        ),
        ("aft-partyd", PARTYD, "--party is required"),
        ("exp_scenario_matrix", "--scenario n=4,t=1", "--scenario"),
        // The matrix sweeps deterministic backends only; the threaded
        // cells are the conformance suite's.
        ("exp_scenario_matrix", "--threaded", "--threaded"),
        // The two claims that never ran on a backend do not pretend to,
        // named alone or among all of them.
        (
            "exp_claims",
            "thm2.2 --runtime threaded",
            "claim thm2.2 does not take --runtime",
        ),
        (
            "exp_claims",
            "thm4.3 ba-tail --runtime=threaded",
            "claim ba-tail",
        ),
    ];
    for (bin, argv, culprit) in flags {
        assert_refused(bin, &argv.split(' ').collect::<Vec<_>>(), &[], culprit);
    }
    assert_refused("exp_claims", &["--runtime", "wire"], &[], "claim thm2.2");
    assert_refused("exp_claims", &["--trace", "x.jsonl"], &[], "claim thm2.2");
    for (var, value, claim) in [
        ("AFT_TRIALS", "abc", "thm4.3"),
        ("AFT_TRIALS", "0", "def3.4"),
        ("AFT_EPSILON", "x", "alg1-ablation"),
        ("AFT_EPSILON", "0.6", "alg1-ablation"),
        ("AFT_EPSILON", "0", "alg1-ablation"),
    ] {
        let env = [("AFT_TRIALS", "1"), (var, value)];
        let out = run("exp_claims", &[claim], &env);
        assert!(
            out.stdout.is_empty(),
            "{var}={value} printed before refusing"
        );
        assert_refused("exp_claims", &[claim], &env, &format!("{var}=\"{value}\""));
    }
}

/// An id that names no claim is refused with the list of those that do.
#[test]
fn an_unknown_claim_is_refused_with_the_valid_ids() {
    let ids = [
        "thm2.2",
        "thm3.5-bias",
        "thm3.5-termination",
        "thm4.3",
        "thm4.5",
        "def3.4",
        "def3.2-shunning",
        "ba-coin-gap",
        "alg1-ablation",
        "ba-tail",
    ];
    let trials = [("AFT_TRIALS", "1")];
    assert_refused("exp_claims", &["thm4.3", "thm9"], &trials, &ids.join(", "));
    assert_refused("exp_claims", &["thm9"], &trials, "unknown claim \"thm9\"");
}

#[test]
fn the_equals_form_is_honoured_like_the_spaced_one() {
    let dir = std::env::temp_dir().join(format!("aft-cli-equals-{}", std::process::id()));
    let trace = format!("--trace={}", dir.join("cell.jsonl").display());
    let out = run("exp_trace", &["--scenario=n=4,t=1", &trace], &[]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.starts_with("# exp_trace — scenario: n=4,t=1,"),
        "not the one-cell report: {stdout}"
    );

    let args = ["thm3.5-termination", "--runtime=sim:lifo", "--json"];
    let out = run("exp_claims", &args, &[("AFT_TRIALS", "1")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("runtime backend: sim:lifo"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        2,
        "the result table and the counters: {stdout}"
    );
    for line in stdout.lines() {
        assert!(
            line.starts_with("{\"table\":\"") && line.ends_with("}]}"),
            "{line}"
        );
    }
}

/// Every binary refuses a flag it does not know, and the list it prints
/// then is the flags column of its row in the crate docs.
#[test]
fn the_crate_docs_table_lists_what_each_binary_accepts() {
    let docs = include_str!("../src/lib.rs");
    let sources = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).unwrap();
    assert_eq!(sources.count(), BINS.len(), "a binary is missing from BINS");
    for (bin, _) in BINS {
        let out = run(bin, &["--no-such-flag"], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        let accepted = stderr
            .trim_end()
            .strip_prefix(&format!(
                "error: unknown argument --no-such-flag ({bin} accepts: "
            ))
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("{bin}: {stderr}"));
        let accepted: Vec<&str> = accepted
            .split(", ")
            .map(|flag| flag.split(' ').next().unwrap())
            .collect();
        let row = docs
            .lines()
            .find(|line| line.starts_with(&format!("//! | `{bin}` |")))
            .unwrap_or_else(|| panic!("no row for {bin} in the crate docs"));
        let cell = row.trim_end_matches(" |").rsplit(" | ").next().unwrap();
        let documented: Vec<&str> = cell.split(' ').map(|f| f.trim_matches('`')).collect();
        assert_eq!(documented, accepted, "{bin}");
    }
}

/// A `--trace` capture that cannot be written ends the binary with exit 1
/// and one `error:` line naming the path, not a clean exit over a trace
/// that is not there: `exp_trace` and a claim's traced run alike.
#[test]
fn an_unwritable_trace_path_fails_the_run() {
    let path = "/dev/null/x.jsonl";
    let exp_trace = run(
        "exp_trace",
        &["--scenario", "n=4,t=1", "--trace", path],
        &[],
    );
    let trials = [("AFT_TRIALS", "1")];
    let table = run(
        "exp_claims",
        &["thm3.5-termination", "--trace", path],
        &trials,
    );
    for out in [exp_trace, table] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("error: "))
            .collect();
        assert_eq!(errors.len(), 1, "{stderr}");
        assert!(errors[0].contains(path), "{stderr}");
    }
}

/// `--trace` captures one run, and always the same one: the first claim's
/// first row's seed-0 run, however the trial threads of that row race to
/// start.
#[test]
fn a_claim_traces_its_first_rows_seed_0_run_every_time() {
    let dir = std::env::temp_dir().join(format!("aft-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("capture.jsonl");
    let arg = path.to_str().expect("a unicode temp path");
    let trials = [("AFT_TRIALS", "2")];
    let mut captures = Vec::new();
    for _ in 0..5 {
        let out = run("exp_claims", &["thm4.5", "thm4.3", "--trace", arg], &trials);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let labels: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("trace: ") && l.contains(" events from run ["))
            .collect();
        assert_eq!(labels.len(), 1, "one capture, the first claim's: {stderr}");
        assert!(labels[0].contains(" seed=0] -> "), "{}", labels[0]);
        captures.push(std::fs::read(&path).expect("the capture"));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(!captures[0].is_empty());
    assert!(
        captures.windows(2).all(|w| w[0] == w[1]),
        "the captured run moved"
    );
}
