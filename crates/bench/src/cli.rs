//! The one command line of this crate. Every `exp_*` binary and
//! `aft-partyd` hands [`Cli::parse`] the flags it accepts; one pass over
//! argv checks every value where it enters, and anything else — an unknown
//! flag or claim id, a flag only another binary accepts, a missing or
//! unparsable value — is a one-line `error:` naming the flag and the
//! binary's accepted list, exit 2. Valued flags take `--flag value` and
//! `--flag=value`; a repeated flag keeps its last value.

use crate::{Output, RuntimeSpec};
use aft_core::scenarios::{standard_registry, StackKind};
use aft_sim::{Scenario, DEFAULT_BACKEND};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// A flag some binary of this crate accepts. `--scenario` and `--stack`
/// each come in two grammars; the binary's accepted list picks one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `<id>…`: the [claims](crate::claims::CLAIMS) `exp_claims` runs,
    /// each word of argv not starting with `--`.
    Claims,
    /// `--runtime <backend>`: an [`aft_sim::Backend`] spec.
    Runtime,
    /// `--trace <path>`: where the flight-recorder trace goes.
    Trace,
    /// `--json`: tables as JSON on stdout, banners on stderr.
    Json,
    /// `--scenario <spec>`: parsed, attacks checked against the registry.
    Scenario,
    /// `--scenario <spec>` kept verbatim for `run_deployment`, which strips
    /// the `recover:` entries before the rest can parse under `rt=proc`.
    DeploySpec,
    /// `--stack <stack>`: one reference stack.
    Stack,
    /// `--stack <stack|all>`: one reference stack, or every one.
    Stacks,
    /// `--seed <u64>`.
    Seed,
    /// `--smoke`: the binary's bounded CI suite.
    Smoke,
    /// `--timeout-secs <u64>`.
    TimeoutSecs,
    /// `--log-dir <dir>`.
    LogDir,
    /// `--party <index>`.
    Party,
    /// `--recovered`: this daemon replaces a killed one.
    Recovered,
}

impl Flag {
    /// The flag as typed, and what its value is called (`None`: a switch).
    pub(crate) fn syntax(self) -> (&'static str, Option<&'static str>) {
        match self {
            Flag::Claims => ("<id>…", None),
            Flag::Runtime => ("--runtime", Some("<backend>")),
            Flag::Trace => ("--trace", Some("<path>")),
            Flag::Json => ("--json", None),
            Flag::Scenario | Flag::DeploySpec => ("--scenario", Some("<spec>")),
            Flag::Stack => ("--stack", Some("<stack>")),
            Flag::Stacks => ("--stack", Some("<stack|all>")),
            Flag::Seed => ("--seed", Some("<u64>")),
            Flag::Smoke => ("--smoke", None),
            Flag::TimeoutSecs => ("--timeout-secs", Some("<u64>")),
            Flag::LogDir => ("--log-dir", Some("<dir>")),
            Flag::Party => ("--party", Some("<index>")),
            Flag::Recovered => ("--recovered", None),
        }
    }
}

/// The parsed command line: a flag that was not given is `None`.
#[derive(Debug)]
pub struct Cli {
    bin: String,
    accepted: &'static [Flag],
    given: Vec<Flag>,
    /// The claim ids, in the order given ([`Flag::Claims`]), checked by
    /// [`crate::claims::run`].
    pub ids: Vec<String>,
    /// `--runtime` (default [`DEFAULT_BACKEND`]).
    pub runtime: RuntimeSpec,
    /// `--json`.
    pub out: Output,
    /// `--trace`.
    pub trace: Option<PathBuf>,
    /// `--scenario` as typed ([`Flag::DeploySpec`]).
    pub spec: Option<String>,
    /// `--scenario` parsed ([`Flag::Scenario`]).
    pub scenario: Option<Scenario>,
    /// `--stack`.
    pub stacks: Option<Vec<StackKind>>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--timeout-secs`.
    pub timeout: Option<Duration>,
    /// `--log-dir`.
    pub log_dir: Option<PathBuf>,
    /// `--party`.
    pub party: Option<usize>,
}

fn number<T: FromStr>(value: &str) -> Result<T, String> {
    let what = std::any::type_name::<T>();
    value.parse().map_err(|_| format!("not a valid {what}"))
}

fn stacks(value: &str, or_all: bool) -> Result<Vec<StackKind>, String> {
    if or_all && value == "all" {
        return Ok(StackKind::all().to_vec());
    }
    let labels = StackKind::all().map(|k| k.label()).join(", ");
    let kind = StackKind::from_label(value).ok_or(format!("unknown stack (one of {labels})"))?;
    Ok(vec![kind])
}

fn scenario(spec: &str) -> Result<Scenario, String> {
    let scenario = Scenario::try_parse(spec)?;
    scenario.validate_attacks(&standard_registry())?;
    Ok(scenario)
}

impl Cli {
    /// Parses the process's command line against `accepted`; see the
    /// [module docs](self).
    pub fn parse(accepted: &'static [Flag]) -> Cli {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let bin = bin.rsplit(['/', '\\']).next().unwrap_or_default();
        Cli::try_parse(bin, args, accepted).unwrap_or_else(|e| usage_exit(bin, accepted, &e))
    }

    fn try_parse(
        bin: &str,
        mut args: impl Iterator<Item = String>,
        accepted: &'static [Flag],
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            bin: bin.to_string(),
            accepted,
            given: Vec::new(),
            ids: Vec::new(),
            runtime: RuntimeSpec::named(DEFAULT_BACKEND),
            out: Output { json: false },
            trace: None,
            spec: None,
            scenario: None,
            stacks: None,
            seed: None,
            timeout: None,
            log_dir: None,
            party: None,
        };
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") && accepted.contains(&Flag::Claims) {
                cli.ids.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let flag = accepted.iter().find(|f| f.syntax().0 == name);
            let flag = *flag.ok_or(format!("unknown argument {name}"))?;
            let value = match (flag.syntax().1, inline) {
                (None, None) => String::new(),
                (None, Some(_)) => return Err(format!("{name} takes no value")),
                (Some(_), Some(value)) => value,
                (Some(what), None) => args
                    .next()
                    .filter(|next| !next.starts_with("--"))
                    .ok_or(format!("{name} needs a value {what}"))?,
            };
            let bad = |e: String| format!("{name} {value:?}: {e}");
            cli.given.push(flag);
            match flag {
                Flag::Runtime => cli.runtime = RuntimeSpec::parse(&value).map_err(bad)?,
                Flag::Trace => cli.trace = Some(value.into()),
                Flag::Json => cli.out = Output { json: true },
                Flag::Scenario => cli.scenario = Some(scenario(&value).map_err(bad)?),
                Flag::DeploySpec => cli.spec = Some(value),
                Flag::Stack => cli.stacks = Some(stacks(&value, false).map_err(bad)?),
                Flag::Stacks => cli.stacks = Some(stacks(&value, true).map_err(bad)?),
                Flag::Seed => cli.seed = Some(number(&value).map_err(bad)?),
                Flag::TimeoutSecs => {
                    cli.timeout = Some(Duration::from_secs(number(&value).map_err(bad)?));
                }
                Flag::LogDir => cli.log_dir = Some(value.into()),
                Flag::Party => cli.party = Some(number(&value).map_err(bad)?),
                Flag::Claims | Flag::Smoke | Flag::Recovered => {}
            }
        }
        Ok(cli)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: Flag) -> bool {
        self.given.contains(&flag)
    }

    /// The value of a flag this binary cannot run without.
    pub fn require<T>(&self, flag: Flag, value: Option<T>) -> T {
        value.unwrap_or_else(|| self.fail(&format!("{} is required", flag.syntax().0)))
    }

    /// Ends the process on a usage error the flags only show together
    /// (`--party` past the scenario's `n`): the same line, the same exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_exit(&self.bin, self.accepted, msg)
    }
}

fn usage_exit(bin: &str, accepted: &[Flag], msg: &str) -> ! {
    let usage = accepted.iter().map(|f| match f.syntax() {
        (name, Some(value)) => format!("{name} {value}"),
        (name, None) => name.to_string(),
    });
    let usage = usage.collect::<Vec<_>>().join(", ");
    eprintln!("error: {msg} ({bin} accepts: {usage})");
    std::process::exit(2);
}

/// Reads `var` from the environment (`default` when unset); a value that
/// is set but does not parse, or parses outside `range`, exits 2 naming
/// the variable.
fn env_or<T: FromStr>(var: &str, default: T, range: &str, ok: fn(&T) -> bool) -> T {
    let Some(raw) = std::env::var_os(var) else {
        return default;
    };
    let parsed = raw.to_str().ok_or("not unicode".into()).and_then(number);
    let valid = parsed.and_then(|v| ok(&v).then_some(v).ok_or(format!("not in {range}")));
    valid.unwrap_or_else(|e| {
        eprintln!("error: {var}={raw:?}: {e}");
        std::process::exit(2);
    })
}

/// The trial count of a table row: `AFT_TRIALS` (at least 1), or the
/// row's `base`.
pub fn trials(base: u64) -> u64 {
    env_or("AFT_TRIALS", base, "1..", |&n| n > 0)
}

/// The paper-exact coin's ε: `AFT_EPSILON` (in (0, ½)), or `default`.
pub fn epsilon(default: f64) -> f64 {
    env_or("AFT_EPSILON", default, "(0, 1/2)", |&e| e > 0.0 && e < 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepted: &'static [Flag], argv: &str) -> Result<Cli, String> {
        Cli::try_parse("bin", argv.split(' ').map(String::from), accepted)
    }

    #[test]
    fn both_value_forms_parse_and_the_last_repeat_wins() {
        const FLAGS: &[Flag] = &[Flag::Scenario, Flag::Stacks, Flag::Seed, Flag::Smoke];
        for argv in [
            "--scenario n=4,t=1 --stack all --stack ba --seed 9 --seed 5",
            "--scenario=n=4,t=1 --stack=all --stack=ba --seed=9 --seed=5 --smoke",
        ] {
            let cli = parse(FLAGS, argv).expect("valid");
            assert_eq!(cli.scenario.as_ref().map(|s| s.n), Some(4));
            assert_eq!(cli.stacks, Some(vec![StackKind::Ba]));
            assert_eq!(cli.seed, Some(5));
            assert_eq!(cli.has(Flag::Smoke), argv.ends_with("--smoke"));
        }
        const CLAIMS: &[Flag] = &[Flag::Claims, Flag::Runtime, Flag::Trace, Flag::Json];
        let cli = parse(
            CLAIMS,
            "--runtime wire thm4.3 --runtime=sim:lifo --trace a/b thm2.2",
        );
        let cli = cli.expect("valid");
        assert_eq!(cli.runtime.label(), "sim:lifo");
        assert_eq!(cli.trace, Some(PathBuf::from("a/b")));
        assert_eq!(cli.ids, ["thm4.3", "thm2.2"]);
        assert!(cli.has(Flag::Runtime) && !cli.has(Flag::Json));
        assert!(!cli.out.is_json() && parse(CLAIMS, "--json").is_ok_and(|c| c.out.is_json()));
    }

    /// The process-level refusals are in `tests/cli.rs`; this is the rule
    /// they rest on: the binary's own list decides, not the union.
    #[test]
    fn a_flag_outside_the_accepted_list_is_refused_even_if_another_binary_takes_it() {
        const FLAGS: &[Flag] = &[Flag::DeploySpec, Flag::Stack, Flag::Seed];
        for (argv, culprit) in [
            ("--runtime sim", "unknown argument --runtime"),
            ("--json", "unknown argument --json"),
            ("--stack all", "--stack \"all\""),
            ("--seed --stack", "--seed needs a value"),
            ("thm2.2", "unknown argument thm2.2"),
        ] {
            let err = parse(FLAGS, argv).expect_err("refused");
            assert!(err.contains(culprit), "{argv}: {err}");
        }
        // The supervisor's spec is checked by `run_deployment`, not here.
        let cli = parse(FLAGS, "--scenario n=4,t=1,corrupt=recover:2@3,rt=proc");
        assert!(cli.is_ok_and(|c| c.spec.is_some() && c.scenario.is_none()));
        let err = parse(
            &[Flag::Scenario],
            "--scenario n=4,t=1,corrupt=recover:2@3,rt=proc",
        );
        assert!(err.is_err_and(|e| e.contains("--scenario")));
    }
}
