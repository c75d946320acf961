//! E7 — the shunning budget: "fewer than n² shunning events can take
//! place overall", and binding failures only occur alongside shun events.
//!
//! Runs long SVSS campaigns against reveal-equivocating Byzantine parties
//! and tracks the cumulative shun counter, verifying it saturates far
//! below n² (each ordered pair shuns at most once) while every detected
//! attack run is followed by dropped influence for the attacker.
//!
//! The campaign interleaves share and reconstruct episodes on persistent
//! node state, which every backend now supports — `--runtime sim` (the
//! default), `--runtime sharded:<k>` and `--runtime threaded` all run the
//! full chain.

use aft_bench::cli::{trials, Cli, SIM_FLAGS};
use aft_bench::{dump_trace, record_run};
use aft_core::scenarios::{run_episode, standard_registry, StackKind};
use aft_field::Fp;
use aft_sim::{PartyId, SessionId, SessionTag, TraceMode};
use aft_svss::SvssShare;

fn main() {
    let cli = Cli::parse(SIM_FLAGS);
    let (out, rt_spec) = (&cli.out, &cli.runtime);
    out.note("# E7 — Shunning dynamics (Definition 3.2's escape hatch)");
    rt_spec.announce(out);
    let registry = standard_registry();
    let instances = trials(40) as usize;

    let mut rows = Vec::new();
    for &(n, t) in &[(4usize, 1usize), (7, 2)] {
        // The adversary as data: the last party equivocates its reveal,
        // on the backend --runtime names.
        let plan = format!("equivocal-reveal@{}", n - 1);
        let scenario = rt_spec.scenario(n, t, &plan, "random");
        let seed = 1234;
        let mut net = scenario.runtime(seed);
        // --trace <path> records the first row's whole campaign.
        let trace = cli.capture(rows.is_empty());
        if trace.is_some() {
            net.set_trace(TraceMode::Full);
        }
        let mut shun_curve = Vec::new();
        let mut binding_violations_without_shun = 0usize;
        for i in 0..instances {
            let ssid = SessionId::root().child(SessionTag::new("svss-share", i as u64));
            let rsid = SessionId::root().child(SessionTag::new("svss-rec", i as u64));
            let (_, shares) = run_episode(
                net.as_mut(),
                &scenario,
                &registry,
                "svss-share",
                &ssid,
                &[],
                1_000_000_000,
                |p, _| match p {
                    PartyId(0) => Box::new(SvssShare::dealer(p, Fp::new(i as u64))),
                    _ => Box::new(SvssShare::party(PartyId(0))),
                },
            )
            .expect("share deploy");
            // Reconstruct; the registry hands the equivocator its bundle
            // (the carry) and everyone honest the chain's SvssRec.
            let (run, values) = run_episode(
                net.as_mut(),
                &scenario,
                &registry,
                "svss-rec",
                &rsid,
                &shares,
                1_000_000_000,
                |p, carry| {
                    StackKind::SvssChain.honest_instance("svss-rec", p, &scenario, seed, carry)
                },
            )
            .expect("rec deploy");
            // Binding check among honest reconstructors.
            let outs: Vec<Fp> = values[..n - 1]
                .iter()
                .filter_map(|v| v.as_ref()?.downcast_ref::<Fp>().copied())
                .collect();
            let consistent = outs.windows(2).all(|w| w[0] == w[1]);
            if !consistent && run.metrics.shun_events == 0 {
                binding_violations_without_shun += 1;
            }
            shun_curve.push(run.metrics.shun_events);
        }
        record_run(&net.metrics());
        if let Some(path) = trace {
            let events = net
                .take_trace()
                .map_or_else(Vec::new, |sink| sink.snapshot());
            dump_trace(path, &events, &format!("shunning campaign n={n}"));
        }
        let final_shuns = *shun_curve.last().unwrap();
        let saturation_at = shun_curve
            .iter()
            .position(|&s| s == final_shuns)
            .unwrap_or(0);
        rows.push(vec![
            format!("{n}/{t}"),
            instances.to_string(),
            final_shuns.to_string(),
            format!("{}", n * n),
            format!("instance {saturation_at}"),
            binding_violations_without_shun.to_string(),
        ]);
        out.note(&format!(
            "n={n}: cumulative shun curve (per instance): {:?}",
            shun_curve
        ));
    }
    out.table(
        &format!("{instances} sequential SVSS instances with a reveal-equivocating party"),
        &[
            "n/t",
            "SVSS instances",
            "total shun events",
            "n² bound",
            "curve saturates at",
            "binding violations w/o shun",
        ],
        &rows,
    );
    out.note("\npaper: each ordered pair shuns at most once ⇒ fewer than n² events ever;");
    out.note("after saturation the attacker's messages are dropped and later instances");
    out.note("run clean — exactly the budget the CoinFlip analysis charges against k.");
    out.backend_counters();
}
