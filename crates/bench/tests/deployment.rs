//! Integration tests for the process-per-party deployment: real
//! `aft-partyd` OS processes (cargo builds the binary and hands us its
//! path via `CARGO_BIN_EXE_aft-partyd`), a loopback TCP mesh, and the
//! supervisor from `aft_bench::deployment`.

use aft_bench::deployment::{run_deployment, DeployOptions, DeployStack};
use aft_sim::deploy::{write_frame, Hello};
use aft_sim::{encode_envelope, PartyId, Payload};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn opts(spec: &str, stack: DeployStack, seed: u64) -> DeployOptions {
    let mut opts = DeployOptions::new(spec, stack, seed);
    opts.partyd = Some(PathBuf::from(env!("CARGO_BIN_EXE_aft-partyd")));
    opts.timeout = Duration::from_secs(120);
    opts
}

/// BA over four real processes: every party terminates with the
/// unanimous input, exactly as the in-process backends decide it.
#[test]
fn ba_over_real_processes_agrees() {
    let report = run_deployment(&opts("n=4,t=1,rt=proc", DeployStack::Ba, 2)).unwrap();
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.restarts, 0);
    for (p, out) in report.outputs.iter().enumerate() {
        assert_eq!(out.as_deref(), Some("true"), "party {p}");
    }
    assert!(report.sent > 0 && report.delivered > 0);
}

/// Common subset over real processes: all parties output the same
/// >= n − t member set.
#[test]
fn common_subset_over_real_processes_agrees() {
    let report = run_deployment(&opts("n=4,t=1,rt=proc", DeployStack::CommonSubset, 9)).unwrap();
    assert_eq!(report.violations, Vec::<String>::new());
    let first = report.outputs[0].as_deref().expect("party 0 output");
    assert!(first.split('+').count() >= 3, "{first}");
}

/// The supervised crash/restart leg: `corrupt=recover:<vt>@p` maps onto
/// a real SIGKILL + respawn. The restarted party rejoins from nothing,
/// its peers replay their outboxes, and every invariant still holds —
/// including termination of the killed party itself. At 250 ms the kill
/// lands long after everyone decided; the mid-run legs are below.
#[test]
fn kill_and_restart_after_the_decision_satisfies_invariants() {
    let report = run_deployment(&opts(
        "n=4,t=1,corrupt=recover:250@2,rt=proc",
        DeployStack::Ba,
        3,
    ))
    .unwrap();
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.restarts, 1, "exactly one kill/restart leg");
    for (p, out) in report.outputs.iter().enumerate() {
        assert_eq!(out.as_deref(), Some("false"), "party {p} (seed 3 is odd)");
    }
}

/// A static fault rides along unchanged: the silent party owes no
/// output, everyone else still agrees.
#[test]
fn deployment_tolerates_a_silent_party() {
    let report = run_deployment(&opts(
        "n=4,t=1,corrupt=silent@3,rt=proc",
        DeployStack::Ba,
        2,
    ))
    .unwrap();
    assert_eq!(report.violations, Vec::<String>::new());
    assert_eq!(report.outputs[3], None, "silent party never outputs");
    for p in 0..3 {
        assert_eq!(report.outputs[p].as_deref(), Some("true"), "party {p}");
    }
}

/// Kills that land *during* the protocol (a run takes a few ms): the
/// restarted party and its peers are all mid-run, the supervisor kills
/// exactly once, and everyone — the killed party included — decides.
#[test]
fn kill_and_restart_mid_run_satisfies_invariants() {
    let legs = [
        (DeployStack::Ba, 1),
        (DeployStack::Ba, 2),
        (DeployStack::Ba, 4),
        (DeployStack::CommonSubset, 2),
    ];
    for (stack, vt) in legs {
        let spec = format!("n=4,t=1,corrupt=recover:{vt}@3,rt=proc");
        let report = run_deployment(&opts(&spec, stack, 3)).unwrap();
        assert_eq!(report.violations, Vec::<String>::new(), "{spec}");
        assert_eq!(report.restarts, 1, "{spec}: exactly one kill/restart");
        assert!(report.outputs.iter().all(|o| o.is_some()), "{spec}");
    }
}

/// Nagle's algorithm against delayed ACKs costs 40 ms per stalled small
/// write; with `TCP_NODELAY` off a BA decision took ~240 ms of them.
/// The whole of `go → all outputs` must stay under one such quantum
/// (it is 2–3 ms), by the median of five runs so that one descheduled
/// daemon does not fail the test.
#[test]
fn ba_decides_without_delayed_ack_stalls() {
    let mut latencies: Vec<Duration> = (0..5)
        .map(|seed| {
            let report = run_deployment(&opts("n=4,t=1,rt=proc", DeployStack::Ba, seed)).unwrap();
            assert_eq!(report.violations, Vec::<String>::new());
            let phases = report.phases;
            assert!(phases.first_output > Duration::ZERO && phases.reap > Duration::ZERO);
            phases.go_to_all_outputs()
        })
        .collect();
    latencies.sort();
    assert!(
        latencies[2] < Duration::from_millis(40),
        "go → all outputs took {latencies:?}"
    );
}

/// A plan no daemon could build is a set-up error, as it is for
/// `exp_trace --scenario`: nothing is spawned and nothing is
/// reported as a clean run.
#[test]
fn unregistered_attack_is_a_setup_error() {
    let spec = "n=4,t=1,corrupt=no-such-attack@3,rt=proc";
    let err = run_deployment(&opts(spec, DeployStack::Ba, 2)).unwrap_err();
    assert!(err.contains("no-such-attack"), "{err}");
    // Registered, but with arguments its factory refuses.
    let spec = "n=4,t=1,corrupt=fixed-voter:maybe@3,rt=proc";
    let err = run_deployment(&opts(spec, DeployStack::Ba, 2)).unwrap_err();
    assert!(err.contains("failed to build"), "{err}");
}

/// Daemons that die end the run at once, with the parties named — not
/// after the whole timeout with every output "missing".
#[test]
fn dead_daemons_are_reported_at_once() {
    let mut opts = opts("n=4,t=1,rt=proc", DeployStack::Ba, 2);
    opts.partyd = Some(PathBuf::from("/bin/false"));
    let started = Instant::now();
    let report = run_deployment(&opts).unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "waited out the timeout"
    );
    let exits: Vec<&String> = report
        .violations
        .iter()
        .filter(|v| v.starts_with("daemon-exit: party "))
        .collect();
    assert!(!exits.is_empty(), "{:?}", report.violations);
    assert!(
        exits.iter().all(|v| v.contains("exit status: 1")),
        "{exits:?}"
    );
}

/// The whole `output` line is parsed back into the stack's output type
/// and goes through the simulator's own check: four daemons printing the
/// same junk agree on nothing, and subsets that differ are a
/// `consistency:` violation here as they are in-process. `stub-partyd.sh` speaks the control protocol and prints the
/// canned output its seed selects.
#[test]
fn junk_output_lines_are_malformed_not_agreement() {
    let stub = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/stub-partyd.sh");
    for (seed, stack, output, class) in [
        (1, DeployStack::Ba, "maybe", "malformed-output:"),
        (2, DeployStack::Ba, "true false", "malformed-output:"),
        (3, DeployStack::CommonSubset, "0+x+2", "malformed-output:"),
        (4, DeployStack::CommonSubset, "0+1+99", "subset-members:"),
        // Well-formed subsets, but party 2 reports another one.
        (5, DeployStack::CommonSubset, "0+1+2", "consistency:"),
    ] {
        let mut opts = opts("n=4,t=1,rt=proc", stack, seed);
        opts.partyd = Some(PathBuf::from(stub));
        let report = run_deployment(&opts).unwrap();
        assert_eq!(report.outputs[0].as_deref(), Some(output));
        assert!(
            report.violations.iter().any(|v| v.starts_with(class)),
            "{output:?}: {:?}",
            report.violations
        );
    }
}

/// The two-episode SVSS chain is refused with a message by the daemon
/// (before `ready`) and by the supervisor (before anything is spawned).
#[test]
fn svss_chain_is_refused_with_a_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_aft-partyd"))
        .args(["--party", "3", "--stack", "svss", "--seed", "2"])
        .args(["--scenario", "n=4,t=1,rt=proc"])
        .stdin(Stdio::null())
        .output()
        .expect("spawn aft-partyd");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no `ready` from a refusing daemon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("single episode"), "{stderr}");
    let err = run_deployment(&opts("n=4,t=1,rt=proc", DeployStack::SvssChain, 2)).unwrap_err();
    assert!(err.contains("svss") && err.contains("episode"), "{err}");
}

/// One hand-supervised daemon: its control pipes and its listen address.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns party `party` of `spec` and waits for its `ready` line.
    fn spawn(party: usize, spec: &str) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_aft-partyd"))
            .args(["--stack", "ba", "--seed", "2", "--scenario", spec])
            .args(["--party", &party.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn aft-partyd");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let mut daemon = Daemon {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        daemon.addr = daemon.expect("ready").to_string();
        daemon
    }

    fn tell(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").unwrap();
    }

    /// Reads control lines up to the first one starting with `word`;
    /// returns the rest of that line. Panics if the daemon exits first.
    fn expect(&mut self, word: &str) -> String {
        loop {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).unwrap();
            assert!(n > 0, "daemon exited while the test waited for {word:?}");
            if let Some(rest) = line.trim_end().strip_prefix(word) {
                return rest.trim_start().to_string();
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A Byzantine party 3 at the socket level, played by this test against
/// three real daemons it supervises by hand. Before the mesh forms it
/// opens a connection to every daemon and says nothing on it — which
/// must not keep the honest links from being accepted. Then it joins
/// the mesh as party 3 and sends, on its own links, envelopes that
/// claim to come from party 0 and from a party 99, then half a frame.
/// Every daemon must count the two forgeries as rejected (not deliver
/// them as votes of party 0), survive the truncated frame, and — with
/// party 3 gone for good — decide.
#[test]
fn forged_senders_and_silent_connections_are_contained() {
    let spec = "n=4,t=1,corrupt=silent@3,rt=proc";
    let mut daemons: Vec<Daemon> = (0..3).map(|p| Daemon::spawn(p, spec)).collect();
    let silent: Vec<TcpStream> = daemons
        .iter()
        .map(|d| TcpStream::connect(&d.addr).expect("silent connection"))
        .collect();

    // Party 3 dials everyone and accepts nobody, so its own slot in the
    // address book is never dialed.
    let book: Vec<&str> = daemons.iter().map(|d| d.addr.as_str()).collect();
    let peers = format!("peers {} 127.0.0.1:1", book.join(" "));
    let hello = Hello {
        party: 3,
        recovered: false,
    };
    let mut links: Vec<TcpStream> = Vec::new();
    for d in &mut daemons {
        d.tell(&peers);
        let mut link = TcpStream::connect(&d.addr).expect("party 3 link");
        link.write_all(&hello.to_bytes()).unwrap();
        links.push(link);
    }
    for d in &mut daemons {
        d.expect("meshed");
    }

    let (_, session) = DeployStack::Ba.episodes().remove(0);
    let mut forged = Vec::new();
    for claimed in [0, 99] {
        let mut envelope = Vec::new();
        assert!(encode_envelope(
            PartyId(claimed),
            &session,
            &Payload::message(true),
            &mut envelope
        ));
        write_frame(&mut forged, &envelope);
    }
    forged.extend_from_slice(&1000u32.to_le_bytes()); // a frame that never ends
    forged.extend_from_slice(b"cut short");
    for link in &mut links {
        link.write_all(&forged).unwrap();
        link.shutdown(Shutdown::Write).unwrap();
    }
    // A daemon closes a link once its main loop has seen the link end,
    // which is after it has seen everything sent before: EOF here means
    // the forgeries have been dealt with (a reset says the same).
    for link in &mut links {
        let _ = link.read_to_end(&mut Vec::new());
    }

    for d in &mut daemons {
        d.tell("go");
    }
    for d in &mut daemons {
        assert_eq!(d.expect("output"), "true", "unanimous input of seed 2");
    }
    for d in &mut daemons {
        d.tell("shutdown");
        let metrics = d.expect("metrics");
        assert!(metrics.ends_with("rejected=2"), "metrics line: {metrics}");
        d.expect("bye");
    }
    drop(silent);
}

/// A run must leave none of its listener ports in `TIME_WAIT`: those are
/// the ports the next daemons' `bind(0)` tries first, and once some
/// thousands of them are held, every `bind` scans for most of a
/// millisecond and a deployment's time depends on what ran before it. So
/// each link is closed by the daemon that dialed it; the accepting side
/// waits for that and closes second.
#[cfg(target_os = "linux")]
#[test]
fn a_run_leaves_no_listener_port_in_time_wait() {
    let mut daemons: Vec<Daemon> = (0..4)
        .map(|p| Daemon::spawn(p, "n=4,t=1,rt=proc"))
        .collect();
    let book: Vec<&str> = daemons.iter().map(|d| d.addr.as_str()).collect();
    let peers = format!("peers {}", book.join(" "));
    for d in &mut daemons {
        d.tell(&peers);
    }
    for d in &mut daemons {
        d.expect("meshed");
    }
    for d in &mut daemons {
        d.tell("go");
    }
    for d in &mut daemons {
        d.expect("output");
    }
    for d in &mut daemons {
        d.tell("shutdown");
    }
    for d in &mut daemons {
        d.expect("bye");
    }
    let listeners: Vec<String> = daemons
        .iter()
        .map(|d| {
            let port: u16 = d.addr.rsplit(':').next().unwrap().parse().unwrap();
            format!("0100007F:{port:04X}")
        })
        .collect();
    drop(daemons);
    // Columns: slot, local address, remote address, state (06 = TIME_WAIT).
    let table = std::fs::read_to_string("/proc/net/tcp").expect("/proc/net/tcp");
    let held: Vec<&str> = table
        .lines()
        .filter(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            cols.len() > 3 && cols[3] == "06" && listeners.iter().any(|l| l == cols[1])
        })
        .collect();
    assert!(held.is_empty(), "listener ports in TIME_WAIT: {held:#?}");
}
