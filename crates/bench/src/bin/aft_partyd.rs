//! `aft-partyd` — one party of a deployed protocol run, in its own OS
//! process.
//!
//! The daemon drives exactly one [`PartyHost`] — the node, its metrics and
//! its send numbering, the same per-party half of a delivery that a
//! `sharded` party slot and a `threaded` worker drive — and what is its own
//! is where the sends go: it exchanges envelopes with its peers over
//! loopback TCP through `aft_sim::deploy`'s peer links (envelope format,
//! framing, `TCP_NODELAY`, burst writes and buffered reads all live
//! there). It is
//! driven by `exp_deployment` (or any supervisor speaking the same
//! control protocol — see `aft_bench::deployment`):
//!
//! ```sh
//! aft-partyd --party 2 --stack ba --seed 7 \
//!     --scenario 'n=4,t=1,rt=proc' [--recovered]
//! ```
//!
//! Lifecycle: bind a listener and print `ready <addr>`; receive the
//! `peers` address book; mesh (dial every lower-numbered party, accept
//! the rest — a restarted daemon dials *everyone* with the `recovered`
//! hello flag, prompting each peer to replace its link and replay its
//! outbox); print `meshed`; on `go`, spawn the instance
//! `Scenario::party_instance` assigns this party — the function the
//! simulator deploys every party with — and run the delivery loop; on
//! `shutdown` (or supervisor EOF), end the peer links from their dialing
//! side, print final counters and exit.
//!
//! Threads: main loop, stdin reader, acceptor, and a reader and a writer
//! per peer link (`3 + 2(n − 1)`), plus one short-lived dialer while the
//! mesh forms.

use aft_bench::cli::{Cli, Flag};
use aft_bench::deployment::DeployStack;
use aft_core::scenarios::standard_registry;
use aft_sim::deploy::{Hello, LinkEvent, LinkReader, LinkWriter, PeerLink};
use aft_sim::{Envelope, Outgoing, PartyHost, PartyId, Payload, SessionId};
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum Event {
    /// A control line from the supervisor (stdin); `None` is EOF.
    Ctrl(Option<String>),
    /// Something happened on the peer connection numbered `conn`, which
    /// this daemon `dialed` or accepted.
    Peer {
        conn: u64,
        dialed: bool,
        event: LinkEvent,
    },
}

/// The event sink of a new peer connection: tags everything the link
/// reports with a number unique to that connection (the counter
/// publishes no other data, hence `Relaxed`), so the main loop can tell
/// the current link to a party from one it has since replaced.
fn peer_sink(tx: &Sender<Event>, dialed: bool) -> impl FnMut(LinkEvent) -> bool + Send + 'static {
    static NEXT_CONN: AtomicU64 = AtomicU64::new(0);
    let conn = NEXT_CONN.fetch_add(1, Ordering::Relaxed);
    let tx = tx.clone();
    move |event| {
        let event = Event::Peer {
            conn,
            dialed,
            event,
        };
        tx.send(event).is_ok()
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("aft-partyd: {msg}");
    std::process::exit(2);
}

/// One established peer link: its sending half, the connection number
/// that keeps events from a replaced socket out of the current one, which
/// side dialed it, and this end's session tables for each direction —
/// born with the connection, and gone with it.
struct Link {
    link: PeerLink,
    conn: u64,
    dialed: bool,
    writer: LinkWriter,
    reader: LinkReader,
}

impl Link {
    fn new(link: PeerLink, conn: u64, dialed: bool, peer: usize) -> Link {
        Link {
            link,
            conn,
            dialed,
            writer: LinkWriter::new(),
            reader: LinkReader::new(PartyId(peer)),
        }
    }

    /// Encodes one envelope of `me` with this link's writer and queues it.
    /// `false` when the payload has no wire identity: nothing is sent.
    fn send(
        &mut self,
        me: PartyId,
        session: &SessionId,
        payload: &Payload,
        scratch: &mut Vec<u8>,
    ) -> bool {
        scratch.clear();
        if !self.writer.encode_envelope(me, session, payload, scratch) {
            return false;
        }
        self.link.send(scratch.as_slice().into());
        true
    }
}

/// How long a stopping daemon waits for its peers to close the links they
/// dialed; only a peer that hangs on `shutdown` makes it wait that long.
const LINK_CLOSE_TIMEOUT: Duration = Duration::from_millis(100);

struct Daemon {
    /// The party: its sent and delivered counts are `host.metrics()`,
    /// full [`aft_sim::Metrics`] like any in-process party's.
    host: PartyHost,
    /// Where the host's sends wait to be numbered (empty between events).
    sends: Vec<Outgoing>,
    session: SessionId,
    links: Vec<Option<Link>>,
    /// Every envelope ever sent to each peer, as its session and payload,
    /// for replay when that peer reconnects after a supervisor restart:
    /// the new connection's writer encodes it afresh against the new
    /// reader's empty table.
    outbox: Vec<Vec<(SessionId, Payload)>>,
    /// Encoding scratch, reused across envelopes.
    scratch: Vec<u8>,
    /// Envelopes dropped at a link: malformed routing header, or a
    /// `from` other than the link's owner.
    rejected: u64,
    output_reported: bool,
    stack: DeployStack,
}

impl Daemon {
    /// Installs (or replaces) the link to `party`. When the peer
    /// announced itself as recovered, the full outbox is replayed ahead
    /// of new traffic, through the new link's writer.
    fn add_link(&mut self, party: usize, recovered: bool, mut link: Link) {
        if recovered {
            let me = self.host.node().id();
            for (session, payload) in &self.outbox[party] {
                link.send(me, session, payload, &mut self.scratch);
            }
        }
        self.links[party] = Some(link);
    }

    /// Ends every peer link, the dialing side first: this daemon closes
    /// the links it dialed and keeps those it accepted until the peer has
    /// closed them. The side of a TCP connection that closes first holds
    /// its port in `TIME_WAIT` for a minute; on the dialing side that is a
    /// port `connect` shares freely, on the accepting side it is the
    /// listener's, and a few thousand of those — some twenty seconds of
    /// back-to-back deployments — are every port `bind(0)` tries first,
    /// after which each daemon's `bind` scans the range for most of a
    /// millisecond and a run's time depends on what ran before it.
    fn close_links(&mut self, rx: &Receiver<Event>) {
        for link in &mut self.links {
            if link.as_ref().is_some_and(|l| l.dialed) {
                *link = None;
            }
        }
        let deadline = Instant::now() + LINK_CLOSE_TIMEOUT;
        while self.links_up() > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(Event::Peer {
                    conn,
                    event: LinkEvent::Down,
                    ..
                }) => {
                    if let Some(party) = self.owner_of(conn) {
                        self.links[party] = None;
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }

    /// The party whose current link is connection `conn`, if any —
    /// `None` for events of a replaced or refused connection.
    fn owner_of(&self, conn: u64) -> Option<usize> {
        self.links
            .iter()
            .position(|l| l.as_ref().is_some_and(|l| l.conn == conn))
    }

    /// Delivers one envelope that arrived on `party`'s link, or counts
    /// it as rejected.
    fn receive(&mut self, party: usize, envelope: aft_sim::FrameBytes) {
        let owner = PartyId(party);
        let Some(link) = &mut self.links[party] else {
            return;
        };
        let Some((session, payload)) = link.reader.decode(envelope) else {
            self.rejected += 1;
            // A peer can send these by the million: log at 1, 2, 4, …
            if self.rejected.is_power_of_two() {
                eprintln!(
                    "aft-partyd: rejected envelope #{} on the link from {party} \
                     (malformed header, or not from {party})",
                    self.rejected
                );
            }
            return;
        };
        self.deliver(owner, session, payload);
        self.dispatch();
    }

    /// A link envelope carries no send number and no daemon records a
    /// trace yet, hence no `seq`, clock or sink.
    fn deliver(&mut self, from: PartyId, session: SessionId, payload: Payload) {
        let to = self.host.node().id();
        let env = Envelope {
            from,
            to,
            session,
            payload,
            seq: 0,
            born_step: 0,
        };
        self.host.deliver(env, None, None, &mut self.sends);
    }

    /// Moves the host's waiting sends to the back of `pending`.
    fn take_sends(&mut self, pending: &mut VecDeque<Outgoing>) {
        self.host
            .drain_sends(&mut self.sends, None, None, |_, o| pending.push_back(o));
    }

    fn links_up(&self) -> usize {
        self.links.iter().filter(|l| l.is_some()).count()
    }

    /// Routes the host's waiting sends: self-addressed envelopes are
    /// delivered locally (breadth-first, like the simulator's queue), the
    /// rest are encoded by the peer link's writer, queued on it and kept
    /// in the outbox.
    fn dispatch(&mut self) {
        let me = self.host.node().id();
        let mut pending = VecDeque::new();
        self.take_sends(&mut pending);
        while let Some(o) = pending.pop_front() {
            if o.to == me {
                self.deliver(me, o.session, o.payload);
                self.take_sends(&mut pending);
                continue;
            }
            if let Some(link) = &mut self.links[o.to.0] {
                if !link.send(me, &o.session, &o.payload, &mut self.scratch) {
                    // Typed outputs never cross the wire; nothing honest
                    // emits one as a send, so just surface and drop.
                    eprintln!("aft-partyd: dropping non-wire payload to {}", o.to.0);
                    continue;
                }
            }
            self.outbox[o.to.0].push((o.session, o.payload));
        }
        self.report_output();
    }

    /// Prints the root session's output once, as soon as it exists.
    fn report_output(&mut self) {
        if self.output_reported {
            return;
        }
        if let Some(payload) = self.host.node().output(&self.session) {
            if let Some(text) = self.stack.render_output(payload) {
                println!("output {text}");
                let _ = std::io::stdout().flush();
                self.output_reported = true;
            }
        }
    }
}

fn main() {
    let cli = Cli::parse(&[
        Flag::Party,
        Flag::Stack,
        Flag::Seed,
        Flag::Scenario,
        Flag::Recovered,
    ]);
    let party = cli.require(Flag::Party, cli.party);
    let stack = cli.require(Flag::Stack, cli.stacks.as_ref())[0];
    let seed = cli.require(Flag::Seed, cli.seed);
    let scenario = cli.require(Flag::Scenario, cli.scenario.as_ref());
    let recovered = cli.has(Flag::Recovered);
    let n = scenario.n;
    if party >= n {
        cli.fail(&format!("--party {party} out of range for n={n}"));
    }
    // The stack's one episode: its name is what attacks are told they
    // run in, its session where the instance is spawned.
    let Ok([(episode, session)]) = <[_; 1]>::try_from(stack.episodes()) else {
        cli.fail("--stack must be ba or common-subset: a daemon hosts a single episode");
    };
    let registry = standard_registry();
    let config = scenario.config(seed);
    let me = PartyId(party);

    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fatal(&format!("bind: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fatal(&format!("local_addr: {e}")));
    println!("ready {addr}");
    let _ = std::io::stdout().flush();

    let (tx, rx) = channel::<Event>();

    // Supervisor control lines. `shutdown` also raises a flag the main
    // loop checks before every event, so that it takes effect at once
    // and not behind whatever peer frames are queued ahead of the line.
    let stop = Arc::new(AtomicBool::new(false));
    let (ctrl, stopping) = (tx.clone(), Arc::clone(&stop));
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) => {
                    if l.trim() == "shutdown" {
                        stopping.store(true, Ordering::SeqCst);
                    }
                    if ctrl.send(Event::Ctrl(Some(l))).is_err() {
                        return;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = ctrl.send(Event::Ctrl(None));
    });

    // Peer accept loop. Each link reads its own hello, so a connection
    // that says nothing holds up no other.
    let accept = tx.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            if let Err(e) = PeerLink::accept(stream, peer_sink(&accept, false)) {
                eprintln!("aft-partyd: accepted connection unusable: {e}");
            }
        }
    });

    let mut daemon = Daemon {
        host: PartyHost::new(&config, party),
        sends: Vec::new(),
        session,
        links: (0..n).map(|_| None).collect(),
        outbox: vec![Vec::new(); n],
        scratch: Vec::new(),
        rejected: 0,
        output_reported: false,
        stack,
    };
    let mut meshed_reported = false;
    let mut started = false;

    // No event is taken and then dropped: `close_links` counts on every
    // link's `Down`.
    while !stop.load(Ordering::SeqCst) {
        let Ok(event) = rx.recv() else { break };
        match event {
            Event::Ctrl(None) => break,
            Event::Ctrl(Some(line)) => {
                let mut words = line.split_whitespace();
                match words.next() {
                    Some("peers") => {
                        let book: Vec<String> = words.map(str::to_string).collect();
                        if book.len() != n {
                            fatal(&format!("peers line has {} entries, want {n}", book.len()));
                        }
                        // Fresh daemons dial every lower-numbered party
                        // and accept the rest; a restarted daemon dials
                        // everyone (its peers' dials are long gone).
                        let targets: Vec<usize> = (0..n)
                            .filter(|&i| i != party && (recovered || i < party))
                            .collect();
                        let hello = Hello { party, recovered };
                        let dial_tx = tx.clone();
                        std::thread::spawn(move || {
                            // The peers printed `ready` before the
                            // supervisor released the address book, so a
                            // short retry loop is enough.
                            'targets: for target in targets {
                                let addr = &book[target];
                                for _ in 0..250 {
                                    let sink = peer_sink(&dial_tx, true);
                                    if PeerLink::dial(addr, hello, target, sink).is_ok() {
                                        continue 'targets;
                                    }
                                    std::thread::sleep(Duration::from_millis(20));
                                }
                                eprintln!("aft-partyd: cannot reach party {target} at {addr}");
                            }
                        });
                    }
                    Some("go") if !started => {
                        started = true;
                        let built =
                            scenario.party_instance(&registry, episode, me, seed, None, || {
                                stack.honest_instance(episode, me, scenario, seed, None)
                            });
                        match built {
                            Ok((instance, crash)) => {
                                if crash {
                                    // Whole-party crash at spawn: the
                                    // party starts crashed and sends
                                    // nothing, as on `sharded` and
                                    // `threaded`.
                                    daemon.host.crash();
                                }
                                let session = daemon.session.clone();
                                daemon.host.spawn(session, instance, &mut daemon.sends);
                                daemon.dispatch();
                            }
                            Err(e) => fatal(&e),
                        }
                    }
                    // `shutdown` has raised the flag that ends the loop.
                    _ => {}
                }
            }
            Event::Peer {
                conn,
                dialed,
                event,
            } => match event {
                LinkEvent::Up {
                    peer,
                    recovered,
                    link,
                } => {
                    if peer >= n || peer == party {
                        eprintln!("aft-partyd: refusing a link that claims to be party {peer}");
                        continue;
                    }
                    daemon.add_link(peer, recovered, Link::new(link, conn, dialed, peer));
                    if !meshed_reported && daemon.links_up() == n - 1 {
                        meshed_reported = true;
                        println!("meshed");
                        let _ = std::io::stdout().flush();
                    }
                }
                LinkEvent::Frame(envelope) => {
                    // Frames of a replaced connection have no owner.
                    if let Some(party) = daemon.owner_of(conn) {
                        daemon.receive(party, envelope);
                    }
                }
                LinkEvent::Down => {
                    if let Some(party) = daemon.owner_of(conn) {
                        daemon.links[party] = None;
                    }
                }
                LinkEvent::NoHello(e) => {
                    eprintln!("aft-partyd: dropped a connection that sent no hello: {e}");
                }
            },
        }
    }
    daemon.close_links(&rx);
    let metrics = daemon.host.metrics();
    println!(
        "metrics sent={} delivered={} rejected={}",
        metrics.sent, metrics.delivered, daemon.rejected
    );
    println!("bye");
    let _ = std::io::stdout().flush();
}
