//! Differential test of the share phase's bookkeeping.
//!
//! [`SvssShare`] keeps its state in party-indexed bit rows and vectors.
//! [`HashShare`] below is the implementation it replaced — hash tables
//! keyed by party, an adjacency matrix rebuilt and searched on every vote
//! — kept here, unchanged, as the oracle: both are hosted in a [`Node`]
//! and fed the same shuffled, duplicated, out-of-range and equivocating
//! message sequences, and after every delivery the envelopes they emitted,
//! their output and their shun count must be equal. "The same messages in
//! the same order" is what every pinned fingerprint in the repository
//! rests on; this is where it is checked message by message, including at
//! n = 70, where a party's row no longer fits one word. (There the party
//! under test is never the dealer: the oracle's dealer searches an
//! unfiltered graph after every vote, which does not end at that size.
//! The new dealer at n = 70 has a test of its own below.)

use aft_broadcast::{Acast, AcastMsg};
use aft_field::{BivarPoly, Fp, Poly};
use aft_sim::{
    Context, Instance, Node, Outgoing, PartyId, PartyMap, Payload, SessionId, SessionTag,
};
use aft_svss::{find_clique, party_point, BitMatrix, ShareBundle, ShareMsg, SvssShare, CORE_TAG};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::{HashMap, HashSet};

/// The clique search [`HashShare`] was written against: plain
/// backtracking over a `Vec<Vec<bool>>`.
fn reference_clique(adj: &[Vec<bool>], target: usize) -> Option<Vec<usize>> {
    fn backtrack(adj: &[Vec<bool>], chosen: &mut Vec<usize>, start: usize, target: usize) -> bool {
        if chosen.len() == target {
            return true;
        }
        if adj.len() - start < target - chosen.len() {
            return false;
        }
        for v in start..adj.len() {
            if chosen.iter().all(|&u| adj[u][v] && adj[v][u]) {
                chosen.push(v);
                if backtrack(adj, chosen, v + 1, target) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    let mut chosen = Vec::with_capacity(target);
    (target <= adj.len() && backtrack(adj, &mut chosen, 0, target)).then_some(chosen)
}

/// The share phase as it was before the party-indexed tables: every
/// handler is the old one, line for line.
struct HashShare {
    dealer: PartyId,
    secret: Option<Fp>,
    row: Option<Poly>,
    col: Option<Poly>,
    crosses: HashMap<PartyId, (Fp, Fp)>,
    oks: HashMap<PartyId, HashSet<PartyId>>,
    my_oks: HashSet<PartyId>,
    core: Option<Vec<PartyId>>,
    done_sent: bool,
    dones: HashSet<PartyId>,
    completed: bool,
    core_proposed: bool,
}

impl HashShare {
    fn new(dealer: PartyId, secret: Option<Fp>) -> Self {
        HashShare {
            dealer,
            secret,
            row: None,
            col: None,
            crosses: HashMap::new(),
            oks: HashMap::new(),
            my_oks: HashSet::new(),
            core: None,
            done_sent: false,
            dones: HashSet::new(),
            completed: false,
            core_proposed: false,
        }
    }

    fn try_ok(&mut self, j: PartyId, ctx: &mut Context<'_>) {
        if self.my_oks.contains(&j) {
            return;
        }
        let (Some(row), Some(col)) = (&self.row, &self.col) else {
            return;
        };
        let Some(&(a, b)) = self.crosses.get(&j) else {
            return;
        };
        let xj = party_point(j);
        if col.eval(xj) == a && row.eval(xj) == b {
            self.my_oks.insert(j);
            ctx.send_all(ShareMsg::Ok(j));
        }
    }

    fn edge(&self, u: PartyId, v: PartyId) -> bool {
        u != v
            && self.oks.get(&u).is_some_and(|s| s.contains(&v))
            && self.oks.get(&v).is_some_and(|s| s.contains(&u))
    }

    fn dealer_try_core(&mut self, ctx: &mut Context<'_>) {
        if self.core_proposed || ctx.me() != self.dealer {
            return;
        }
        let n = ctx.n();
        let adj: Vec<Vec<bool>> = (0..n)
            .map(|u| (0..n).map(|v| self.edge(PartyId(u), PartyId(v))).collect())
            .collect();
        if let Some(core) = reference_clique(&adj, n - ctx.t()) {
            self.core_proposed = true;
            ctx.spawn(
                SessionTag::new(CORE_TAG, self.dealer.0 as u64),
                Box::new(Acast::sender(self.dealer, core)),
            );
        }
    }

    fn try_done(&mut self, ctx: &mut Context<'_>) {
        if self.done_sent {
            return;
        }
        let Some(core) = &self.core else {
            return;
        };
        let verified = core
            .iter()
            .enumerate()
            .all(|(i, &u)| core[i + 1..].iter().all(|&v| self.edge(u, v)));
        if verified {
            self.done_sent = true;
            ctx.send_all(ShareMsg::Done);
        }
    }

    fn try_complete(&mut self, ctx: &mut Context<'_>) {
        if self.completed || self.core.is_none() {
            return;
        }
        if self.dones.len() >= ctx.n() - ctx.t() {
            self.completed = true;
            let mut crosses = PartyMap::new();
            for (&p, &points) in &self.crosses {
                crosses.insert(p, points);
            }
            ctx.output(ShareBundle {
                dealer: self.dealer,
                me: ctx.me(),
                row: self.row.clone(),
                col: self.col.clone(),
                core: self.core.clone().expect("checked above"),
                crosses,
            });
        }
    }
}

impl Instance for HashShare {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let me = ctx.me();
        let (n, t) = (ctx.n(), ctx.t());
        if me == self.dealer {
            let secret = self.secret.expect("dealer constructed with secret");
            let bivar = BivarPoly::random_with_secret(secret, t, ctx.rng());
            for p in 0..n {
                let x = party_point(PartyId(p));
                let (row, col) = (bivar.row(x), bivar.col(x));
                ctx.send(PartyId(p), ShareMsg::Shares { row, col });
            }
        } else {
            ctx.spawn(
                SessionTag::new(CORE_TAG, self.dealer.0 as u64),
                Box::new(Acast::<Vec<usize>>::receiver(self.dealer)),
            );
        }
    }

    fn on_message(&mut self, from: PartyId, payload: &Payload, ctx: &mut Context<'_>) {
        let Some(msg) = payload.view::<ShareMsg>() else {
            return;
        };
        let t = ctx.t();
        match &*msg {
            ShareMsg::Shares { row, col } => {
                if from != self.dealer || self.row.is_some() {
                    return;
                }
                if row.degree().unwrap_or(0) > t || col.degree().unwrap_or(0) > t {
                    return;
                }
                self.row = Some(row.clone());
                self.col = Some(col.clone());
                for p in ctx.parties().collect::<Vec<_>>() {
                    let x = party_point(p);
                    let (a, b) = (row.eval(x), col.eval(x));
                    ctx.send(p, ShareMsg::Cross { a, b });
                }
                let mut peers: Vec<PartyId> = self.crosses.keys().copied().collect();
                peers.sort();
                for j in peers {
                    self.try_ok(j, ctx);
                }
            }
            ShareMsg::Cross { a, b } => {
                if self.crosses.contains_key(&from) {
                    return;
                }
                self.crosses.insert(from, (*a, *b));
                self.try_ok(from, ctx);
            }
            ShareMsg::Ok(peer) => {
                if self.oks.entry(from).or_default().insert(*peer) {
                    self.dealer_try_core(ctx);
                    self.try_done(ctx);
                }
            }
            ShareMsg::Done => {
                if self.dones.insert(from) {
                    if self.dones.len() > t && !self.done_sent {
                        self.done_sent = true;
                        ctx.send_all(ShareMsg::Done);
                    }
                    self.try_complete(ctx);
                }
            }
        }
    }

    fn on_child_output(&mut self, child: &SessionTag, output: &Payload, ctx: &mut Context<'_>) {
        if child.kind != CORE_TAG || self.core.is_some() {
            return;
        }
        let Some(core) = output.downcast_ref::<Vec<usize>>() else {
            return;
        };
        let n = ctx.n();
        let mut seen = HashSet::new();
        let valid = core.len() == n - ctx.t() && core.iter().all(|&p| p < n && seen.insert(p));
        if !valid {
            return;
        }
        self.core = Some(core.iter().map(|&p| PartyId(p)).collect());
        self.try_done(ctx);
        self.try_complete(ctx);
    }
}

fn share_sid() -> SessionId {
    SessionId::root().child(SessionTag::new("diff-share", 0))
}

/// One delivery to the party under test: a share-phase message, or a vote
/// of the dealer's core A-Cast (which is how `Core` reaches the instance).
#[derive(Clone)]
enum Event {
    Share(PartyId, ShareMsg),
    Core(PartyId, AcastMsg<Vec<usize>>),
}

/// Everything observable about a delivery: the envelopes it produced, in
/// order, then the instance's output and the node's shun count.
fn observe(node: &Node, out: &[Outgoing]) -> Vec<String> {
    let mut seen: Vec<String> = out
        .iter()
        .map(|o| {
            let body = if let Some(m) = o.payload.view::<ShareMsg>() {
                format!("{:?}", &*m)
            } else if let Some(m) = o.payload.view::<AcastMsg<Vec<usize>>>() {
                format!("{:?}", &*m)
            } else {
                format!("{:?}", o.payload)
            };
            format!("{} {} {body}", o.to, o.session)
        })
        .collect();
    let bundle = node.output(&share_sid());
    seen.push(format!(
        "output {:?} shuns {}",
        bundle.map(|b| b.downcast_ref::<ShareBundle>().expect("a bundle")),
        node.shun_event_count()
    ));
    seen
}

/// The two implementations side by side, as party `me`.
struct Pair {
    new: Node,
    old: Node,
}

impl Pair {
    fn spawn(me: PartyId, dealer: PartyId, n: usize, t: usize, seed: u64) -> Pair {
        let secret = (me == dealer).then_some(Fp::new(seed % 1000));
        let mut pair = Pair {
            new: Node::new(me, n, t, ChaCha12Rng::seed_from_u64(seed)),
            old: Node::new(me, n, t, ChaCha12Rng::seed_from_u64(seed)),
        };
        let new: Box<dyn Instance> = match secret {
            Some(s) => Box::new(SvssShare::dealer(dealer, s)),
            None => Box::new(SvssShare::party(dealer)),
        };
        let new_out = pair.new.spawn(share_sid(), new);
        let old_out = pair
            .old
            .spawn(share_sid(), Box::new(HashShare::new(dealer, secret)));
        assert_eq!(
            observe(&pair.new, &new_out),
            observe(&pair.old, &old_out),
            "on_start"
        );
        pair
    }

    fn deliver(&mut self, step: usize, event: &Event, dealer: PartyId) {
        let (from, session, payload) = match event.clone() {
            Event::Share(from, msg) => (from, share_sid(), Payload::message(msg)),
            Event::Core(from, vote) => {
                let core_sid = share_sid().child(SessionTag::new(CORE_TAG, dealer.0 as u64));
                (from, core_sid, Payload::message(vote))
            }
        };
        let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
        self.new
            .deliver(from, session.clone(), payload.clone(), &mut new_out);
        self.old.deliver(from, session, payload, &mut old_out);
        assert_eq!(
            observe(&self.new, &new_out),
            observe(&self.old, &old_out),
            "step {step}"
        );
    }
}

/// A message sequence for party `me` of a dealing by `dealer`: the honest
/// traffic of a complete share phase (so cores form, `Done`s flow and
/// bundles are output), duplicated and shuffled — and, if `faulty`,
/// thinned, salted with what a Byzantine peer can add, and cut.
fn events(me: PartyId, dealer: PartyId, n: usize, t: usize, seed: u64, faulty: bool) -> Vec<Event> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let party = |rng: &mut StdRng| PartyId(rng.gen_range(0..n));
    // The polynomial the honest traffic is consistent with: the one the
    // dealer under test will draw, or the one its dealer sends it.
    let bivar = BivarPoly::random_with_secret(
        Fp::new(seed % 1000),
        t,
        &mut ChaCha12Rng::seed_from_u64(seed),
    );
    let x_me = party_point(me);
    let mut events = Vec::new();
    if me != dealer {
        let (row, col) = (bivar.row(x_me), bivar.col(x_me));
        events.push(Event::Share(dealer, ShareMsg::Shares { row, col }));
    }
    // The voters: everyone, or (at n = 70, to keep the oracle's n² hash
    // probes per vote affordable) a random n − t of them plus a few.
    let mut voters: Vec<usize> = (0..n).collect();
    voters.shuffle(rng);
    if n > 16 {
        voters.truncate(n - t + rng.gen_range(0..3usize));
    }
    for &j in &voters {
        let x_j = party_point(PartyId(j));
        let (a, b) = (bivar.row(x_j).eval(x_me), bivar.col(x_j).eval(x_me));
        events.push(Event::Share(PartyId(j), ShareMsg::Cross { a, b }));
        events.push(Event::Share(PartyId(j), ShareMsg::Done));
        for &v in &voters {
            // A sparse case now and then: no clique, no core (small n
            // only — the oracle's search has no pre-filter, and in a
            // graph missing a quarter of its edges it is exponential).
            if !faulty || n > 16 || !seed.is_multiple_of(5) || rng.gen_range(0..4) > 0 {
                events.push(Event::Share(PartyId(j), ShareMsg::Ok(PartyId(v))));
            }
        }
    }
    // The core the dealer's A-Cast delivers: usually a valid one, else
    // junk of every kind the validation names.
    let mut core: Vec<usize> = voters[..n - t].to_vec();
    core.sort_unstable();
    match if faulty { rng.gen_range(0..8) } else { 7 } {
        0 => core[0] = n + rng.gen_range(0..1000usize),
        1 => core[0] = core[1],
        2 => core.truncate(n - t - 1),
        3 => core.push(voters[0]),
        _ => {}
    }
    for p in 0..n {
        events.push(Event::Core(PartyId(p), AcastMsg::Ready(core.clone())));
    }
    // What a faulty peer adds.
    for _ in 0..if faulty { n.min(12) } else { 0 } {
        let who = party(rng);
        let junk = match rng.gen_range(0..8) {
            // Votes that name no party, just past n and far past it.
            0 => ShareMsg::Ok(PartyId(n + rng.gen_range(0..3usize))),
            1 => ShareMsg::Ok(PartyId(rng.gen_range(n..n + 100_000))),
            // Equivocation: a second, different cross point or share.
            2 => ShareMsg::Cross {
                a: Fp::new(rng.gen_range(0..50)),
                b: Fp::new(rng.gen_range(0..50)),
            },
            3 => ShareMsg::Shares {
                row: Poly::random_with_secret(Fp::new(1), t, rng),
                col: Poly::random_with_secret(Fp::new(2), t, rng),
            },
            4 => {
                events.push(Event::Share(
                    dealer,
                    ShareMsg::Shares {
                        row: Poly::random_with_secret(Fp::new(3), t + 1, rng),
                        col: bivar.col(x_me),
                    },
                ));
                ShareMsg::Done
            }
            5 => {
                let other = vec![rng.gen_range(0..n); n - t];
                events.push(Event::Core(who, AcastMsg::Ready(other.clone())));
                events.push(Event::Core(who, AcastMsg::Echo(other)));
                ShareMsg::Ok(party(rng))
            }
            6 => ShareMsg::Ok(who),
            _ => ShareMsg::Done,
        };
        events.push(Event::Share(who, junk));
    }
    // Duplicates, then any order, then any prefix.
    for _ in 0..events.len() / 8 {
        let again = events.choose(rng).expect("non-empty").clone();
        events.push(again);
    }
    events.shuffle(rng);
    if faulty && rng.gen_range(0..4) == 0 {
        events.truncate(rng.gen_range(0..=events.len()));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// n ∈ {4, 7, 10, 70}, `me` the dealer in a third of the cases up to
    /// n = 10.
    #[test]
    fn bit_rows_emit_what_the_hash_tables_emitted(
        seed in any::<u64>(),
        size in 0usize..16,
        me in 0usize..70,
        role in 0usize..3,
    ) {
        let n = [4, 4, 4, 4, 4, 7, 7, 7, 7, 7, 10, 10, 10, 10, 70, 70][size];
        let t = (n - 1) / 3;
        let me = PartyId(me % n);
        let role = if n > 16 { role.max(1) } else { role };
        let dealer = PartyId((me.0 + role) % n);
        let mut pair = Pair::spawn(me, dealer, n, t, seed);
        for (step, event) in events(me, dealer, n, t, seed, true).iter().enumerate() {
            pair.deliver(step, event, dealer);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The search on bit rows returns what the search on `Vec<Vec<bool>>`
    /// returned: on small graphs of every density (claims in one direction
    /// only included), and on n = 70 short of a few edges.
    #[test]
    fn clique_on_bit_rows_is_the_clique_on_bools(
        seed in any::<u64>(),
        n in 1usize..15,
        big in 0usize..8,
        percent in 0u32..=100,
        target in 0usize..72,
    ) {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = if big == 0 { 70 } else { n };
        let percent = if big == 0 { 100 } else { percent };
        let mut adj = vec![vec![false; n]; n];
        for (u, row) in adj.iter_mut().enumerate() {
            for (v, bit) in row.iter_mut().enumerate() {
                *bit = u != v && rng.gen_range(0..100u32) < percent;
            }
        }
        for _ in 0..rng.gen_range(0..7) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            adj[u][v] = false;
        }
        let mut rows = BitMatrix::identity(n);
        for (u, row) in adj.iter().enumerate() {
            for (v, _) in row.iter().enumerate().filter(|(_, &bit)| bit) {
                rows.set(u, v);
            }
        }
        let target = target % (n + 2);
        prop_assert_eq!(find_clique(&rows, target), reference_clique(&adj, target));
    }
}

/// The sequences above do reach the states worth comparing: left intact,
/// each has the dealer propose a core and the party output its bundle.
#[test]
fn intact_sequences_complete_at_every_size() {
    for n in [4, 7, 10, 70] {
        let t = (n - 1) / 3;
        for seed in 1..=2u64 {
            for role in [0, 1] {
                let (me, dealer) = (PartyId(n - 1), PartyId((n - 1 + role) % n));
                if me == dealer && n > 16 {
                    continue; // see `dealer_at_n70_finds_its_core`
                }
                let mut pair = Pair::spawn(me, dealer, n, t, seed);
                for (step, event) in events(me, dealer, n, t, seed, false).iter().enumerate() {
                    pair.deliver(step, event, dealer);
                }
                let bundle = pair.new.output(&share_sid()).expect("completes");
                let bundle = bundle.downcast_ref::<ShareBundle>().expect("a bundle");
                assert_eq!(bundle.core.len(), n - t, "n={n} seed={seed} me={me}");
                // The core A-Cast is the instance's only child session.
                assert_eq!(pair.new.instance_count(), 2);
            }
        }
    }
}

/// No ceiling on `n`: a dealer at n = 70 (rows of two words) watches the
/// votes of n − t + 2 parties arrive in random order, proposes the first
/// (n − t)-clique among them and completes.
#[test]
fn dealer_at_n70_finds_its_core() {
    let (n, t, seed) = (70, 23, 5);
    let me = PartyId(68);
    let mut node = Node::new(me, n, t, ChaCha12Rng::seed_from_u64(seed));
    let mut out = node.spawn(share_sid(), Box::new(SvssShare::dealer(me, Fp::new(5))));
    let mut voters = HashSet::new();
    for event in events(me, me, n, t, seed, false) {
        // (The `Core` events carry a list `events` made up; the parties
        // ready what this dealer proposes instead, below.)
        if let Event::Share(from, msg) = event {
            voters.insert(from);
            node.deliver(from, share_sid(), Payload::message(msg), &mut out);
        }
    }
    let proposed = out.iter().find_map(|o| match &*o.payload.view()? {
        AcastMsg::Send(core) => Some(Vec::<usize>::clone(core)),
        _ => None,
    });
    let proposed = proposed.expect("the dealer proposes a core");
    let core_sid = share_sid().child(SessionTag::new(CORE_TAG, me.0 as u64));
    for p in 0..n {
        let ready = Payload::message(AcastMsg::Ready(proposed.clone()));
        node.deliver(PartyId(p), core_sid.clone(), ready, &mut out);
    }
    let bundle = node.output(&share_sid()).expect("the dealer completes");
    let core = &bundle.downcast_ref::<ShareBundle>().expect("a bundle").core;
    assert_eq!(core.len(), n - t);
    assert!(core.windows(2).all(|w| w[0] < w[1]), "ascending: {core:?}");
    assert!(
        core.iter().all(|p| voters.contains(p)),
        "only voters: {core:?}"
    );
}
