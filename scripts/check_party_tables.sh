#!/usr/bin/env bash
# party-tables: protocol state keyed by party lives in `aft_sim::PartySet` /
# `PartyMap` (bit rows and party-indexed vectors, iterated in party order).
# A `HashMap` / `HashSet` / `BTreeSet` keyed by `PartyId` or `usize` in the
# protocol crates is that state creeping back: a SipHash probe per vote, and
# an emission order that has to be repaired by collect-and-sort.
#
# Fails on any such collection in crates/{svss,ba,broadcast,core,sim,bench}/src.
# One that is legitimately not keyed by a party is listed in `allowed` by
# the text of its declaration — by name, so that a second one is a
# conscious edit here, not a pattern that happened to match.
#
# The same goes for what happens at a party: dispatching a delivery and
# recording its `TraceEvent::Deliver` / `Drop` is `aft_sim::PartyHost::
# deliver`, counting a send (`on_sent(`), numbering it and recording its
# `TraceEvent::Send` is `PartyHost::drain_sends`, and every engine drives
# them. Any of those strings in the non-test code of an engine (network.rs,
# async_rt.rs, wire_rt.rs, shard.rs, threaded.rs) or of aft_partyd.rs is
# that half being written again; the split it was once written as
# (`deliver_raw` / `account_delivery`) stays gone by name.
#
# And for what every engine holds alike (the one-front leg), for the
# bytes between parties: one envelope writer and one reader, in
# crates/sim/src/wire.rs, and for what a run recorded: one trace schema
# (each leg, further down, says what it greps for).
#
# usage: scripts/check_party_tables.sh   (from the repository root)
set -euo pipefail

# (`WeakCoinMsg::Gather` is a strictly ascending `Vec<usize>`;
# `BinaryBa::rounds` is keyed by round number, a `u64`; `Fba`'s majority
# count is keyed by value.)
allowed=(
    # cluster.rs: keyed by *inner* party of the Appendix-B reduction, a
    # sparse subset.
    'nodes: HashMap<usize, Node>,'
    # deployment.rs: the supervisor's table of `metrics` lines, keyed by
    # who printed one.
    'let mut metrics: HashMap<usize, [u64; 3]> = HashMap::new();'
    # ids.rs: the model a proptest holds `PartySet` against.
    'fn set_of(ids: &[usize]) -> (PartySet, BTreeSet<usize>) {'
    # node.rs: messages waiting for their session to spawn, keyed by the
    # session's arena index; almost always empty.
    'early: HashMap<usize, Vec<(PartyId, Payload)>>,'
)

hits=$(grep -rnE 'Hash(Map|Set)<(PartyId|usize)|BTreeSet<usize>' --include='*.rs' \
    crates/svss/src crates/ba/src crates/broadcast/src crates/core/src \
    crates/sim/src crates/bench/src || true)
for entry in "${allowed[@]}"; do
    hits=$(grep -vF -- "$entry" <<<"$hits" || true)
done
if [[ -n $hits ]]; then
    echo "party-tables: party-keyed hash collections (use aft_sim::PartySet / PartyMap):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "party-tables: none"

for driver in crates/sim/src/{network,async_rt,wire_rt,shard,threaded}.rs \
    crates/bench/src/bin/aft_partyd.rs; do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$driver" |
        grep -E 'on_sent\(|TraceEvent::(Send|Deliver|Drop) \{' >&2; then
        echo "party-host: $driver accounts for a party itself (drive aft_sim::PartyHost)" >&2
        exit 1
    fi
done
if grep -rnE 'deliver_raw|account_delivery' --include='*.rs' crates src tests >&2; then
    echo "party-host: the dispatch/accounting split is back (PartyHost::deliver is one function)" >&2
    exit 1
fi
echo "party-host: every engine drives it"

# And for what every engine holds alike: the hosts, the spawns waiting for the
# next run, the recorder and adaptive sink, the scheduled recoveries and the
# step clock are one `Parties` in crates/sim/src/runtime.rs, which also
# records the engine-wide events (`Crash`, `Recover`, `EpisodeStart` /
# `EpisodeEnd`). Building hosts, a sink or recovery plans, or recording one of
# those events, in the non-test code of an engine is that engine keeping its
# own front again.
for driver in crates/sim/src/{network,shard,threaded,async_rt,wire_rt}.rs; do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$driver" |
        grep -E 'PartyHost::all\(|Observer::default\(|Recoveries::default\(|TraceEvent::(Crash|EpisodeStart|EpisodeEnd|Recover) \{' >&2; then
        echo "one-front: $driver keeps its own parties, sink or recoveries, or records the shared events itself (hold one Parties)" >&2
        exit 1
    fi
done
echo "one-front: every engine holds one Parties"

# And for the envelope: `put_session(` / `get_session(` lay out and read the
# routing header, and crates/sim/src/wire.rs is where that is done — once,
# by `encode_envelope` / `decode_envelope` and the link ends `LinkWriter` /
# `LinkReader`, for `rt=wire`, the `aft-partyd` links and the cluster
# reduction alike. A call
# in non-test code anywhere else is a second envelope format; the batch
# framing and the per-link kind-name cache it replaced stay gone by name.
for src in $(grep -rlE '(put|get)_session\(' --include='*.rs' crates/*/src src |
    grep -vx crates/sim/src/wire.rs); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$src" |
        grep -E '(put|get)_session\(' >&2; then
        echo "one-envelope: $src lays out a routing header itself (use aft_sim::{encode_envelope, decode_envelope})" >&2
        exit 1
    fi
done
if grep -rnE 'write_batch|read_batch|kind_name_cached' --include='*.rs' crates src tests >&2; then
    echo "one-envelope: the batch framing / per-link kind cache is back (one link frame per envelope, names looked up on demand)" >&2
    exit 1
fi
# A define names its anchor, not its path, so nothing is left for a codec
# to remember between calls: wire.rs keeps no per-thread state, and the
# decoded-path cache and the written-path memo it replaced stay gone by name.
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/sim/src/wire.rs |
    grep -F 'thread_local!' >&2; then
    echo "one-envelope: crates/sim/src/wire.rs keeps per-thread state (a link's tables are all a codec remembers)" >&2
    exit 1
fi
if grep -rnE 'SESSION_CACHE|PUT_MEMO|CachedPath' --include='*.rs' crates src tests examples >&2; then
    echo "one-envelope: a per-thread session cache is back (a define carries only the tags below its anchor)" >&2
    exit 1
fi
# A link names a session once and by a slot after that: the slot tables and
# the define / ref / root-anchor markers are `LinkWriter` / `LinkReader`'s,
# in wire.rs, and nowhere else. And what comes off a link is read by its
# `LinkReader`: a stateless read — `decode_envelope(` (the full form only), or the free
# `decode_link_envelope(` it replaced — in non-test code outside wire.rs
# would drop every ref. The cluster envelope nests the full form and is
# the one stateless reader left (crates/sim/src/cluster.rs).
for src in $(grep -rlE 'SESSION_(DEFINE|REF)|ROOT_ANCHOR|LINK_SESSION_SLOTS|SessionSlots|\[Option<SessionId>; |decode_(link_)?envelope\(' \
    --include='*.rs' crates/*/src src | grep -vx crates/sim/src/wire.rs); do
    pattern='SESSION_(DEFINE|REF)|ROOT_ANCHOR|LINK_SESSION_SLOTS|SessionSlots|\[Option<SessionId>; |decode_link_envelope\('
    [ "$src" = crates/sim/src/cluster.rs ] || pattern="$pattern|decode_envelope\("
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$src" |
        grep -E "$pattern" >&2; then
        echo "one-envelope: $src keeps a session table or reads a link envelope statelessly (use aft_sim::deploy::{LinkWriter, LinkReader})" >&2
        exit 1
    fi
done
echo "one-envelope: one writer, one reader, one session table per link end"

# And for what a burst costs: a received burst — an `rt=wire` act, a socket
# read's whole frames, a nested cluster envelope — is one `Arc<[u8]>`, count
# and bytes in one allocation. An `Arc<Vec<u8>>` in the non-test code of
# aft-sim or aft-bench is the second allocation per burst coming back.
for src in $(grep -rlF 'Arc<Vec<u8>>' --include='*.rs' crates/sim/src crates/bench/src); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$src" |
        grep -F 'Arc<Vec<u8>>' >&2; then
        echo "one-allocation: $src holds bytes in an Arc<Vec<u8>> (use Arc<[u8]>: one allocation per burst)" >&2
        exit 1
    fi
done
echo "one-allocation: every burst is one Arc<[u8]>"

# And for what a session cell keeps: its occupant and two bits. A first
# output's value moves to the parent's `on_child_output` and is kept only
# for a session the host spawned, in `Node`'s own table; an
# `output: Option<Payload>` in crates/sim/src/node.rs is the value back in
# every cell.
if grep -nF 'output: Option<Payload>' crates/sim/src/node.rs >&2; then
    echo "routed-output: crates/sim/src/node.rs keeps an output value per session (a cell keeps a bit; only host spawns keep a value)" >&2
    exit 1
fi
echo "routed-output: a session cell keeps no value"

# And for what an instance holds once it is spent: an instance that can never
# act again calls `ctx.retire` or `ctx.retire_unviewed` (the node then frees it
# mid-run and leaves a stateless reader in its session), or says why it never
# does. Every non-test `impl Instance for T` in the protocol crates needs such
# a call in one of `T`'s impl blocks or a `// never retires: <reason>` comment
# directly above it; a new instance without either is state kept to the end
# unasked.
unexplained=$(for src in crates/{broadcast,svss,ba,core}/src/*.rs; do
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^ *\/\// { comments = comments $0 "\n"; next }
        /^impl/ {
            self = $0
            sub(/ *\{.*$/, "", self)
            if (self ~ / for /) sub(/^.* for /, "", self)
            else sub(/^impl(<[^>]*>)? */, "", self)
            sub(/<.*$/, "", self)
            sub(/^.*::/, "", self)
            if ($0 ~ /Instance for /) {
                line[self] = FNR
                excused[self] = comments ~ /\/\/ never retires: [^ ]/
            }
        }
        /^}/ { self = "" }
        self != "" && /ctx\.retire/ { retires[self] = 1 }
        { comments = "" }
        END {
            for (t in line) if (!retires[t] && !excused[t])
                print FILENAME ":" line[t] ": " t
        }
    ' "$src"
done)
if [[ -n $unexplained ]]; then
    echo "retire: instances that neither call ctx.retire nor say \`// never retires: <reason>\`:" >&2
    echo "$unexplained" >&2
    exit 1
fi
# Not viewing messages is no reason any more: `ctx.retire_unviewed` leaves a
# reader that views nothing either.
if grep -rnE 'never retires: .*(it views no message|drops messages without viewing them)' \
    --include='*.rs' crates/{broadcast,svss,ba,core}/src >&2; then
    echo "retire: an instance that views no message retires with ctx.retire_unviewed" >&2
    exit 1
fi
echo "retire: every instance retires or says why not"

# And for what a run recorded: one schema. The members of every `TraceEvent`
# — all it holds after `ev` / `step` — are written once, by the member writer
# in crates/sim/src/trace.rs, for its JSONL line and its Perfetto `args` alike;
# and every capture (`--trace`, `exp_trace`, repro bundles) is written by
# `aft_sim::trace::write_trace`, as `X.jsonl` + `X.perfetto.json`. A
# `to_jsonl(` / `to_chrome_trace(` call in non-test code under crates/ outside
# trace.rs is a second capture writer; the `"causal_parent"` key spelled other
# than once in trace.rs (escaped inside a format string counts too) is a
# second hand-kept renderer of the members.
for src in $(grep -rlE '(to_jsonl|to_chrome_trace)\(' --include='*.rs' crates |
    grep -v '/tests/' | grep -vx crates/sim/src/trace.rs); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$src" |
        grep -E '(to_jsonl|to_chrome_trace)\(' >&2; then
        echo "one-schema: $src writes a capture itself (use aft_sim::trace::write_trace)" >&2
        exit 1
    fi
done
keys=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' crates/sim/src/trace.rs |
    grep -oE '\\?"causal_parent\\?"' | wc -l)
if [[ $keys -ne 1 ]]; then
    echo "one-schema: crates/sim/src/trace.rs spells the \"causal_parent\" key $keys times, not once (one member writer renders JSONL and Perfetto args)" >&2
    exit 1
fi
echo "one-schema: one member writer, one trace writer"

# And for how an experiment row runs: one runner. Every row of a claim's
# tables (crates/bench/src/claims.rs) is a `Scenario`, run through the
# cell runner's episode step (`aft_core::scenarios::run_episode`, which
# `aft_bench::run_row` wraps), so its adversary is a `corrupt=` plan and
# its backend a `rt=`. A `deploy_episode(` / `net.spawn(` / `rt.spawn(`
# call or a `SilentInstance` in the non-test code of crates/bench/src is
# code spawning parties itself again — a second runner with a second adversary model.
# aft_partyd.rs is exempt: it hosts one party, built by
# `Scenario::party_instance`.
runner='deploy_episode\(|\b(net|rt)\.spawn\(|SilentInstance'
spawners=0
for src in $(grep -rlE "$runner" --include='*.rs' crates/bench/src |
    grep -vx crates/bench/src/bin/aft_partyd.rs); do
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$src" |
        grep -E "$runner" >&2; then
        echo "one-runner: $src spawns parties itself (run a Scenario row through aft_bench::run_row or aft_core::scenarios::run_episode)" >&2
        spawners=1
    fi
done
if ((spawners)); then
    exit 1
fi
echo "one-runner: every row runs through run_episode"
