//! Allocation-count smoke check for the delivery hot path.
//!
//! Wraps the global allocator in a counting shim and drives the
//! single-threaded simulator through a steady-state message window. The
//! zero-copy pipeline's contract is that once every pool has reached its
//! high-water mark (the queue's run pool, the arena slot table, the Fenwick
//! index, inline payload frames), delivering a message allocates
//! *nothing*: the echo window below asserts literally zero allocations.
//!
//! A BA episode window rides along with a bounded (not zero) assertion:
//! BA legitimately allocates off the delivery path — per-round vote
//! tables, A-Cast child instances, newly interned session ids — so the
//! check pins allocations *per delivered message* to a small constant
//! instead, which still catches an accidental per-message regression
//! (e.g. losing an inline or pool fast path) by an order of magnitude.
//!
//! The paper's full stack gets the same treatment, tighter: an FBA over
//! the strong coin over SVSS keeps its per-party state in inline party
//! sets, tallies and small polynomials, and the window pins what a
//! delivered message then costs (0.63 allocations at n=4; 1.31 while that
//! state lived in `Vec`s, 1.86 with hash tables), and what it costs on
//! `rt=wire`, where each act's sends cross in one buffer (0.98; 2.40 at
//! two allocations per same-receiver run). And a share-phase
//! instance flooded with votes that name no party must not allocate at
//! all — its state cannot grow with what a faulty peer sends.
//!
//! Two exact windows say where the difference went: an honest A-Cast
//! instance owns no heap memory besides its own box, from spawn to
//! delivery, and gives that box back when its life completes; and a
//! polynomial of degree ≤ 3 is cloned, decoded and combined without the
//! allocator.
//!
//! The shim also keeps the bytes the window holds and their peak, which
//! pins what an in-flight envelope costs: a BA at n = 32 is mostly queue
//! at its deepest, so its peak heap divided by its peak in-flight count
//! moves with every byte of the queue's layout (96.2 B with a 64-byte
//! slab entry in fixed pages; 117.8 B with a 72-byte one in a `Vec` grown
//! by an eighth, while a decided BA still opened its next round). And it
//! pins what the full stack holds: an n = 7 FBA peaks at 3.5 MB (3.9 MB
//! while a decided BA opened its next round at once; 4.0 MB with 72-byte
//! slab entries; 4.5 MB with a
//! 40-byte party set; 5.9 MB while every first output was kept; 6.9 MB
//! while a finished reconstruction kept its decoding state inline and
//! each queued run had a deque of its own; 8.7 MB with 88-byte session
//! cells and a halted BA, a finished coin or FBA kept; 15.8 MB while every
//! spent instance kept its state until the run was dropped), and at
//! quiescence keeps 163 B of heap per recorded output at n = 7 and 515 B
//! at n = 16 (162 and 457 while a decided BA opened its next round and
//! counted that round's outputs; with those outputs counted, 168 and 494
//! with 72-byte slab entries, 189 and 518 with a
//! 40-byte party set, 250 and 584 while every first output was kept, 292
//! and 683 with the decoding state inline, 369 and 749 before spent
//! instances let go). The interner, which those windows leave out, is
//! pinned on its own: 40 bytes per new session (179 while each node kept
//! its path).
//!
//! The windows share one lock; a pin that fails while holding it leaves
//! it to the next test, so only the broken pin fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use aft::ba::{BinaryBa, OracleCoin};
use aft::broadcast::{Acast, AcastMsg};
use aft::core::{CoinKind, FairChoiceParams, Fba};
use aft::field::{Fp, Poly};
use aft::sim::{
    runtime_by_name, Context, Instance, NetConfig, PartyId, Payload, RandomScheduler, Runtime,
    SessionId, SessionTag, SimNetwork, TraceMode,
};
use aft::svss::{ShareMsg, SvssShare};

/// Counts heap acquisitions (alloc/realloc) by the thread that armed it
/// and tracks the bytes that thread holds; frees are not counted as
/// acquisitions — the property under test is "no new memory is
/// requested". Other threads (the harness starting the next test) do not
/// count.
struct CountingAlloc;

thread_local! {
    /// Const-initialised and without a destructor, so reading it from the
    /// allocator neither allocates nor runs after thread teardown.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes the armed thread has acquired minus what it has freed since the
/// window opened (negative once it frees older memory), and the most
/// that has been at once.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// One acquisition of `bytes` that gives `freed` back (the old block of
/// a realloc), or a plain free when `acquired` is false.
fn count_if_armed(acquired: bool, bytes: usize, freed: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        if acquired {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        let delta = bytes as i64 - freed as i64;
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed(true, layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed(true, layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed(true, new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_if_armed(false, 0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so windows from concurrently running
/// tests must not interleave. It guards no data, so a test that failed
/// while holding it leaves nothing to distrust: the next one takes it
/// from the poison and measures, and only the broken pin fails.
static WINDOW: Mutex<()> = Mutex::new(());

/// Runs `f` with the counter armed for this thread and returns how many
/// allocations it performed (the peak bytes it held is left in `PEAK`).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (ALLOCS.load(Ordering::SeqCst), out)
}

/// Endless ping-pong: replies to every message with a fresh inline-frame
/// value, keeping exactly one envelope in flight per party — the
/// steady-state delivery workload, with no protocol state growth.
struct Echo;
impl Instance for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let next = PartyId((ctx.me().0 + 1) % ctx.n());
        ctx.send(next, 1u64);
    }
    fn on_message(&mut self, from: PartyId, p: &Payload, ctx: &mut Context<'_>) {
        if let Some(v) = p.to_msg::<u64>() {
            ctx.send(from, v.wrapping_add(1));
        }
    }
}

#[test]
fn steady_state_delivery_allocates_nothing() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-echo", 0));
    let mut net = SimNetwork::new(NetConfig::new(4, 1, 42), Box::new(RandomScheduler));
    for p in 0..4 {
        net.spawn(PartyId(p), sid.clone(), Box::new(Echo));
    }
    // Warm-up: every pool and table reaches its high-water mark (the
    // Fenwick index compacts several times over this window).
    net.run(20_000);
    // A `run` call has a fixed cost independent of deliveries (building
    // the report clones the metrics); measure it with an empty window so
    // the assertion isolates the per-message cost.
    let (per_run, _) = count_allocs(|| net.run(0));
    let (allocs, _) = count_allocs(|| net.run(5_000));
    assert_eq!(
        allocs, per_run,
        "steady-state delivery must be allocation-free: a 5000-message \
         window allocated {allocs} times vs {per_run} for an empty run"
    );
}

#[test]
fn ba_episode_allocates_a_bounded_constant_per_message() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-ba", 0));
    // Intern the session tree and warm the codec tables with a throwaway
    // episode of the same shape.
    let mut warm = SimNetwork::new(NetConfig::new(4, 1, 7), Box::new(RandomScheduler));
    for p in 0..4 {
        warm.spawn(
            PartyId(p),
            sid.clone(),
            Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(7)))),
        );
    }
    warm.run(u64::MAX);

    let mut net = SimNetwork::new(NetConfig::new(4, 1, 7), Box::new(RandomScheduler));
    for p in 0..4 {
        net.spawn(
            PartyId(p),
            sid.clone(),
            Box::new(BinaryBa::new(true, Box::new(OracleCoin::new(7)))),
        );
    }
    // The spawns start with the first run; start them outside the window.
    net.run(0);
    let (allocs, report) = count_allocs(|| net.run(u64::MAX));
    let delivered = report.metrics.delivered.max(1);
    let per_message = allocs as f64 / delivered as f64;
    assert!(
        per_message < BA_ALLOCS_PER_MESSAGE,
        "BA episode allocated {allocs} times for {delivered} deliveries \
         ({per_message:.3}/msg, bound {BA_ALLOCS_PER_MESSAGE}) — the delivery path should be \
         pool-backed, with only instance boxes, outputs and round tables left"
    );
}

/// Allocations per delivered message of the n=4 BA episode above: 0.223
/// measured (100 for 448 deliveries), plus a tenth; 0.302 (179 for 592)
/// while a decided party opened its next round at once. While A-Cast
/// tallies lived in `Vec`s the same episode cost 0.748.
const BA_ALLOCS_PER_MESSAGE: f64 = 0.246;

#[test]
fn fba_episode_allocations_per_message_are_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-fba", 0));
    let episode = || {
        let mut net = SimNetwork::new(NetConfig::new(4, 1, 1001), Box::new(RandomScheduler));
        for p in 0..4 {
            net.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(Fba::new(
                    format!("v{p}"),
                    FairChoiceParams::FixedK { k: 1 },
                    CoinKind::WeakShared,
                )),
            );
        }
        net
    };
    // Intern the session tree with a throwaway episode of the same shape.
    episode().run(u64::MAX);

    let mut net = episode();
    let (allocs, report) = count_allocs(|| net.run(u64::MAX));
    let delivered = report.metrics.delivered.max(1);
    let per_message = allocs as f64 / delivered as f64;
    assert!(
        per_message < FBA_ALLOCS_PER_MESSAGE,
        "FBA episode allocated {allocs} times for {delivered} deliveries \
         ({per_message:.3}/msg, bound {FBA_ALLOCS_PER_MESSAGE}) — with party sets, tallies and \
         polynomials on the heap this was {FBA_ALLOCS_PER_MESSAGE_HEAP_STATE}, with hash \
         tables keyed by party in the SVSS / coin handlers {FBA_ALLOCS_PER_MESSAGE_HASHED}"
    );
}

/// Allocations per delivered message of the n=4 FBA episode above: the
/// bound (0.634 measured — 22 767 for 35 904 deliveries — plus 5 %), what
/// the same episode cost while every `PartySet`, `Tally` and `Poly` owned
/// a `Vec` and each share bundle was copied three times (the bound then
/// was 1.4), and what it cost while `SvssShare`, `SvssRec`, the weak coin
/// and `BinaryBa` kept `HashMap`s / `HashSet`s keyed by party (each
/// measured on the commit before they went). The ratio was 0.593 (23 434
/// for 39 512), 0.596 once a payload's inline body held 22 bytes, not 24,
/// which an n=4 `ba-gather` needs, and 0.606 once a reconstruction's
/// decoding state was a box of its own, dropped at output. It rose to
/// 0.634 although the count fell, when a decided BA stopped opening its
/// next round at once: the deliveries that went allocated nothing.
const FBA_ALLOCS_PER_MESSAGE: f64 = 0.666;
const FBA_ALLOCS_PER_MESSAGE_HEAP_STATE: f64 = 1.31;
const FBA_ALLOCS_PER_MESSAGE_HASHED: f64 = 1.86;

#[test]
fn wire_fba_episode_allocations_per_message_are_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-fba-wire", 0));
    let episode = || {
        let config = NetConfig::new(4, 1, 1001);
        let mut net = runtime_by_name("wire:random", config).expect("a wire backend");
        for p in 0..4 {
            net.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(Fba::new(
                    format!("v{p}"),
                    FairChoiceParams::FixedK { k: 1 },
                    CoinKind::WeakShared,
                )),
            );
        }
        net
    };
    // Intern the session tree and size the link's encode buffer with a
    // throwaway episode of the same shape.
    episode().run(u64::MAX);

    let mut net = episode();
    let (allocs, report) = count_allocs(|| net.run(u64::MAX));
    assert_eq!(
        report.metrics.wire_frames, report.metrics.sent,
        "every send crossed"
    );
    let delivered = report.metrics.delivered.max(1);
    let per_message = allocs as f64 / delivered as f64;
    assert!(
        per_message < WIRE_FBA_ALLOCS_PER_MESSAGE,
        "the FBA episode on rt=wire allocated {allocs} times for {delivered} deliveries \
         ({per_message:.3}/msg, bound {WIRE_FBA_ALLOCS_PER_MESSAGE}) — the hand-over should \
         cost one buffer per act; with an `Arc` around a `Vec` per same-receiver run it \
         was {WIRE_FBA_ALLOCS_PER_MESSAGE_PER_RUN}"
    );
}

/// Allocations per delivered message of the n=4 FBA episode above on
/// `rt=wire`: the bound (0.985 measured — 35 352 for 35 904 deliveries —
/// plus 5 %; 0.931, 36 770 for 39 512, while a decided BA opened its next
/// round at once), and what the same episode cost while every
/// same-receiver run was handed over in an `Arc` around a `Vec` of its
/// own, two allocations each (94 899, measured on the commit before it
/// went).
const WIRE_FBA_ALLOCS_PER_MESSAGE: f64 = 1.034;
const WIRE_FBA_ALLOCS_PER_MESSAGE_PER_RUN: f64 = 2.402;

#[test]
fn ba_n32_peak_bytes_per_in_flight_envelope_are_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-ba32", 0));
    // The benchmark's `ba-n32-sim` execution at seed 1.
    let episode = || {
        let mut net = SimNetwork::new(NetConfig::new(32, 10, 1), Box::new(RandomScheduler));
        for p in 0..32 {
            net.spawn(
                PartyId(p),
                sid.clone(),
                Box::new(BinaryBa::new(false, Box::new(OracleCoin::new(1)))),
            );
        }
        net
    };
    // Intern the session tree with a throwaway run, so the interner's
    // growth stays out of the window; then build and run the measured one
    // inside it, so everything the run holds at its peak counts.
    episode().run(u64::MAX);
    let mut deepest = 0;
    let (_, report) = count_allocs(|| {
        episode().run_until(u64::MAX, |net| {
            deepest = deepest.max(net.pending_len());
            false
        })
    });
    assert_eq!(report.stop, aft::sim::StopReason::Quiescent);
    let peak = PEAK.load(Ordering::SeqCst);
    let per_envelope = peak as f64 / deepest as f64;
    assert!(
        per_envelope < BA_N32_PEAK_BYTES_PER_IN_FLIGHT,
        "the n=32 BA peaked at {peak} heap bytes with {deepest} envelopes in flight \
         ({per_envelope:.1} B each, bound {BA_N32_PEAK_BYTES_PER_IN_FLIGHT}) — the in-flight \
         queue's records or side arrays, the payload, a session cell, a party set or a \
         halted BA grew; with 72-byte slab entries in a `Vec` grown by an eighth it was \
         {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_72_BYTE_SLAB}, with a 40-byte party set \
         {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_PARTY_SET}, \
         with every first output kept in a 48-byte cell \
         {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_KEPT_OUTPUTS}, \
         with 88-byte cells and halted BAs kept {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_CELL}, \
         with a 48-byte payload in 88-byte slab entries \
         {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_PAYLOAD}, on 104-byte records doubled in a slab \
         {BA_N32_PEAK_BYTES_PER_IN_FLIGHT_DOUBLED}"
    );
}

/// Peak heap bytes per in-flight envelope of the n = 32 BA above: the
/// bound (96.2 measured — 3 182 340 bytes at 33 088 in flight, in a
/// debug build and a release one alike, run alone or not — plus 4 %, as
/// a party set padded to 40 bytes measures 102.9 and a `Record` with one
/// more 8-byte field and no cache-line alignment 106.5); what the same
/// run cost while a decided BA opened its next round at once, with that
/// round's receivers (105.3: 3 483 012 bytes, the bound then 109.5, which
/// both of those layout mutants now pass); while each batch was a 72-byte slab entry in one `Vec` grown by an
/// eighth plus 64 entries (117.8); while a party set was 40 bytes and
/// each A-Cast tally kept a `Vec` header inline (125.7); while every
/// session kept its first output in a 48-byte arena cell (133.4); while
/// an arena cell was 88 bytes and a halted BA kept its state (146.4);
/// and, with the interner's growth still inside the window, what it cost
/// while a `Payload` was 48 bytes, so a slab entry 88 (188.9), and while
/// each batch was a 104-byte slab record in a doubling `Vec`, beside a
/// tombstone list, a free list and a compaction scratch (each measured
/// on the commit before it went).
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT: f64 = 100.0;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_72_BYTE_SLAB: f64 = 117.8;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_PARTY_SET: f64 = 125.7;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_KEPT_OUTPUTS: f64 = 133.4;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_CELL: f64 = 146.4;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_WIDE_PAYLOAD: f64 = 188.9;
const BA_N32_PEAK_BYTES_PER_IN_FLIGHT_DOUBLED: f64 = 329.7;

/// The benchmark's FBA execution shape at `n` parties (inputs `v0 …`,
/// `k = 1`, the `WeakShared` coin, seed 1001) at `sid`, spawned and not
/// yet run.
fn fba_episode(n: usize, sid: &SessionId) -> SimNetwork {
    let mut net = SimNetwork::new(
        NetConfig::new(n, (n - 1) / 3, 1001),
        Box::new(RandomScheduler),
    );
    for p in 0..n {
        net.spawn(
            PartyId(p),
            sid.clone(),
            Box::new(Fba::new(
                format!("v{p}"),
                FairChoiceParams::FixedK { k: 1 },
                CoinKind::WeakShared,
            )),
        );
    }
    net
}

#[test]
fn fba_n7_peak_heap_is_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let sid = SessionId::root().child(SessionTag::new("alloc-fba7", 0));
    // Intern the session tree with a throwaway episode of the same shape,
    // then build and run the measured one inside the window, so
    // everything it holds at its peak counts.
    fba_episode(7, &sid).run(u64::MAX);
    let (_, report) = count_allocs(|| fba_episode(7, &sid).run(u64::MAX));
    assert_eq!(report.stop, aft::sim::StopReason::Quiescent);
    let peak = PEAK.load(Ordering::SeqCst);
    assert!(
        peak < FBA_N7_PEAK_BYTES,
        "the n=7 FBA peaked at {peak} heap bytes (bound {FBA_N7_PEAK_BYTES}) — a spent \
         instance kept its state, a finished reconstruction its tracks, the queue's run \
         pool more than its most queued parcels, a session cell, a slab entry or a party \
         set grew or a cell kept an inner session's output; it was \
         {FBA_N7_PEAK_BYTES_72_BYTE_SLAB} with 72-byte slab entries in a `Vec` grown by an \
         eighth, {FBA_N7_PEAK_BYTES_WIDE_PARTY_SET} \
         with a 40-byte party set, {FBA_N7_PEAK_BYTES_KEPT_OUTPUTS} with every first \
         output kept in a 48-byte cell, \
         {FBA_N7_PEAK_BYTES_INLINE_TRACKS} with the tracks kept inline and a deque per run, \
         {FBA_N7_PEAK_BYTES_WIDE_CELL} with 88-byte cells and a halted BA, a finished coin \
         or FBA kept, {FBA_N7_PEAK_BYTES_HELD} with every instance held to the end"
    );
}

/// Peak heap bytes of the n = 7 FBA above: the bound (3 532 744 measured
/// in the full suite in a release build, 3 496 712 in a debug one,
/// 3 483 240 run alone in either, plus 5 %); what it peaked at while a
/// decided BA opened its next round at once (3 892 512 in the full suite
/// in a release build, the bound then 4 087 138); while each
/// in-flight batch was a 72-byte slab entry in one `Vec` grown by an
/// eighth plus 64 entries, the run pool likewise (4 040 712 in a release
/// build); while a party set was 40 bytes and each A-Cast tally kept a
/// `Vec` header inline
/// (4 533 288); while every session kept its first output
/// in a 48-byte arena cell (5 923 056); while a finished reconstruction kept its
/// emptied decoding state inline and every queued run was a deque of its
/// own, drained ones kept in a spare list (6 888 204); while an arena cell
/// was 88 bytes and a halted BA, a finished weak coin, `CoinFlip`,
/// `FairChoice` and `Fba` kept their state; and while every instance kept
/// its state until the runtime was dropped (each measured on the commit
/// before it went; the last peak was then the live heap at quiescence).
const FBA_N7_PEAK_BYTES: i64 = 3_709_382;
const FBA_N7_PEAK_BYTES_72_BYTE_SLAB: i64 = 4_040_712;
const FBA_N7_PEAK_BYTES_WIDE_PARTY_SET: i64 = 4_533_288;
const FBA_N7_PEAK_BYTES_KEPT_OUTPUTS: i64 = 5_923_056;
const FBA_N7_PEAK_BYTES_INLINE_TRACKS: i64 = 6_888_204;
const FBA_N7_PEAK_BYTES_WIDE_CELL: i64 = 8_692_918;
const FBA_N7_PEAK_BYTES_HELD: i64 = 15_837_770;

#[test]
fn fba_live_heap_per_output_is_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    for &(n, bound, slab_72, wide_party_set, kept_outputs, inline_tracks, wide_cell) in
        FBA_LIVE_BYTES_PER_OUTPUT
    {
        // Seconds optimised, minutes in a debug build.
        if n > 7 && cfg!(debug_assertions) {
            continue;
        }
        let sid = SessionId::root().child(SessionTag::new("alloc-fba-live", n as u64));
        fba_episode(n, &sid).run(u64::MAX);
        // What the run holds at quiescence, outputs included, divided by
        // the outputs it keeps.
        let (_, net) = count_allocs(|| {
            let mut net = fba_episode(n, &sid);
            assert_eq!(net.run(u64::MAX).stop, aft::sim::StopReason::Quiescent);
            net
        });
        let live = LIVE.load(Ordering::SeqCst);
        let outputs: u64 = (0..n).map(|p| net.node(PartyId(p)).output_count()).sum();
        let per_output = live as f64 / outputs as f64;
        assert!(
            per_output < bound,
            "at n={n} the FBA keeps {live} heap bytes for {outputs} outputs \
             ({per_output:.1} B each, bound {bound}) — a spent instance, a finished \
             reconstruction, a session cell, a slab entry or a party set holds more than it \
             did, or an inner session's output is kept; with 72-byte slab entries in a `Vec` \
             grown by an eighth it was {slab_72}, with a 40-byte party set \
             {wide_party_set}, with every first output kept in a 48-byte cell \
             {kept_outputs}, with the reconstruction's tracks kept inline \
             {inline_tracks}, with 88-byte cells and a halted BA, a finished coin or FBA \
             kept {wide_cell}"
        );
    }
}

/// Live heap bytes per recorded output of an FBA at quiescence, at n = 7
/// (162.7 measured — 3 342 290 bytes for 20 545 outputs — plus 4.4 %) and
/// n = 16 (514.7 — 140 174 764 bytes for 272 336 — plus 1.4 %, as a party
/// set padded to 40 bytes measures 525.8 and 172.7). A decided BA that
/// opened its next round at once kept more bytes for more outputs: 161.7
/// (3 802 218 for 23 517) and 457.4 (144 340 028 for 315 600), bounded
/// at 169.8 and 470.7; the held round's idle phase-1 receivers stay, its
/// phase-2/3 receivers and its outputs go. The figures below were
/// measured with those outputs counted. What the same
/// runs kept while the queue's slab entries were 72 bytes in one `Vec`
/// grown by an eighth plus 64 entries, the run pool likewise (168.0 and
/// 493.8; the queue keeps its pages once drained); while a party set was
/// 40 bytes and each A-Cast tally kept a
/// `Vec` header inline (189.3 and 517.8); while every session kept its
/// first output in a 48-byte arena cell (249.9 and 584.2); while a
/// finished reconstruction kept its
/// emptied decoding state inline (291.7 and 683.4); and what they kept while an
/// arena cell was 88 bytes and a halted BA, a finished weak coin,
/// `CoinFlip`, `FairChoice` and `Fba` kept their state (each measured on
/// the commit before it went). The window leaves out the interner, so a
/// stored path's bytes never counted here.
const FBA_LIVE_BYTES_PER_OUTPUT: &[(usize, f64, f64, f64, f64, f64, f64)] = &[
    (7, 169.8, 168.0, 189.3, 249.9, 291.7, 369.1),
    (16, 522.0, 493.8, 517.8, 584.2, 683.4, 748.7),
];

#[test]
fn interned_bytes_per_session_are_pinned() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    // The shape of the n = 4 FBA's session tree: every session its run
    // sent in, and every prefix of one, as tag paths below the episode's
    // own id.
    let sid = SessionId::root().child(SessionTag::new("alloc-intern", 0));
    let mut net = fba_episode(4, &sid);
    net.set_trace(TraceMode::Full);
    assert_eq!(net.run(u64::MAX).stop, aft::sim::StopReason::Quiescent);
    let events = net.take_trace().expect("tracing on").snapshot();
    let mut tree = BTreeSet::new();
    for session in events.iter().filter_map(|e| e.session()) {
        let mut path: Vec<SessionTag> = session.tags_leaf_first().collect();
        path.truncate(session.depth() - sid.depth());
        path.reverse();
        while !path.is_empty() && tree.insert(path.clone()) {
            path.pop();
        }
    }
    // Intern the tree afresh under three new roots, one window each. A
    // window in which the interner's edge table grew holds its new table
    // too; the table's growth is amortised over what the whole process
    // interns, so the least of the windows, which no growth fell in, is
    // what a session itself costs.
    let per_session = (1..=3)
        .map(|root| {
            let base = SessionId::root().child(SessionTag::new("alloc-intern", root));
            count_allocs(|| {
                for path in &tree {
                    let _ = path.iter().fold(base.clone(), |id, &tag| id.child(tag));
                }
            });
            LIVE.load(Ordering::SeqCst) as f64 / tree.len() as f64
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        per_session < INTERNED_BYTES_PER_SESSION,
        "interning the {}-session tree of an n=4 FBA held {per_session:.1} B a session \
         (bound {INTERNED_BYTES_PER_SESSION}) — a trie node grew or stores its path again; \
         with a copy of its full path beside each node it was \
         {INTERNED_BYTES_PER_SESSION_WITH_PATHS}",
        tree.len()
    );
}

/// Heap bytes a new session of the n = 4 FBA's tree (931 sessions) holds
/// in the interner, the edge table's growth left out: the bound (40.0
/// measured — one 40-byte trie node — plus 5 %), and what it was while
/// each node was 56 bytes and kept a copy of its full tag path, 5.14 tags
/// of 24 bytes on average (measured on the commit before it went).
const INTERNED_BYTES_PER_SESSION: f64 = 42.0;
const INTERNED_BYTES_PER_SESSION_WITH_PATHS: f64 = 179.4;

#[test]
fn an_honest_acast_instance_owns_nothing_but_its_box() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let (n, t) = (7, 2);
    let session = |i| SessionId::root().child(SessionTag::new("alloc-acast", i));
    let mut node = aft::sim::party_node(&NetConfig::new(n, t, 3), 1);
    // The whole life of one receiver: the sender's value, every party's
    // echo, every party's ready.
    let life = |node: &mut aft::sim::Node, sid: &SessionId, out: &mut Vec<_>| {
        let echoes = (0..n).map(|p| (p, AcastMsg::Echo(9u8)));
        let readies = (0..n).map(|p| (p, AcastMsg::Ready(9u8)));
        for (from, msg) in [(0, AcastMsg::Send(9u8))]
            .into_iter()
            .chain(echoes)
            .chain(readies)
        {
            node.deliver(PartyId(from), sid.clone(), Payload::message(msg), out);
        }
    };
    // Spawning hands over the box (and makes the node's session slots);
    // a first life on a sibling session warms the node's own buffers.
    let mut out = Vec::with_capacity(64);
    for i in [0, 1] {
        out.extend(node.spawn(session(i), Box::new(Acast::<u8>::receiver(PartyId(0)))));
    }
    life(&mut node, &session(0), &mut out);
    out.clear();
    let (allocs, ()) = count_allocs(|| life(&mut node, &session(1), &mut out));
    assert_eq!(
        node.output(&session(1))
            .and_then(Payload::downcast_ref::<u8>),
        Some(&9)
    );
    assert_eq!(out.len(), 2 * n, "its echo and its ready, to everyone");
    assert_eq!(
        allocs, 1,
        "the delivered value's output payload is the only allocation of an \
         honest A-Cast's life: both tallies, their voters and every vote \
         it sends are inline"
    );
    // The output payload is what the window peaked at; once the instance
    // has echoed, readied and delivered it retires, and what the window
    // gave back after that peak is exactly its box.
    let freed = PEAK.load(Ordering::SeqCst) - LIVE.load(Ordering::SeqCst);
    assert_eq!(
        freed,
        std::mem::size_of::<Acast<u8>>() as i64,
        "a spent A-Cast's box is freed when its life completes"
    );
    assert_eq!(node.retired_count(), 2, "both lives completed");
}

#[test]
fn small_polynomials_stay_off_the_allocator() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    // Degree 3: a row or column of a sharing with t = 3.
    let cubic = Poly::from_coeffs((1..=4).map(Fp::new).collect());
    let mut bytes = Vec::new();
    cubic.encode_to(&mut bytes);
    let (allocs, ()) = count_allocs(|| {
        let copy = cubic.clone();
        let (decoded, used) = Poly::decode_from(&bytes).expect("canonical bytes");
        assert_eq!((&decoded, used), (&copy, bytes.len()));
        let doubled = &copy + &decoded;
        assert_eq!((&doubled - &copy).eval(Fp::new(2)), cubic.eval(Fp::new(2)));
        let (quot, rem) = cubic
            .div_rem(&Poly::constant(Fp::new(2)))
            .expect("nonzero divisor");
        assert_eq!((quot.degree(), rem.is_zero()), (Some(3), true));
    });
    assert_eq!(allocs, 0, "degree ≤ 3 fits the inline coefficients");
}

#[test]
fn junk_votes_allocate_nothing_in_a_share_instance() {
    let _guard = WINDOW.lock().unwrap_or_else(PoisonError::into_inner);
    let n = 4;
    let sid = SessionId::root().child(SessionTag::new("alloc-junk", 0));
    let mut node = aft::sim::party_node(&NetConfig::new(n, 1, 3), 1);
    let mut out = node.spawn(sid.clone(), Box::new(SvssShare::party(PartyId(0))));
    // One real vote first, so the instance's tables exist and the node's
    // buffers are warm.
    let vote = |peer: usize| Payload::message(ShareMsg::Ok(PartyId(peer)));
    node.deliver(PartyId(2), sid.clone(), vote(3), &mut out);
    out.clear();
    // Votes that name no party: `n`, and 10 000 ids past it, from a peer.
    let junk: Vec<Payload> = (n..n + 10_000).map(vote).collect();
    let (allocs, ()) = count_allocs(|| {
        for payload in junk {
            node.deliver(PartyId(3), sid.clone(), payload, &mut out);
        }
    });
    assert_eq!(
        allocs, 0,
        "a refused vote must leave no trace to allocate for"
    );
    assert!(out.is_empty(), "and nothing to answer");
}
