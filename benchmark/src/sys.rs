//! Process-level readers: a counting global allocator, the process's own
//! peak resident set (`VmHWM`) and that of its reaped children
//! (`getrusage(RUSAGE_CHILDREN)`).
//!
//! The allocator is always installed, in both passes and on both sides
//! of any later comparison, so its cost (four relaxed atomic operations
//! per allocation, one per free) is part of every number the same way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap acquisitions (alloc, alloc_zeroed, realloc) and the bytes
/// they asked for, and tracks the bytes live and their peak.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// One acquisition of `bytes`, `freed` of which it gives back (the old
/// block of a realloc).
fn count(bytes: usize, freed: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // Wrapping: `freed` may exceed `bytes`.
    let delta = (bytes as u64).wrapping_sub(freed as u64);
    let live = LIVE.fetch_add(delta, Ordering::Relaxed).wrapping_add(delta);
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` since process start.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Most heap bytes live at once since process start, in MiB: what the
/// program asked for, exact for a given sequence of executions. (`VmHWM`
/// adds what the allocator holds on top, and that depends on the order of
/// the first large frees: `ba-n32-sim` peaks at 12.3, 13.3 or 16.4 MiB
/// resident depending on the seed and the length of the pass.)
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// This process's peak resident set in MiB (`VmHWM` of
/// `/proc/self/status`); 0.0 where procfs is missing.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set, in MiB, among the children this process
/// has waited for (the `aft-partyd` daemons of a deployment); 0.0 off
/// 64-bit Linux.
pub fn children_peak_rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct rusage` as Linux lays it out on 64-bit targets: two
        /// `timeval`s, then fourteen `long`s of which `ru_maxrss` is the
        /// first.
        #[repr(C)]
        struct Rusage {
            times: [i64; 4],
            maxrss: i64,
            rest: [i64; 13],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_CHILDREN: i32 = -1;
        let mut usage = Rusage {
            times: [0; 4],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable `struct rusage` of the layout
        // the kernel fills on 64-bit Linux (the cfg above), and
        // RUSAGE_CHILDREN is a valid `who`.
        if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } == 0 {
            return usage.maxrss as f64 / 1024.0; // Linux reports KiB
        }
    }
    0.0
}
