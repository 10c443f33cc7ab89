//! A global allocator that can track the heap high-water mark of one
//! call. Tracking is off unless [`measure`] is running, so untimed and
//! untraced code pays one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Counts live bytes while [`ON`] is set. The counters publish no other
/// data, so `Relaxed` suffices; the benchmark is single-threaded.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            PEAK.fetch_max(live + layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            let delta = new_size as isize - layout.size() as isize;
            let live = LIVE.fetch_add(delta, Ordering::Relaxed);
            PEAK.fetch_max(live + delta, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged (see the impl comment).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the largest number of bytes it
/// held allocated at once, above what was live when it started.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, PEAK.load(Ordering::Relaxed).max(0) as usize)
}
