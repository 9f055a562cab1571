//! A global allocator that forwards to the system allocator and counts
//! live heap bytes, so the benchmark can report a memory high-water mark
//! that does not depend on how the system allocator retains freed pages.
//! (The process's `VmHWM` on `cli-ckt1` is bimodal — about 67 or 96 MiB
//! for the same work — depending on glibc's adaptive mmap threshold.)
//!
//! The mark is taken per timed window: [`window`] lowers the high-water
//! mark to the live size, and [`Window::close`] keeps how far the live
//! size rose above that baseline. Set-up, input generation and the
//! oracles run outside every window, so they never set the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Largest rise of the live size above a window's baseline.
static WINDOW_PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees;
// the counters never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every allocation goes
        // through this type) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// An open measuring window; see the module docs.
pub struct Window {
    baseline: usize,
}

/// Opens a window: the high-water mark restarts at the live size.
pub fn window() -> Window {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    Window { baseline }
}

impl Window {
    /// Closes the window, keeping its rise if it is the largest so far.
    pub fn close(self) {
        let rise = PEAK.load(Ordering::Relaxed).saturating_sub(self.baseline);
        WINDOW_PEAK.fetch_max(rise, Ordering::Relaxed);
    }
}

/// Largest rise of live heap above a window's baseline, in MiB.
pub fn window_peak_mib() -> f64 {
    WINDOW_PEAK.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}
