//! Per-job heap accounting: a global allocator that counts, per thread, the
//! bytes a thread holds and the most it held since it last asked.
//!
//! A sweep worker runs one job at a time, so the peak between two job
//! completions on a worker is that job's peak heap. Unlike the resident set
//! of a two-worker process, which moves by tens of percent from run to run
//! with allocator retention and with which jobs happen to overlap, a job's
//! own peak is fixed by the job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting bytes per thread.
pub struct Counting;

thread_local! {
    // Signed: a block freed on another thread than the one that allocated
    // it is subtracted where it is freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static BASE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // `try_with` never fails for these const, destructor-free cells; it is
    // used because the allocator may run while a thread is torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counters are statistics only and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Both blocks may be live at once while the contents move.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

/// The most heap this thread held above its live size at the previous call
/// (or at thread start), in MiB; starts the next window.
pub fn take_thread_peak_mb() -> f64 {
    let live = LIVE.with(Cell::get);
    let base = BASE.with(|base| base.replace(live));
    let peak = PEAK.with(|peak| peak.replace(live));
    (peak - base).max(0) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_sees_its_own_peak_only() {
        take_thread_peak_mb();
        let big = vec![0u8; 8 << 20];
        drop(std::hint::black_box(big));
        let peak = take_thread_peak_mb();
        assert!((8.0..8.5).contains(&peak), "{peak}");
        let small = vec![0u8; 1 << 20];
        let peak = take_thread_peak_mb();
        assert!((1.0..1.5).contains(&peak), "{peak}");
        drop(small);
    }
}
