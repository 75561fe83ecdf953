//! Thread-local buffer pool recycling tensor storage across steps.
//!
//! Every [`Tensor`](crate::Tensor) buffer is taken from and returned to
//! this arena: `Drop` recycles the `Vec<f32>`, constructors reuse a
//! recycled buffer of the same capacity when one is available. Training
//! graphs have constant shape from step to step, so after a one-step
//! warm-up the hot loop allocates nothing — clearing the tape
//! ([`Tape::reset_keep_capacity`](crate::Tape::reset_keep_capacity))
//! returns every activation and gradient buffer here instead of to the
//! allocator.
//!
//! # Lifetime rules
//!
//! * The pool is **thread-local**: a buffer is only ever reused on the
//!   thread that dropped it, so recycling needs no locks and cannot
//!   change cross-thread behaviour. Worker threads of
//!   [`crate::pool`] get their own (short-lived) arenas.
//! * Buffers are bucketed by exact capacity and handed out cleared
//!   (`len == 0`), so reuse can never leak stale values — every element
//!   the new owner reads was written by the new owner.
//! * The per-thread pool is capped ([`MAX_POOLED_BYTES`]); beyond the
//!   cap, recycled buffers fall through to the allocator as before.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};

/// Upper bound on bytes parked per thread (256 MiB). Steady-state
/// training keeps well under this; the cap only guards pathological
/// shape churn from hoarding memory.
pub const MAX_POOLED_BYTES: usize = 256 << 20;

/// Counters describing pool traffic since the last [`stats_take`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers served by a fresh heap allocation.
    pub fresh_allocs: u64,
    /// Bytes of those fresh allocations.
    pub fresh_bytes: u64,
    /// Buffers served from the pool without touching the allocator.
    pub reused: u64,
    /// Bytes served from the pool.
    pub reused_bytes: u64,
    /// Buffers returned to the pool on drop.
    pub recycled: u64,
    /// Buffers dropped because the pool was at capacity.
    pub dropped: u64,
}

/// Process-wide bytes currently handed out by [`take`] and not yet
/// returned via [`recycle`] — live tensor storage across *all* threads
/// (workers of [`crate::pool`] included), unlike the thread-local
/// counters above.
///
/// The count is approximate by design: buffers that enter a tensor from
/// outside the arena (e.g. [`crate::Tensor::from_vec`] over a caller's
/// `Vec`) are debited on drop without ever having been credited, and
/// buffers extracted with `into_vec` stay credited. Both flows are rare
/// and small on the hot paths this exists to watch (generation and
/// training), so the *high-water delta since a [`reset_high_water`]* is
/// a faithful peak-memory signal even though the absolute value drifts.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Maximum of [`LIVE_BYTES`] since the last [`reset_high_water`].
static HIGH_WATER_BYTES: AtomicI64 = AtomicI64::new(0);

#[inline]
fn note_live(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    HIGH_WATER_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn note_dead(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

/// Process-wide live arena bytes right now (see [`LIVE_BYTES`] for the
/// accounting caveats).
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] observed since the last [`reset_high_water`].
pub fn high_water_bytes() -> i64 {
    HIGH_WATER_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water tracking from the current live level.
/// Returns the live level the mark was reset to, so callers can report
/// the peak *delta* of the region they are about to run.
pub fn reset_high_water() -> i64 {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    HIGH_WATER_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Scoped peak-memory measurement: [`begin`](PeakRegion::begin) resets
/// the high-water mark to the current live level, [`end`](PeakRegion::end)
/// returns the peak *delta* reached inside the region.
///
/// This is how callers should report per-run peaks — reading the raw
/// globals directly leaks state between back-to-back runs in one
/// process (an earlier run's mark pollutes the next report). Regions
/// still share the process-wide counters, so concurrent regions
/// observe each other's traffic; the workspace runs one generation or
/// training region at a time.
#[must_use = "call end() to read the region's peak"]
pub struct PeakRegion {
    base: i64,
}

impl PeakRegion {
    /// Starts a region: resets the high-water mark to the current
    /// live level.
    pub fn begin() -> Self {
        PeakRegion {
            base: reset_high_water(),
        }
    }

    /// Ends the region, returning the peak bytes allocated above the
    /// level at [`begin`](PeakRegion::begin) (clamped at 0: the
    /// approximate accounting can drift slightly negative).
    pub fn end(self) -> u64 {
        (high_water_bytes() - self.base).max(0) as u64
    }
}

struct Arena {
    /// Free buffers bucketed by exact capacity.
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    pooled_bytes: usize,
    stats: ArenaStats,
}

impl Arena {
    fn new() -> Self {
        Arena {
            buckets: HashMap::new(),
            pooled_bytes: 0,
            stats: ArenaStats::default(),
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
}

/// Returns an empty `Vec<f32>` with capacity at least `n`, reusing a
/// pooled buffer of exactly that capacity when one is available.
pub fn take(n: usize) -> Vec<f32> {
    let bytes = (n * 4) as u64;
    let buf = ARENA
        .try_with(|a| {
            let mut a = a.borrow_mut();
            if let Some(bucket) = a.buckets.get_mut(&n) {
                if let Some(buf) = bucket.pop() {
                    a.pooled_bytes -= n * 4;
                    a.stats.reused += 1;
                    a.stats.reused_bytes += bytes;
                    return buf;
                }
            }
            a.stats.fresh_allocs += 1;
            a.stats.fresh_bytes += bytes;
            Vec::with_capacity(n)
        })
        // Thread teardown: the arena TLS is already gone — allocate.
        .unwrap_or_else(|_| Vec::with_capacity(n));
    note_live(buf.capacity() * 4);
    buf
}

/// [`take`] followed by zero-filling to length `n`.
pub fn take_zeroed(n: usize) -> Vec<f32> {
    let mut v = take(n);
    v.resize(n, 0.0);
    v
}

/// [`take`] followed by filling to length `n` with `value`.
pub fn take_filled(n: usize, value: f32) -> Vec<f32> {
    let mut v = take(n);
    v.resize(n, value);
    v
}

/// [`take`] followed by copying `src` into the buffer.
pub fn clone_buf(src: &[f32]) -> Vec<f32> {
    let mut v = take(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a buffer to the pool (called by `Tensor`'s `Drop`). Buffers
/// with zero capacity, or arriving when the pool is at its byte cap,
/// fall through to the allocator.
pub fn recycle(mut buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap == 0 {
        return;
    }
    note_dead(cap * 4);
    let _ = ARENA.try_with(|a| {
        let mut a = a.borrow_mut();
        if a.pooled_bytes + cap * 4 > MAX_POOLED_BYTES {
            a.stats.dropped += 1;
            return;
        }
        buf.clear();
        a.pooled_bytes += cap * 4;
        a.stats.recycled += 1;
        a.buckets.entry(cap).or_default().push(buf);
    });
}

/// Snapshot of this thread's pool counters without resetting them.
pub fn stats_snapshot() -> ArenaStats {
    ARENA.try_with(|a| a.borrow().stats).unwrap_or_default()
}

/// Takes and resets this thread's pool counters (per-step accounting).
pub fn stats_take() -> ArenaStats {
    ARENA
        .try_with(|a| std::mem::take(&mut a.borrow_mut().stats))
        .unwrap_or_default()
}

/// Bytes currently parked in this thread's pool.
pub fn pooled_bytes() -> usize {
    ARENA.try_with(|a| a.borrow().pooled_bytes).unwrap_or(0)
}

/// Drops every pooled buffer on this thread (tests / memory pressure).
pub fn clear() {
    let _ = ARENA.try_with(|a| {
        let mut a = a.borrow_mut();
        a.buckets.clear();
        a.pooled_bytes = 0;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_exact_capacity() {
        clear();
        stats_take();
        let v = take_zeroed(1000);
        assert_eq!(v.len(), 1000);
        let cap = v.capacity();
        recycle(v);
        let w = take(cap);
        assert_eq!(w.capacity(), cap);
        assert!(w.is_empty(), "reused buffers must come back cleared");
        let s = stats_take();
        assert_eq!(s.reused, 1);
        assert_eq!(s.recycled, 1);
    }

    #[test]
    fn mismatched_capacity_allocates_fresh() {
        clear();
        stats_take();
        recycle(take_zeroed(64));
        let _v = take(128);
        let s = stats_take();
        assert_eq!(s.reused, 0);
        assert_eq!(s.fresh_allocs, 2);
    }

    #[test]
    fn zero_capacity_buffers_are_ignored() {
        clear();
        stats_take();
        recycle(Vec::new());
        assert_eq!(stats_take().recycled, 0);
    }

    /// The global live/high-water counters see a large allocation and
    /// its release. Other tests allocate concurrently, so the
    /// assertions are lower bounds around a buffer far bigger than any
    /// unit-test churn.
    #[test]
    fn high_water_tracks_large_allocations() {
        const BIG: usize = 1 << 22; // 16 MiB of f32s
        let before = reset_high_water();
        let buf = take_zeroed(BIG);
        assert!(
            live_bytes() >= before + (BIG * 4) as i64,
            "live bytes did not grow"
        );
        assert!(
            high_water_bytes() >= before + (BIG * 4) as i64,
            "high water missed the allocation"
        );
        recycle(buf);
        assert!(
            live_bytes() < before + (BIG * 4) as i64,
            "release was not debited"
        );
    }
}
