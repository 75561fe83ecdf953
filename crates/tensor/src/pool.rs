//! Deterministic data-parallel compute pool.
//!
//! Every parallel routine in the workspace funnels through this module,
//! and all of them share one contract: **the result is bit-identical to
//! the serial execution, at any thread count**. That holds because work
//! is split into *indexed* tasks whose outputs go to disjoint,
//! index-addressed destinations — which thread happens to execute task
//! `i` never changes what task `i` computes or where it writes. Only
//! wall-clock time depends on the thread count.
//!
//! Scheduling is self-balancing: workers claim task indices from a
//! shared atomic counter, so a slow tile does not stall the rest of the
//! batch. Threads are scoped ([`std::thread::scope`]), so borrowed
//! inputs need no `'static` gymnastics and panics propagate to the
//! caller.
//!
//! The worker count comes from, in priority order:
//! 1. [`set_threads`] (programmatic override, used by tests to compare
//!    thread counts in-process),
//! 2. the `SPECTRAGAN_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! At one thread every routine degrades to a plain serial loop on the
//! calling thread — no pool, no atomics, no unsafe.

use spectragan_obs as obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Cached `&'static` metric handles so hot paths pay no registry
/// lookup. All recording self-gates on [`obs::enabled`]; when the
/// observability layer is off each parallel routine costs one extra
/// relaxed atomic load per *call* (not per task).
struct PoolMetrics {
    /// Tasks executed across all parallel routines.
    tasks: &'static obs::Counter,
    /// Per-task `produce` duration in [`par_fold_ordered`].
    task_ns: &'static obs::Histogram,
    /// Worker time from arrival to claiming an index (lock + window
    /// gate) in [`par_fold_ordered`].
    space_wait_ns: &'static obs::Histogram,
    /// Consumer time waiting for the next in-order output in
    /// [`par_fold_ordered`].
    fold_wait_ns: &'static obs::Histogram,
}

fn metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        tasks: obs::counter("spectragan_pool_tasks_total"),
        task_ns: obs::histogram("spectragan_pool_task_ns"),
        space_wait_ns: obs::histogram("spectragan_pool_space_wait_ns"),
        fold_wait_ns: obs::histogram("spectragan_pool_fold_wait_ns"),
    })
}

/// The `SPECTRAGAN_THREADS` knob, sharing the override/env/default
/// resolution contract of [`crate::envctl`].
static THREADS: crate::envctl::EnvCtl = crate::envctl::EnvCtl::new("SPECTRAGAN_THREADS");

/// Overrides the worker count for subsequent parallel calls.
/// `Some(n)` forces `n` workers (`n >= 1`); `None` restores the
/// environment/default resolution.
///
/// Results never depend on this setting — it exists so tests and
/// benchmarks can sweep thread counts within one process.
pub fn set_threads(n: Option<usize>) {
    if let Some(n) = n {
        assert!(n >= 1, "thread count must be at least 1");
    }
    THREADS.set(n);
}

/// The worker count parallel routines will use right now: the
/// [`set_threads`] override, else `SPECTRAGAN_THREADS`, else
/// [`std::thread::available_parallelism`]. The environment/default
/// resolution is cached on first use (see [`crate::envctl`]).
pub fn threads() -> usize {
    THREADS.get(crate::envctl::parse_count, || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f(0..n_tasks)` across the pool and returns the results in
/// task-index order, exactly as the serial `(0..n_tasks).map(f)` would.
///
/// `f` must be safe to call concurrently; each index is claimed by
/// exactly one worker.
pub fn par_map<R, F>(n_tasks: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    if obs::enabled() {
        metrics().tasks.inc(n_tasks as u64);
    }
    let workers = threads().min(n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(f).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..n_tasks).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let _ = slots[i].set(f(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("each task index is claimed exactly once")
        })
        .collect()
}

/// Multiply-add count below which [`par_chunks_mut_macs`] runs on the
/// calling thread. Every pool call spawns fresh scoped threads: 40 µs
/// for one and 58 µs for two on a 2-vCPU VM. The vectorized kernels do
/// 2^20 multiply-adds in roughly 0.3–1 ms on one core there, and two
/// threads finish such a call only 1.3–1.5× sooner, so a smaller call
/// loses more to the spawn than it gains from the second core.
pub const MIN_PARALLEL_MACS: usize = 1 << 20;

/// Splits `data` into `data.len() / chunk_len` consecutive tiles and
/// runs `f(tile_index, tile)` across the pool. Tiles are disjoint and
/// index-addressed, so the final contents of `data` are independent of
/// the thread count.
///
/// # Panics
/// Panics if `chunk_len` is zero or does not divide `data.len()`.
pub fn par_chunks_mut<F>(data: &mut [f32], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    chunks_mut_on(data, chunk_len, threads(), f);
}

/// [`par_chunks_mut`] for a kernel that does `macs` multiply-adds in
/// total: below [`MIN_PARALLEL_MACS`] the tiles run in index order on
/// the calling thread — the one-thread path, so results are the same
/// bits either way.
pub fn par_chunks_mut_macs<F>(data: &mut [f32], chunk_len: usize, macs: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let workers = if macs < MIN_PARALLEL_MACS {
        1
    } else {
        threads()
    };
    chunks_mut_on(data, chunk_len, workers, f);
}

/// The body of [`par_chunks_mut`] with at most `workers` threads.
fn chunks_mut_on<F>(data: &mut [f32], chunk_len: usize, workers: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    assert_eq!(
        data.len() % chunk_len,
        0,
        "chunk_len must divide the buffer length"
    );
    let n_chunks = data.len() / chunk_len;
    if obs::enabled() {
        metrics().tasks.inc(n_chunks as u64);
    }
    let workers = workers.min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let base = &base;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    // SAFETY: tile i covers i*chunk_len..(i+1)*chunk_len,
                    // within bounds by construction; the atomic counter
                    // hands each index to exactly one worker, so tiles
                    // never alias, and the scope keeps `data` borrowed
                    // for the whole run.
                    let tile = unsafe {
                        std::slice::from_raw_parts_mut(base.0.add(i * chunk_len), chunk_len)
                    };
                    f(i, tile);
                }
            });
        }
    });
}

/// A raw pointer blessed for cross-thread use; sound because
/// [`par_chunks_mut`] derives only disjoint slices from it.
struct SendPtr(*mut f32);

unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Shared state of [`par_fold_ordered`]: a ring of `window` slots plus
/// the claim/fold frontiers, all under one mutex.
struct FoldState<T> {
    /// Slot `i % window` holds task `i`'s output between production and
    /// consumption. The claim gate guarantees a slot is vacated before
    /// the index `window` later can be claimed, so slots never collide.
    slots: Vec<Option<T>>,
    /// Next unclaimed task index (monotonic).
    next: usize,
    /// Number of outputs the consumer has taken from the ring; tasks
    /// `0..folded` are done from the ring's point of view.
    folded: usize,
    /// Set when a worker or the consumer panicked, so every other
    /// participant wakes up and bails instead of waiting forever.
    poisoned: bool,
}

/// Wakes everyone and marks the run poisoned if dropped while armed —
/// i.e. during a panic unwind in `produce` or `fold`. Turns would-be
/// deadlocks (peers waiting on a slot that will never fill, or on
/// window space that will never free) into a clean scope join that
/// propagates the original panic.
struct PoisonGuard<'a, T> {
    state: &'a Mutex<FoldState<T>>,
    space: &'a Condvar,
    ready: &'a Condvar,
    armed: bool,
}

impl<T> Drop for PoisonGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            // The std mutex may itself be poisoned mid-unwind; the
            // state is still coherent (no lock is held across user
            // callbacks), so recover the guard and proceed.
            let mut s = self
                .state
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            s.poisoned = true;
            drop(s);
            self.space.notify_all();
            self.ready.notify_all();
        }
    }
}

/// Runs `produce(i)` for `i in 0..n_tasks` across the pool and folds
/// every output **in task-index order on the calling thread** —
/// semantically identical to `for i in 0..n_tasks { fold(i, produce(i)) }`
/// at any thread count, including the order in which `fold` observes
/// results. Use it when the reduction is order-sensitive (bit-exact
/// accumulation) and outputs are too large to buffer all at once.
///
/// `window` bounds the number of tasks past the fold frontier that may
/// be *claimed* at any moment: a worker does not start task `i` until
/// `i < folded + window`. At most `window` outputs therefore exist
/// simultaneously (in flight or parked in the ring), independent of
/// `n_tasks` — that is the memory bound streaming callers rely on.
/// Workers block for space and the consumer blocks for the next
/// in-order output (classic bounded-buffer backpressure); a panic in
/// `produce` or `fold` wakes all parties and propagates instead of
/// deadlocking.
///
/// With one worker (or `window == 1`, which serializes anyway) this is
/// exactly the plain serial loop.
///
/// # Panics
/// Panics if `window` is zero.
pub fn par_fold_ordered<T, P, F>(n_tasks: usize, window: usize, produce: P, mut fold: F)
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    F: FnMut(usize, T),
{
    assert!(window >= 1, "window must be at least 1");
    if obs::enabled() {
        metrics().tasks.inc(n_tasks as u64);
    }
    let workers = threads().min(n_tasks).min(window);
    if workers <= 1 {
        for i in 0..n_tasks {
            fold(i, produce(i));
        }
        return;
    }

    let state: Mutex<FoldState<T>> = Mutex::new(FoldState {
        slots: (0..window).map(|_| None).collect(),
        next: 0,
        folded: 0,
        poisoned: false,
    });
    let space = Condvar::new();
    let ready = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Claim the next index once it is inside the window.
                let t_claim = obs::enabled().then(Instant::now);
                let i = {
                    let mut s = state.lock().unwrap();
                    loop {
                        if s.poisoned || s.next >= n_tasks {
                            return;
                        }
                        if s.next < s.folded + window {
                            break;
                        }
                        s = space.wait(s).unwrap();
                    }
                    let i = s.next;
                    s.next += 1;
                    i
                };
                if let Some(t0) = t_claim {
                    metrics()
                        .space_wait_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
                let mut guard = PoisonGuard {
                    state: &state,
                    space: &space,
                    ready: &ready,
                    armed: true,
                };
                let t_task = obs::enabled().then(Instant::now);
                let out = produce(i);
                if let Some(t0) = t_task {
                    metrics().task_ns.record(t0.elapsed().as_nanos() as u64);
                }
                guard.armed = false;
                {
                    let mut s = state.lock().unwrap();
                    debug_assert!(
                        s.slots[i % window].is_none(),
                        "window gate must vacate a slot before reuse"
                    );
                    s.slots[i % window] = Some(out);
                }
                ready.notify_one();
            });
        }

        // Consumer: the calling thread folds in index order.
        for i in 0..n_tasks {
            let t_wait = obs::enabled().then(Instant::now);
            let item = {
                let mut s = state.lock().unwrap();
                loop {
                    if s.poisoned {
                        break None;
                    }
                    if let Some(v) = s.slots[i % window].take() {
                        s.folded = i + 1;
                        break Some(v);
                    }
                    s = ready.wait(s).unwrap();
                }
            };
            if let Some(t0) = t_wait {
                metrics()
                    .fold_wait_ns
                    .record(t0.elapsed().as_nanos() as u64);
            }
            let Some(item) = item else {
                // A worker panicked; exit so the scope joins and
                // propagates its panic.
                break;
            };
            space.notify_all();
            let mut guard = PoisonGuard {
                state: &state,
                space: &space,
                ready: &ready,
                armed: true,
            };
            fold(i, item);
            guard.armed = false;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that touch the global override.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn par_map_preserves_index_order() {
        let _g = LOCK.lock().unwrap();
        for t in [1, 2, 3, 8] {
            set_threads(Some(t));
            let got = par_map(17, |i| i * i);
            assert_eq!(
                got,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={t}"
            );
        }
        set_threads(None);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(1, |i| i + 5), vec![5]);
        set_threads(None);
    }

    #[test]
    fn par_chunks_mut_matches_serial_at_any_thread_count() {
        let _g = LOCK.lock().unwrap();
        let fill = |i: usize, chunk: &mut [f32]| {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (i * 100 + j) as f32;
            }
        };
        set_threads(Some(1));
        let mut serial = vec![0.0f32; 60];
        par_chunks_mut(&mut serial, 5, fill);
        for t in [2, 4, 7] {
            set_threads(Some(t));
            let mut parallel = vec![0.0f32; 60];
            par_chunks_mut(&mut parallel, 5, fill);
            assert_eq!(parallel, serial, "threads={t}");
            // Both sides of the serial cutoff.
            for macs in [0, MIN_PARALLEL_MACS] {
                let mut sized = vec![0.0f32; 60];
                par_chunks_mut_macs(&mut sized, 5, macs, fill);
                assert_eq!(sized, serial, "threads={t} macs={macs}");
            }
        }
        set_threads(None);
    }

    #[test]
    fn override_beats_environment() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "chunk_len must divide")]
    fn ragged_chunks_are_rejected() {
        let mut data = vec![0.0f32; 10];
        par_chunks_mut(&mut data, 3, |_, _| {});
    }

    #[test]
    fn fold_ordered_matches_serial_loop() {
        let _g = LOCK.lock().unwrap();
        let serial: Vec<(usize, u64)> = (0..37).map(|i| (i, (i * i) as u64)).collect();
        for t in [1, 2, 3, 8] {
            set_threads(Some(t));
            for window in [1, 2, 4, 64] {
                let mut got = Vec::new();
                par_fold_ordered(37, window, |i| (i * i) as u64, |i, v| got.push((i, v)));
                assert_eq!(got, serial, "threads={t} window={window}");
            }
        }
        set_threads(None);
    }

    #[test]
    fn fold_ordered_handles_empty_and_single() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let mut seen = Vec::new();
        par_fold_ordered(0, 4, |i| i, |i, v| seen.push((i, v)));
        assert!(seen.is_empty());
        par_fold_ordered(1, 4, |i| i + 9, |i, v| seen.push((i, v)));
        assert_eq!(seen, vec![(0, 9)]);
        set_threads(None);
    }

    /// The claim gate keeps produced-but-unconsumed outputs bounded by
    /// the window. Outstanding is counted from `produce` entry to
    /// `fold` entry; the consumer may have taken one item out of the
    /// ring before its `fold` call decrements, hence the `+ 1`.
    #[test]
    fn fold_ordered_bounds_outstanding_outputs() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(8));
        let window = 3;
        let outstanding = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        par_fold_ordered(
            64,
            window,
            |i| {
                let now = outstanding.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                // Give other workers a chance to pile up against the gate.
                std::thread::yield_now();
                vec![i as f32; 256]
            },
            |_, buf| {
                outstanding.fetch_sub(1, Ordering::SeqCst);
                assert_eq!(buf.len(), 256);
            },
        );
        set_threads(None);
        assert!(
            peak.load(Ordering::SeqCst) <= window + 1,
            "window gate leaked: peak {} > {}",
            peak.load(Ordering::SeqCst),
            window + 1
        );
    }

    #[test]
    fn fold_ordered_worker_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_fold_ordered(
                32,
                4,
                |i| {
                    if i == 5 {
                        panic!("produce failed");
                    }
                    i
                },
                |_, _| {},
            );
        }));
        set_threads(None);
        assert!(r.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn fold_ordered_consumer_panic_propagates() {
        let _g = LOCK.lock().unwrap();
        set_threads(Some(4));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_fold_ordered(
                32,
                4,
                |i| i,
                |i, _| {
                    if i == 3 {
                        panic!("fold failed");
                    }
                },
            );
        }));
        set_threads(None);
        assert!(r.is_err(), "consumer panic must reach the caller");
    }
}
