//! Hierarchical RAII spans.
//!
//! A [`Span`] opened while another span on the same thread is live
//! becomes its child (parent links come from a thread-local stack).
//! Completed spans are pushed to a global sink; [`drain_events`]
//! takes the sink. Spans cover pipeline sections and, under the
//! [`OP_FWD`] / [`OP_BWD`] categories, every tape op's forward and
//! backward (folded into per-op rows by [`crate::op_table`]). One
//! short uncontended lock per completed span is the enabled-mode cost;
//! the sink push is the *only* point where enabled-mode recording can
//! allocate (amortized `Vec` growth). Completion is synchronous with
//! `Drop`, so once a worker thread has been joined — scoped-pool
//! workers always are — its events are guaranteed visible to the
//! drainer. (A thread-local flush-on-exit buffer would *not* give that
//! guarantee: `std::thread::scope` can observe a worker as finished
//! before its TLS destructors run.)

use crate::enabled;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"forward"`).
    pub name: &'static str,
    /// Category for trace viewers (e.g. `"train"`, `"generate"`).
    pub cat: &'static str,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for roots.
    pub parent: u64,
    /// Small dense thread id assigned by this crate (not the OS tid).
    pub tid: u64,
    /// Start, nanoseconds since [`crate::now_ns`]'s epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Category of a tape op's forward span (named by the op).
pub const OP_FWD: &str = "op.fwd";
/// Category of a tape op's backward span (same name as its forward).
pub const OP_BWD: &str = "op.bwd";

static SINK: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

struct ThreadState {
    tid: u64,
    stack: Vec<u64>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            stack: Vec::with_capacity(16),
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Live span; records a [`SpanEvent`] when dropped.
pub struct Span {
    name: &'static str,
    cat: &'static str,
    id: u64,
    parent: u64,
    tid: u64,
    start_ns: u64,
    start: Instant,
}

impl Span {
    /// Process-unique id of this span (matches the emitted event's).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Opens a span in the default category (`"span"`). Returns `None`
/// when the layer is disabled — the call then costs one relaxed load.
#[inline]
pub fn span(name: &'static str) -> Option<Span> {
    span_cat(name, "span")
}

/// Opens a span with an explicit trace-viewer category.
#[inline]
pub fn span_cat(name: &'static str, cat: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (tid, parent) = TLS
        .try_with(|t| {
            let mut t = t.borrow_mut();
            let parent = t.stack.last().copied().unwrap_or(0);
            t.stack.push(id);
            (t.tid, parent)
        })
        .ok()?;
    Some(Span {
        name,
        cat,
        id,
        parent,
        tid,
        start_ns: crate::now_ns(),
        start: Instant::now(),
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let ev = SpanEvent {
            name: self.name,
            cat: self.cat,
            id: self.id,
            parent: self.parent,
            tid: self.tid,
            start_ns: self.start_ns,
            dur_ns,
        };
        // Spans normally drop in LIFO order; truncating at our id
        // keeps the stack consistent even if a child was leaked.
        let _ = TLS.try_with(|t| {
            let mut t = t.borrow_mut();
            if let Some(pos) = t.stack.iter().rposition(|&x| x == self.id) {
                t.stack.truncate(pos);
            }
        });
        SINK.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    }
}

/// Takes every event recorded so far. Completion is synchronous with
/// span drop, so events from already-joined worker threads are always
/// included; spans still *live* on other threads are not (they have
/// not completed).
pub fn drain_events() -> Vec<SpanEvent> {
    std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Drops every event recorded so far, keeping the sink's capacity: for
/// a long-lived process that keeps the layer on without consuming
/// spans.
pub fn discard_events() {
    SINK.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_records_nothing() {
        let _l = test_lock();
        set_enabled(false);
        drain_events();
        assert!(span("nothing").is_none());
        assert!(drain_events().is_empty());
    }

    #[test]
    fn nesting_links_parents() {
        let _l = test_lock();
        set_enabled(true);
        drain_events();
        {
            let outer = span("outer").unwrap();
            {
                let _inner = span_cat("inner", "test");
            }
            drop(outer);
        }
        set_enabled(false);
        let evs = drain_events();
        assert_eq!(evs.len(), 2);
        // Children drop first, so they precede parents in the sink.
        let inner = evs.iter().find(|e| e.name == "inner").unwrap();
        let outer = evs.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.cat, "test");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn sibling_spans_share_parent() {
        let _l = test_lock();
        set_enabled(true);
        drain_events();
        {
            let _root = span("root");
            let _a = span("a");
        }
        {
            let _b = span("solo");
        }
        set_enabled(false);
        let evs = drain_events();
        let root = evs.iter().find(|e| e.name == "root").unwrap();
        let a = evs.iter().find(|e| e.name == "a").unwrap();
        let solo = evs.iter().find(|e| e.name == "solo").unwrap();
        assert_eq!(a.parent, root.id);
        assert_eq!(solo.parent, 0);
    }

    #[test]
    fn worker_thread_events_visible_after_join() {
        let _l = test_lock();
        set_enabled(true);
        drain_events();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _sp = span("worker_task");
                });
            }
        });
        set_enabled(false);
        let evs = drain_events();
        let workers: Vec<_> = evs.iter().filter(|e| e.name == "worker_task").collect();
        assert_eq!(workers.len(), 2);
        // Distinct threads get distinct tids.
        assert_ne!(workers[0].tid, workers[1].tid);
    }
}
