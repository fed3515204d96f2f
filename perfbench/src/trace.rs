//! Span tracing from outside the program: a decorator around a queue
//! that times every public call it forwards.
//!
//! Every call is timed and its allocator calls counted (two clock reads
//! and two thread-local reads), and the totals are exact. One call in
//! `2^SAMPLE_SHIFT` per thread is also kept as a span — name, start,
//! end, parent and the item's sequence number — in that thread's
//! bounded in-memory buffer, so a long run cannot grow memory without
//! limit. [`Tracer::write_json`] writes the spans out when the run ends.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pq_traits::ConcurrentPriorityQueue;

use crate::alloc;

/// Keep one call in `2^SAMPLE_SHIFT` per thread as a span.
pub const SAMPLE_SHIFT: u32 = 4;
/// Spans kept per thread at most.
pub const SPANS_PER_THREAD: usize = 1 << 15;
const SLOTS: usize = 64;

/// The public call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Insert = 0,
    Extract = 1,
}

impl Call {
    fn name(self) -> &'static str {
        match self {
            Call::Insert => "queue.insert",
            Call::Extract => "queue.extract",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The item's sequence number, when the queue's values carry one.
    pub seq: Option<u64>,
}

/// Exact per-thread totals for one kind of call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTotals {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    /// Extractions that returned `None`.
    pub empty: u64,
}

#[derive(Default)]
struct ThreadLog {
    totals: [CallTotals; 2],
    spans: Vec<Span>,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn thread_index() -> usize {
    THREAD.with(|t| {
        if t.get() == usize::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Span store shared by every thread of one traced run.
pub struct Tracer {
    epoch: Instant,
    slots: Box<[Mutex<ThreadLog>]>,
    /// Parent span of the queue calls recorded from now on.
    parent: AtomicU64,
    next_root: AtomicU64,
    roots: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            slots: (0..SLOTS).map(|_| Mutex::default()).collect(),
            parent: AtomicU64::new(0),
            next_root: AtomicU64::new(1),
            roots: Mutex::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a root span named `name`; queue calls made while it
    /// runs, on any thread, record it as their parent. Returns `f`'s
    /// result and the span's duration in nanoseconds.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.next_root.fetch_add(1, Ordering::Relaxed);
        let prev = self.parent.swap(id, Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.parent.store(prev, Ordering::SeqCst);
        self.roots.lock().expect("tracer lock poisoned").push(Span {
            id,
            parent: prev,
            name,
            thread: thread_index(),
            start_ns,
            end_ns,
            seq: None,
        });
        (out, end_ns - start_ns)
    }

    /// Time `f` as one `call`; `inspect` gives the result's sequence
    /// number and whether it was an empty extraction.
    fn record<R>(
        &self,
        call: Call,
        f: impl FnOnce() -> R,
        inspect: impl FnOnce(&R) -> (Option<u64>, bool),
    ) -> R {
        let thread = thread_index();
        let a0 = alloc::thread_calls();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs = alloc::thread_calls() - a0;
        let (seq, empty) = inspect(&out);
        let mut log = self.slots[thread % SLOTS]
            .lock()
            .expect("tracer lock poisoned");
        let t = &mut log.totals[call as usize];
        let nth = t.calls;
        t.calls += 1;
        t.ns += end_ns - start_ns;
        t.allocs += allocs;
        t.empty += u64::from(empty);
        if nth & ((1 << SAMPLE_SHIFT) - 1) == 0 && log.spans.len() < SPANS_PER_THREAD {
            // Ids: thread in the high bits, per-thread index below, so
            // they never collide with root ids (small integers).
            let id = ((thread as u64 + 1) << 40) | log.spans.len() as u64;
            log.spans.push(Span {
                id,
                parent: self.parent.load(Ordering::Relaxed),
                name: call.name(),
                thread,
                start_ns,
                end_ns,
                seq,
            });
        }
        drop(log);
        out
    }

    /// Totals summed over threads.
    pub fn totals(&self, call: Call) -> CallTotals {
        let mut sum = CallTotals::default();
        for slot in self.slots.iter() {
            let t = slot.lock().expect("tracer lock poisoned").totals[call as usize];
            sum.calls += t.calls;
            sum.ns += t.ns;
            sum.allocs += t.allocs;
            sum.empty += t.empty;
        }
        sum
    }

    /// Durations (ns) of the sampled spans of one kind, ascending.
    pub fn sampled_ns(&self, call: Call) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .slots
            .iter()
            .flat_map(|s| {
                let log = s.lock().expect("tracer lock poisoned");
                log.spans
                    .iter()
                    .filter(|sp| sp.name == call.name())
                    .map(|sp| sp.end_ns - sp.start_ns)
                    .collect::<Vec<_>>()
            })
            .collect();
        v.sort_unstable();
        v
    }

    /// Every recorded span: roots first, then each thread's sample.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = self.roots.lock().expect("tracer lock poisoned").clone();
        for s in self.slots.iter() {
            out.extend(
                s.lock()
                    .expect("tracer lock poisoned")
                    .spans
                    .iter()
                    .cloned(),
            );
        }
        out
    }

    /// Write every span as JSON to `path`.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut s = String::new();
        write!(
            s,
            "{{\"workload\": \"{workload}\", \"sample_shift\": {SAMPLE_SHIFT}, \"spans\": ["
        )
        .expect("write to String");
        for (i, sp) in self.spans().iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            write!(
                s,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"seq\": {}}}",
                sp.id,
                sp.parent,
                sp.name,
                sp.thread,
                sp.start_ns,
                sp.end_ns,
                sp.seq.map_or("null".to_string(), |q| q.to_string())
            )
            .expect("write to String");
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// A queue decorator that records every call through a [`Tracer`].
///
/// With `values_are_seq`, the value carried by each element is its
/// sequence number, and both its insert span and its extract span record
/// it.
pub struct Traced<'a, Q> {
    pub inner: &'a Q,
    pub tracer: &'a Tracer,
    pub values_are_seq: bool,
}

impl<'a, Q> Traced<'a, Q> {
    pub fn new(inner: &'a Q, tracer: &'a Tracer, values_are_seq: bool) -> Self {
        Self {
            inner,
            tracer,
            values_are_seq,
        }
    }

    /// Trace an extraction made by `f`, e.g. a blocking extract that the
    /// queue trait does not name.
    pub fn extract_with<V: Copy + Into<u64>>(
        &self,
        f: impl FnOnce(&Q) -> Option<(u64, V)>,
    ) -> Option<(u64, V)> {
        let seq = self.values_are_seq;
        self.tracer.record(
            Call::Extract,
            || f(self.inner),
            |r| (r.filter(|_| seq).map(|(_, v)| v.into()), r.is_none()),
        )
    }
}

impl<V, Q> ConcurrentPriorityQueue<V> for Traced<'_, Q>
where
    V: Copy + Into<u64> + Send,
    Q: ConcurrentPriorityQueue<V> + Sync,
{
    fn insert(&self, prio: u64, value: V) {
        let seq = self.values_are_seq.then(|| value.into());
        self.tracer.record(
            Call::Insert,
            || self.inner.insert(prio, value),
            |_| (seq, false),
        );
    }

    fn extract_max(&self) -> Option<(u64, V)> {
        self.extract_with(|q| q.extract_max())
    }

    fn name(&self) -> String {
        format!("traced-{}", self.inner.name())
    }

    fn len_hint(&self) -> usize {
        self.inner.len_hint()
    }

    fn flush(&self) {
        self.inner.flush()
    }

    fn metrics(&self) -> Option<obs::Snapshot> {
        self.inner.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmsq::Zmsq;

    #[test]
    fn records_totals_and_sampled_spans_with_parent() {
        let q: Zmsq<u64> = Zmsq::new();
        let tracer = Tracer::new();
        let traced = Traced::new(&q, &tracer, true);
        let (_, dur) = tracer.root("phase", || {
            for i in 0..100u64 {
                traced.insert(i, i);
            }
            for _ in 0..101 {
                traced.extract_max();
            }
        });
        assert!(dur > 0);
        let ins = tracer.totals(Call::Insert);
        let ext = tracer.totals(Call::Extract);
        assert_eq!((ins.calls, ext.calls, ext.empty), (100, 101, 1));
        let spans = tracer.spans();
        let root = spans.iter().find(|s| s.name == "phase").expect("root span");
        let inserts: Vec<_> = spans.iter().filter(|s| s.name == "queue.insert").collect();
        // Calls 0, 16, 32, ... of this thread are sampled.
        assert_eq!(inserts.len(), 100usize.div_ceil(1 << SAMPLE_SHIFT));
        assert!(inserts.iter().all(|s| s.parent == root.id));
        assert_eq!(inserts[1].seq, Some(16));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
