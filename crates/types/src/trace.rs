//! Per-request tracing: a span tree recorded on the request thread, plus
//! the bounded slow-query ring the serving layer keeps recent traces in.
//!
//! A [`Tracer`] lives for the duration of one request and records
//! *spans* — named, timed intervals with integer/string attributes —
//! into a flat list with parent links ([`RefCell`]-cheap: the request
//! path is single-threaded; parallel workers never touch the tracer, the
//! coordinating thread records operator spans around its `run` calls).
//! [`Tracer::finish`] folds the list into one owned [`TraceSpan`] tree
//! (the implicit `request` root) that the serving layer attaches to the
//! response — an in-process `EXPLAIN ANALYZE`.
//!
//! Tracing is opt-in per request; the disabled path carries only an
//! `Option` check (pinned by the `trace_overhead_max` bench gate).
//!
//! [`SlowLog`] is the retention half: a fixed-capacity ring of
//! `Arc`-shared entries indexed by a monotonically increasing sequence
//! (façade atomics + one short per-slot mutex, so concurrent recorders
//! never contend on a global lock and a reader snapshots without
//! stopping writers).

use std::cell::RefCell;
use std::fmt;
use std::time::{Duration, Instant};

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

/// An attribute value on a [`TraceSpan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceValue {
    Int(i64),
    Str(String),
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::Int(v) => write!(f, "{v}"),
            TraceValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for TraceValue {
    fn from(v: i64) -> TraceValue {
        TraceValue::Int(v)
    }
}

impl From<u64> for TraceValue {
    fn from(v: u64) -> TraceValue {
        TraceValue::Int(v.min(i64::MAX as u64) as i64)
    }
}

impl From<usize> for TraceValue {
    fn from(v: usize) -> TraceValue {
        TraceValue::from(v as u64)
    }
}

impl From<&str> for TraceValue {
    fn from(v: &str) -> TraceValue {
        TraceValue::Str(v.to_string())
    }
}

impl From<String> for TraceValue {
    fn from(v: String) -> TraceValue {
        TraceValue::Str(v)
    }
}

/// One finished span: a named interval (offsets relative to the start of
/// the traced request) with attributes and child spans. Children are
/// fully contained in their parent's interval by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    pub name: String,
    /// Microseconds from the start of the request to this span's start.
    pub start_micros: u64,
    pub duration_micros: u64,
    pub attrs: Vec<(String, TraceValue)>,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// The first direct child named `name`.
    pub fn child(&self, name: &str) -> Option<&TraceSpan> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Every span named `name` in this subtree (preorder, self included).
    pub fn descendants<'a>(&'a self, name: &str) -> Vec<&'a TraceSpan> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(s) = stack.pop() {
            if s.name == name {
                out.push(s);
            }
            for c in s.children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&TraceValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Integer attribute by key.
    pub fn int(&self, key: &str) -> Option<i64> {
        match self.attr(key) {
            Some(TraceValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// String attribute by key.
    pub fn str_attr(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(TraceValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// End offset of the interval, in microseconds from request start.
    pub fn end_micros(&self) -> u64 {
        self.start_micros + self.duration_micros
    }

    /// Whether every child interval nests within its parent, recursively
    /// — the well-formedness property the trace tests pin.
    pub fn is_well_formed(&self) -> bool {
        self.children.iter().all(|c| {
            c.start_micros >= self.start_micros
                && c.end_micros() <= self.end_micros()
                && c.is_well_formed()
        })
    }
}

/// Handle to an open span (see [`Tracer::begin`]); index into the
/// tracer's flat span list.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_micros: u64,
    duration_micros: Option<u64>,
    attrs: Vec<(&'static str, TraceValue)>,
}

struct TraceState {
    spans: Vec<SpanRec>,
    /// Open span indices, innermost last; `begin` parents under the top.
    open: Vec<usize>,
}

/// The per-request span recorder (see the module docs). Deliberately not
/// `Sync` — one request thread records; pass `Option<&Tracer>` down the
/// execution path and skip every call when `None`.
pub struct Tracer {
    t0: Instant,
    state: RefCell<TraceState>,
}

impl Tracer {
    /// Start tracing: opens the implicit `request` root span.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            state: RefCell::new(TraceState {
                spans: vec![SpanRec {
                    name: "request",
                    parent: None,
                    start_micros: 0,
                    duration_micros: None,
                    attrs: Vec::new(),
                }],
                open: vec![0],
            }),
        }
    }

    fn now_micros(&self) -> u64 {
        self.t0.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Open a span under the innermost open span. Close it with
    /// [`Tracer::end`]; spans left open are closed by
    /// [`Tracer::finish`].
    pub fn begin(&self, name: &'static str) -> SpanId {
        let id = self.push(name, self.now_micros(), None);
        self.state.borrow_mut().open.push(id.0);
        id
    }

    /// Append an already-closed span of `duration` starting at `start`
    /// under the innermost open span — work timed off this thread (the
    /// atoms of a morsel-parallel evaluation). The caller keeps it inside
    /// the parent: `start` not before the parent began, `start +
    /// duration` not after now.
    pub fn record(&self, name: &'static str, start: Instant, duration: Duration) -> SpanId {
        let offset = start.saturating_duration_since(self.t0).as_micros() as u64;
        self.push(name, offset, Some(duration.as_micros() as u64))
    }

    fn push(&self, name: &'static str, start_micros: u64, duration_micros: Option<u64>) -> SpanId {
        let mut st = self.state.borrow_mut();
        let parent = st.open.last().copied();
        st.spans.push(SpanRec {
            name,
            parent,
            start_micros,
            duration_micros,
            attrs: Vec::new(),
        });
        SpanId(st.spans.len() - 1)
    }

    /// The innermost open span (the `request` root when none other is).
    pub fn current(&self) -> SpanId {
        SpanId(self.state.borrow().open.last().copied().unwrap_or(0))
    }

    /// Close an open span (idempotent; closing out of order also closes
    /// any span opened after it, keeping intervals properly nested).
    pub fn end(&self, id: SpanId) {
        let now = self.now_micros();
        let mut st = self.state.borrow_mut();
        let Some(pos) = st.open.iter().rposition(|&i| i == id.0) else {
            return; // already closed
        };
        let closing: Vec<usize> = st.open.drain(pos..).collect();
        for i in closing {
            let rec = &mut st.spans[i];
            if rec.duration_micros.is_none() {
                rec.duration_micros = Some(now.saturating_sub(rec.start_micros));
            }
        }
    }

    /// Attach an attribute to a span (open or closed).
    pub fn attr(&self, id: SpanId, key: &'static str, value: impl Into<TraceValue>) {
        self.state.borrow_mut().spans[id.0]
            .attrs
            .push((key, value.into()));
    }

    /// Close everything and fold the records into the `request` span
    /// tree. Children appear in `begin` order.
    pub fn finish(self) -> TraceSpan {
        let now = self.now_micros();
        let mut st = self.state.into_inner();
        for rec in &mut st.spans {
            if rec.duration_micros.is_none() {
                rec.duration_micros = Some(now.saturating_sub(rec.start_micros));
            }
        }
        // Build leaves-last: children have larger indices than their
        // parent (begin() appends), so a reverse sweep can move each
        // node's finished subtree into its parent.
        let n = st.spans.len();
        let mut built: Vec<Option<TraceSpan>> = st
            .spans
            .iter()
            .map(|r| {
                Some(TraceSpan {
                    name: r.name.to_string(),
                    start_micros: r.start_micros,
                    duration_micros: r.duration_micros.unwrap_or(0),
                    attrs: r
                        .attrs
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                    children: Vec::new(),
                })
            })
            .collect();
        for i in (1..n).rev() {
            let parent = st.spans[i].parent.unwrap_or(0);
            let node = built[i].take().expect("unconsumed span");
            built[parent]
                .as_mut()
                .expect("parent precedes child")
                .children
                .push(node);
        }
        let mut root = built[0].take().expect("root span");
        // The reverse sweep pushed children in reverse begin order.
        fn reorder(s: &mut TraceSpan) {
            s.children.reverse();
            for c in &mut s.children {
                reorder(c);
            }
        }
        reorder(&mut root);
        root
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// A bounded ring of the most recent entries, each stamped with a
/// monotonically increasing sequence number (see the module docs). The
/// serving layer keeps one of `SlowQuery` entries; the type is generic
/// so the ring protocol itself is testable (and explorable by
/// `basilisk-check`) without serving machinery.
/// One ring slot: the entry's sequence number plus the entry itself.
type Slot<T> = Mutex<Option<(u64, Arc<T>)>>;

pub struct SlowLog<T> {
    head: AtomicU64,
    slots: Vec<Slot<T>>,
}

impl<T> SlowLog<T> {
    /// A ring keeping the last `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> SlowLog<T> {
        SlowLog {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total entries ever recorded (not the current ring occupancy).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record an entry, overwriting the oldest when full. Returns the
    /// entry's sequence number (0-based).
    pub fn push(&self, value: T) -> u64 {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        // Two writers lapping each other race to one slot; keep the
        // newer entry regardless of arrival order.
        if guard.as_ref().is_none_or(|(s, _)| *s < seq) {
            *guard = Some((seq, Arc::new(value)));
        }
        seq
    }

    /// The current ring contents, newest first.
    pub fn snapshot(&self) -> Vec<(u64, Arc<T>)> {
        let mut out: Vec<(u64, Arc<T>)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        out.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_shape_and_order() {
        let t = Tracer::new();
        let parse = t.begin("parse");
        t.end(parse);
        let exec = t.begin("execute");
        let f = t.begin("filter");
        t.attr(f, "rows_in", 100u64);
        t.attr(f, "rows_out", 40u64);
        t.end(f);
        let j = t.begin("join");
        t.end(j);
        t.end(exec);
        let root = t.finish();
        assert_eq!(root.name, "request");
        assert_eq!(
            root.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["parse", "execute"]
        );
        let exec = root.child("execute").unwrap();
        assert_eq!(
            exec.children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["filter", "join"]
        );
        let filter = exec.child("filter").unwrap();
        assert_eq!(filter.int("rows_in"), Some(100));
        assert_eq!(filter.int("rows_out"), Some(40));
        assert!(root.is_well_formed());
        assert_eq!(root.descendants("filter").len(), 1);
    }

    #[test]
    fn nesting_is_well_formed_under_real_delays() {
        let t = Tracer::new();
        let outer = t.begin("outer");
        std::thread::sleep(std::time::Duration::from_millis(1));
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(inner);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.end(outer);
        let root = t.finish();
        assert!(root.is_well_formed());
        let outer = root.child("outer").unwrap();
        let inner = outer.child("inner").unwrap();
        assert!(inner.start_micros >= outer.start_micros);
        assert!(inner.end_micros() <= outer.end_micros());
        assert!(outer.duration_micros >= inner.duration_micros);
    }

    #[test]
    fn unclosed_and_misnested_spans_are_closed() {
        let t = Tracer::new();
        let a = t.begin("a");
        let b = t.begin("b");
        // Ending the outer span closes the inner one too.
        t.end(a);
        t.end(b); // idempotent no-op
        let leftover = t.begin("leftover");
        let _ = leftover; // left open; finish() closes it
        let root = t.finish();
        assert!(root.is_well_formed());
        let a = root.child("a").unwrap();
        assert!(a.child("b").is_some());
        assert!(root.child("leftover").is_some());
    }

    #[test]
    fn attrs_convert_and_render() {
        let t = Tracer::new();
        let s = t.begin("s");
        t.attr(s, "n", 7i64);
        t.attr(s, "big", u64::MAX);
        t.attr(s, "lane", "tenant-1");
        t.end(s);
        let root = t.finish();
        let s = root.child("s").unwrap();
        assert_eq!(s.int("n"), Some(7));
        assert_eq!(s.int("big"), Some(i64::MAX), "u64 saturates into i64");
        assert_eq!(s.str_attr("lane"), Some("tenant-1"));
        assert_eq!(s.attr("missing"), None);
        assert_eq!(s.attr("lane").unwrap().to_string(), "tenant-1");
        assert_eq!(s.attr("n").unwrap().to_string(), "7");
    }

    #[test]
    fn slow_log_keeps_last_n_newest_first() {
        let log = SlowLog::new(3);
        for i in 0..7u64 {
            assert_eq!(log.push(i), i);
        }
        assert_eq!(log.recorded(), 7);
        assert_eq!(log.capacity(), 3);
        let snap = log.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 5, 4]);
        let values: Vec<u64> = snap.iter().map(|(_, v)| **v).collect();
        assert_eq!(values, vec![6, 5, 4]);
    }

    #[test]
    fn slow_log_concurrent_writers_stay_bounded() {
        let log = Arc::new(SlowLog::new(4));
        let mut handles = Vec::new();
        for w in 0..3u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    log.push(w * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.recorded(), 150);
        let snap = log.snapshot();
        assert!(snap.len() <= 4);
        // Sequence numbers are unique and come back newest first.
        for pair in snap.windows(2) {
            assert!(pair[0].0 > pair[1].0);
        }
    }

    #[test]
    fn slow_log_zero_capacity_clamps() {
        let log = SlowLog::new(0);
        assert_eq!(log.capacity(), 1);
        log.push("only");
        log.push("newer");
        let snap = log.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(*snap[0].1, "newer");
    }
}
