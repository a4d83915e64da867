//! The harness's own span recorder.
//!
//! The traced run wraps every call the harness makes into a layer's
//! public function in a span: name (`<layer>.<function>`), start, end,
//! the span that caused it, and the dump/step or query it belongs to.
//! Spans are kept in memory and written out when the run ends. Nothing
//! here reads the program's own `obs` span table and nothing is added
//! inside `crates/` — tracing inside the program is a later change.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{json, Value};

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Dump/step index or query index the span belongs to.
    pub op: u64,
    pub thread: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn open(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(NO_PARENT);
            o.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            op,
            start: Instant::now(),
        }
    }

    /// Spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span panics mid-push").clone()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("no span panics mid-push").len()
    }

    /// The trace as JSON: one object per span, times in microseconds
    /// from the tracer's creation.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans()
            .into_iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": if s.parent == NO_PARENT { Value::Null } else { json!(s.parent) },
                    "name": s.name,
                    "op": s.op,
                    "thread": s.thread,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3
                })
            })
            .collect();
        json!({"workload": workload, "spans": Value::Array(spans)})
    }

    /// Self time per span name: a span's duration minus the part of it
    /// its child spans cover. Returns `(name, calls, total_ns, self_ns)`
    /// sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let spans = self.spans();
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in &spans {
            if s.parent != NO_PARENT {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = std::collections::BTreeMap::<&'static str, (u64, u64, u64)>::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }
}

pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: u32,
    name: &'static str,
    op: u64,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            op: self.op,
            thread: std::thread::current().name().unwrap_or("?").to_string(),
            start_ns: (self.start - self.tracer.epoch).as_nanos() as u64,
            end_ns: (end - self.tracer.epoch).as_nanos() as u64,
        };
        // A poisoned lock means another span's push panicked; dropping
        // this span silently is the only safe thing a destructor can do.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Open a span when tracing is on; a no-op (`None`) when it is off, so
/// the untraced run pays one branch per call site.
pub fn span<'t>(tracer: Option<&'t Tracer>, name: &'static str, op: u64) -> Option<SpanGuard<'t>> {
    tracer.map(|t| t.open(name, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::default();
        {
            let _outer = span(Some(&t), "outer", 7);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(Some(&t), "inner", 7);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NO_PARENT);
        assert_eq!((inner.op, outer.op), (7, 7));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let st = t.self_times();
        let (_, _, outer_total, outer_self) = st.iter().find(|s| s.0 == "outer").unwrap();
        assert_eq!(*outer_self, outer_total - (inner.end_ns - inner.start_ns));
        assert!(span(None, "off", 0).is_none());
    }

    #[test]
    fn trace_json_has_one_object_per_span() {
        let t = Tracer::default();
        drop(span(Some(&t), "a.b", 1));
        let v = t.to_json("w");
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("a.b"));
        assert!(spans[0].get("parent").unwrap() == &Value::Null);
        serde_json::from_str(&v.to_string()).expect("valid JSON");
    }
}
