//! In-memory span recorder for the traced run.
//!
//! The harness opens a span around each of its own calls into a layer
//! (`calib`, `study`, `sim`, …); nothing inside the program is instrumented.
//! Spans stay in memory until the run ends and are then written as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto). A layer's *self time* is
//! its span's duration minus the part of that interval its child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a top-level span).
    pub parent: Option<u32>,
    /// The layer (crate) the spanned call went into.
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u32,
    parent: Option<u32>,
    layer: &'static str,
    start_ns: u64,
}

/// Thread-safe span store. A disabled recorder (the untraced run) hands
/// out ids but stores nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&self, layer: &'static str, parent: Option<u32>) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, layer, start_ns: self.now_ns() }
    }

    /// Close `open` now under `name`; returns its duration in seconds.
    pub fn close(&self, open: Open, name: impl Into<String>) -> f64 {
        let end_ns = self.now_ns();
        if self.enabled {
            let span = Span {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                name: name.into(),
                start_ns: open.start_ns,
                end_ns,
                tid: TID.with(|t| *t),
            };
            self.spans.lock().expect("no span writer panics while holding the lock").push(span);
        }
        (end_ns - open.start_ns) as f64 / 1e9
    }

    /// Time `f` under a span; returns its result and duration in seconds.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<u32>,
        f: impl FnOnce(u32) -> T,
    ) -> (T, f64) {
        let open = self.open(layer, parent);
        let out = f(open.id);
        (out, self.close(open, name))
    }

    /// All spans recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics while holding the lock").clone()
    }
}

/// Self time of every span, in nanoseconds, keyed by span id: duration
/// minus the union of its children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Sweep the sorted intervals, counting each instant once.
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Chrome trace-event JSON for `spans`: one complete (`"ph":"X"`) event per
/// span, timestamps in microseconds, the layer as category, and the span
/// and parent ids under `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let name = crate::json::Json::str(s.name.as_str()).to_line();
        write!(
            out,
            "{{\"name\": {name}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tid,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        )
        .expect("writing to a String");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, layer: "sim", name: format!("s{id}"), start_ns, end_ns, tid: 1 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 40, 60),
            // Grandchild: counts against span 3 only.
            span(4, Some(3), 45, 50),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 60);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 15);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn self_time_handles_overlapping_and_overhanging_children() {
        // Children from parallel workers overlap each other, and one runs
        // past the parent's end: each covered instant counts once, and only
        // inside the parent.
        let spans = vec![
            span(1, None, 100, 200),
            span(2, Some(1), 110, 150),
            span(3, Some(1), 130, 170),
            span(4, Some(1), 190, 250),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - (170 - 110) - (200 - 190));
    }

    #[test]
    fn recorder_stores_only_when_enabled() {
        let off = Recorder::new(false);
        let (v, secs) = off.time("sim", "x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let on = Recorder::new(true);
        let ((), _) = on.time("calib", "outer", None, |outer| {
            on.time("study", "inner", Some(outer), |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        // Children close first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut spans = vec![span(1, None, 1_000, 5_500), span(2, Some(1), 2_000, 3_000)];
        spans[1].name = "quote\"d".into();
        let doc = crate::json::Json::parse(&chrome_trace(&spans)).unwrap();
        let events = doc.get("traceEvents").unwrap().elements();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("dur").unwrap().as_f64(), Some(4.5));
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("quote\"d"));
        assert_eq!(events[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(1.0));
    }
}
