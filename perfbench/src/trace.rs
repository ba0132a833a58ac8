//! In-benchmark span recorder.
//!
//! Spans are recorded around every call the benchmark makes into a
//! Loupe layer: name, start, end, parent span and run id. They are kept
//! in memory and written out as JSON lines when the run ends. A
//! disabled recorder only calls the wrapped closure, so the untraced
//! run pays nothing for the instrumentation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last, and the current run id.
    static STACK: RefCell<(Vec<u64>, String)> = const { RefCell::new((Vec::new(), String::new())) };
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Time spent inside the recorder itself (bookkeeping, not the
    /// wrapped calls): the direct cost of tracing.
    own_ns: AtomicU64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            own_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the run id stamped on spans this thread opens from now on.
    pub fn set_run(&self, run: &str) {
        if self.enabled {
            STACK.with(|s| run.clone_into(&mut s.borrow_mut().1));
        }
    }

    /// The innermost open span of this thread.
    pub fn current(&self) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        STACK.with(|s| s.borrow().0.last().copied())
    }

    /// Runs `f` inside a span named `name`, nested under this thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let entered = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, run) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.0.last().copied();
            s.0.push(id);
            (parent, s.1.clone())
        });
        let start = Instant::now();
        self.own_ns
            .fetch_add(self.ns(start) - self.ns(entered), Ordering::Relaxed);
        let out = f();
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().0.pop());
        self.push(Span {
            id,
            parent,
            run,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.own_ns
            .fetch_add(self.ns(Instant::now()) - self.ns(end), Ordering::Relaxed);
        out
    }

    /// Records an interval timed by the caller (one request of an open
    /// loop, whose start is its due time rather than a call).
    pub fn record(&self, name: &str, parent: Option<u64>, run: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            run: run.to_owned(),
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.own_ns.fetch_add(
            self.ns(Instant::now()) - self.ns(entered),
            Ordering::Relaxed,
        );
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder thread")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder thread")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Milliseconds spent in the recorder's own bookkeeping.
    pub fn own_ms(&self) -> f64 {
        self.own_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total duration in seconds of every span named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Writes `header` and then one JSON object per span (with its self
/// time), then one summary line per span name: count, total and self
/// seconds.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = selfs[&s.id];
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
        writeln!(
            out,
            "{{\"span\":{},\"parent\":{},\"run\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            json_str(&s.run),
            json_str(&s.name),
            s.start_ns,
            s.end_ns,
            own
        )?;
    }
    for (name, (count, total, own)) in by_name {
        writeln!(
            out,
            "{{\"summary\":{},\"count\":{count},\"total_s\":{:.6},\"self_s\":{:.6}}}",
            json_str(name),
            total as f64 / 1e9,
            own as f64 / 1e9
        )?;
    }
    out.flush()
}

/// Quotes `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: String::new(),
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_child_cover() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
            span(5, Some(2), 10, 20),
        ];
        let selfs = self_times(&spans);
        // Children of 1 cover [10,50) and [90,100): 50 ns.
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn nested_spans_record_parents() {
        let rec = Recorder::new(true);
        rec.set_run("r");
        rec.span("outer", || rec.span("inner", || ()));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.run, "r");
    }
}
