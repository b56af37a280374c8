//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. Spans stay in memory until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
struct Span {
    /// Layer metric stem, e.g. `relalg.generate`.
    name: &'static str,
    /// Nanoseconds since the tracer started.
    start: u64,
    /// Nanoseconds since the tracer started.
    end: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    parent: Option<usize>,
    /// The op this span belongs to.
    op: usize,
}

/// Records spans when enabled; a disabled tracer only calls through.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

/// The root span name of every op.
pub const OP: &str = "op";

impl Tracer {
    /// A tracer; `on = false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start or stop recording (between ops).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` as op `op`, inside a root span when recording.
    pub fn op<T>(&mut self, op: usize, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op = op;
        self.span(OP, f)
    }

    /// Run `f` inside a span named `name` (a child of the open span).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Self time per span name for op `op`, in nanoseconds: each span's
    /// duration minus the time its children cover. The root span's
    /// self time is filed under [`OP`], the op time no layer covers.
    /// Returns the op's total duration alongside.
    pub fn self_times(&self, op: usize) -> (u64, BTreeMap<&'static str, u64>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut total = 0;
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            let dur = s.end - s.start;
            if s.parent.is_none() {
                total += dur;
            }
            *out.entry(s.name).or_insert(0) += dur - child_ns[i];
        }
        (total, out)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use ccsql_obs::json::JsonObj;
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut o = JsonObj::new()
                .u64("id", i as u64)
                .str("name", s.name)
                .u64("op", s.op as u64)
                .u64("start_ns", s.start)
                .u64("end_ns", s.end);
            o = match s.parent {
                Some(p) => o.u64("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            text.push_str(&o.finish());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_op() {
        let mut tr = Tracer::new(true);
        tr.op(3, |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            tr.span("b", |_| ());
        });
        let (total, selfs) = tr.self_times(3);
        assert_eq!(selfs.values().sum::<u64>(), total);
        assert!(selfs["b"] >= 2_000_000);
        assert_eq!(tr.self_times(4).0, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.op(0, |tr| tr.span("a", |_| 7)), 7);
        assert!(tr.spans.is_empty());
    }
}
