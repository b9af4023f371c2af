//! In-memory span recorder for the traced run.
//!
//! The benchmark times each layer from outside: every call it makes into a
//! layer is wrapped in a span. Spans nest (the benchmark is single
//! threaded), so a span's *self time* is its duration minus the time its
//! child spans cover. A disabled tracer records nothing and costs one
//! branch per call site; end-to-end numbers come from disabled runs only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `pipeline.pump`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Session, client or enclave id the span belongs to.
    pub id: u64,
}

/// Handle of an open span (returned by [`Tracer::begin`]).
#[must_use]
pub struct Open(u32);

/// The recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// What one span name accumulated.
#[derive(Debug, Clone, Default)]
pub struct NameTotals {
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Every span's full duration, ns.
    pub durations_ns: Vec<u64>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            id,
        });
        self.stack.push(idx);
        Open(idx)
    }

    /// Closes a span; spans close in reverse order of opening.
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let t = self.now_ns();
        self.spans[open.0 as usize].end_ns = t;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
    }

    /// Runs `f` inside a leaf span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and durations per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        assert!(self.stack.is_empty(), "every span must be closed");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.self_ns += dur - child;
            t.durations_ns.push(dur);
        }
        out
    }

    /// Tab-separated dump: index, name, start, end, parent, id.
    pub fn dump(&self) -> String {
        let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\tid\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 0);
        t.span("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let totals = t.totals();
        let root = &totals["root"];
        let leaf = &totals["leaf"];
        assert_eq!(root.self_ns + leaf.self_ns, root.durations_ns[0]);
        assert!(leaf.self_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("x", 0);
        t.end(o);
        assert!(t.spans().is_empty());
    }
}
