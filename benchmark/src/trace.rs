//! In-memory spans recorded by the harness around each call into a layer.
//!
//! Spans live in a `Vec` until the run ends and are then written to
//! `benchmark/out/trace-<workload>.json`. With the tracer off every call
//! here is a branch and nothing else, which is how the end-to-end metrics
//! are measured; the traced run's extra wall time over the untraced one is
//! reported as `harness.trace_overhead_ratio`.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The block, cycle, round or slot the span belongs to.
    pub step: u64,
    /// Units of work done inside the span (ops, reads, events …).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when tracing is off.
#[must_use]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `step`.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whichever span is currently open.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
            count: 0,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes `open`, recording `count` units of work.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a harness bug).
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).count() as u64
    }

    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    /// Summed self time of every span called `name`, in milliseconds: a
    /// span's duration minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        // One pass over the children instead of one per span: workloads
        // record tens of thousands of spans.
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| s.duration_ns().saturating_sub(children))
            .sum::<u64>() as f64
            / 1e6
    }

    /// Summed duration of the spans that have no parent, in milliseconds —
    /// the numerator of `harness.span_cover`.
    pub fn top_level_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Writes every span, one per line, as
    /// `{name, start_ns, end_ns, parent, workload, step, count}`.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the directory or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let row = Json::obj([
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("workload", Json::str(workload)),
                ("step", Json::Num(span.step as f64)),
                ("count", Json::Num(span.count as f64)),
            ]);
            out.push_str(&row.encode());
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set timestamps: `(name, start, end, parent)`.
    fn fixed(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut tracer = Tracer::new(true);
        for &(name, start_ns, end_ns, parent) in spans {
            tracer.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                step: 0,
                count: 1,
            });
        }
        tracer
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let t = fixed(&[
            ("sync.full", 0, 1_000, None),
            ("snapshot.restore", 100, 400, Some(0)),
            ("engine.replay_from", 400, 900, Some(0)),
            ("engine.apply", 450, 600, Some(2)),
            ("gen", 1_000, 1_200, None),
        ]);
        assert_eq!(t.self_ms("sync.full"), 200.0 / 1e6, "1000 - (300 + 500)");
        assert_eq!(
            t.self_ms("engine.replay_from"),
            350.0 / 1e6,
            "grandchildren count against their parent only"
        );
        assert_eq!(t.self_ms("snapshot.restore"), 300.0 / 1e6);
        assert_eq!(t.top_level_ms(), 1_200.0 / 1e6);
        assert_eq!(t.self_ms("gen"), 200.0 / 1e6);
    }

    #[test]
    fn nesting_follows_enter_exit_order() {
        let mut t = Tracer::new(true);
        t.set_step(7);
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner, 3);
        let sibling = t.enter("sibling");
        t.exit(sibling, 2);
        t.exit(outer, 1);
        let after = t.enter("after");
        t.exit(after, 0);
        let parents: Vec<Option<u32>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(t.spans.iter().all(|s| s.step == 7));
        assert_eq!(t.count("inner"), 3);
        assert_eq!(t.calls("sibling"), 1);
        assert!(t.spans[0].duration_ns() >= t.spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x");
        t.exit(open, 5);
        assert!(t.spans.is_empty());
        assert_eq!(t.self_ms("x"), 0.0);
    }
}
