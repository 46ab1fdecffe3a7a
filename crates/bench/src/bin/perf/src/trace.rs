//! The staged pass's span recorder: spans and counts are kept in memory
//! and written out when the pass ends.
//!
//! Every staged job is one root span named [`OP`]; the rate probes that
//! are not on a job's path (a plain functional pass, a warming-only
//! pass) sit under roots named [`PROBE`] so they never count towards
//! closure or dominance. A span's self time is its duration minus the
//! part its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::emit::quote;

pub const OP: &str = "op";
pub const PROBE: &str = "probe";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one staged job share an identifier.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per layer under the roots of one name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Summary {
    /// Self time of every non-root span, summed by span name.
    pub layers: BTreeMap<&'static str, u64>,
    /// Sum of the root spans' durations: the staged wall.
    pub wall_ns: u64,
    /// Sum of the root spans' self times: wall no layer span covers.
    pub unattributed_ns: u64,
}

impl Summary {
    pub fn layer_ns(&self, name: &str) -> u64 {
        self.layers.get(name).copied().unwrap_or(0)
    }

    /// Self time of every layer whose name starts with `prefix`.
    pub fn prefix_ns(&self, prefix: &str) -> u64 {
        self.layers
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum()
    }

    /// Sum of all layer self times (roots excluded).
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().sum()
    }

    /// |Σ layer self times − staged wall| / staged wall.
    pub fn closure_err(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.attributed_ns().abs_diff(self.wall_ns) as f64 / self.wall_ns as f64
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder that keeps spans and counts.
    pub fn on() -> Self {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    /// A recorder that runs the closures and keeps nothing: the staged
    /// pipelines compute goldens through it, and timing a pass with it
    /// gives the wall the tracing overhead is measured against.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    /// Opening a root span starts a new op identifier.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records children of the open span from durations the callee
    /// measured itself (a library call that interleaves two layers and
    /// reports each layer's total). They are laid back to back from the
    /// parent's start, so only their durations carry meaning.
    pub fn split(&mut self, parts: &[(&'static str, Duration)]) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for &(name, duration) in parts {
            let end = at + duration.as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                op: self.op,
            });
            at = end;
        }
    }

    /// Mean host cost of recording one span, in nanoseconds: what the
    /// tracing overhead of a staged pass is computed from. (The wall
    /// difference between a traced and an untraced staged pass is host
    /// noise thousands of times larger than the cost being measured.)
    pub fn span_cost_ns() -> f64 {
        const SPANS: usize = 10_000;
        let mut rec = Recorder::on();
        rec.span(PROBE, |rec| {
            for _ in 0..SPANS {
                rec.span("trace.calibrate", |_| ());
            }
        });
        rec.spans[0].duration_ns() as f64 / SPANS as f64
    }

    /// Adds to a count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn root_of(&self, mut index: usize) -> usize {
        while let Some(parent) = self.spans[index].parent {
            index = parent;
        }
        index
    }

    /// Self times of everything under the roots named `root`.
    pub fn summary(&self, root: &str) -> Summary {
        // Children's durations per parent, in one pass.
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        let mut summary = Summary::default();
        for (index, span) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(index)].name != root {
                continue;
            }
            let own = span.duration_ns().saturating_sub(covered[index]);
            if span.parent.is_none() {
                summary.wall_ns += span.duration_ns();
                summary.unattributed_ns += own;
            } else {
                *summary.layers.entry(span.name).or_insert(0) += own;
            }
        }
        summary
    }

    /// The trace file: `header` (already-rendered JSON values), the
    /// counts, then every span.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (key, value) in header {
            let _ = writeln!(out, "  {}: {},", quote(key), value);
        }
        out.push_str("  \"counts\": {");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}: {n}", quote(name));
        }
        out.push_str("},\n  \"spans\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}{sep}",
                quote(span.name),
                span.start_ns,
                span.end_ns,
                span.op
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Recorder {
        let mut rec = Recorder::on();
        let span = |name, start_ns, end_ns, parent, op| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        };
        rec.spans = vec![
            span(OP, 0, 100, None, 1),
            span("a.load", 0, 30, Some(0), 1),
            span("b.run", 30, 95, Some(0), 1),
            span("c.inner", 40, 60, Some(2), 1),
            span(PROBE, 100, 150, None, 2),
            span("a.load", 100, 150, Some(4), 2),
            span(OP, 150, 250, None, 3),
            span("b.run", 150, 250, Some(6), 3),
        ];
        rec
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let rec = fixture();
        let ops = rec.summary(OP);
        assert_eq!(ops.wall_ns, 200);
        // Root 0 covers 100 ns, its children 30 + 65.
        assert_eq!(ops.unattributed_ns, 100 - 30 - 65);
        assert_eq!(ops.layer_ns("a.load"), 30);
        // `b.run` is 65 ns with a 20 ns child, plus 100 ns under root 6.
        assert_eq!(ops.layer_ns("b.run"), (65 - 20) + 100);
        assert_eq!(ops.layer_ns("c.inner"), 20);
        assert_eq!(ops.attributed_ns(), 195);
        assert_eq!(ops.prefix_ns("b."), 145);
        assert!((ops.closure_err() - 0.025).abs() < 1e-12);

        let probes = rec.summary(PROBE);
        assert_eq!(probes.wall_ns, 50);
        assert_eq!(probes.layer_ns("a.load"), 50);
        assert_eq!(probes.unattributed_ns, 0);
    }

    #[test]
    fn spans_nest_and_share_the_op_of_their_root() {
        let mut rec = Recorder::on();
        rec.span(OP, |rec| {
            rec.span("x.outer", |rec| rec.span("x.inner", |_| ()));
            rec.count("x.items", 3);
            rec.count("x.items", 4);
        });
        rec.span(OP, |rec| {
            rec.split(&[
                ("y.first", Duration::from_nanos(10)),
                ("y.second", Duration::from_nanos(5)),
            ]);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[0].op, spans[2].op, spans[3].op), (1, 1, 2));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].duration_ns(), 10);
        assert_eq!(spans[5].start_ns, spans[4].end_ns);
        assert_eq!(spans[5].duration_ns(), 5);
        assert_eq!(rec.counted("x.items"), 7);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut rec = Recorder::off();
        let out = rec.span(OP, |rec| {
            rec.count("x.items", 1);
            rec.split(&[("y.first", Duration::from_nanos(10))]);
            7
        });
        assert_eq!(out, 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.counted("x.items"), 0);
    }

    #[test]
    fn trace_file_lists_header_counts_and_spans() {
        let mut rec = fixture();
        rec.count("x.items", 2);
        let text = rec.to_json(&[("workload", quote("w")), ("seed", "7".into())]);
        assert!(text.contains("\"workload\": \"w\","));
        assert!(text.contains("\"seed\": 7,"));
        assert!(text.contains("\"counts\": {\"x.items\": 2}"));
        assert!(text.contains(
            "{\"id\": 3, \"name\": \"c.inner\", \"start_ns\": 40, \"end_ns\": 60, \
             \"parent\": 2, \"op\": 1},"
        ));
        assert_eq!(text.matches("\"id\":").count(), 8);
    }
}
