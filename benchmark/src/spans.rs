//! The harness-side span recorder of the traced round.
//!
//! Spans are taken from outside the program under test: the harness wraps
//! its own calls into each layer's public functions. They are kept in
//! memory and written out after the run. An untraced run carries a
//! disabled recorder, whose `enter`/`exit` read no clock.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::escape;

/// One recorded interval on the driver thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Recorder::exit"]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let Some(origin) = self.origin else {
            return Open(None);
        };
        let index = self.spans.len();
        let now = origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order — a bug in the
    /// harness, not in the program under test.
    pub fn exit(&mut self, open: Open) {
        let (Some(origin), Some(index)) = (self.origin, open.0) else {
            return;
        };
        assert_eq!(self.open.pop(), Some(index), "spans closed out of order");
        self.spans[index].end_ns = origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Seconds covered by spans named `name` (their full durations).
    pub fn total_s(&self, name: &str) -> f64 {
        let nanos: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        nanos as f64 / 1e9
    }

    /// Seconds of self time of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let nanos: u64 = self_times(&self.spans)
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(ns, _)| ns)
            .sum();
        nanos as f64 / 1e9
    }

    /// Seconds covered by spans that have no parent: the part of the
    /// timed region the ledger accounts for.
    pub fn top_level_s(&self) -> f64 {
        let nanos: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        nanos as f64 / 1e9
    }

    /// Writes `{"workload", "spans": [{name, start_ns, end_ns, self_ns,
    /// parent, run_id}]}`; `parent` is an index into `spans` or null, and
    /// the spans of one pass share its `run_id`.
    pub fn write_json(&self, path: &Path, workload: &str, run_id: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\": \"{}\", \"spans\": [",
            escape(workload)
        )?;
        let self_ns = self_times(&self.spans);
        for (i, (span, self_ns)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \
                 \"parent\": {parent}, \"run_id\": {run_id}}}",
                if i == 0 { "" } else { "," },
                escape(span.name),
                span.start_ns,
                span.end_ns,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn nested_children_subtract_from_their_direct_parent_only() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("child", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("inside-a", 120, 130, Some(0)),
            // Recorded from another clock domain: sticks out of the parent.
            span("late", 190, 250, Some(0)),
            span("outside", 300, 310, Some(0)),
        ];
        // Covered: [110,170) ∪ [190,200) = 70 of 100.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.span("inner", || ());
        rec.exit(outer);
        rec.span("sibling", || ());
        let parents: Vec<_> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(rec.total_s("inner") <= rec.total_s("outer"));
        let whole = rec.total_s("outer");
        assert!((rec.self_s("outer") + rec.total_s("inner") - whole).abs() < 1e-12);
        assert!((rec.top_level_s() - whole - rec.total_s("sibling")).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("x");
        rec.exit(open);
        assert_eq!(rec.span("y", || 7), 7);
        assert!(rec.spans.is_empty() && !rec.enabled());
    }
}
