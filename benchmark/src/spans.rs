//! Spans recorded by the staged replay: one per call into a layer's
//! public functions, at frame / session / query granularity.
//!
//! Spans live in memory and are written out as JSON lines when the
//! traced pass ends. A layer's self time is its span's duration minus
//! the durations of its direct children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one epoch. Stage spans are always recorded;
/// per-call spans only while `calls` is on, so a round can be replayed
/// with and without them to price the tracing itself.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    pub round: u32,
    pub calls: bool,
}

/// An open span: the id it will get and when it started.
#[derive(Clone, Copy)]
pub struct Open {
    id: SpanId,
    start_ns: u64,
}

impl Open {
    pub fn id(self) -> SpanId {
        self.id
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            round: 0,
            calls: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its slot is reserved so children can name it as
    /// their parent before it closes.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Open {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        Open { id, start_ns }
    }

    /// Closes a span, returning its duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        self.spans[open.id as usize].end_ns = end_ns;
        end_ns.saturating_sub(open.start_ns)
    }

    /// Times one call under `parent`, as a span when per-call spans are on.
    pub fn call<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        if !self.calls {
            return f();
        }
        let open = self.open(name, Some(parent));
        let out = f();
        self.close(open);
        out
    }

    /// Records an already-measured interval as a child of `parent` — a
    /// *replayed* child: the same inputs driven through the lower
    /// layer's public function just before the composite call.
    pub fn replayed_child(&mut self, name: &'static str, parent: SpanId, duration_ns: u64) {
        if !self.calls {
            return;
        }
        let start_ns = self.spans[parent as usize].start_ns;
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            round: self.round,
            start_ns,
            end_ns: start_ns + duration_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"round\":{},\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.round, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: duration minus the summed durations of its
/// direct children, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Self time summed by span name for one round.
pub fn self_time_by_name(spans: &[Span], round: u32) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        if s.round == round {
            *out.entry(s.name).or_insert(0) += t;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            round: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root 0..100 ⊃ a 10..70 ⊃ b 20..50
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 70),
            span(2, Some(1), "b", 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn sibling_spans_each_come_off_the_parent() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 0, 30),
            span(2, Some(0), "a", 30, 50),
            span(3, Some(0), "b", 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 20, 30]);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(by_name["a"], 50);
        assert_eq!(by_name["b"], 30);
        assert_eq!(by_name["root"], 20);
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        // A replayed child measured apart may exceed its parent.
        let spans = vec![span(0, None, "p", 0, 10), span(1, Some(0), "c", 0, 25)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_links_calls_to_their_stage_and_honours_the_calls_switch() {
        let mut rec = Recorder::new();
        let stage = rec.open("stage", None);
        let v = rec.call("call", stage.id(), || 7);
        assert_eq!(v, 7);
        rec.replayed_child("replayed", stage.id(), 5);
        rec.close(stage);
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[2].duration_ns(), 5);

        rec.calls = false;
        let stage = rec.open("stage", None);
        rec.call("call", stage.id(), || ());
        rec.replayed_child("replayed", stage.id(), 5);
        rec.close(stage);
        assert_eq!(rec.spans().len(), 4, "only the stage span was added");
    }
}
