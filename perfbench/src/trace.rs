//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is written until the run ends; a layer's self time is
//! its span minus the part of that interval its child spans cover.

use std::time::Instant;

/// Index of a span in its [`Trace`].
pub type SpanId = usize;

/// One timed call: `[start_ns, end_ns)` since the trace's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The training step or request wave the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, unit: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Span `id`'s duration minus what its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time((parent.start_ns, parent.end_ns), &children)
    }
}

/// The length of `parent` not covered by the union of `children`, each
/// clipped to `parent`. Overlapping children (concurrent calls) are counted
/// once; grandchildren lie inside their own parent and need not be passed.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (hi - lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60), (35, 50)]), 50);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((10, 20), &[(0, 5), (25, 30)]), 10);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let mut t = Trace::new();
        // step ⊃ {forward, backward ⊃ {scan}}: hand-placed intervals.
        t.spans = vec![
            span("step", 0, 100, None),
            span("forward", 5, 25, Some(0)),
            span("backward", 30, 90, Some(0)),
            span("scan", 40, 80, Some(2)),
        ];
        assert_eq!(t.self_ns(0), 100 - 20 - 60);
        assert_eq!(t.self_ns(2), 60 - 40);
        assert_eq!(t.self_ns(3), 40);
        // The grandchild is inside `backward`, so the step's self time is
        // unchanged by it.
        assert_eq!(
            t.self_ns(0) + t.self_ns(1) + t.self_ns(2) + t.self_ns(3),
            100
        );
    }

    #[test]
    fn open_close_records_ordered_intervals() {
        let mut t = Trace::new();
        let outer = t.open("outer", None, 7);
        let inner = t.open("inner", Some(outer), 7);
        t.close(inner);
        t.close(outer);
        let (o, i) = (t.span(outer), t.span(inner));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert_eq!(i.parent, Some(outer));
        assert!(t.self_ns(outer) <= o.duration_ns());
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            unit: 0,
        }
    }
}
