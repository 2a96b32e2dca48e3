//! Host spans recorded by the benchmark around its calls into each layer,
//! on the process CPU clock (see `cpuclock`), so a layer's self time is
//! the CPU time spent in it, every thread summed. Spans stay in memory and
//! are written out when the run ends.

use crate::cpuclock::process_cpu;
use std::time::Duration;

/// Name of the span that fills every gap between a job's layer spans.
pub const UNATTRIBUTED: &str = "unattributed_s";

/// One timed interval, in CPU nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, named after the per-layer metric its self time feeds,
    /// e.g. `apps.instantiate_s` or `runtime.pipeline.run_s.kmeans`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin (`end >= start`).
    pub end: u64,
    /// Index of the enclosing span, `None` for a job's root span.
    pub parent: Option<usize>,
    /// Job id shared by every span of one job.
    pub job: usize,
}

/// In-memory span log. A disabled recorder records nothing.
pub struct Recorder {
    origin: Duration,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: process_cpu(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        u64::try_from((process_cpu() - self.origin).as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; returns its index (meaningless when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let t = self.now();
        self.spans.push(Span {
            name,
            start: t,
            end: t,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Close the span `idx` returned by [`open`](Self::open).
    pub fn close(&mut self, idx: usize) {
        if self.enabled {
            let t = self.now();
            self.spans[idx].end = t;
        }
    }

    /// Close a job's root span and fill the gaps between its children with
    /// [`UNATTRIBUTED`] spans, so the children tile the root exactly.
    pub fn close_job(&mut self, root: usize) {
        if !self.enabled {
            return;
        }
        self.close(root);
        let gaps = gaps(&self.spans, root);
        let job = self.spans[root].job;
        for (start, end) in gaps {
            self.spans.push(Span {
                name: UNATTRIBUTED,
                start,
                end,
                parent: Some(root),
                job,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop all recorded spans (the clock keeps running).
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

fn children(spans: &[Span], parent: usize) -> Vec<(u64, u64)> {
    let mut c: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(parent))
        .map(|s| (s.start, s.end))
        .collect();
    c.sort_unstable();
    c
}

/// Intervals of span `parent` that none of its children cover.
pub fn gaps(spans: &[Span], parent: usize) -> Vec<(u64, u64)> {
    let p = &spans[parent];
    let mut out = Vec::new();
    let mut cursor = p.start;
    for (s, e) in children(spans, parent) {
        let (s, e) = (s.clamp(p.start, p.end), e.clamp(p.start, p.end));
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < p.end {
        out.push((cursor, p.end));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    (0..spans.len())
        .map(|i| gaps(spans, i).iter().map(|(s, e)| e - s).sum())
        .collect()
}

/// Whether the children of `parent` tile it exactly: sorted by start they
/// abut with no gap or overlap and cover `[start, end]` of the parent.
pub fn tiles(spans: &[Span], parent: usize) -> bool {
    let p = &spans[parent];
    let mut cursor = p.start;
    for (s, e) in children(spans, parent) {
        if s != cursor || e < s {
            return false;
        }
        cursor = e;
    }
    cursor == p.end
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: 10..60 covered once
            span("c", 55, 58, Some(2)), // grandchild: not the job's child
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 50); // 0..10 and 60..100
        assert_eq!(st[1], 30);
        assert_eq!(st[2], 27);
        assert_eq!(st[3], 3);
    }

    #[test]
    fn gaps_clip_children_to_parent() {
        let spans = vec![span("job", 10, 20, None), span("a", 5, 12, Some(0))];
        assert_eq!(gaps(&spans, 0), vec![(12, 20)]);
    }

    #[test]
    fn tiling_detects_gaps_and_overlaps() {
        let mut spans = vec![
            span("job", 0, 10, None),
            span("a", 0, 4, Some(0)),
            span("b", 4, 10, Some(0)),
        ];
        assert!(tiles(&spans, 0));
        spans[2].start = 5;
        assert!(!tiles(&spans, 0), "gap 4..5");
        spans[2].start = 3;
        assert!(!tiles(&spans, 0), "overlap 3..4");
        spans[2].start = 4;
        spans[2].end = 9;
        assert!(!tiles(&spans, 0), "short of the parent's end");
    }

    /// Burn `ms` milliseconds of this process's CPU time.
    fn spin(ms: u64) {
        let until = process_cpu() + Duration::from_millis(ms);
        while process_cpu() < until {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn close_job_fills_gaps_with_unattributed() {
        let mut r = Recorder::new(true);
        let root = r.open("job", None, 7);
        let a = r.open("a", Some(root), 7);
        spin(1);
        r.close(a);
        spin(1);
        let b = r.open("b", Some(root), 7);
        r.close(b);
        r.close_job(root);
        let spans = r.spans();
        assert!(tiles(spans, root));
        let st = self_times(spans);
        assert_eq!(st[root], 0, "unattributed spans absorb the self time");
        let unattributed: u64 = spans
            .iter()
            .filter(|s| s.name == UNATTRIBUTED)
            .map(|s| s.end - s.start)
            .sum();
        let layers: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name != UNATTRIBUTED)
            .map(|s| s.end - s.start)
            .sum();
        assert_eq!(layers + unattributed, spans[root].end - spans[root].start);
        assert!(unattributed >= 1_000_000, "the 1 ms spin between a and b");
        assert!(spans.iter().all(|s| s.job == 7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let root = r.open("job", None, 0);
        r.close_job(root);
        assert!(r.spans().is_empty());
    }
}
