//! The benchmark's own span recorder and the self-time arithmetic.
//!
//! Spans are recorded around the calls into each layer's public functions
//! and stay in memory until the run ends. A span's self time is its
//! duration minus the part of its interval that its children cover; the
//! self time of a job's root span is the job's `unattributed` time.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `characterize` or `store.get`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job this span belongs to.
    pub job: usize,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, returning its result and the
    /// new span's index.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            job,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose end is set later with [`Recorder::close`]; used
    /// for a root whose children are recorded while it is open.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Appends a span measured elsewhere (e.g. on another thread).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Converts an instant to nanoseconds since the epoch.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name. A root span's entry is the time of its
/// jobs that no layer span covers.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Nanoseconds one [`Recorder::time`] call adds around an empty closure,
/// measured over `reps` calls on a throwaway recorder.
pub fn recorder_cost_ns(reps: usize) -> f64 {
    let mut r = Recorder::new();
    let t = Instant::now();
    for i in 0..reps {
        let _ = r.time("calibrate", None, i, || std::hint::black_box(i));
    }
    t.elapsed().as_nanos() as f64 / reps.max(1) as f64
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
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_leaves_the_rest_unattributed() {
        // job [0, 100): parse [5, 15), characterize [20, 70) with a nested
        // child [30, 40), validate [70, 90). Uncovered: 0-5, 15-20, 90-100.
        let spans = vec![
            span("job", 0, 100, None),
            span("qprog.parse", 5, 15, Some(0)),
            span("characterize", 20, 70, Some(0)),
            span("inner", 30, 40, Some(2)),
            span("validate", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 40, 10, 20]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["job"], 20);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two concurrent children overlap on [40, 60); one runs past the
        // parent's end. Covered: [20, 100) clipped to the parent = 80.
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_under_an_open_root() {
        let mut r = Recorder::new();
        let root = r.open("job", None, 7);
        let (v, child) = r.time("layer", Some(root), 7, || 41 + 1);
        r.close(root);
        assert_eq!(v, 42);
        let spans = r.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        let self_t = self_times(spans);
        assert_eq!(self_t[root] + self_t[child], spans[root].duration_ns());
    }
}
