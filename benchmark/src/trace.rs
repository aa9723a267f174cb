//! The traced run's recorder: spans around the calls into each layer,
//! kept in memory and written out when the run ends.
//!
//! A [`Tracer`] that is off records nothing and costs one branch per
//! call, so the untraced run executes the same harness code. Spans nest
//! through an explicit stack: the span open when another begins is its
//! parent. Calls made once per sample block (hundreds of thousands per
//! run) go through [`Tracer::time`] instead, which keeps a duration per
//! call but no span, so the span file stays one line per op-level event.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The name of the span that encloses one op.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    /// Index of the op this span belongs to; spans of one op share it.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, in the layer's own unit.
    pub count: u64,
}

/// Durations of one per-block call site.
#[derive(Debug, Default)]
pub struct Timer {
    pub total_ns: u64,
    pub durations_ns: Vec<u32>,
}

/// Handle to a [`Timer`] registered with [`Tracer::timer`].
#[derive(Debug, Clone, Copy)]
pub struct TimerId(usize);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    timers: Vec<(&'static str, Timer)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), timers: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since this tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u32) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, name, parent: self.open.last().copied(), op, start_ns, end_ns: start_ns, count: 0 });
        self.open.push(id);
    }

    /// Close the innermost open span, crediting it with `count` units of
    /// work.
    pub fn end(&mut self, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Record a span another thread timed against [`Tracer::now_ns`]'s
    /// clock (it has no parent: it did not run under this thread's stack).
    pub fn add(&mut self, name: &'static str, op: u32, start_ns: u64, end_ns: u64, count: u64) {
        if self.on {
            let id = self.spans.len() as u32;
            self.spans.push(Span { id, name, parent: None, op, start_ns, end_ns, count });
        }
    }

    /// Register a per-block call site.
    pub fn timer(&mut self, name: &'static str) -> TimerId {
        self.timers.push((name, Timer::default()));
        TimerId(self.timers.len() - 1)
    }

    /// Run `f`, recording how long it took when tracing is on.
    pub fn time<T>(&mut self, id: TimerId, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(id, start.elapsed().as_nanos() as u64);
        out
    }

    /// Record one call that was timed elsewhere (on another thread).
    pub fn record(&mut self, id: TimerId, ns: u64) {
        if self.on {
            let timer = &mut self.timers[id.0].1;
            timer.total_ns += ns;
            timer.durations_ns.push(ns.min(u32::MAX as u64) as u32);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recordings made (spans and timed calls): what
    /// `trace.overhead_share` is charged for.
    pub fn records(&self) -> u64 {
        self.spans.len() as u64 + self.timers.iter().map(|(_, t)| t.durations_ns.len() as u64).sum::<u64>()
    }

    pub fn timer_named(&self, name: &str) -> Option<&Timer> {
        self.timers.iter().find(|(n, _)| *n == name).map(|(_, t)| t)
    }

    /// Busy seconds, calls and work count per name: a span's self time
    /// (its duration minus what its children cover) summed over the spans
    /// of that name, plus the timed calls.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let layer = out.entry(span.name).or_default();
            layer.busy_s += self_ns as f64 / 1e9;
            layer.calls += 1;
            layer.count += span.count;
        }
        for (name, timer) in &self.timers {
            let layer = out.entry(name).or_default();
            layer.busy_s += timer.total_ns as f64 / 1e9;
            layer.calls += timer.durations_ns.len() as u64;
        }
        out
    }

    /// Host nanoseconds one recording costs, measured by making `n`
    /// empty ones on a scratch tracer.
    pub fn calibrate_ns_per_record(n: u32) -> f64 {
        let mut scratch = Tracer::new(true);
        let start = Instant::now();
        for i in 0..n {
            scratch.begin(OP, i);
            scratch.end(0);
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.name, parent, s.op, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }
}

/// What one layer did over the run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Layer {
    pub busy_s: f64,
    pub calls: u64,
    pub count: u64,
}

/// Self time of every span, in span order: its duration minus the part
/// of that interval its direct children cover. Children may overlap each
/// other (spans added from another thread) or stick out of the parent;
/// the cover is the union of their intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, name: "x", parent, op: 0, start_ns, end_ns, count: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) > a [10,40) > b [20,30); op > c [50,90).
        let spans =
            [span(0, None, 0, 100), span(1, Some(0), 10, 40), span(2, Some(1), 20, 30), span(3, Some(0), 50, 90)];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40], "a grandchild is its parent's cover, not the op's");
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Children [10,50) and [30,70) overlap; [90,130) sticks out of the parent.
        let spans =
            [span(0, None, 0, 100), span(1, Some(0), 10, 50), span(2, Some(0), 30, 70), span(3, Some(0), 90, 130)];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child covering everything leaves nothing, never a negative.
        let spans = [span(0, None, 10, 20), span(1, Some(0), 0, 40)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn begin_end_build_the_parent_chain() {
        let mut t = Tracer::new(true);
        t.begin(OP, 7);
        t.begin("layer", 7);
        t.end(3);
        t.end(0);
        t.add("other-thread", 7, 0, 5, 1);
        let spans = t.spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].op, spans[1].count), (7, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[2].parent, None);
        let layers = t.layers();
        assert_eq!(layers["layer"].calls, 1);
        assert_eq!(layers["layer"].count, 3);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.timer("site");
        t.begin(OP, 0);
        assert_eq!(t.time(id, || 5), 5);
        t.end(0);
        assert_eq!(t.records(), 0);
        assert!(t.layers().values().all(|l| l.calls == 0));
    }
}
