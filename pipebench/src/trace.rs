//! In-memory spans around the benchmark's calls into the crates, and the
//! per-layer self-time profile computed from them.
//!
//! A span records a name (the per-layer metric prefix, e.g.
//! `sramcell.power_up`), its start and end on one monotonic clock, its
//! parent span and the operation it belongs to. Spans stay in memory until
//! the run ends, then go to a tab-separated span file. A disabled
//! [`Tracer`] records nothing and costs one branch per call, so plain and
//! traced operations share their code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans whose name ends in this suffix measure time spent blocked (on a
/// reader, a channel or a full queue), not work.
pub const WAIT_SUFFIX: &str = ".wait";

/// Marks a parent index that is local to a forked tracer until
/// [`Tracer::join`] rebases it.
const LOCAL: u32 = 1 << 31;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, the prefix of the per-layer metrics it feeds.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u32,
    /// Logical thread: 0 for the operation's own, 1.. for forked workers.
    pub thread: u32,
    /// Index of the enclosing span within the operation (`None` for the
    /// operation's root).
    pub parent: Option<u32>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one thread of one operation.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Parent of this tracer's root spans (set for forks).
    base: Option<u32>,
    forked: bool,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false, Instant::now(), 0)
    }

    /// A recording tracer for operation `op`, timing against `epoch`.
    pub fn on(epoch: Instant, op: u32) -> Self {
        Self::new(true, epoch, op)
    }

    fn new(on: bool, epoch: Instant, op: u32) -> Self {
        Self {
            on,
            epoch,
            op,
            thread: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            base: None,
            forked: false,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn parent_ref(&self) -> Option<u32> {
        match self.stack.last() {
            Some(&top) if self.forked => Some(top | LOCAL),
            Some(&top) => Some(top),
            None => self.base,
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = u32::try_from(self.spans.len()).expect("span count fits u32");
        assert!(index < LOCAL, "too many spans in one operation");
        let parent = self.parent_ref();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            thread: self.thread,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes a span opened by [`open`](Self::open); spans close innermost
    /// first.
    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        let end_ns = self.now_ns();
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let open = self.open(name);
        let value = f();
        self.close(open);
        value
    }

    /// A tracer for worker thread `thread` whose root spans nest under the
    /// innermost span open here. Hand it back with [`join`](Self::join).
    pub fn fork(&self, thread: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            op: self.op,
            thread,
            spans: Vec::new(),
            stack: Vec::new(),
            base: self.stack.last().copied(),
            forked: true,
        }
    }

    /// Adopts the spans a forked worker recorded.
    pub fn join(&mut self, worker: Tracer) {
        assert!(worker.stack.is_empty(), "worker left a span open");
        let offset = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(worker.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| {
                if p & LOCAL != 0 {
                    (p & !LOCAL) + offset
                } else {
                    p
                }
            });
            span
        }));
    }

    /// The recorded spans, in opening order (the root first).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span is still open");
        self.spans
    }
}

/// Totals of one layer within one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans of the layer.
    pub calls: u64,
    /// Summed self time, seconds (thread-seconds for parallel layers).
    pub self_s: f64,
}

/// The self-time profile of one traced operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Wall time of the operation's root span, seconds.
    pub wall_s: f64,
    /// Share of the root's wall time covered by its direct children (the
    /// top-level calls into the crates).
    pub coverage: f64,
    /// Summed self time of every span that is not a wait, seconds: the
    /// operation's busy thread-time, the denominator of each layer share.
    pub busy_s: f64,
    /// Per-layer totals by span name (the root's own self time is listed
    /// under its name too).
    pub layers: BTreeMap<&'static str, LayerTotal>,
}

impl Profile {
    /// Totals of `name` (zero when the operation has no such span).
    pub fn layer(&self, name: &str) -> LayerTotal {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name` as a share of the busy thread-time.
    pub fn share(&self, name: &str) -> f64 {
        if self.busy_s > 0.0 {
            self.layer(name).self_s / self.busy_s
        } else {
            0.0
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Computes the self-time profile of one operation's spans (as returned by
/// [`Tracer::into_spans`]: the root first). A span's self time is its
/// duration minus the part of it its child spans cover, on any thread.
pub fn profile(spans: &[Span]) -> Profile {
    let Some(root) = spans.first() else {
        return Profile::default();
    };
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut result = Profile {
        wall_s: root.duration_ns() as f64 * 1e-9,
        ..Profile::default()
    };
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let covered = covered_ns(kids, span.start_ns, span.end_ns);
        let self_s = span.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        let total = result.layers.entry(span.name).or_default();
        total.calls += 1;
        total.self_s += self_s;
        if !span.name.ends_with(WAIT_SUFFIX) {
            result.busy_s += self_s;
        }
    }
    let mut top = std::mem::take(&mut children[0]);
    if root.duration_ns() > 0 {
        result.coverage =
            covered_ns(&mut top, root.start_ns, root.end_ns) as f64 / root.duration_ns() as f64;
    }
    result
}

/// Renders the per-layer self-time table of several traced operations of
/// one workload: per layer the median calls and self time per operation,
/// and its share of busy thread-time.
pub fn render_table(workload: &str, profiles: &[Profile]) -> String {
    let mut names: Vec<&'static str> = profiles
        .iter()
        .flat_map(|p| p.layers.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut rows: Vec<(f64, String)> = names
        .iter()
        .map(|name| {
            let calls = crate::measure::median(profiles.iter().map(|p| p.layer(name).calls as f64));
            let self_s = crate::measure::median(profiles.iter().map(|p| p.layer(name).self_s));
            let share = crate::measure::median(profiles.iter().map(|p| p.share(name)));
            let share = if name.ends_with(WAIT_SUFFIX) {
                "wait".to_string()
            } else {
                format!("{:5.1}%", share * 100.0)
            };
            (
                self_s,
                format!("  {name:<32} {calls:>10.0} {self_s:>10.4} {share:>7}\n"),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    let wall = crate::measure::median(profiles.iter().map(|p| p.wall_s));
    let busy = crate::measure::median(profiles.iter().map(|p| p.busy_s));
    let coverage = crate::measure::median(profiles.iter().map(|p| p.coverage));
    let mut out = format!(
        "per-layer self time, {workload}: median of {} traced operations \
         (wall {wall:.4} s, busy {busy:.4} thread-s, top-level coverage {:.1}%)\n",
        profiles.len(),
        coverage * 100.0
    );
    let _ = writeln!(
        out,
        "  {:<32} {:>10} {:>10} {:>7}",
        "layer", "calls", "self_s", "share"
    );
    for (_, row) in rows {
        out.push_str(&row);
    }
    out
}

/// Renders spans as tab-separated lines (`op id parent thread name
/// start_ns end_ns`), ids local to their operation.
pub fn write_spans(out: &mut String, spans: &[Span]) {
    for (id, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
            span.op, span.thread, span.name, span.start_ns, span.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            thread,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_on_any_thread() {
        let spans = [
            span("root", None, 0, 0, 100),
            span("top", Some(0), 0, 10, 90),
            span("work", Some(1), 1, 10, 60),
            span("work", Some(1), 2, 40, 80),
            span("queue.wait", Some(0), 0, 90, 95),
        ];
        let p = profile(&spans);
        assert_eq!(p.layer("top").self_s, 10e-9);
        assert_eq!(p.layer("work").calls, 2);
        assert!((p.layer("work").self_s - 90e-9).abs() < 1e-15);
        assert!((p.layer("root").self_s - 15e-9).abs() < 1e-15);
        assert!((p.coverage - 0.85).abs() < 1e-12);
        // Busy time leaves the wait out.
        assert!((p.busy_s - 115e-9).abs() < 1e-15);
    }

    #[test]
    fn forked_spans_rebase_onto_the_parent_tracer() {
        let mut tr = Tracer::on(Instant::now(), 3);
        let root = tr.open("root");
        let top = tr.open("top");
        let mut worker = tr.fork(1);
        let shard = worker.open("shard");
        worker.span("leaf", || ());
        worker.close(shard);
        tr.join(worker);
        tr.close(top);
        tr.close(root);
        let spans = tr.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.thread)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None, 0),
                ("top", Some(0), 0),
                ("shard", Some(1), 1),
                ("leaf", Some(2), 1),
            ]
        );
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let open = tr.open("root");
        assert_eq!(tr.span("leaf", || 7), 7);
        tr.close(open);
        assert!(tr.into_spans().is_empty());
    }
}
