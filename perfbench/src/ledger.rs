//! A self-time ledger: spans recorded around calls into each layer.
//!
//! The ledger keeps a stack of open spans. Every tick between two span
//! boundaries is charged to the span on top of the stack, so a span's self
//! time is its duration minus the time covered by its children. The one
//! exception is the ledger's own bookkeeping after a top-level span closes:
//! it is timed separately (the tracer's time) instead of being charged to
//! the root, whose self time is meant to be the uninstrumented loop around
//! the layer calls. A top-level span may also hand over to the next one
//! ([`Ledger::hand_over`]): both boundaries then share one clock read and
//! leave no root gap between them. Self times plus tracer time add up to the
//! ledger's wall time. Per-span-name totals stay in memory; for a
//! deterministic sample of events the full span tree is kept as well.

use std::time::Instant;

/// Index of a span name in the ledger's name table.
pub type SpanId = usize;

/// The root span: time not inside any layer call.
pub const ROOT: SpanId = 0;

/// Cheap monotonic tick source: the time-stamp counter where it exists
/// (converted to nanoseconds by calibrating against [`Instant`] over the
/// ledger's lifetime), a nanosecond [`Instant`] reading elsewhere.
#[inline]
fn ticks(origin: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = origin;
        // SAFETY: `rdtsc` has no preconditions on x86_64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        origin.elapsed().as_nanos() as u64
    }
}

/// One recorded span of a sampled tree: name, nesting depth, start offset
/// from the tree's root and duration, both in ticks.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpan {
    /// Span name index.
    pub id: SpanId,
    /// Nesting depth (the event's top span is depth 1).
    pub depth: u32,
    /// Start, ticks after the tree started.
    pub start: u64,
    /// Duration in ticks (0 until the span closes).
    pub dur: u64,
}

/// The span tree of one sampled event.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The event's ordinal in the run.
    pub event: u64,
    /// Spans in start order.
    pub spans: Vec<TreeSpan>,
}

/// Per-span self-time accounting for one run.
#[derive(Debug)]
pub struct Ledger {
    names: Vec<&'static str>,
    self_ticks: Vec<u64>,
    calls: Vec<u64>,
    stack: Vec<SpanId>,
    cur: SpanId,
    last: u64,
    origin: Instant,
    start_ticks: u64,
    /// Span tree under construction (`Some` while a sampled event runs).
    open_tree: Option<(Tree, u64, Vec<usize>)>,
    trees: Vec<Tree>,
    max_trees: usize,
    /// Ticks spent closing top-level spans.
    tracer_ticks: u64,
    /// Span the next closing top-level span hands over to.
    hand_over: Option<SpanId>,
    /// Nanoseconds per tick, fixed by [`Ledger::finish`].
    ns_per_tick: f64,
    wall_ns: u64,
}

impl Ledger {
    /// A ledger over the given span names (`names[ROOT]` names the root).
    /// Time starts now.
    pub fn new(names: Vec<&'static str>, max_trees: usize) -> Self {
        let n = names.len();
        let origin = Instant::now();
        let t = ticks(origin);
        Ledger {
            names,
            self_ticks: vec![0; n],
            calls: vec![0; n],
            stack: Vec::with_capacity(16),
            cur: ROOT,
            last: t,
            origin,
            start_ticks: t,
            open_tree: None,
            trees: Vec::new(),
            max_trees,
            tracer_ticks: 0,
            hand_over: None,
            ns_per_tick: 1.0,
            wall_ns: 0,
        }
    }

    /// Opens span `id` as a child of the current span.
    #[inline]
    pub fn enter(&mut self, id: SpanId) {
        let t = ticks(self.origin);
        self.self_ticks[self.cur] += t - self.last;
        self.stack.push(self.cur);
        self.cur = id;
        self.calls[id] += 1;
        self.last = t;
        if let Some((tree, t0, open)) = self.open_tree.as_mut() {
            open.push(tree.spans.len());
            tree.spans.push(TreeSpan {
                id,
                depth: open.len() as u32,
                start: t - *t0,
                dur: 0,
            });
        }
    }

    /// Closes the current span.
    #[inline]
    pub fn exit(&mut self) {
        let id = self.cur;
        self.exit_as(id);
    }

    /// Closes the current span, charging its last stretch of self time (and
    /// its call) to `id` instead: for a call whose layer is known only once
    /// it returns. The span must have no children.
    #[inline]
    pub fn exit_as(&mut self, id: SpanId) {
        let t = ticks(self.origin);
        self.self_ticks[id] += t - self.last;
        if id != self.cur {
            self.calls[self.cur] -= 1;
            self.calls[id] += 1;
        }
        self.cur = self.stack.pop().expect("exit without enter");
        self.last = t;
        if let Some((tree, t0, open)) = self.open_tree.as_mut() {
            let i = open.pop().expect("sampled span open");
            let span = &mut tree.spans[i];
            span.id = id;
            span.dur = t - *t0 - span.start;
        }
        if self.cur == ROOT {
            if let Some(next) = self.hand_over.take() {
                debug_assert!(
                    self.open_tree.is_none(),
                    "no hand-over inside a sampled tree"
                );
                self.stack.push(ROOT);
                self.cur = next;
                self.calls[next] += 1;
            } else {
                let t = ticks(self.origin);
                self.tracer_ticks += t - self.last;
                self.last = t;
            }
        }
    }

    /// Makes the next top-level span to close open `next` in its place, at
    /// the same clock reading: for a span that always follows, so the code
    /// between the two is charged to `next` instead of leaving a root gap.
    pub fn hand_over(&mut self, next: SpanId) {
        self.hand_over = Some(next);
    }

    /// Drops a pending [`Ledger::hand_over`].
    pub fn cancel_hand_over(&mut self) {
        self.hand_over = None;
    }

    /// Whether `id` is the innermost open span.
    pub fn is_current(&self, id: SpanId) -> bool {
        self.cur == id
    }

    /// Starts recording the full span tree of event `event`, unless the
    /// sample is full.
    pub fn begin_tree(&mut self, event: u64) {
        if self.trees.len() < self.max_trees {
            let t = ticks(self.origin);
            self.open_tree = Some((
                Tree {
                    event,
                    spans: Vec::new(),
                },
                t,
                Vec::new(),
            ));
        }
    }

    /// Ends the tree started by [`Ledger::begin_tree`].
    pub fn end_tree(&mut self) {
        if let Some((tree, _, _)) = self.open_tree.take() {
            self.trees.push(tree);
        }
    }

    /// Stops the clock: charges the tail to the current span and calibrates
    /// ticks against wall time.
    pub fn finish(&mut self) {
        assert!(self.stack.is_empty(), "ledger finished with open spans");
        let t = ticks(self.origin);
        self.self_ticks[self.cur] += t - self.last;
        self.last = t;
        self.wall_ns = self.origin.elapsed().as_nanos() as u64;
        let total = t - self.start_ticks;
        self.ns_per_tick = if total > 0 {
            self.wall_ns as f64 / total as f64
        } else {
            1.0
        };
    }

    /// Span names, indexed by [`SpanId`].
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Self time of span `id`, milliseconds.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        self.self_ticks[id] as f64 * self.ns_per_tick / 1e6
    }

    /// Calls of span `id`.
    pub fn calls(&self, id: SpanId) -> u64 {
        self.calls[id]
    }

    /// The ledger's own time closing top-level spans, milliseconds.
    pub fn tracer_ms(&self) -> f64 {
        self.tracer_ticks as f64 * self.ns_per_tick / 1e6
    }

    /// Wall time from creation to [`Ledger::finish`], milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    /// Nanoseconds per tick.
    pub fn ns_per_tick(&self) -> f64 {
        self.ns_per_tick
    }

    /// The sampled span trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Folds another ledger over the same names into this one (self times
    /// converted at each ledger's own calibration).
    pub fn merge(&mut self, other: &Ledger) {
        assert_eq!(
            self.names, other.names,
            "merging ledgers of different spans"
        );
        let scale = other.ns_per_tick / self.ns_per_tick;
        for i in 0..self.names.len() {
            self.self_ticks[i] += (other.self_ticks[i] as f64 * scale) as u64;
            self.calls[i] += other.calls[i];
        }
        self.tracer_ticks += (other.tracer_ticks as f64 * scale) as u64;
        self.wall_ns += other.wall_ns;
        self.trees.extend(other.trees.iter().cloned());
    }
}

/// Share of `wall_ms` covered by layer self times and the tracer: everything
/// but the root span's own time.
pub fn coverage(root_self_ms: f64, wall_ms: f64) -> f64 {
    if wall_ms <= 0.0 {
        return 0.0;
    }
    (1.0 - root_self_ms / wall_ms).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_wall_time() {
        let mut l = Ledger::new(vec!["root", "a", "b"], 4);
        l.begin_tree(0);
        l.enter(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        l.enter(2);
        std::thread::sleep(std::time::Duration::from_millis(5));
        l.exit();
        l.exit();
        l.end_tree();
        l.finish();
        let sum: f64 = (0..3).map(|i| l.self_ms(i)).sum::<f64>() + l.tracer_ms();
        assert!(
            (sum - l.wall_ms()).abs() < 0.01 * l.wall_ms(),
            "{sum} vs {}",
            l.wall_ms()
        );
        assert!(l.self_ms(1) >= 4.0 && l.self_ms(2) >= 4.0);
        assert_eq!((l.calls(1), l.calls(2)), (1, 1));
        let tree = &l.trees()[0];
        assert_eq!(tree.spans.len(), 2);
        assert_eq!((tree.spans[0].depth, tree.spans[1].depth), (1, 2));
        assert!(tree.spans[0].dur >= tree.spans[1].dur);
    }

    #[test]
    fn hand_over_opens_the_next_span_without_a_gap() {
        let mut l = Ledger::new(vec!["root", "a", "b"], 0);
        l.enter(1);
        l.hand_over(2);
        l.exit();
        assert!(l.is_current(2));
        std::thread::sleep(std::time::Duration::from_millis(2));
        l.exit();
        assert!(l.is_current(ROOT));
        l.finish();
        assert_eq!((l.calls(1), l.calls(2)), (1, 1));
        assert!(l.self_ms(2) >= 1.5);
        assert!(l.self_ms(ROOT) < 1.0);
    }

    #[test]
    fn exit_as_moves_the_call_and_its_time() {
        let mut l = Ledger::new(vec!["root", "net", "rows"], 0);
        l.enter(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        l.exit_as(2);
        l.finish();
        assert_eq!((l.calls(1), l.calls(2)), (0, 1));
        assert!(l.self_ms(2) >= 1.5 && l.self_ms(1) == 0.0);
    }

    #[test]
    fn coverage_is_the_non_root_share() {
        assert!((coverage(5.0, 100.0) - 0.95).abs() < 1e-12);
        assert_eq!(coverage(0.0, 100.0), 1.0);
        assert_eq!(coverage(150.0, 100.0), 0.0);
        assert_eq!(coverage(1.0, 0.0), 0.0);
    }
}
