#![warn(missing_docs)]
//! Per-run observability for the MSPastry reproduction.
//!
//! Three pieces, shared through one cheap [`Obs`] handle that the harness
//! threads into the network simulator and every protocol node:
//!
//! * a [`registry::Registry`] of named counters and log-bucketed
//!   [`hist::Histogram`]s — per *run*, not per process, so parallel tests
//!   and repeated runs cannot cross-contaminate;
//! * a [`recorder::FlightRecorder`] — a bounded ring buffer of per-lookup
//!   hop events ([`HopEvent`]), sampled by a deterministic hash of the
//!   lookup identity so the complete path of a sampled lookup (every
//!   forward, ack, retransmission, exclusion and drop, with timestamps and
//!   RTO state) can be reconstructed from the dump;
//! * a hand-rolled [`json`] writer for machine-readable artifacts (the
//!   build environment is offline; no serde).
//!
//! On top, [`timeseries`] samples per-interval metric *deltas* on a
//! clock-driven cadence (the `mspastry-ts/1` artifact). The simulator's
//! run-loop self-profile is one more [`Registry`], kept apart from the run's
//! diagnostic one and serialised with the same [`snapshot_json`] schema.
//!
//! A disabled handle ([`Obs::disabled`]) is a `None` — every operation is a
//! single branch, so instrumented code costs nothing in protocol unit tests
//! and library embeddings.

pub mod hist;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod timeseries;

pub use hist::{HistSnapshot, Histogram};
pub use json::JsonWriter;
pub use recorder::{FlightRecorder, HopEvent, HopKind, NO_PEER};
pub use registry::{CounterId, HistId, Registry, Snapshot};
pub use timeseries::{ts_jsonl, TimeSeries, TsWindow, TS_SCHEMA};

use std::cell::RefCell;
use std::cmp::Ordering;
use std::rc::Rc;

#[derive(Debug)]
struct Core {
    registry: Registry,
    recorder: RefCell<FlightRecorder>,
    /// Copy of the recorder's sampling threshold, readable without a
    /// `RefCell` borrow: the sampled-check runs on every forwarded lookup.
    threshold: u64,
    /// Echo every drop event to stderr (the `MSPASTRY_DEBUG_DROPS` path).
    echo_drops: bool,
}

/// A cheap, cloneable handle to one run's observability state.
///
/// The simulator is single-threaded; the handle is an `Rc`, and a disabled
/// handle is a `None` so instrumentation is a single branch when off.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Rc<Core>>,
}

impl Obs {
    /// A no-op handle: every operation is a cheap branch.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// Creates a live handle: a fresh registry plus a flight recorder
    /// sampling `trace_sample_rate` of lookups into a ring of
    /// `trace_capacity` events. `echo_drops` mirrors drop events to stderr.
    pub fn new(trace_sample_rate: f64, trace_capacity: usize, echo_drops: bool) -> Self {
        let recorder = FlightRecorder::new(trace_sample_rate, trace_capacity);
        let threshold = recorder.threshold();
        Obs {
            inner: Some(Rc::new(Core {
                registry: Registry::new(),
                recorder: RefCell::new(recorder),
                threshold,
                echo_drops,
            })),
        }
    }

    /// Registers (or re-finds) a counter. Returns a dummy id when disabled.
    pub fn counter(&self, name: &'static str) -> CounterId {
        match &self.inner {
            Some(c) => c.registry.counter(name),
            None => CounterId(u32::MAX),
        }
    }

    /// Registers (or re-finds) a histogram. Returns a dummy id when disabled.
    pub fn histogram(&self, name: &'static str) -> HistId {
        match &self.inner {
            Some(c) => c.registry.histogram(name),
            None => HistId(u32::MAX),
        }
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        if let Some(c) = &self.inner {
            c.registry.inc(id);
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if let Some(c) = &self.inner {
            c.registry.add(id, n);
        }
    }

    /// Records a histogram sample.
    #[inline]
    pub fn record(&self, id: HistId, v: u64) {
        if let Some(c) = &self.inner {
            c.registry.record(id, v);
        }
    }

    /// `true` if lookup `(src, seq)` is in the trace sample. `false` when
    /// disabled or tracing is off — callers guard event construction on it.
    #[inline]
    pub fn sampled(&self, src: u128, seq: u64) -> bool {
        match &self.inner {
            Some(c) => c.threshold != 0 && recorder::lookup_hash(src, seq) <= c.threshold,
            None => false,
        }
    }

    /// Records a hop event (call only after [`Self::sampled`] said yes; an
    /// unsampled event is recorded anyway — sampling is the caller's gate,
    /// not an invariant of the ring).
    pub fn hop(&self, ev: HopEvent) {
        if let Some(c) = &self.inner {
            c.recorder.borrow_mut().push(ev);
        }
    }

    /// Records a lookup drop: bumps the per-reason counter, mirrors to
    /// stderr when drop echoing is on, and traces the event if sampled.
    pub fn drop_event(&self, reason_counter: CounterId, ev: HopEvent) {
        let Some(c) = &self.inner else {
            return;
        };
        c.registry.inc(reason_counter);
        if c.echo_drops {
            eprintln!(
                "drop at t={} reason={} lookup={:x}#{} node={:x}",
                ev.at_us, ev.note, ev.src, ev.seq, ev.node
            );
        }
        if c.recorder.borrow().sampled(ev.src, ev.seq) {
            c.recorder.borrow_mut().push(ev);
        }
    }

    /// Freezes all counters and histograms.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(c) => c.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// Drains the flight recorder: events in recording order plus the count
    /// of events lost to ring overwrite. The recorder restarts empty.
    pub fn take_trace(&self) -> (Vec<HopEvent>, u64) {
        match &self.inner {
            Some(c) => {
                let (rate, cap) = {
                    let r = c.recorder.borrow();
                    (r.sample_rate(), r.capacity())
                };
                let old = c.recorder.replace(FlightRecorder::new(rate, cap));
                old.into_events()
            }
            None => (Vec::new(), 0),
        }
    }
}

/// Serialises hop events as JSONL (one JSON object per line), in order.
///
/// Node identifiers are lower-case hex strings; the lookup identity is
/// `"<src-hex>#<seq>"` so one field groups a lookup's whole path.
pub fn trace_jsonl(events: &[HopEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        write_hop_jsonl(&mut out, ev);
    }
    out
}

fn write_hop_jsonl(out: &mut String, ev: &HopEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"t\":{},\"kind\":\"{}\",\"lookup\":\"{:x}#{}\",\"node\":\"{:x}\"",
        ev.at_us,
        ev.kind.name(),
        ev.src,
        ev.seq,
        ev.node
    );
    if ev.peer != NO_PEER {
        let _ = write!(out, ",\"peer\":\"{:x}\"", ev.peer);
    }
    let _ = write!(out, ",\"hops\":{},\"attempt\":{}", ev.hops, ev.attempt);
    if ev.detail_us != 0 {
        let _ = write!(out, ",\"detail_us\":{}", ev.detail_us);
    }
    if !ev.note.is_empty() {
        let mut note = String::new();
        json::escape_into(&mut note, ev.note);
        let _ = write!(out, ",\"note\":\"{note}\"");
    }
    out.push_str("}\n");
}

/// The one merge walk over two lists of `(key, value)` pairs, each sorted
/// strictly ascending by key: calls `f` once per distinct key, in ascending
/// order, with the value from each side that holds it.
pub(crate) fn merge_by_key<'a, K: Ord, V>(
    a: &'a [(K, V)],
    b: &'a [(K, V)],
    mut f: impl FnMut(&'a K, Option<&'a V>, Option<&'a V>),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let ord = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => x.0.cmp(&y.0),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        match ord {
            Ordering::Less => {
                f(&a[i].0, Some(&a[i].1), None);
                i += 1;
            }
            Ordering::Greater => {
                f(&b[j].0, None, Some(&b[j].1));
                j += 1;
            }
            Ordering::Equal => {
                f(&a[i].0, Some(&a[i].1), Some(&b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
}

/// Serialises a registry snapshot as a JSON object with `counters` and
/// `histograms` members (both keyed by metric name, sorted).
pub fn snapshot_json(w: &mut JsonWriter, s: &Snapshot) {
    w.begin_object();
    w.key("counters").begin_object();
    for (name, v) in &s.counters {
        w.key(name).u64(*v);
    }
    w.end_object();
    w.key("histograms").begin_object();
    for (name, h) in &s.histograms {
        w.key(name).begin_object();
        w.field_u64("count", h.count)
            .field_u64("sum", h.sum)
            .field_opt_u64("min", h.min)
            .field_opt_u64("max", h.max)
            .field_opt_u64("p50", h.p50)
            .field_opt_u64("p90", h.p90)
            .field_opt_u64("p99", h.p99);
        w.key("buckets").begin_array();
        for &(lb, c) in &h.buckets {
            w.begin_array().u64(lb).u64(c).end_array();
        }
        w.end_array();
        w.end_object();
    }
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let o = Obs::disabled();
        let c = o.counter("x");
        let h = o.histogram("y");
        o.inc(c);
        o.add(c, 5);
        o.record(h, 42);
        assert!(!o.sampled(1, 2));
        let s = o.snapshot();
        assert!(s.counters.is_empty() && s.histograms.is_empty());
        assert_eq!(o.take_trace().0.len(), 0);
    }

    #[test]
    fn enabled_handle_collects_and_snapshots() {
        let o = Obs::new(1.0, 16, false);
        let c = o.counter("sends");
        o.inc(c);
        o.inc(c);
        let h = o.histogram("lat");
        o.record(h, 9);
        assert!(o.sampled(1, 2));
        o.hop(HopEvent {
            at_us: 5,
            node: 1,
            src: 1,
            seq: 2,
            kind: HopKind::Issue,
            peer: NO_PEER,
            hops: 0,
            attempt: 0,
            detail_us: 0,
            note: "",
        });
        let s = o.snapshot();
        assert_eq!(s.counter("sends"), 2);
        assert_eq!(s.histogram("lat").unwrap().count, 1);
        let (trace, lost) = o.take_trace();
        assert_eq!((trace.len(), lost), (1, 0));
        assert_eq!(trace[0].kind, HopKind::Issue);
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new(0.0, 16, false);
        let b = a.clone();
        let c = a.counter("n");
        b.inc(b.counter("n"));
        a.inc(c);
        assert_eq!(a.snapshot().counter("n"), 2);
    }

    #[test]
    fn jsonl_lines_parse_shape() {
        let ev = HopEvent {
            at_us: 100,
            node: 0xab,
            src: 0xcd,
            seq: 7,
            kind: HopKind::Drop,
            peer: 0xef,
            hops: 3,
            attempt: 1,
            detail_us: 250,
            note: "no-route",
        };
        let line = trace_jsonl(&[ev]);
        assert_eq!(
            line,
            "{\"t\":100,\"kind\":\"drop\",\"lookup\":\"cd#7\",\"node\":\"ab\",\"peer\":\"ef\",\"hops\":3,\"attempt\":1,\"detail_us\":250,\"note\":\"no-route\"}\n"
        );
    }

    #[test]
    fn merge_by_key_matches_a_btreemap_fold() {
        use std::collections::BTreeMap;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..500 {
            // Random strictly ascending key lists drawn from a small range,
            // so the two sides overlap, interleave or run out early.
            let mut side = |len: u64| {
                let mut keys: Vec<u64> = (0..next(len)).map(|_| next(40)).collect();
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter()
                    .map(|k| (k, next(1000)))
                    .collect::<Vec<_>>()
            };
            let (a, b) = (side(30), side(30));
            let mut walked = Vec::new();
            merge_by_key(&a, &b, |k, x, y| walked.push((*k, x.copied(), y.copied())));
            let mut model: BTreeMap<u64, (Option<u64>, Option<u64>)> = BTreeMap::new();
            for &(k, v) in &a {
                model.entry(k).or_default().0 = Some(v);
            }
            for &(k, v) in &b {
                model.entry(k).or_default().1 = Some(v);
            }
            let expected: Vec<_> = model.into_iter().map(|(k, (x, y))| (k, x, y)).collect();
            assert_eq!(walked, expected, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn snapshot_json_is_valid_shape() {
        let o = Obs::new(0.0, 1, false);
        o.inc(o.counter("a"));
        o.record(o.histogram("h"), 3);
        let mut w = JsonWriter::new();
        snapshot_json(&mut w, &o.snapshot());
        let s = w.finish();
        assert!(s.starts_with("{\"counters\":{\"a\":1}"));
        assert!(s.contains("\"histograms\":{\"h\":{\"count\":1"));
        assert!(s.ends_with("}}"));
    }
}
