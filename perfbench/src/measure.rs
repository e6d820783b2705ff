//! The two measurements: the untraced timed run (end-to-end metrics) and
//! the traced run (per-layer metrics), each rendered as one JSON object.

use crate::ledger::{coverage, Ledger};
use crate::traced::{
    self, span, Counters, TracedRun, COMMANDS, COMMAND_MECHANISM, MECHANISMS, MSG_KINDS,
    MSG_MECHANISM, TIMER_KINDS, TIMER_MECHANISM,
};
use crate::workloads::{self, Plan, SWEEP_SEEDS};
use harness::{Report, RunResult, Scale, SweepConfig, SweepResult};
use obs::{JsonWriter, Snapshot};
use std::time::{Duration, Instant};
use topology::Topology;

/// A metric as the benchmark reports it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The simulated-time outcome of a workload: what must repeat exactly for a
/// fixed seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Simulation events.
    pub sim_events: u64,
    /// Lookups delivered.
    pub delivered: u64,
    /// Lookups lost.
    pub lost: u64,
    /// Deliveries at a node that was not the key's root.
    pub incorrect: u64,
    /// Lookup latency samples behind the quantiles.
    pub latency_samples: u64,
    /// Mean lookup latency, simulated ms.
    pub lookup_mean_ms: f64,
    /// Median lookup latency (histogram bucket lower bound), simulated ms.
    pub lookup_p50_ms: f64,
    /// 99th-percentile lookup latency (histogram bucket lower bound),
    /// simulated ms.
    pub lookup_p99_ms: f64,
    /// Mean relative delay penalty.
    pub mean_rdp: f64,
    /// Control messages per node per simulated second.
    pub control_msgs_per_node_s: f64,
    /// Wire bytes per node per simulated second.
    pub wire_bytes_per_node_s: f64,
}

impl Outcome {
    /// Folds the runs of one workload: counts are summed, latency
    /// histograms merged and the per-node rates averaged over runs.
    pub fn of(runs: &[(u64, &Report, &Snapshot)]) -> Outcome {
        let mut diag = Snapshot::default();
        let n = runs.len() as f64;
        let mut o = Outcome::default();
        for &(events, r, d) in runs {
            o.sim_events += events;
            o.delivered += r.delivered;
            o.lost += r.lost;
            o.incorrect += r.incorrect;
            o.mean_rdp += r.mean_rdp / n;
            o.control_msgs_per_node_s += r.control_msgs_per_node_per_sec / n;
            o.wire_bytes_per_node_s += r.bytes_per_node_per_sec / n;
            diag.merge(d);
        }
        if let Some(h) = diag.histogram("lookup.latency_us") {
            o.latency_samples = h.count;
            o.lookup_mean_ms = h.sum as f64 / h.count.max(1) as f64 / 1e3;
            o.lookup_p50_ms = h.p50.unwrap_or(0) as f64 / 1e3;
            o.lookup_p99_ms = h.p99.unwrap_or(0) as f64 / 1e3;
        }
        o
    }

    /// Measured lookups: delivered plus lost.
    pub fn measured_lookups(&self) -> u64 {
        self.delivered + self.lost
    }

    /// (lost + incorrect) / (delivered + lost).
    pub fn lookup_fail_ratio(&self) -> f64 {
        ratio(self.lost + self.incorrect, self.measured_lookups())
    }

    /// incorrect / (delivered + lost): the §3.1 claim is that it is 0
    /// without network loss.
    pub fn incorrect_rate(&self) -> f64 {
        ratio(self.incorrect, self.measured_lookups())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        scale: Scale::Quick,
        seeds: SWEEP_SEEDS,
        jobs: pool::available_jobs(),
        progress: false,
    }
}

/// Every run of a workload, in grid order.
enum Runs {
    Single(RunResult),
    Sweep(SweepResult),
}

impl Runs {
    fn execute(plan: &Plan) -> Runs {
        match plan {
            Plan::Single(cfg) => Runs::Single(harness::run(cfg.clone())),
            Plan::Sweep(sc) => Runs::Sweep(harness::run_sweep(sc, &sweep_config())),
        }
    }

    fn results(&self) -> Vec<&RunResult> {
        match self {
            Runs::Single(r) => vec![r],
            Runs::Sweep(s) => s.points.iter().flat_map(|p| p.runs.iter()).collect(),
        }
    }

    fn outcome(&self) -> Outcome {
        let rs = self.results();
        let v: Vec<_> = rs
            .iter()
            .map(|r| (r.sim_events, &r.report, &r.diag))
            .collect();
        Outcome::of(&v)
    }

    /// Whether two executions produced identical simulations.
    fn same_as(&self, other: &Runs) -> bool {
        let (a, b) = (self.results(), other.results());
        a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.sim_events == y.sim_events && x.report == y.report && x.diag == y.diag
            })
    }
}

/// Seconds to build a workload's inputs: trace synthesis plus
/// `Topology::build` for every run configuration.
pub fn setup_once(name: &str, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let plan = workloads::plan(name, seed)?;
    for cfg in workloads::configs(&plan) {
        std::hint::black_box(Topology::build(cfg.topology.clone()));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where procfs
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups timed per timed run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// The untraced timed run: repeated executions of the workload for about
/// `seconds` (at least one; another starts only if it is expected to end
/// in time), then [`SETUP_REPS`] set-ups. Wall and set-up times are medians;
/// peak RSS is read right after the first execution, so it does not depend
/// on how many executions fit; every execution must repeat the first
/// exactly.
pub fn timed(name: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let plan = workloads::plan(name, seed)?;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Runs> = None;
    let mut rss_mb = 0.0;
    let mut deterministic = true;
    loop {
        let t = Instant::now();
        let runs = Runs::execute(&plan);
        let wall = t.elapsed();
        walls.push(wall.as_secs_f64());
        match &first {
            None => {
                rss_mb = peak_rss_mb();
                first = Some(runs);
            }
            Some(f) => deterministic &= f.same_as(&runs),
        }
        if start.elapsed() + wall > budget {
            break;
        }
    }
    let setups = (0..SETUP_REPS)
        .map(|_| setup_once(name, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let first = first.expect("at least one execution");
    let o = first.outcome();
    let metrics = end_to_end_metrics(median(&walls), median(&setups), rss_mb, &o);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("mode", "timed")
        .field_str("workload", name)
        .field_u64("seed", seed);
    write_metrics(&mut w, &metrics);
    w.key("outcome");
    write_outcome(&mut w, &o);
    w.field_u64("runs", (walls.len() * first.results().len()) as u64);
    w.field_u64("executions", walls.len() as u64);
    w.key("wall_each_s").begin_array();
    for x in &walls {
        w.f64(*x);
    }
    w.end_array();
    w.key("deterministic").bool(deterministic);
    w.end_object();
    Ok(w.finish())
}

/// The end-to-end metrics of a workload.
pub fn end_to_end_metrics(wall_s: f64, setup_s: f64, rss_mb: f64, o: &Outcome) -> Vec<Metric> {
    vec![
        metric("wall_s", wall_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("lookup_mean_ms", o.lookup_mean_ms, "sim_ms"),
        metric("mean_rdp", o.mean_rdp, "ratio"),
        metric(
            "control_msgs_per_node_s",
            o.control_msgs_per_node_s,
            "msg/node/s",
        ),
        metric("wire_bytes_per_node_s", o.wire_bytes_per_node_s, "B/node/s"),
    ]
}

fn write_metrics(w: &mut JsonWriter, metrics: &[Metric]) {
    w.key("metrics").begin_object();
    for m in metrics {
        w.key(&m.name).begin_object();
        w.field_f64("value", m.value).field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
}

fn write_outcome(w: &mut JsonWriter, o: &Outcome) {
    w.begin_object();
    w.field_u64("sim_events", o.sim_events)
        .field_u64("delivered", o.delivered)
        .field_u64("lost", o.lost)
        .field_u64("incorrect", o.incorrect)
        .field_u64("measured_lookups", o.measured_lookups())
        .field_f64("lookup_fail_ratio", o.lookup_fail_ratio())
        .field_f64("incorrect_rate", o.incorrect_rate())
        .field_u64("latency_samples", o.latency_samples)
        .field_f64("lookup_mean_ms", o.lookup_mean_ms)
        .field_f64("lookup_p50_ms", o.lookup_p50_ms)
        .field_f64("lookup_p99_ms", o.lookup_p99_ms)
        .field_f64("mean_rdp", o.mean_rdp)
        .field_f64("control_msgs_per_node_s", o.control_msgs_per_node_s)
        .field_f64("wire_bytes_per_node_s", o.wire_bytes_per_node_s);
    w.end_object();
}

/// Host-side timings of a traced workload that are not span self times.
#[derive(Debug, Clone, Default)]
pub struct HostTimes {
    /// Trace synthesis (building the run configurations), ms.
    pub trace_ms: f64,
    /// The untraced execution, seconds.
    pub untraced_s: f64,
    /// The traced execution, seconds.
    pub traced_s: f64,
    /// Pool workers.
    pub jobs: usize,
    /// Share of the workers' time spent idle during the traced execution.
    pub idle_frac: f64,
    /// Per-run traced seconds, in grid order.
    pub run_s: Vec<f64>,
    /// Sweep aggregation (per-point diagnostic merge and artifact
    /// rendering), ms.
    pub aggregate_ms: f64,
}

/// The per-layer metrics of a traced workload.
pub fn layer_metrics(ledger: &Ledger, c: &Counters, o: &Outcome, h: &HostTimes) -> Vec<Metric> {
    let ms = |id| ledger.self_ms(id);
    let calls = |id| ledger.calls(id) as f64;
    let mut m = vec![
        metric(
            "netsim.queue.schedule_calls",
            calls(span::QUEUE_SCHEDULE),
            "count",
        ),
        metric("netsim.queue.pop_calls", calls(span::QUEUE_POP), "count"),
        metric(
            "netsim.queue.busy_ms",
            ms(span::QUEUE_SCHEDULE) + ms(span::QUEUE_POP),
            "ms",
        ),
        metric(
            "netsim.queue.depth_mean",
            c.depth_sum as f64 / o.sim_events.max(1) as f64,
            "count",
        ),
        metric("netsim.queue.depth_max", c.depth_max as f64, "count"),
        metric(
            "netsim.network.sample_calls",
            c.sample_calls as f64,
            "count",
        ),
        metric("netsim.network.lost", c.lost as f64, "count"),
        metric("netsim.network.busy_ms", ms(span::NETWORK), "ms"),
        metric("topology.build_ms", ms(span::TOPOLOGY_BUILD), "ms"),
        metric("topology.rows_materialized", c.rows_built as f64, "count"),
        metric("topology.row_build_ms", ms(span::ROW_BUILD), "ms"),
    ];
    // Protocol steps: per kind, per mechanism, in total.
    let steps: Vec<(String, usize, usize)> = MSG_KINDS
        .iter()
        .enumerate()
        .map(|(k, n)| (format!("msg.{n}"), span::MSG + k, MSG_MECHANISM[k]))
        .chain(
            TIMER_KINDS
                .iter()
                .enumerate()
                .map(|(k, n)| (format!("timer.{n}"), span::TIMER + k, TIMER_MECHANISM[k])),
        )
        .chain(
            COMMANDS
                .iter()
                .enumerate()
                .map(|(k, n)| (n.to_string(), span::COMMAND + k, COMMAND_MECHANISM[k])),
        )
        .collect();
    let total_steps: f64 = steps.iter().map(|s| calls(s.1)).sum();
    let total_self: f64 = steps.iter().map(|s| ms(s.1)).sum();
    m.push(metric("mspastry.steps", total_steps, "count"));
    m.push(metric("mspastry.self_ms", total_self, "ms"));
    m.push(metric(
        "mspastry.actions_per_step",
        c.host_calls as f64 / total_steps.max(1.0),
        "ratio",
    ));
    for (i, mech) in MECHANISMS.iter().enumerate() {
        let of = steps.iter().filter(|s| s.2 == i);
        let (events, self_ms) = of.fold((0.0, 0.0), |(e, t), s| (e + calls(s.1), t + ms(s.1)));
        m.push(metric(format!("mspastry.{mech}.events"), events, "count"));
        m.push(metric(format!("mspastry.{mech}.self_ms"), self_ms, "ms"));
    }
    for (name, id, _) in &steps {
        m.push(metric(
            format!("mspastry.{name}.count"),
            calls(*id),
            "count",
        ));
        m.push(metric(format!("mspastry.{name}.self_ms"), ms(*id), "ms"));
    }
    m.push(metric(
        "mspastry.timer.noop_ratio",
        ratio(c.noop_timer_steps, c.timer_steps),
        "ratio",
    ));
    m.push(metric(
        "codec.encoded_len_calls",
        calls(span::CODEC),
        "count",
    ));
    m.push(metric("codec.encoded_len_ms", ms(span::CODEC), "ms"));
    m.push(metric("codec.bytes", c.bytes as f64, "B"));
    let metric_spans = [
        span::METRICS_ON_SEND,
        span::METRICS_ON_SEND_KIND,
        span::METRICS_LOOKUP,
        span::METRICS_OTHER,
    ];
    m.extend([
        metric(
            "harness.metrics.on_send_ms",
            ms(span::METRICS_ON_SEND),
            "ms",
        ),
        metric(
            "harness.metrics.on_send_kind_ms",
            ms(span::METRICS_ON_SEND_KIND),
            "ms",
        ),
        metric("harness.metrics.lookup_ms", ms(span::METRICS_LOOKUP), "ms"),
        metric("harness.metrics.other_ms", ms(span::METRICS_OTHER), "ms"),
        metric(
            "harness.metrics.calls",
            metric_spans.iter().map(|&s| calls(s)).sum(),
            "count",
        ),
        metric("harness.oracle.calls", calls(span::ORACLE), "count"),
        metric("harness.oracle.busy_ms", ms(span::ORACLE), "ms"),
        metric("harness.addr.busy_ms", ms(span::ADDR), "ms"),
        metric("harness.session.busy_ms", ms(span::SESSION), "ms"),
        metric("harness.src_ep.entries", c.src_ep_entries as f64, "count"),
        metric(
            "harness.timer.dead_endpoint",
            c.dead_endpoint_timers as f64,
            "count",
        ),
        metric("harness.sim_events", o.sim_events as f64, "count"),
        metric(
            "harness.events_per_s",
            o.sim_events as f64 / h.untraced_s,
            "1/s",
        ),
        metric("harness.loop_other_ms", ms(crate::ledger::ROOT), "ms"),
        metric("harness.tracer_ms", ledger.tracer_ms(), "ms"),
        metric(
            "harness.coverage",
            coverage(ms(crate::ledger::ROOT), ledger.wall_ms()),
            "ratio",
        ),
        metric("harness.trace_overhead", h.traced_s / h.untraced_s, "ratio"),
        metric("harness.lookup_fail_ratio", o.lookup_fail_ratio(), "ratio"),
        metric(
            "harness.measured_lookups",
            o.measured_lookups() as f64,
            "count",
        ),
        metric("harness.incorrect_rate", o.incorrect_rate(), "ratio"),
        metric("harness.lookup_p50_ms", o.lookup_p50_ms, "sim_ms"),
        metric("harness.lookup_p99_ms", o.lookup_p99_ms, "sim_ms"),
        metric("harness.latency_samples", o.latency_samples as f64, "count"),
        metric("churn.trace_ms", h.trace_ms, "ms"),
        metric("pool.jobs", h.jobs as f64, "count"),
        metric("pool.idle_frac", h.idle_frac, "ratio"),
        metric("sweep.run_s_median", median(&h.run_s), "s"),
        metric(
            "sweep.run_s_max",
            h.run_s.iter().cloned().fold(0.0, f64::max),
            "s",
        ),
        metric("sweep.aggregate_ms", h.aggregate_ms, "ms"),
    ]);
    m
}

/// The traced run of workload `name`: an untraced execution as reference,
/// then the traced copy of every run (on the pool for a sweep), gated on
/// reproducing the reference exactly (`"gate"` in the output). Span totals
/// and sampled span trees go to `spans_out` as JSON lines.
pub fn traced(name: &str, seed: u64, spans_out: Option<&str>) -> Result<String, String> {
    let t = Instant::now();
    let plan = workloads::plan(name, seed)?;
    let cfgs = workloads::configs(&plan);
    let mut h = HostTimes {
        trace_ms: t.elapsed().as_secs_f64() * 1e3,
        jobs: 1,
        ..HostTimes::default()
    };
    let t = Instant::now();
    let reference = Runs::execute(&plan);
    h.untraced_s = t.elapsed().as_secs_f64();
    if let Runs::Sweep(res) = &reference {
        let t = Instant::now();
        for p in &res.points {
            let mut d = Snapshot::default();
            for r in &p.runs {
                d.merge(&r.diag);
            }
            std::hint::black_box(d);
        }
        std::hint::black_box(harness::sweep_json(res));
        h.aggregate_ms = t.elapsed().as_secs_f64() * 1e3;
        h.jobs = sweep_config().jobs;
    }
    let t = Instant::now();
    let traced: Vec<(TracedRun, f64)> = pool::map(h.jobs, cfgs.len(), |i| {
        let t = Instant::now();
        (traced::run(cfgs[i].clone()), t.elapsed().as_secs_f64())
    });
    h.traced_s = t.elapsed().as_secs_f64();
    let refs = reference.results();
    let gate: Result<(), String> =
        traced
            .iter()
            .zip(&refs)
            .enumerate()
            .try_for_each(|(i, ((tr, _), r))| {
                traced::gate(tr, r).map_err(|e| format!("traced run {i}: {e}"))
            });
    h.run_s = traced.iter().map(|x| x.1).collect();
    // The workers are busy exactly while they run cells.
    let busy_s: f64 = h.run_s.iter().sum();
    h.idle_frac = (1.0 - busy_s / (h.jobs as f64 * h.traced_s)).max(0.0);

    let mut it = traced.into_iter();
    let (first, _) = it.next().expect("a workload has at least one run");
    let mut ledger = first.ledger;
    let mut counters = first.counters;
    for (tr, _) in it {
        ledger.merge(&tr.ledger);
        counters.merge(&tr.counters);
    }
    let o = reference.outcome();
    let metrics = layer_metrics(&ledger, &counters, &o, &h);
    if let Some(path) = spans_out {
        std::fs::write(path, spans_jsonl(&ledger))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("mode", "traced")
        .field_str("workload", name)
        .field_u64("seed", seed);
    write_metrics(&mut w, &metrics);
    w.key("outcome");
    write_outcome(&mut w, &o);
    w.field_u64("runs", cfgs.len() as u64);
    w.key("gate").bool(gate.is_ok());
    if let Err(e) = &gate {
        w.field_str("gate_error", e);
    }
    w.end_object();
    Ok(w.finish())
}

/// Span totals (one line per span name) followed by the sampled span trees
/// (one line per tree), as JSON lines.
pub fn spans_jsonl(l: &Ledger) -> String {
    let mut out = String::new();
    for (id, name) in l.names().iter().enumerate() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("span", name)
            .field_u64("calls", l.calls(id))
            .field_f64("self_ms", l.self_ms(id));
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    let ns = l.ns_per_tick();
    for tree in l.trees() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("event", tree.event);
        w.key("spans").begin_array();
        for s in &tree.spans {
            w.begin_object();
            w.field_str("span", l.names()[s.id])
                .field_u64("depth", s.depth as u64)
                .field_u64("start_ns", (s.start as f64 * ns) as u64)
                .field_u64("dur_ns", (s.dur as f64 * ns) as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}
