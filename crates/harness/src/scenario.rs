//! Declarative experiments: the scenario engine.
//!
//! Every result in the paper's §5 has one shape — pick a topology, a churn
//! trace, a workload and a parameter point; run; window the metrics. A
//! [`Scenario`] captures that shape declaratively: it names an experiment,
//! expands, for a given [`Scale`], into labelled [`ScenarioPoint`]s, each of
//! which builds a concrete [`RunConfig`] for any seed index, and renders the
//! paper's tables from the results ([`crate::table`]). The [`Registry`] maps
//! experiment names (`fig4_traces`, `exp_ablation`, ...) to scenarios so the
//! `mspastry-sim` CLI, the benchmarks and the examples all launch the *same*
//! configurations from one code path; the companion [`crate::sweep`] module
//! executes a scenario's (point × seed) grid across worker threads.
//!
//! # Seed indices
//!
//! Scenario builders take a *seed index*, not a raw RNG seed. Index 0
//! reproduces the published configuration of the experiment
//! bit-for-bit (same churn-trace seeds, same run seeds); index `k` shifts
//! every churn-trace seed by `k *` [`SEED_TRACE_STRIDE`] and every run seed
//! by `k *` [`SEED_RUN_STRIDE`], giving statistically independent repeats
//! that remain fully deterministic.

use crate::metrics::{category_index, series_index, WindowReport, CATEGORY_NAMES};
use crate::runner::{RunConfig, Workload};
use crate::sweep::SweepResult;
use crate::table::{nums, point_table, seed_mean, Cell, Column, Fmt, Table};
use churn::gnutella::GnutellaParams;
use churn::microsoft::MicrosoftParams;
use churn::overnet::OvernetParams;
use churn::poisson::PoissonParams;
use churn::Trace;
use mspastry::Category;
use topology::TopologyKind;

/// One minute in microseconds.
pub const MIN: u64 = 60 * 1_000_000;
/// One hour in microseconds.
pub const HOUR: u64 = 60 * MIN;

/// Offset applied to every churn-trace seed per seed index (see the module
/// docs on seed indices).
pub const SEED_TRACE_STRIDE: u64 = 1_000;
/// Offset applied to every run seed (`RunConfig::seed`) per seed index.
pub const SEED_RUN_STRIDE: u64 = 100_000;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down runs (default; minutes of wall time).
    Quick,
    /// Paper-scale runs (hours of wall time).
    Full,
}

impl Scale {
    /// Lower-case name (`quick`/`full`), used in artifact file names.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// Reads the scale from `MSPASTRY_SCALE` (`quick`/`full`).
pub fn scale() -> Scale {
    match std::env::var("MSPASTRY_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// The Gnutella-like trace at the given scale and seed index.
fn gnutella_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::gnutella::trace(&GnutellaParams {
            seed: GnutellaParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.1,
            duration_us: 24 * HOUR,
            seed: GnutellaParams::default().seed + shift,
        }),
    }
}

/// The OverNet-like trace at the given scale and seed index.
fn overnet_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::overnet::trace(&OvernetParams {
            seed: OvernetParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::overnet::trace(&OvernetParams {
            population_scale: 0.4,
            duration_us: 24 * HOUR,
            seed: OvernetParams::default().seed + shift,
        }),
    }
}

/// The Microsoft-corporate-like trace at the given scale and seed index.
fn microsoft_trace_seeded(s: Scale, seed: u64) -> Trace {
    let shift = seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::microsoft::trace(&MicrosoftParams {
            seed: MicrosoftParams::default().seed + shift,
            ..Default::default()
        }),
        Scale::Quick => churn::microsoft::trace(&MicrosoftParams {
            population_scale: 0.012,
            duration_us: 48 * HOUR,
            seed: MicrosoftParams::default().seed + shift,
        }),
    }
}

/// A short Gnutella-like trace for parameter sweeps (many runs). `point` is
/// the per-point trace-seed offset; `seed` is the sweep seed index.
fn gnutella_sweep_trace_seeded(s: Scale, point: u64, seed: u64) -> Trace {
    let p = point + seed * SEED_TRACE_STRIDE;
    match s {
        Scale::Full => churn::gnutella::trace(&GnutellaParams {
            seed: 101 + p,
            ..Default::default()
        }),
        Scale::Quick => churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.08,
            duration_us: 2 * HOUR,
            seed: 101 + p,
        }),
    }
}

/// The GATech topology at the given scale.
pub fn gatech(s: Scale) -> TopologyKind {
    match s {
        Scale::Full => TopologyKind::GaTech,
        Scale::Quick => TopologyKind::GaTechSmall,
    }
}

/// The base configuration of §5.1 around a trace.
///
/// Quick mode shortens the routing-table maintenance period from the paper's
/// 20 minutes to 5: PNS converges through maintenance gossip *rounds*, and a
/// quick trace is ~25x shorter than the paper's 60-hour runs, so the round
/// count — not the wall-clock period — is what must be preserved.
pub fn base_config(s: Scale, trace: Trace) -> RunConfig {
    let mut cfg = RunConfig::new(trace);
    cfg.topology = gatech(s);
    if s == Scale::Quick {
        cfg.protocol.rt_maintenance_period_us = 5 * MIN;
    }
    cfg
}

/// Applies the standard seed-index shift to a run configuration.
fn shift_run_seed(cfg: &mut RunConfig, seed: u64) {
    cfg.seed += seed * SEED_RUN_STRIDE;
}

/// One runnable parameter point of a scenario: a label (the sweep-axis
/// value, e.g. `l=16`) plus a builder producing the point's [`RunConfig`]
/// for any seed index.
pub struct ScenarioPoint {
    /// Point label; doubles as the artifact row key.
    pub label: String,
    /// Builds the run configuration for one seed index.
    pub build: Box<dyn Fn(u64) -> RunConfig + Send + Sync>,
}

impl ScenarioPoint {
    /// Creates a point from a label and builder closure.
    pub fn new(
        label: impl Into<String>,
        build: impl Fn(u64) -> RunConfig + Send + Sync + 'static,
    ) -> Self {
        ScenarioPoint {
            label: label.into(),
            build: Box::new(build),
        }
    }
}

impl std::fmt::Debug for ScenarioPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioPoint")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// A named, declarative experiment: expands into parameter points at a
/// given scale and reports their results as the paper's tables. `points`
/// and `report` are plain function pointers so registries are cheap,
/// `'static`, and constructible from any crate (higher layers register
/// scenarios whose builders need application code — e.g. the Squirrel
/// workload).
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Registry name (also the artifact file stem), e.g. `fig6_loss`.
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// The paper figure/section this scenario reproduces, e.g. `Fig. 6`.
    pub figure: &'static str,
    /// Expands the scenario into its parameter points at a scale.
    pub points: fn(Scale) -> Vec<ScenarioPoint>,
    /// Renders the sweep's results as the paper's tables.
    pub report: fn(&SweepResult) -> Vec<Table>,
}

impl Scenario {
    /// The scenario's points at `scale`.
    pub fn expand(&self, scale: Scale) -> Vec<ScenarioPoint> {
        (self.points)(scale)
    }
}

/// A name → [`Scenario`] registry.
///
/// [`Registry::builtin`] holds every experiment expressible from the
/// harness layer (fig3–fig7, the §5.3 text experiments, the graceful-leave
/// extension and the CI smoke run); application-backed scenarios
/// (`fig8_squirrel`, `exp_replication`) are added by the `bench` crate via
/// [`Registry::register`].
#[derive(Debug, Clone, Default)]
pub struct Registry {
    scenarios: Vec<Scenario>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in scenarios, in paper order.
    pub fn builtin() -> Self {
        let mut r = Registry::new();
        for s in BUILTIN {
            r.register(*s);
        }
        r
    }

    /// Adds (or replaces, by name) a scenario.
    pub fn register(&mut self, s: Scenario) {
        if let Some(existing) = self.scenarios.iter_mut().find(|e| e.name == s.name) {
            *existing = s;
        } else {
            self.scenarios.push(s);
        }
    }

    /// Looks up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }
}

/// The built-in scenario table (see [`Registry::builtin`]).
static BUILTIN: &[Scenario] = &[
    Scenario {
        name: "smoke",
        title: "30-minute Gnutella smoke run (~60 nodes): CI and quick sanity checks",
        figure: "CI",
        points: smoke_points,
        report: smoke_report,
    },
    Scenario {
        name: "fig3_failure_rates",
        title: "the three real-world churn traces under the base configuration",
        figure: "Fig. 3",
        points: fig3_points,
        report: fig3_report,
    },
    Scenario {
        name: "fig4_traces",
        title: "RDP and control traffic vs normalized time for the three traces",
        figure: "Fig. 4",
        points: fig4_points,
        report: fig4_report,
    },
    Scenario {
        name: "fig5_sessions",
        title: "Poisson traces: mean session time sweep (5..600 minutes)",
        figure: "Fig. 5",
        points: fig5_points,
        report: fig5_report,
    },
    Scenario {
        name: "fig6_loss",
        title: "uniform network message loss sweep (0..5%), Gnutella trace",
        figure: "Fig. 6",
        points: fig6_points,
        report: fig6_report,
    },
    Scenario {
        name: "fig7_params",
        title: "leaf-set size l and digit width b sweeps, Gnutella trace",
        figure: "Fig. 7",
        points: fig7_points,
        report: fig7_report,
    },
    Scenario {
        name: "exp_topology",
        title: "Gnutella trace on the CorpNet, GATech and Mercator topologies",
        figure: "§5.3 table",
        points: exp_topology_points,
        report: exp_topology_report,
    },
    Scenario {
        name: "exp_ablation",
        title: "per-hop acks and active probing on/off, plus the low-traffic delay contribution",
        figure: "§5.3 text",
        points: exp_ablation_points,
        report: exp_ablation_report,
    },
    Scenario {
        name: "exp_selftuning",
        title: "achieved raw loss vs self-tuning target (per-hop acks off)",
        figure: "§5.3 text",
        points: exp_selftuning_points,
        report: exp_selftuning_report,
    },
    Scenario {
        name: "exp_suppression",
        title: "liveness-probe suppression by application traffic",
        figure: "§5.3 text",
        points: exp_suppression_points,
        report: exp_suppression_report,
    },
    Scenario {
        name: "exp_leave",
        title: "graceful-leave extension: announced departures vs silent crashes",
        figure: "extension",
        points: exp_leave_points,
        report: exp_leave_report,
    },
];

/// Report columns shared by several scenarios.
const RDP: Column = ("RDP", Fmt::Fixed(2), |r| r.report.mean_rdp);
const HOPS: Column = ("hops", Fmt::Fixed(2), |r| r.report.mean_hops);
const CONTROL: Column = ("control msg/s/node", Fmt::Fixed(3), |r| {
    r.report.control_msgs_per_node_per_sec
});
const LOSS: Column = ("loss", Fmt::Sci(1), |r| r.report.loss_rate);
const INCORRECT: Column = ("incorrect", Fmt::Sci(1), |r| r.report.incorrect_rate);
const LEAFSET: Column = ("leafset/s/n", Fmt::Fixed(4), |r| {
    r.report.totals_per_node_per_sec[category_index(Category::LeafSet)]
});

fn smoke_points(s: Scale) -> Vec<ScenarioPoint> {
    vec![ScenarioPoint::new("smoke", move |seed| {
        let trace = churn::gnutella::trace(&GnutellaParams {
            population_scale: 0.03,
            duration_us: 30 * MIN,
            seed: 101 + seed * SEED_TRACE_STRIDE,
        });
        let mut cfg = base_config(s, trace);
        cfg.topology = TopologyKind::GaTechSmall;
        shift_run_seed(&mut cfg, seed);
        cfg
    })]
}

fn smoke_report(sw: &SweepResult) -> Vec<Table> {
    let loss = ("loss", Fmt::Sci(2), LOSS.2);
    let incorrect = ("incorrect", Fmt::Sci(2), INCORRECT.2);
    let cols = [loss, incorrect, RDP, ("ctl/s/n", CONTROL.1, CONTROL.2)];
    vec![point_table("points", "seed means", &sw.points, &cols)]
}

/// The three real-world traces under the base configuration. Shared by the
/// fig3 and fig4 scenarios (fig4 additionally widens the Microsoft metrics
/// window to an hour, matching the paper's plots).
fn trace_triple_points(s: Scale, microsoft_hour_windows: bool) -> Vec<ScenarioPoint> {
    let mut pts = vec![
        ScenarioPoint::new("Gnutella", move |seed| {
            let mut cfg = base_config(s, gnutella_trace_seeded(s, seed));
            shift_run_seed(&mut cfg, seed);
            cfg
        }),
        ScenarioPoint::new("OverNet", move |seed| {
            let mut cfg = base_config(s, overnet_trace_seeded(s, seed));
            shift_run_seed(&mut cfg, seed);
            cfg
        }),
    ];
    pts.push(ScenarioPoint::new("Microsoft", move |seed| {
        let mut cfg = base_config(s, microsoft_trace_seeded(s, seed));
        if microsoft_hour_windows {
            cfg.metrics_window_us = HOUR;
        }
        shift_run_seed(&mut cfg, seed);
        cfg
    }));
    pts
}

fn fig3_points(s: Scale) -> Vec<ScenarioPoint> {
    trace_triple_points(s, false)
}

fn fig4_points(s: Scale) -> Vec<ScenarioPoint> {
    trace_triple_points(s, true)
}

/// Failure rate per trace over time, from the full-scale traces rather than
/// the sweep's runs: they are cheap to generate and show the weekly pattern.
fn fig3_report(_: &SweepResult) -> Vec<Table> {
    let mut tables = Vec::new();
    for p in fig3_points(Scale::Full) {
        let trace = (p.build)(0).trace;
        // Hourly windows for the (much longer) Microsoft trace, as in the
        // paper; 10-minute windows otherwise.
        let window = HOUR / if p.label == "Microsoft" { 1 } else { 6 };
        let hours = trace.duration_us() as f64 / 3600e6;
        let title = format!("{} ({hours:.0} h, {}-min windows)", p.label, window / MIN);
        let header = ["hour (every 6th)", "fail/node/s", "active"];
        let mut t = Table::new(p.label.to_lowercase(), title, &header);
        let (mut lo, mut hi) = (f64::MAX, 0f64);
        let series = trace.failure_rate_series(window);
        for chunk in series.chunks((HOUR / window) as usize) {
            let (t0, h) = (chunk[0].0, chunk[0].0 / HOUR);
            let mean = chunk.iter().map(|(_, r)| r).sum::<f64>() / chunk.len() as f64;
            hi = hi.max(mean);
            if t0 > 2 * HOUR {
                lo = lo.min(mean);
            }
            // Every 6th hour, to bound the output.
            if h.is_multiple_of(6) {
                let n = trace.active_at(t0 + window / 2) as f64;
                let row = nums(&[(h as f64, Fmt::Int), (mean, Fmt::Sci(1)), (n, Fmt::Int)]);
                t.rows.push(row);
            }
        }
        let (lo, hi) = (Fmt::Sci(1).render(lo), Fmt::Sci(1).render(hi));
        t.notes.push(format!(
            "mean session: {:.1} h, median: {:.1} h, rate band: {lo} .. {hi}",
            trace.mean_session_us() / 3600e6,
            trace.median_session_us() as f64 / 3600e6,
        ));
        tables.push(t);
    }
    let microsoft = tables.pop().expect("three traces");
    tables.push(microsoft.with_notes(&[
        "expected (paper): Gnutella/OverNet fluctuate daily in ~1e-4..3.5e-4;",
        "Microsoft is an order of magnitude lower with daily+weekly waves.",
    ]));
    tables
}

fn fig4_report(sw: &SweepResult) -> Vec<Table> {
    let header = [
        "t/T", "RDP:Gnu", "RDP:Ovr", "RDP:Msft", "ctl:Gnu", "ctl:Ovr", "ctl:Msft",
    ];
    let title = "RDP and control traffic vs normalized time (seed 0)";
    let mut windows = Table::new("windows", title, &header);
    type Pick = fn(&WindowReport) -> f64;
    let series: [(Pick, Fmt); 2] = [
        (|w| w.rdp, Fmt::Fixed(2)),
        (|w| w.control_per_node_per_sec, Fmt::Fixed(3)),
    ];
    for i in 0..10 {
        let frac = i as f64 / 10.0;
        let mut row = vec![Cell::Num(frac, Fmt::Fixed(1))];
        for (pick, fmt) in series {
            for p in &sw.points {
                let w = &p.runs[0].report.windows;
                let v = w.get(series_index(w.len(), frac)).map_or(f64::NAN, pick);
                row.push(Cell::Num(v, fmt));
            }
        }
        windows.rows.push(row);
    }
    let cols = [RDP, CONTROL, LOSS, INCORRECT];
    let means = point_table("means", "whole-trace means", &sw.points, &cols);

    let gnu = &sw.points[0];
    let mut header = vec!["hour"];
    header.extend(&CATEGORY_NAMES[..5]);
    let title = "Gnutella control-traffic breakdown, msg/s/node (seed 0, every 6th window)";
    let mut breakdown = Table::new("breakdown", title, &header);
    let w = &gnu.runs[0].report.windows;
    let t0 = w.first().map_or(0, |w| w.start_us);
    for w in w.iter().step_by(6) {
        let mut row = vec![Cell::Num(((w.start_us - t0) / HOUR) as f64, Fmt::Int)];
        let per_category = &w.per_category_per_node_per_sec[..5];
        row.extend(per_category.iter().map(|&v| Cell::Num(v, Fmt::Fixed(4))));
        breakdown.rows.push(row);
    }
    let title = "Gnutella whole-trace breakdown";
    let mut totals = Table::new("breakdown_totals", title, &["category", "msg/s/node"]);
    for (i, name) in CATEGORY_NAMES.iter().enumerate() {
        let v = seed_mean(gnu, |r| r.report.totals_per_node_per_sec[i]);
        let row = vec![Cell::Text(name.to_string()), Cell::Num(v, Fmt::Fixed(4))];
        totals.rows.push(row);
    }
    let totals = totals.with_notes(&[
        "expected (paper): control traffic <0.5 msg/s/node; Microsoft ~3x",
        "lower than Gnutella/OverNet; RDP ~flat per trace, Microsoft lowest;",
        "distance probes dominate the fluctuating part of the breakdown.",
    ]);
    vec![windows, means, breakdown, totals]
}

/// Session-minute values swept by the fig5 scenario.
const FIG5_SESSION_MINUTES: [u64; 6] = PoissonParams::SESSION_MINUTES;

fn fig5_points(s: Scale) -> Vec<ScenarioPoint> {
    let (mean_nodes, duration) = match s {
        Scale::Full => (10_000.0, 4 * HOUR),
        Scale::Quick => (150.0, 75 * MIN),
    };
    FIG5_SESSION_MINUTES
        .iter()
        .map(|&minutes| {
            ScenarioPoint::new(format!("{minutes}min"), move |seed| {
                let trace = churn::poisson::trace(&PoissonParams {
                    mean_nodes,
                    mean_session_us: minutes as f64 * 60e6,
                    duration_us: duration,
                    seed: 404 + minutes + seed * SEED_TRACE_STRIDE,
                });
                let mut cfg = RunConfig::new(trace);
                cfg.topology = gatech(s);
                cfg.warmup_us = 15 * MIN;
                cfg.metrics_window_us = 5 * MIN;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn fig5_report(sw: &SweepResult) -> Vec<Table> {
    let active: Column = ("active", Fmt::Int, |r| r.final_active as f64);
    let incorrect: Column = ("incorrect", Fmt::Int, |r| r.report.incorrect as f64);
    let cols = [RDP, LOSS, CONTROL, active, incorrect];
    let sessions = point_table("sessions", "session-time sweep", &sw.points, &cols);
    let header = ["quantile", "5 minutes", "30 minutes"];
    let mut cdf = Table::new("join_cdf", "join-latency CDF, seconds (seed 0)", &header);
    let report = |m| {
        let i = FIG5_SESSION_MINUTES.iter().position(|&x| x == m);
        &sw.points[i.expect("a swept session time")].runs[0].report
    };
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        let mut row = vec![Cell::Num(q, Fmt::Fixed(2))];
        for r in [report(5), report(30)] {
            let secs = r.join_latency_quantile(q).map(|l| l as f64 / 1e6);
            row.push(Cell::Num(secs.unwrap_or(f64::NAN), Fmt::Fixed(1)));
        }
        cdf.rows.push(row);
    }
    let cdf = cdf.with_notes(&[
        "expected (paper): control traffic ~22x higher at 15 min than at",
        "600 min, dipping at 5 min; RDP +~40% from 600 to 15 min, jumping",
        "at 5 min; most joins complete within 10-40 s.",
    ]);
    vec![sessions, cdf]
}

/// Loss rates swept by the fig6 scenario.
const FIG6_LOSS_RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05];

fn fig6_points(s: Scale) -> Vec<ScenarioPoint> {
    FIG6_LOSS_RATES
        .iter()
        .enumerate()
        .map(|(i, &loss)| {
            ScenarioPoint::new(format!("loss={:.0}%", loss * 100.0), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, i as u64, seed));
                cfg.network_loss_rate = loss;
                cfg.seed = 1000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn fig6_report(sw: &SweepResult) -> Vec<Table> {
    let cols = [RDP, CONTROL, ("lookup loss", LOSS.1, LOSS.2), INCORRECT];
    let title = "network-loss sweep (Gnutella trace)";
    let t = point_table("loss", title, &sw.points, &cols);
    vec![t.with_notes(&[
        "expected (paper): lookup loss 1.5e-5 (0%) .. 3.3e-5 (5%);",
        "no inconsistencies at <=1% loss, ~1.6e-5 at 5%; RDP and control",
        "traffic increase only slightly.",
    ])]
}

/// Leaf-set sizes swept by the fig7 scenario.
const FIG7_LEAF_SET_SIZES: [usize; 5] = [8, 16, 32, 48, 64];
/// Digit widths swept by the fig7 scenario.
const FIG7_DIGIT_WIDTHS: [u8; 5] = [1, 2, 3, 4, 5];

fn fig7_points(s: Scale) -> Vec<ScenarioPoint> {
    let mut pts = Vec::new();
    for (i, &l) in FIG7_LEAF_SET_SIZES.iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("l={l}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 10 + i as u64, seed));
            cfg.protocol.leaf_set_size = l;
            cfg.seed = 2000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    for (i, &b) in FIG7_DIGIT_WIDTHS.iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("b={b}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 20 + i as u64, seed));
            cfg.protocol.b = b;
            cfg.seed = 3000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    pts
}

fn fig7_report(sw: &SweepResult) -> Vec<Table> {
    // The points are the l sweep followed by the b sweep.
    let (l, b) = sw.points.split_at(FIG7_LEAF_SET_SIZES.len());
    let b = point_table("digit_width", "digit width b", b, &[RDP, HOPS, CONTROL]);
    vec![
        point_table("leaf_set", "leaf-set size l", l, &[CONTROL, RDP, HOPS]),
        b.with_notes(&[
            "expected (paper): control traffic +7% from l=16 to l=32; RDP",
            "decreasing in l; RDP rising sharply as b decreases; control",
            "traffic only ~0.05 msg/s/node lower at b=1 than b=4.",
        ]),
    ]
}

fn exp_topology_points(s: Scale) -> Vec<ScenarioPoint> {
    let topologies = [
        ("CorpNet", TopologyKind::CorpNet),
        ("GATech", gatech(s)),
        ("Mercator", TopologyKind::Mercator),
    ];
    topologies
        .into_iter()
        .enumerate()
        .map(|(i, (name, kind))| {
            ScenarioPoint::new(name, move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 30 + i as u64, seed));
                cfg.topology = kind.clone();
                cfg.seed = 4000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn exp_topology_report(sw: &SweepResult) -> Vec<Table> {
    let cols = [RDP, CONTROL, LOSS, INCORRECT];
    let title = "Gnutella trace on three topologies";
    let t = point_table("topologies", title, &sw.points, &cols);
    vec![t.with_notes(&[
        "expected (paper): loss <1.6e-5 on all; control ~0.24-0.26 on all;",
        "RDP 1.45 (CorpNet) / 1.80 (GATech) / 2.12 (Mercator).",
    ])]
}

/// The technique on/off combinations of the ablation scenario:
/// `(label, per_hop_acks, active_rt_probing)`.
const ABLATION_COMBOS: [(&str, bool, bool); 4] = [
    ("neither", false, false),
    ("probing only", false, true),
    ("acks only", true, false),
    ("both (base)", true, true),
];

/// The low-application-traffic delay-contribution runs of the ablation
/// scenario: `(label, active_rt_probing, lookups_per_node_per_sec)`.
const ABLATION_RATES: [(&str, bool, f64); 4] = [
    ("acks only", false, 0.01),
    ("both", true, 0.01),
    ("acks only", false, 0.001),
    ("both", true, 0.001),
];

fn exp_ablation_points(s: Scale) -> Vec<ScenarioPoint> {
    let mut pts = Vec::new();
    for (i, (name, acks, probing)) in ABLATION_COMBOS.into_iter().enumerate() {
        pts.push(ScenarioPoint::new(name, move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 40 + i as u64, seed));
            cfg.protocol.per_hop_acks = acks;
            cfg.protocol.active_rt_probing = probing;
            cfg.seed = 5000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    for (i, (name, probing, rate)) in ABLATION_RATES.into_iter().enumerate() {
        pts.push(ScenarioPoint::new(format!("{name}@{rate}"), move |seed| {
            let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 50 + i as u64, seed));
            cfg.protocol.active_rt_probing = probing;
            cfg.workload = Workload::Poisson {
                rate_per_node_per_sec: rate,
            };
            cfg.seed = 6000 + i as u64;
            shift_run_seed(&mut cfg, seed);
            cfg
        }));
    }
    pts
}

fn exp_ablation_report(sw: &SweepResult) -> Vec<Table> {
    // The points are the four on/off combinations followed by the four
    // low-traffic delay-contribution runs (`<configuration>@<lookups/s>`).
    let (combos, rates) = sw.points.split_at(ABLATION_COMBOS.len());
    let title = "delay contribution of probing at low application traffic";
    let rates = point_table("low_traffic", title, rates, &[RDP]);
    let title = "per-hop acks and active probing on/off";
    vec![
        point_table("techniques", title, combos, &[LOSS, RDP, CONTROL]),
        rates.with_notes(&[
            "expected (paper): neither -> ~32% loss; acks-only ~2.8e-5; both",
            "~1.6e-5; acks-only RDP +17% at 0.01 lookups/s and +61% at 0.001.",
        ]),
    ]
}

/// Raw-loss targets swept by the self-tuning scenario.
const SELFTUNING_TARGETS: [f64; 2] = [0.05, 0.01];

fn exp_selftuning_points(s: Scale) -> Vec<ScenarioPoint> {
    SELFTUNING_TARGETS
        .iter()
        .enumerate()
        .map(|(i, &target)| {
            ScenarioPoint::new(format!("Lr={target}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 60 + i as u64, seed));
                cfg.protocol.per_hop_acks = false;
                cfg.protocol.target_raw_loss = target;
                cfg.seed = 7000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn exp_selftuning_report(sw: &SweepResult) -> Vec<Table> {
    let trt: Column = ("mean Trt (s)", Fmt::Fixed(1), |r| r.mean_t_rt_us / 1e6);
    let title = "achieved raw loss vs target (per-hop acks off)";
    let mut t = point_table("targets", title, &sw.points, &[LOSS, CONTROL, trt]);
    let control = |i: usize| seed_mean(&sw.points[i], CONTROL.2);
    t.notes.push(format!(
        "control traffic ratio 1% / 5% target: {:.2}x (paper: 2.6x)",
        control(1) / control(0).max(1e-9)
    ));
    vec![t.with_notes(&[
        "expected (paper): achieved loss ~5.3% at the 5% target and ~1.2%",
        "at the 1% target; the tighter target probes much faster.",
    ])]
}

/// Application lookup rates swept by the suppression scenario.
const SUPPRESSION_RATES: [f64; 4] = [0.0, 0.01, 0.1, 1.0];

fn exp_suppression_points(s: Scale) -> Vec<ScenarioPoint> {
    SUPPRESSION_RATES
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            ScenarioPoint::new(format!("rate={rate}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 70 + i as u64, seed));
                cfg.workload = if rate == 0.0 {
                    Workload::None
                } else {
                    Workload::Poisson {
                        rate_per_node_per_sec: rate,
                    }
                };
                cfg.seed = 8000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn exp_suppression_report(sw: &SweepResult) -> Vec<Table> {
    // Exact liveness-probe count (the category also contains unsuppressed
    // maintenance messages).
    let rt_probes: Column = ("rt-probes/s", Fmt::Fixed(4), |r| {
        let n = r.report.fine_counts.iter().find(|(k, _)| *k == "rt-probe");
        n.map_or(0, |(_, c)| *c) as f64 / r.report.node_seconds
    });
    let cols = [rt_probes, ("leafset/s", LEAFSET.1, LEAFSET.2), RDP];
    let title = "probe traffic vs application lookups/s (Gnutella trace)";
    let mut t = point_table("probes", title, &sw.points, &cols);
    let at0 = seed_mean(&sw.points[0], rt_probes.2);
    let at1 = seed_mean(&sw.points[sw.points.len() - 1], rt_probes.2);
    t.notes.push(format!(
        "probe suppression at 1 lookup/s/node: {:.0}% (paper: >70%)",
        (1.0 - at1 / at0.max(1e-12)) * 100.0
    ));
    vec![t.with_notes(&[
        "expected (paper): probes mostly suppressed at high lookup rates",
        "and RDP improves slightly (~13%) because failures are detected",
        "sooner by the traffic itself.",
    ])]
}

/// Graceful-departure fractions swept by the leave scenario.
const LEAVE_FRACTIONS: [f64; 3] = [0.0, 0.5, 1.0];

fn exp_leave_points(s: Scale) -> Vec<ScenarioPoint> {
    LEAVE_FRACTIONS
        .iter()
        .enumerate()
        .map(|(i, &frac)| {
            ScenarioPoint::new(format!("graceful={frac}"), move |seed| {
                let mut cfg = base_config(s, gnutella_sweep_trace_seeded(s, 80 + i as u64, seed));
                cfg.graceful_leave_fraction = frac;
                cfg.seed = 9000 + i as u64;
                shift_run_seed(&mut cfg, seed);
                cfg
            })
        })
        .collect()
}

fn exp_leave_report(sw: &SweepResult) -> Vec<Table> {
    let cols = [LOSS, RDP, LEAFSET, CONTROL];
    let title = "announced departures vs silent crashes (Gnutella trace)";
    let t = point_table("departures", title, &sw.points, &cols);
    vec![t.with_notes(&[
        "expected: announced departures cut leaf-set probe traffic and",
        "losses; the paper's all-crash model is the 0% row.",
    ])]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // The env var is unset in CI.
        if std::env::var("MSPASTRY_SCALE").is_err() {
            assert_eq!(scale(), Scale::Quick);
        }
    }

    #[test]
    fn quick_traces_are_small() {
        let t = gnutella_trace_seeded(Scale::Quick, 0);
        assert!(t.active_at(2 * HOUR) < 400);
        assert_eq!(t.duration_us(), 24 * HOUR);
    }

    #[test]
    fn builtin_registry_has_the_paper_experiments() {
        let r = Registry::builtin();
        for name in [
            "smoke",
            "fig3_failure_rates",
            "fig4_traces",
            "fig5_sessions",
            "fig6_loss",
            "fig7_params",
            "exp_topology",
            "exp_ablation",
            "exp_selftuning",
            "exp_suppression",
            "exp_leave",
        ] {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(!s.expand(Scale::Quick).is_empty(), "{name} has no points");
        }
        assert!(r.get("no_such_scenario").is_none());
    }

    #[test]
    fn register_replaces_by_name() {
        let mut r = Registry::builtin();
        let n = r.iter().count();
        r.register(Scenario {
            name: "smoke",
            title: "replaced",
            figure: "CI",
            points: smoke_points,
            report: smoke_report,
        });
        assert_eq!(r.iter().count(), n);
        assert_eq!(r.get("smoke").unwrap().title, "replaced");
    }

    #[test]
    fn seed_indices_shift_trace_and_run_seeds() {
        let r = Registry::builtin();
        let pts = r.get("fig6_loss").unwrap().expand(Scale::Quick);
        let a = (pts[0].build)(0);
        let b = (pts[0].build)(1);
        assert_eq!(a.seed + SEED_RUN_STRIDE, b.seed);
        assert_ne!(a.trace, b.trace, "seed index must vary the churn trace");
        // Same index twice → identical configuration.
        let a2 = (pts[0].build)(0);
        assert_eq!(a.seed, a2.seed);
        assert_eq!(a.trace, a2.trace);
    }

    #[test]
    fn fig6_point_zero_matches_the_legacy_bench_config() {
        // The published numbers in EXPERIMENTS.md were produced by the
        // pre-scenario fig6 bench; its exact configuration must fall out of
        // the registry at seed index 0.
        let r = Registry::builtin();
        let pts = r.get("fig6_loss").unwrap().expand(Scale::Quick);
        let cfg = (pts[2].build)(0);
        let legacy_trace = gnutella_sweep_trace_seeded(Scale::Quick, 2, 0);
        assert_eq!(cfg.trace, legacy_trace);
        assert_eq!(cfg.seed, 1002);
        assert_eq!(cfg.network_loss_rate, 0.02);
    }
}
