//! The full experiment registry: every figure and table of the paper's §5
//! is a scenario whose points and report live in [`harness::scenario`], and
//! [`scenarios`] adds the two that need the `apps` layer. `mspastry-sim
//! --scenario NAME` runs any of them, optionally as a multi-seed sweep.
//!
//! Two scales are supported, selected by the `MSPASTRY_SCALE` environment
//! variable:
//!
//! * `quick` (default) — scaled-down populations and durations so the whole
//!   suite finishes in minutes; the result *shape* (who wins, by what factor,
//!   where crossovers fall) matches the paper.
//! * `full` — the paper's populations and durations (hours of wall time).

use apps::kvstore;
use apps::squirrel::{self, CacheStats, SquirrelParams};
use apps::web_workload::WebWorkloadParams;
use churn::poisson::{self, PoissonParams};
use churn::synth::DAY_US;
use harness::scenario::{
    Registry, Scale, Scenario, ScenarioPoint, HOUR, MIN, SEED_RUN_STRIDE, SEED_TRACE_STRIDE,
};
use harness::table::{nums, point_table};
use harness::{Cell, Column, Fmt, RunConfig, RunResult, SweepResult, Table, Workload};
use topology::TopologyKind;

/// The full scenario registry: every harness-expressible experiment
/// ([`Registry::builtin`]) plus the application-backed scenarios that need
/// the `apps` layer (`fig8_squirrel`, `exp_replication`).
pub fn scenarios() -> Registry {
    let mut r = Registry::builtin();
    r.register(Scenario {
        name: "fig8_squirrel",
        title: "Squirrel web-cache deployment traffic, simulated",
        figure: "Fig. 8",
        points: fig8_points,
        report: fig8_report,
    });
    r.register(Scenario {
        name: "exp_replication",
        title: "KV availability vs leaf-set replication factor",
        figure: "extension",
        points: replication_points,
        report: replication_report,
    });
    r
}

/// The Squirrel deployment parameters at a scale (52 machines over six days
/// in quick mode; the paper-shaped default workload in full mode).
fn fig8_params(s: Scale) -> SquirrelParams {
    match s {
        Scale::Full => SquirrelParams::default(),
        Scale::Quick => SquirrelParams {
            web: WebWorkloadParams {
                clients: 52,
                duration_us: 6 * DAY_US,
                objects: 8_000,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

fn fig8_points(s: Scale) -> Vec<ScenarioPoint> {
    vec![ScenarioPoint::new("squirrel", move |seed| {
        let mut params = fig8_params(s);
        params.seed += seed * SEED_TRACE_STRIDE;
        squirrel::build_run(&params).0
    })]
}

fn cache(r: &RunResult) -> CacheStats {
    squirrel::cache_stats(r, 0)
}

/// Cache and routing statistics, then total traffic per node by hour and day.
fn fig8_report(sw: &SweepResult) -> Vec<Table> {
    let cols: [Column; 7] = [
        ("served", Fmt::Int, |r| cache(r).served as f64),
        ("hits", Fmt::Int, |r| cache(r).hits as f64),
        ("misses", Fmt::Int, |r| cache(r).misses as f64),
        ("hit rate %", Fmt::Fixed(1), |r| cache(r).hit_rate() * 100.0),
        ("incorrect", Fmt::Int, |r| r.report.incorrect as f64),
        ("lost", Fmt::Int, |r| r.report.lost as f64),
        ("lookups", Fmt::Int, |r| r.report.issued as f64),
    ];
    let mut stats = point_table("deployment", "cache and routing", &sw.points, &cols);
    // Only the workload builder knows which requests found their machine
    // down, so seed 0's workload is rebuilt (no simulation).
    let runs = &sw.points[0].runs;
    let skipped = squirrel::build_run(&fig8_params(sw.scale)).1 + runs[0].skipped_scripted;
    let note = format!("requests skipped: {skipped} (seed 0)");
    stats.notes.push(note);

    let windows = &runs[0].report.windows;
    let total: Vec<f64> = windows
        .iter()
        .map(|w| w.control_per_node_per_sec + w.per_category_per_node_per_sec[5])
        .collect();
    let title = "total msg/s/node, every 3rd hour; the trace starts Thursday (seed 0)";
    let mut hourly = Table::new("hourly", title, &["day", "hour", "msg/s/node", "bar"]);
    for (h, &v) in total.iter().enumerate().step_by(3) {
        let (day, hour) = ((h / 24) as f64, (h % 24) as f64);
        let mut row = nums(&[(day, Fmt::Int), (hour, Fmt::Int), (v, Fmt::Fixed(3))]);
        row.push(Cell::Text("#".repeat((v * 200.0).min(58.0) as usize)));
        hourly.rows.push(row);
    }
    let title = "daily mean msg/s/node (seed 0)";
    let mut daily = Table::new("daily", title, &["day", "weekday", "msg/s/node"]);
    for (d, chunk) in total.chunks((DAY_US / HOUR) as usize).enumerate() {
        let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let weekday = Cell::Text(["Thu", "Fri", "Sat", "Sun", "Mon", "Tue"][d.min(5)].into());
        let mut row = nums(&[(d as f64, Fmt::Int), (mean, Fmt::Fixed(3))]);
        row.insert(1, weekday);
        daily.rows.push(row);
    }
    let daily = daily.with_notes(&[
        "expected (paper): six days with four visible week-day bumps and a",
        "quiet weekend; simulator matches the deployment statistics.",
    ]);
    vec![stats, hourly, daily]
}

/// Builds the replication experiment: one churny 15-minute-session run with
/// a scripted PUT/GET workload whose deliveries are post-processed per
/// replication factor. Returns the run configuration and the op list (needed
/// for [`kvstore::evaluate_replicated`]).
fn replication_setup(seed: u64) -> (RunConfig, Vec<kvstore::TimedOp>) {
    let dur = 40 * MIN;
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 120.0,
        mean_session_us: 15.0 * 60e6,
        duration_us: dur,
        seed: 31 + seed * SEED_TRACE_STRIDE,
    });
    let n_sessions = trace.sessions().len();
    // GETs within 5 minutes of their PUT: the window where root changes are
    // failure-driven (replica takeover) rather than join-driven (which needs
    // value migration the home-store model does not perform).
    let ops = kvstore::generate_ops_with_gap(400, 3, n_sessions, dur, Some(5 * MIN), 32);
    let mut cfg = RunConfig::new(trace);
    cfg.topology = TopologyKind::GaTechSmall;
    cfg.warmup_us = 10 * MIN;
    cfg.workload = Workload::Scripted(kvstore::to_script(&ops));
    cfg.record_deliveries = true;
    cfg.seed += seed * SEED_RUN_STRIDE;
    (cfg, ops)
}

fn replication_points(_s: Scale) -> Vec<ScenarioPoint> {
    vec![ScenarioPoint::new("kv-churn", |seed| {
        replication_setup(seed).0
    })]
}

/// GET outcomes per replication factor, post-processed from seed 0's
/// delivery log so every factor sees exactly the same run.
fn replication_report(sw: &SweepResult) -> Vec<Table> {
    let (_, ops) = replication_setup(0);
    let res = &sw.points[0].runs[0];
    let title = "15-minute sessions, GETs within 5 min of their PUT (seed 0)";
    let header = ["replicas", "hits", "misses", "no-put", "hit rate %"];
    let mut t = Table::new("replicas", title, &header);
    for k in [0usize, 1, 2, 4, 8] {
        let s = kvstore::evaluate_replicated(&ops, &res.deliveries, k);
        let counts = [k as u64, s.gets_hit, s.gets_missed, s.gets_no_put];
        let mut row = nums(&counts.map(|c| (c as f64, Fmt::Int)));
        row.push(Cell::Num(s.hit_rate() * 100.0, Fmt::Fixed(1)));
        t.rows.push(row);
    }
    t.notes.push(format!("{} ops routed", ops.len()));
    vec![t.with_notes(&[
        "expected: the first replica closes most of the failure-takeover",
        "gap (the new root after a crash is almost always replica #1);",
        "the residual misses are join-takeovers, which need the value",
        "migration a full PAST implementation performs on join.",
    ])]
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{run_sweep, SweepConfig};

    #[test]
    fn full_registry_includes_app_scenarios() {
        let r = scenarios();
        for name in ["fig8_squirrel", "exp_replication", "fig4_traces", "smoke"] {
            assert!(r.get(name).is_some(), "missing {name}");
        }
        assert_eq!(r.get("fig8_squirrel").unwrap().figure, "Fig. 8");
    }

    #[test]
    fn fig8_scenario_matches_build_run() {
        let pts = scenarios()
            .get("fig8_squirrel")
            .unwrap()
            .expand(Scale::Quick);
        let from_scenario = (pts[0].build)(0);
        let (direct, _) = squirrel::build_run(&fig8_params(Scale::Quick));
        assert_eq!(from_scenario.seed, direct.seed);
        assert_eq!(from_scenario.trace, direct.trace);
    }

    #[test]
    fn replication_setup_is_deterministic_and_seeded() {
        let (a, ops_a) = replication_setup(0);
        let (b, _) = replication_setup(0);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.seed, b.seed);
        assert!(!ops_a.is_empty());
        let (c, _) = replication_setup(1);
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn every_report_renders_rectangular_tables() {
        // A two-seed smoke point, repeated to each scenario's point count,
        // covers the table shapes without running the experiments.
        let registry = scenarios();
        let mut cfg = SweepConfig::new(Scale::Quick);
        cfg.seeds = 2;
        let smoke = run_sweep(registry.get("smoke").unwrap(), &cfg);
        for sc in registry.iter() {
            let mut sweep = smoke.clone();
            sweep.points = vec![smoke.points[0].clone(); sc.expand(Scale::Quick).len()];
            let tables = (sc.report)(&sweep);
            assert!(!tables.is_empty(), "{} reports no table", sc.name);
            let mut names = std::collections::HashSet::new();
            for t in &tables {
                let name = format!("{}.{}", sc.name, t.name);
                assert!(names.insert(&t.name), "{name}: duplicate table name");
                let file_safe = t.name.chars().all(|c| c.is_ascii_lowercase() || c == '_');
                assert!(file_safe, "{name}: table names become file names");
                assert!(!t.rows.is_empty(), "{name}: no rows");
                for row in &t.rows {
                    assert_eq!(row.len(), t.header.len(), "{name}: ragged row");
                }
            }
        }
    }
}
