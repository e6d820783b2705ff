//! The benchmark's workloads: each maps a seed index to the simulator inputs
//! it runs. Seed index 0 reproduces the reference configurations.
//!
//! The single-run workloads keep their churn trace fixed, as the paper
//! replays one recorded trace, and index `k` changes everything else drawn
//! at random: node identifiers, bootstrap choices, lookup times and keys,
//! delay jitter and loss. The sweep takes the scenario's own seed indices,
//! which shift trace and run seeds alike.

use harness::scenario::SEED_RUN_STRIDE;
use harness::{Registry, RunConfig, Scale, Scenario, ScenarioPoint, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use topology::TopologyKind;

/// Seeds per grid point of the `sweep_fig6` workload.
pub const SWEEP_SEEDS: u64 = 2;

/// What one workload runs.
pub enum Plan {
    /// One single-threaded simulation.
    Single(RunConfig),
    /// A `harness::run_sweep` over a scenario's grid.
    Sweep(Scenario),
}

/// Builds the inputs of workload `name` for seed index `seed`.
pub fn plan(name: &str, seed: u64) -> Result<Plan, String> {
    Ok(match name {
        "gnutella_ref" => Plan::Single(gnutella_ref(seed)),
        "lookup_heavy" => Plan::Single(lookup_heavy(seed)),
        "lossy_gatech5050" => Plan::Single(lossy_gatech5050(seed)),
        "sweep_fig6" => Plan::Sweep(sweep_fig6(seed)),
        other => return Err(format!("unknown workload: {other}")),
    })
}

/// `fig4_traces` point 0 at quick scale: the Gnutella trace (population
/// 0.1, 24 h) on GATech-small, 0.01 lookups/s/node, no loss. This is the
/// `sim_throughput` bench's run.
pub fn gnutella_ref(seed: u64) -> RunConfig {
    let points = Registry::builtin()
        .get("fig4_traces")
        .expect("fig4_traces is a builtin scenario")
        .expand(Scale::Quick);
    let mut cfg = (points[0].build)(0);
    cfg.seed += seed * SEED_RUN_STRIDE;
    cfg
}

/// `mspastry-sim --churn poisson --nodes 300 --session 600 --hours 1
/// --lookups 1 --topology corpnet` (CLI seed 1).
pub fn lookup_heavy(seed: u64) -> RunConfig {
    let trace = churn::poisson::trace(&churn::poisson::PoissonParams {
        mean_nodes: 300.0,
        mean_session_us: 600.0 * 60e6,
        duration_us: 3_600_000_000,
        seed: 404 + 1,
    });
    cli_config(trace, TopologyKind::CorpNet, 0.0, 1.0, seed)
}

/// `mspastry-sim --churn gnutella --nodes 200 --hours 12 --loss 5
/// --topology gatech` (CLI seed 1).
pub fn lossy_gatech5050(seed: u64) -> RunConfig {
    let trace = churn::gnutella::trace(&churn::gnutella::GnutellaParams {
        population_scale: 200.0 / 2000.0,
        duration_us: 12 * 3_600_000_000,
        seed: 101 + 1,
    });
    cli_config(trace, TopologyKind::GaTech, 0.05, 0.01, seed)
}

/// The run configuration `mspastry-sim` builds for the given flags (every
/// protocol switch at its CLI default), with run seed `1 + seed_index *
/// SEED_RUN_STRIDE`.
fn cli_config(
    trace: churn::Trace,
    topo: TopologyKind,
    loss: f64,
    rate: f64,
    seed_index: u64,
) -> RunConfig {
    let mut cfg = RunConfig::new(trace);
    cfg.topology = topo;
    cfg.network_loss_rate = loss;
    cfg.workload = Workload::Poisson {
        rate_per_node_per_sec: rate,
    };
    cfg.seed = 1 + seed_index * SEED_RUN_STRIDE;
    cfg.protocol.b = 4;
    cfg.protocol.leaf_set_size = 32;
    cfg.protocol.target_raw_loss = 0.05;
    cfg
}

/// Seed-index offset applied by [`fig6_shifted`]. A scenario's point
/// builder is a plain `fn`, so the offset travels through a static.
static SWEEP_OFFSET: AtomicU64 = AtomicU64::new(0);

fn fig6_shifted(scale: Scale) -> Vec<ScenarioPoint> {
    let offset = SWEEP_OFFSET.load(Ordering::Relaxed);
    fig6()
        .expand(scale)
        .into_iter()
        .map(|p| {
            let build = p.build;
            ScenarioPoint::new(p.label, move |k| build(k + offset))
        })
        .collect()
}

fn fig6() -> Scenario {
    *Registry::builtin()
        .get("fig6_loss")
        .expect("fig6_loss is a builtin scenario")
}

/// `fig6_loss` at quick scale with [`SWEEP_SEEDS`] seeds per point. Seed
/// index `k` runs the scenario's seed indices `k * SWEEP_SEEDS ..`, so index
/// 0 is exactly `run_sweep` with seeds 0 and 1.
pub fn sweep_fig6(seed: u64) -> Scenario {
    SWEEP_OFFSET.store(seed * SWEEP_SEEDS, Ordering::Relaxed);
    Scenario {
        points: fig6_shifted,
        ..fig6()
    }
}

/// Every run configuration of a plan, in grid order.
pub fn configs(plan: &Plan) -> Vec<RunConfig> {
    match plan {
        Plan::Single(cfg) => vec![cfg.clone()],
        Plan::Sweep(sc) => {
            let points = sc.expand(Scale::Quick);
            let mut out = Vec::new();
            for p in &points {
                for k in 0..SWEEP_SEEDS {
                    out.push((p.build)(k));
                }
            }
            out
        }
    }
}
