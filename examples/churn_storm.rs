//! Churn storm: drive an overlay through increasingly brutal session times
//! (down to 5-minute means, far below anything measured in deployed
//! systems) and watch dependability degrade gracefully — the paper's
//! Figure 5 in miniature.
//!
//! Doubles as the smallest complete demo of the scenario engine: a custom
//! experiment is one `Scenario` declaration — a named list of points, each
//! a seed-indexed `RunConfig` builder, plus a report rendering its tables —
//! and `run_sweep` executes the whole (point × seed) grid across the
//! machine's cores, with means and standard deviations aggregated per point.
//!
//! ```sh
//! cargo run --release -p harness --example churn_storm
//! ```

use churn::poisson::{self, PoissonParams};
use harness::scenario::{Scale, ScenarioPoint, SEED_TRACE_STRIDE};
use harness::table::point_table;
use harness::{run_sweep, Column, Fmt, RunConfig, Scenario, SweepConfig, SweepResult, Table};
use topology::TopologyKind;

fn storm_points(_s: Scale) -> Vec<ScenarioPoint> {
    [120u64, 60, 30, 15, 5]
        .into_iter()
        .map(|minutes| {
            ScenarioPoint::new(format!("{minutes}min"), move |seed| {
                let trace = poisson::trace(&PoissonParams {
                    mean_nodes: 150.0,
                    mean_session_us: minutes as f64 * 60e6,
                    duration_us: 45 * 60 * 1_000_000,
                    seed: 7 + minutes + seed * SEED_TRACE_STRIDE,
                });
                let mut cfg = RunConfig::new(trace);
                cfg.topology = TopologyKind::GaTechSmall;
                cfg.seed = minutes + seed;
                cfg
            })
        })
        .collect()
}

fn storm_report(sweep: &SweepResult) -> Vec<Table> {
    let cols: [Column; 4] = [
        ("loss", Fmt::Sci(2), |r| r.report.loss_rate),
        ("incorrect", Fmt::Int, |r| r.report.incorrect as f64),
        ("RDP", Fmt::Fixed(2), |r| r.report.mean_rdp),
        ("control msg/s/node", Fmt::Fixed(3), |r| {
            r.report.control_msgs_per_node_per_sec
        }),
    ];
    let t = point_table("storm", "mean session time", &sweep.points, &cols);
    vec![t.with_notes(&[
        "expected shape: zero incorrect deliveries at every churn level,",
        "loss stays ~1e-4 or below, RDP roughly flat until 5-minute",
        "sessions, control traffic rising as sessions shrink.",
    ])]
}

fn main() {
    let scenario = Scenario {
        name: "churn_storm",
        title: "session-time sweep under Poisson churn",
        figure: "Fig. 5 (miniature)",
        points: storm_points,
        report: storm_report,
    };
    let mut sweep_cfg = SweepConfig::new(Scale::Quick);
    sweep_cfg.seeds = 2; // two independent trace+run seeds per point

    println!("sweeping 5 churn levels x {} seeds ...", sweep_cfg.seeds);
    let sweep = run_sweep(&scenario, &sweep_cfg);
    for table in (scenario.report)(&sweep) {
        println!();
        print!("{table}");
    }
}
