//! Smoke-scale checks of the benchmark itself: the traced copy's equality
//! gate on every topology kind the workloads use, the metric names against
//! `BENCHMARK.json`, and the coverage computation.

use harness::{RunConfig, Workload};
use perfbench::ledger::{coverage, Ledger, ROOT};
use perfbench::measure::{end_to_end_metrics, layer_metrics, HostTimes, Outcome};
use perfbench::traced::{self, span_names, Counters};
use topology::TopologyKind;

const MIN: u64 = 60 * 1_000_000;

fn tiny(topology: TopologyKind, loss: f64, seed: u64) -> RunConfig {
    let trace = churn::poisson::trace(&churn::poisson::PoissonParams {
        mean_nodes: 24.0,
        mean_session_us: 15.0 * 60e6,
        duration_us: 20 * MIN,
        seed: 7 + seed,
    });
    let mut cfg = RunConfig::new(trace);
    cfg.topology = topology;
    cfg.network_loss_rate = loss;
    cfg.warmup_us = 5 * MIN;
    cfg.metrics_window_us = 5 * MIN;
    cfg.workload = Workload::Poisson {
        rate_per_node_per_sec: 0.2,
    };
    cfg.seed = seed;
    cfg
}

fn gate_holds(cfg: RunConfig) -> traced::TracedRun {
    let reference = harness::run(cfg.clone());
    let traced = traced::run(cfg);
    traced::gate(&traced, &reference).expect("traced copy reproduces harness::run");
    assert!(traced.report.delivered > 0, "the tiny run routes lookups");
    traced
}

#[test]
fn gate_holds_on_dense_gatech_small() {
    let t = gate_holds(tiny(TopologyKind::GaTechSmall, 0.0, 1));
    assert_eq!(t.counters.rows_built, 0, "dense matrices build no rows");
}

#[test]
fn gate_holds_on_corpnet() {
    gate_holds(tiny(TopologyKind::CorpNet, 0.0, 2));
}

#[test]
fn gate_holds_on_lazy_gatech_with_loss() {
    let t = gate_holds(tiny(TopologyKind::GaTech, 0.05, 3));
    assert!(
        t.counters.rows_built > 0,
        "the lazy matrix materialises rows"
    );
    assert!(t.counters.lost > 0, "5% loss drops messages");
}

#[test]
fn gate_rejects_a_different_run() {
    let reference = harness::run(tiny(TopologyKind::GaTechSmall, 0.0, 4));
    let other = traced::run(tiny(TopologyKind::GaTechSmall, 0.0, 5));
    assert!(traced::gate(&other, &reference).is_err());
}

#[test]
fn traced_self_times_account_for_the_wall_time() {
    let t = gate_holds(tiny(TopologyKind::GaTechSmall, 0.0, 6));
    let l = &t.ledger;
    let total: f64 = (0..l.names().len()).map(|i| l.self_ms(i)).sum::<f64>() + l.tracer_ms();
    assert!(
        (total - l.wall_ms()).abs() <= 0.01 * l.wall_ms(),
        "self {total} ms vs wall {} ms",
        l.wall_ms()
    );
    let cov = coverage(l.self_ms(ROOT), l.wall_ms());
    assert!((0.0..=1.0).contains(&cov));
    assert_eq!(l.calls(traced::span::QUEUE_POP), t.sim_events);
}

/// The `"name"` values from `section` of the JSON file at `path` (relative
/// to this crate) up to the section's first `]`, or to the end of the file
/// when `to_end` is set.
fn names_in(path: &str, section: &str, to_end: bool) -> Vec<String> {
    let file = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file}: {e}"));
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in {file}"));
    let body = &text[start..];
    let end = if to_end {
        body.len()
    } else {
        body.find(']').expect("section is a list")
    };
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn benchmark_names(section: &str) -> Vec<String> {
    names_in("../BENCHMARK.json", section, false)
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_match_benchmark_json() {
    let mut ledger = Ledger::new(span_names(), 0);
    ledger.finish();
    let host = HostTimes {
        untraced_s: 1.0,
        traced_s: 1.0,
        run_s: vec![1.0],
        ..HostTimes::default()
    };
    let outcome = Outcome::default();
    let layer: Vec<String> = layer_metrics(&ledger, &Counters::default(), &outcome, &host)
        .into_iter()
        .map(|m| m.name)
        .collect();
    let e2e: Vec<String> = end_to_end_metrics(1.0, 1.0, 1.0, &outcome)
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(layer, benchmark_names("per_layer"));
    assert_eq!(e2e, benchmark_names("end_to_end"));
    // `per_layer` is the last section of layers.json; its entries hold lists.
    assert_eq!(layer, names_in("layers.json", "per_layer", true));
    assert_eq!(e2e, names_in("layers.json", "end_to_end", false));
    let mut all: Vec<&String> = layer.iter().chain(&e2e).collect();
    for n in &all {
        assert!(valid_name(n), "bad metric name {n}");
    }
    let count = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), count, "metric names are unique");
}
