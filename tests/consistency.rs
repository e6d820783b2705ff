//! Cross-crate integration tests for the paper's headline dependability
//! claims (§3, §5): consistent routing under churn, reliability under link
//! loss, and recovery from catastrophic failures.

use churn::poisson::{self, PoissonParams};
use churn::{Session, Trace};
use harness::{run, RunConfig, Workload};
use topology::TopologyKind;

const MIN: u64 = 60 * 1_000_000;

fn base(trace: Trace) -> RunConfig {
    let mut cfg = RunConfig::new(trace);
    cfg.topology = TopologyKind::GaTechTiny;
    cfg.warmup_us = 10 * MIN;
    cfg.metrics_window_us = 5 * MIN;
    cfg
}

/// 15-minute mean sessions: an order of magnitude harsher than Gnutella.
fn extreme_churn_trace() -> Trace {
    poisson::trace(&PoissonParams {
        mean_nodes: 120.0,
        mean_session_us: 15.0 * 60e6,
        duration_us: 45 * MIN,
        seed: 21,
    })
}

#[test]
fn zero_incorrect_deliveries_under_extreme_churn() {
    let res = run(base(extreme_churn_trace()));
    assert!(res.report.issued > 200, "issued {}", res.report.issued);
    assert_eq!(
        res.report.incorrect, 0,
        "the paper's consistency guarantee: no incorrect deliveries without \
         network loss"
    );
    assert!(res.report.loss_rate < 0.01, "loss {}", res.report.loss_rate);
}

#[test]
fn zero_incorrect_deliveries_with_graceful_leaves() {
    // Announced departures repair leaf sets immediately; that shortcut must
    // not cost consistency.
    for fraction in [0.5, 1.0] {
        let mut cfg = base(extreme_churn_trace());
        cfg.graceful_leave_fraction = fraction;
        let res = run(cfg);
        let leaving = res.report.fine_counts.iter().find(|(k, _)| *k == "leaving");
        assert!(
            leaving.is_some_and(|&(_, n)| n > 0),
            "no leaving announcements sent at fraction {fraction}"
        );
        assert_eq!(
            res.report.incorrect, 0,
            "incorrect deliveries at graceful fraction {fraction}"
        );
    }
}

#[test]
fn link_loss_keeps_lookup_losses_tiny() {
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 100.0,
        mean_session_us: 60.0 * 60e6,
        duration_us: 40 * MIN,
        seed: 22,
    });
    let mut cfg = base(trace);
    cfg.network_loss_rate = 0.05; // the paper's harshest setting
    let res = run(cfg);
    assert!(res.report.issued > 200);
    assert!(
        res.report.loss_rate < 0.01,
        "per-hop acks keep losses small under 5% link loss, got {}",
        res.report.loss_rate
    );
    assert!(
        res.report.incorrect_rate < 0.01,
        "incorrect rate {}",
        res.report.incorrect_rate
    );
}

#[test]
fn mass_failure_recovers_and_ring_reconverges() {
    // 100 stable nodes; 30 of them crash at the same instant mid-run.
    let dur = 60 * MIN;
    let mut sessions: Vec<Session> = (0..70)
        .map(|_| Session {
            arrive_us: 0,
            depart_us: dur * 10,
        })
        .collect();
    for _ in 0..30 {
        sessions.push(Session {
            arrive_us: 0,
            depart_us: 20 * MIN,
        });
    }
    let trace = Trace::new("mass-failure", dur, sessions);
    let res = run(base(trace));
    assert_eq!(res.final_active, 70);
    assert_eq!(res.report.incorrect, 0);
    // Lookups in flight during the crash may be lost; the rate over the whole
    // run must still be small.
    assert!(res.report.loss_rate < 0.05, "loss {}", res.report.loss_rate);
    assert_eq!(
        res.ring_defects, 0,
        "every survivor's leaf set must reconverge to the true ring"
    );
}

#[test]
fn overlay_grows_from_one_node_to_a_ring() {
    // Nodes join one at a time into an initially singleton overlay.
    let dur = 40 * MIN;
    let sessions: Vec<Session> = (0..60)
        .map(|i| Session {
            arrive_us: i * 20 * 1_000_000,
            depart_us: dur * 10,
        })
        .collect();
    let trace = Trace::new("growth", dur, sessions);
    let mut cfg = base(trace);
    cfg.warmup_us = MIN; // joins are the point here, not a warm start
    let res = run(cfg);
    assert_eq!(res.final_active, 60, "every join must complete");
    assert_eq!(res.ring_defects, 0, "ring fully converged");
    assert_eq!(res.report.incorrect, 0);
}

#[test]
fn no_application_traffic_still_maintains_the_overlay() {
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 80.0,
        mean_session_us: 30.0 * 60e6,
        duration_us: 30 * MIN,
        seed: 23,
    });
    let mut cfg = base(trace);
    cfg.workload = Workload::None;
    let res = run(cfg);
    assert!(res.final_active > 40);
    assert!(
        res.report.control_msgs_per_node_per_sec > 0.0,
        "failure detection keeps running without lookups"
    );
    assert_eq!(res.report.issued, 0);
}

#[test]
fn short_total_outage_causes_no_permanent_damage() {
    // A 6-second network-wide blackout (shorter than the probe budget, so
    // in-flight probes survive via retries): the overlay must come out the
    // other side with a perfect ring, no false-positive evictions of the
    // whole neighbourhood, and consistent routing throughout.
    let dur = 30 * MIN;
    let sessions: Vec<Session> = (0..60)
        .map(|_| Session {
            arrive_us: 0,
            depart_us: dur * 10,
        })
        .collect();
    let trace = Trace::new("outage", dur, sessions);
    let mut cfg = base(trace);
    cfg.outages = vec![(10 * MIN, 10 * MIN + 6_000_000)];
    let res = run(cfg);
    assert_eq!(res.final_active, 60, "no node may be lost to a blip");
    assert_eq!(res.ring_defects, 0, "ring fully reconverged");
    assert_eq!(res.report.incorrect, 0);
    // Lookups in flight during the outage may be lost, but only a handful.
    assert!(
        res.report.lost < 20,
        "outage losses must stay bounded, got {}",
        res.report.lost
    );
}
