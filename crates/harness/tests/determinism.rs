//! The simulator is a measurement instrument: every figure in the paper
//! reproduction depends on runs being exactly repeatable. This test pins the
//! property end to end — same `RunConfig`, same seed, twice, field-for-field
//! identical `Report`s — so hot-path changes (event queue, hashing, buffer
//! reuse) cannot silently perturb event order.

use churn::poisson::{self, PoissonParams};
use harness::{run, RunConfig};
use topology::TopologyKind;

const MIN: u64 = 60 * 1_000_000;

fn cfg(seed: u64) -> RunConfig {
    let trace = poisson::trace(&PoissonParams {
        mean_nodes: 60.0,
        mean_session_us: 30.0 * 60e6,
        duration_us: 25 * MIN,
        seed,
    });
    let mut cfg = RunConfig::new(trace);
    cfg.topology = TopologyKind::GaTechTiny;
    cfg.warmup_us = 8 * MIN;
    cfg.metrics_window_us = 5 * MIN;
    cfg.network_loss_rate = 0.02; // exercise drop/retransmit paths too
    cfg.seed = seed;
    cfg
}

#[test]
fn identical_configs_produce_identical_reports() {
    for seed in [3, 17] {
        let a = run(cfg(seed));
        let b = run(cfg(seed));
        assert!(
            a.report.issued > 100,
            "workload too small to be meaningful: issued {}",
            a.report.issued
        );
        assert_eq!(a.report, b.report, "seed {seed}: reports diverged");
        assert_eq!(
            a.deliveries.len(),
            b.deliveries.len(),
            "seed {seed}: delivery records diverged"
        );
    }
}

/// The observability layer is part of the instrument: the diagnostic
/// registry snapshot, the full hop-trace event stream (serialised to the
/// JSONL wire format, byte for byte), and the run artifact JSON must all be
/// identical across repeated runs — tracing must not perturb the simulation,
/// and the artifacts themselves must be reproducible.
#[test]
fn trace_and_artifacts_are_bit_identical_across_runs() {
    let with_trace = |seed| {
        let mut c = cfg(seed);
        c.trace_sample_rate = 1.0;
        c
    };
    let a = run(with_trace(5));
    let b = run(with_trace(5));
    assert!(
        a.trace_events.len() > 500,
        "trace too small to be meaningful: {} events",
        a.trace_events.len()
    );
    assert_eq!(a.diag, b.diag, "registry snapshots diverged");
    assert_eq!(
        obs::trace_jsonl(&a.trace_events),
        obs::trace_jsonl(&b.trace_events),
        "hop-trace JSONL streams diverged"
    );
    assert_eq!(a.trace_overwritten, b.trace_overwritten);
    assert_eq!(
        harness::run_json(&a),
        harness::run_json(&b),
        "run artifacts diverged"
    );

    // Tracing must be an observer: the same run without tracing produces the
    // same Report.
    let untraced = run(cfg(5));
    assert_eq!(
        a.report, untraced.report,
        "tracing perturbed the simulation"
    );
}

/// Live telemetry (the interval sampler and the self-profiler) must also be
/// a pure observer: with `--timeseries` and `--profile` on, the hop trace
/// and the `mspastry-run/1` artifact — minus the telemetry-only `prof` and
/// `timeseries` members — are bit-identical to a run without them, and the
/// time series itself is deterministic across repeated runs.
#[test]
fn telemetry_is_a_pure_observer() {
    let with_telemetry = |seed| {
        let mut c = cfg(seed);
        c.trace_sample_rate = 1.0;
        c.ts_interval_us = MIN;
        c.profile = true;
        c
    };
    let plain = {
        let mut c = cfg(9);
        c.trace_sample_rate = 1.0;
        run(c)
    };
    let telem = run(with_telemetry(9));
    // Every simulation event but the final `End` went through the profiler.
    let prof = telem.prof.as_ref().expect("profiler ran");
    let profiled: u64 = prof
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("event_ns."))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(profiled, telem.sim_events - 1);

    // Strip the telemetry-only members; everything else must match byte for
    // byte, including the hop-trace stream.
    let mut stripped = telem.clone();
    stripped.timeseries = None;
    stripped.prof = None;
    assert_eq!(
        harness::run_json(&stripped),
        harness::run_json(&plain),
        "telemetry perturbed the run artifact"
    );
    assert_eq!(
        obs::trace_jsonl(&telem.trace_events),
        obs::trace_jsonl(&plain.trace_events),
        "telemetry perturbed the hop trace"
    );
    assert_eq!(telem.diag, plain.diag, "telemetry perturbed the registry");

    // The series artifact itself is reproducible.
    let telem2 = run(with_telemetry(9));
    let ts = telem.timeseries.as_ref().expect("sampler ran");
    let ts2 = telem2.timeseries.as_ref().expect("sampler ran");
    assert!(ts.len() > 10, "series too small to be meaningful");
    assert_eq!(
        obs::ts_jsonl(ts),
        obs::ts_jsonl(ts2),
        "time-series artifacts diverged"
    );
}
