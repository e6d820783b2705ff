//! End-to-end simulator throughput on the Gnutella-trace reference workload.
//!
//! Runs the §5.1 base configuration (Gnutella-like churn on the GATech
//! topology) a few times and reports the best and median events/sec plus the
//! process peak RSS. Each run of the bench appends one entry to the
//! trajectory in `BENCH_throughput.json` at the repository root: the commit
//! (`git rev-parse --short HEAD`, `+dirty` with uncommitted changes), the
//! host's `nproc`, best and median events/sec, the best run's wall time,
//! `sim_events` and peak RSS. Earlier entries are never rewritten.
//!
//! `MSPASTRY_SCALE=full` runs the paper-scale trace (hours of wall time).
//! `MSPASTRY_BENCH_RUNS=n` overrides the number of runs (default 3) — handy
//! for interleaved A/B comparisons on hosts with drifting clock speed.
//! `MSPASTRY_TRACE_RATE=r` enables hop-trace sampling at rate `r` to measure
//! the flight-recorder overhead; results are printed but *not* written to
//! `BENCH_throughput.json` (the trajectory tracks the untraced path).

use harness::scenario::{scale, Scale};

fn runs() -> usize {
    std::env::var("MSPASTRY_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Peak resident set size of this process, in kB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The checked-out commit, `+dirty` when the tree has uncommitted changes;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(status) if status.is_empty() => head,
        _ => format!("{head}+dirty"),
    }
}

/// The entries of an existing trajectory file, one JSON object per line.
fn existing_entries(json: &str) -> Vec<String> {
    json.lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{') && l.contains("\"sim_events\""))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

struct Measurement {
    best_events_per_sec: f64,
    median_events_per_sec: f64,
    wall_s: f64,
    sim_events: u64,
    peak_rss_mb: f64,
}

fn entry_json(m: &Measurement) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{ \"commit\": \"{}\", \"nproc\": {nproc}, \"best_events_per_sec\": {:.0}, \"median_events_per_sec\": {:.0}, \"wall_s\": {:.2}, \"sim_events\": {}, \"peak_rss_mb\": {:.1} }}",
        commit(),
        m.best_events_per_sec,
        m.median_events_per_sec,
        m.wall_s,
        m.sim_events,
        m.peak_rss_mb
    )
}

fn main() {
    let s = scale();
    println!("sim_throughput: simulator events/sec, Gnutella reference workload");
    println!("scale: {s:?} (set MSPASTRY_SCALE=full for paper-scale runs)");

    let trace_rate: f64 = std::env::var("MSPASTRY_TRACE_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if trace_rate > 0.0 {
        println!("hop-trace sampling at {trace_rate} (overhead measurement)");
    }

    // The §5.1 Gnutella/GATech reference configuration is the first point of
    // the fig4 scenario.
    let points = bench::scenarios()
        .get("fig4_traces")
        .expect("registered scenario")
        .expand(s);
    let mut rates = Vec::new();
    let mut best: Option<(f64, u64)> = None;
    for run in 0..runs() {
        let mut cfg = (points[0].build)(0);
        cfg.trace_sample_rate = trace_rate;
        let t0 = std::time::Instant::now();
        let res = harness::run(cfg);
        let wall = t0.elapsed().as_secs_f64();
        let eps = res.sim_events as f64 / wall;
        println!(
            "run {}: {:.1}s wall, {} events, {:.0} events/sec",
            run + 1,
            wall,
            res.sim_events,
            eps
        );
        if best.is_none_or(|(w, _)| wall < w) {
            best = Some((wall, res.sim_events));
        }
        rates.push(eps);
    }
    let (wall_s, sim_events) = best.expect("at least one run");
    rates.sort_by(f64::total_cmp);
    let mid = rates.len() / 2;
    let median = if rates.len() % 2 == 1 {
        rates[mid]
    } else {
        (rates[mid - 1] + rates[mid]) / 2.0
    };
    // VmHWM only grows; it is the peak over all runs.
    let m = Measurement {
        best_events_per_sec: sim_events as f64 / wall_s,
        median_events_per_sec: median,
        wall_s,
        sim_events,
        peak_rss_mb: peak_rss_kb() as f64 / 1024.0,
    };

    if trace_rate > 0.0 {
        println!(
            "best (traced at {trace_rate}): {:.0} events/sec, peak RSS {:.1} MB",
            m.best_events_per_sec, m.peak_rss_mb
        );
        return;
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let mut entries = existing_entries(&std::fs::read_to_string(path).unwrap_or_default());
    entries.push(entry_json(&m));
    let json = format!(
        "{{\n  \"workload\": \"gnutella {} / GATech ({:?} scale)\",\n  \"entries\": [\n    {}\n  ]\n}}\n",
        if s == Scale::Full { "full" } else { "quick" },
        s,
        entries.join(",\n    ")
    );
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
    }
    println!(
        "best: {:.0} events/sec, median {:.0}, peak RSS {:.1} MB (entry {} of {path})",
        m.best_events_per_sec,
        m.median_events_per_sec,
        m.peak_rss_mb,
        entries.len()
    );
}
