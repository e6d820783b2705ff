//! Command-line experiment runner: simulate an MSPastry overlay under a
//! configurable trace, topology, workload and protocol configuration, and
//! print the paper's metrics.
//!
//! ```text
//! USAGE: mspastry-sim [OPTIONS]
//!
//! Scenario mode (run a registered experiment, optionally multi-seed):
//!   --list-scenarios    list the registered scenarios and exit
//!   --scenario NAME     run a registered scenario as a sweep
//!   --seeds N           independent seeds per scenario point       [1]
//!   --jobs N            worker threads (0 = all cores)             [0]
//!   --progress          report sweep progress (runs done, ev/s, ETA)
//!   --json [PATH]       write the sweep artifact, its CSV and the tables
//!                       [results/<scenario>.<scale>.s<seeds>.json]
//!
//! Ad-hoc mode (assemble a single run from flags):
//!   --churn NAME        gnutella | overnet | microsoft | poisson  [poisson]
//!   --nodes N           mean active nodes (poisson) / scale base  [200]
//!   --session MIN       mean session minutes (poisson)            [60]
//!   --hours H           trace duration, hours                     [2]
//!   --topology NAME     gatech | gatech-small | mercator | corpnet [gatech-small]
//!   --loss PCT          network loss rate, percent                [0]
//!   --lookups RATE      lookups per node per second               [0.01]
//!   --b N               digit width                               [4]
//!   --l N               leaf set size                             [32]
//!   --target-lr PCT     self-tuning raw-loss target, percent      [5]
//!   --seed N            RNG seed                                  [1]
//!   --no-acks           disable per-hop acks
//!   --no-probing        disable active routing-table probing
//!   --no-suppression    disable probe suppression
//!   --no-selftuning     disable self-tuning (fixed 30 s period)
//!   --windows           print the per-window time series
//!   --json PATH         write the run artifact (report + diagnostics) as JSON
//!   --trace RATE        hop-trace sampling rate in [0, 1]         [0]
//!   --trace-out PATH    hop-trace JSONL path  [<json path>.trace.jsonl]
//!   --trace-capacity N  hop-trace ring capacity, events           [65536]
//!   --timeseries PATH   write per-interval metric deltas (mspastry-ts/1
//!                       JSONL) to PATH
//!   --ts-interval SECS  time-series sampling interval, seconds    [60]
//!   --profile           self-profile the run loop: per-event-kind handler
//!                       time, queue pop time and depth, on stderr and as
//!                       "prof" in the JSON artifact (same schema as "diag")
//! ```

use churn::poisson::PoissonParams;
use harness::{
    run, run_sweep, sweep_csv, sweep_json, RunConfig, SweepConfig, Workload, CATEGORY_NAMES,
};
use topology::TopologyKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_help();
        return;
    }
    let get = |name: &str| value(&args, name);
    let flag = |name: &str| args.iter().any(|a| a == name);
    let parse_or = |name: &str, default: f64| -> f64 { parse(&args, name, default) };

    if flag("--list-scenarios") {
        let s = harness::scale();
        println!("{:<22} {:<12} title", "name", "figure");
        for sc in bench::scenarios().iter() {
            println!(
                "{:<22} {:<12} {} ({} points at this scale)",
                sc.name,
                sc.figure,
                sc.title,
                sc.expand(s).len()
            );
        }
        return;
    }
    if let Some(name) = get("--scenario") {
        run_scenario(&name, &args);
        return;
    }
    if flag("--seeds") || flag("--jobs") || flag("--progress") {
        die("--seeds/--jobs/--progress only apply to scenario sweeps; add --scenario NAME");
    }

    // Reject bad run-size, workload and sampling values before building
    // the trace.
    let checked = |name: &str, default: f64, ok: fn(f64) -> bool, want: &str| -> f64 {
        let v = parse_or(name, default);
        if !(v.is_finite() && ok(v)) {
            die(&format!("bad value for {name}: {v} ({want})"));
        }
        v
    };
    let hours = checked("--hours", 2.0, |v| v > 0.0, "finite, > 0");
    let duration_us = (hours * 3600e6) as u64;
    let nodes = checked("--nodes", 200.0, |v| v > 0.0, "finite, > 0");
    let session_min = checked("--session", 60.0, |v| v > 0.0, "finite, > 0");
    let rate = checked("--lookups", 0.01, |v| v >= 0.0, "finite, >= 0");
    let seed: u64 = parse(&args, "--seed", 1);
    let ts_path = get("--timeseries");
    let ts_interval_us = if ts_path.is_some() {
        let secs = parse_or("--ts-interval", 60.0);
        let us = (secs * 1e6) as u64;
        if !secs.is_finite() || us == 0 {
            die(&format!(
                "bad value for --ts-interval: {secs} (seconds, finite, >= 1 microsecond)"
            ));
        }
        us
    } else if flag("--ts-interval") {
        die("--ts-interval only applies with --timeseries PATH");
    } else {
        0
    };

    // Reject bad protocol and network settings before building the trace.
    let protocol = mspastry::Config {
        b: parse(&args, "--b", 4),
        leaf_set_size: parse(&args, "--l", 32),
        target_raw_loss: parse_or("--target-lr", 5.0) / 100.0,
        per_hop_acks: !flag("--no-acks"),
        active_rt_probing: !flag("--no-probing"),
        probe_suppression: !flag("--no-suppression"),
        self_tuning: !flag("--no-selftuning"),
        ..Default::default()
    };
    if let Err(e) = protocol.validate() {
        die(&format!("bad protocol flags (--b, --l, --target-lr): {e}"));
    }
    let loss_pct = parse_or("--loss", 0.0);
    if !(0.0..100.0).contains(&loss_pct) {
        die(&format!("bad value for --loss: {loss_pct} (in [0, 100))"));
    }

    let trace = match get("--churn").as_deref().unwrap_or("poisson") {
        "poisson" => churn::poisson::trace(&PoissonParams {
            mean_nodes: nodes,
            mean_session_us: session_min * 60e6,
            duration_us,
            seed: 404 + seed,
        }),
        "gnutella" => churn::gnutella::trace(&churn::gnutella::GnutellaParams {
            population_scale: nodes / 2000.0,
            duration_us,
            seed: 101 + seed,
        }),
        "overnet" => churn::overnet::trace(&churn::overnet::OvernetParams {
            population_scale: nodes / 450.0,
            duration_us,
            seed: 202 + seed,
        }),
        "microsoft" => churn::microsoft::trace(&churn::microsoft::MicrosoftParams {
            population_scale: nodes / 15_150.0,
            duration_us,
            seed: 303 + seed,
        }),
        other => die(&format!("unknown trace: {other}")),
    };

    let mut cfg = RunConfig::new(trace);
    cfg.topology = match get("--topology").as_deref().unwrap_or("gatech-small") {
        "gatech" => TopologyKind::GaTech,
        "gatech-small" => TopologyKind::GaTechSmall,
        "mercator" => TopologyKind::Mercator,
        "corpnet" => TopologyKind::CorpNet,
        other => die(&format!("unknown topology: {other}")),
    };
    cfg.network_loss_rate = loss_pct / 100.0;
    cfg.workload = if rate > 0.0 {
        Workload::Poisson {
            rate_per_node_per_sec: rate,
        }
    } else {
        Workload::None
    };
    cfg.seed = seed;
    cfg.protocol = protocol;

    let json_path = get("--json");
    let trace_rate = get("--trace")
        .map(|v| {
            v.parse::<f64>().ok().filter(|r| (0.0..=1.0).contains(r)).unwrap_or_else(|| {
                die(&format!(
                    "bad value for --trace: {v} (a sampling rate in [0, 1]; churn traces are selected with --churn)"
                ))
            })
        })
        .unwrap_or(0.0);
    cfg.trace_sample_rate = trace_rate;
    cfg.trace_capacity = parse(&args, "--trace-capacity", 65_536);
    let trace_out = get("--trace-out").or_else(|| {
        (trace_rate > 0.0)
            .then(|| json_path.as_deref().map(|p| format!("{p}.trace.jsonl")))
            .flatten()
    });
    cfg.ts_interval_us = ts_interval_us;
    cfg.profile = flag("--profile");

    let trace_capacity = cfg.trace_capacity;
    eprintln!(
        "simulating {} on {:?} for {hours} h (seed {seed}) ...",
        cfg.trace.name(),
        cfg.topology
    );
    let t0 = std::time::Instant::now();
    let res = run(cfg);
    let r = &res.report;
    eprintln!(
        "done in {:.1}s ({} events)",
        t0.elapsed().as_secs_f64(),
        res.sim_events
    );

    println!("active nodes at end      : {}", res.final_active);
    println!("lookups issued           : {}", r.issued);
    println!("delivered / lost         : {} / {}", r.delivered, r.lost);
    println!("incorrect delivery rate  : {:.2e}", r.incorrect_rate);
    println!("lookup loss rate         : {:.2e}", r.loss_rate);
    println!("mean RDP                 : {:.2}", r.mean_rdp);
    println!("mean hops                : {:.2}", r.mean_hops);
    println!(
        "control traffic          : {:.3} msg/s/node",
        r.control_msgs_per_node_per_sec
    );
    for (i, name) in CATEGORY_NAMES.iter().enumerate() {
        println!("  {:>18}: {:.4}", name, r.totals_per_node_per_sec[i]);
    }
    println!(
        "wire bandwidth           : {:.1} bytes/s/node",
        r.bytes_per_node_per_sec
    );
    println!("mean adopted Trt         : {:.1} s", res.mean_t_rt_us / 1e6);
    println!("ring defects at end      : {}", res.ring_defects);
    if let (Some(p50), Some(p95)) = (r.join_latency_quantile(0.5), r.join_latency_quantile(0.95)) {
        println!(
            "join latency p50 / p95   : {:.1} s / {:.1} s",
            p50 as f64 / 1e6,
            p95 as f64 / 1e6
        );
    }
    if flag("--windows") {
        println!();
        println!(
            "{:>10} | {:>6} | {:>9} | {:>8}",
            "t (min)", "RDP", "ctl/s/n", "active"
        );
        for w in &r.windows {
            println!(
                "{:>10} | {:>6.2} | {:>9.3} | {:>8.0}",
                w.start_us / 60_000_000,
                w.rdp,
                w.control_per_node_per_sec,
                w.mean_active_nodes
            );
        }
    }
    if let Some(path) = &json_path {
        match std::fs::write(path, harness::run_json(&res)) {
            Ok(()) => eprintln!("wrote run artifact to {path}"),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if let Some(path) = &trace_out {
        match std::fs::write(path, obs::trace_jsonl(&res.trace_events)) {
            Ok(()) => eprintln!(
                "wrote {} hop-trace events to {path}",
                res.trace_events.len()
            ),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if res.trace_overwritten > 0 {
        eprintln!(
            "warning: hop-trace ring overflowed; {} events were overwritten \
             (capacity {}). Rerun with a larger --trace-capacity or a lower \
             --trace rate for a complete trace.",
            res.trace_overwritten, trace_capacity,
        );
    }
    if let Some(path) = &ts_path {
        let ts = res
            .timeseries
            .as_ref()
            .expect("--timeseries sets ts_interval_us > 0");
        match std::fs::write(path, obs::ts_jsonl(ts)) {
            Ok(()) => eprintln!(
                "wrote {} time-series windows to {path} ({} dropped)",
                ts.len(),
                ts.dropped()
            ),
            Err(e) => die(&format!("cannot write {path}: {e}")),
        }
    }
    if let Some(p) = &res.prof {
        eprint!("{}", harness::profile_table(p));
    }
}

/// Runs a registered scenario as a (possibly multi-seed, parallel) sweep and
/// prints its report tables; `--json [PATH]` also writes the series/2
/// artifact, its CSV, and each report table as `<stem>.<table>.csv`.
fn run_scenario(name: &str, args: &[String]) {
    // `--json` takes an *optional* path in scenario mode: a following token
    // that looks like another option means "use the default path".
    let json = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned());

    let s = harness::scale();
    let registry = bench::scenarios();
    let Some(scenario) = registry.get(name) else {
        die(&format!("unknown scenario: {name} (see --list-scenarios)"));
    };
    let mut cfg = SweepConfig::new(s);
    cfg.seeds = parse(args, "--seeds", 1);
    cfg.jobs = parse(args, "--jobs", 0);
    cfg.progress = args.iter().any(|a| a == "--progress");

    eprintln!(
        "sweeping {} ({}): {} points x {} seeds at {} scale ...",
        scenario.name,
        scenario.figure,
        scenario.expand(s).len(),
        cfg.seeds,
        s.name()
    );
    let t0 = std::time::Instant::now();
    let sweep = run_sweep(scenario, &cfg);
    eprintln!("done in {:.1}s", t0.elapsed().as_secs_f64());

    let tables = (scenario.report)(&sweep);
    let (figure, title, scale) = (scenario.figure, scenario.title, s.name());
    println!("{figure}: {title} ({scale} scale, seeds: {})", sweep.seeds);
    for t in &tables {
        println!();
        print!("{t}");
    }

    if let Some(path) = json {
        let json_path = path.unwrap_or_else(|| {
            format!("results/{}.{}.s{}.json", scenario.name, s.name(), cfg.seeds)
        });
        let stem = json_path.strip_suffix(".json").unwrap_or(&json_path);
        if let Some(dir) = std::path::Path::new(&json_path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let write = |path: &str, text: String| {
            std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")))
        };
        write(&json_path, sweep_json(&sweep));
        write(&format!("{stem}.csv"), sweep_csv(&sweep));
        for t in &tables {
            write(&format!("{stem}.{}.csv", t.name), t.csv());
        }
        let n = tables.len();
        eprintln!("wrote sweep artifact to {json_path}, its CSV and {n} report tables");
    }
}

/// The value following option `name`, if present; a missing value is an error.
fn value(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => die(&format!("{name} needs a value")),
    }
}

/// Option `name` parsed as a `T` (integers reject fractions), or `default`.
fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    value(args, name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}")))
    })
}

fn print_help() {
    // The doc comment at the top of this file is the help text.
    let src = include_str!("mspastry-sim.rs");
    for line in src.lines().skip(4) {
        if let Some(t) = line.strip_prefix("//! ") {
            if !t.starts_with("```") {
                println!("{t}");
            }
        } else if line == "//!" {
            println!();
        } else {
            break;
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2);
}
