//! `perfbench timed|traced <workload> [--seed N] [--seconds S]
//! [--spans PATH]`: one measurement of one workload, printed as one JSON
//! line. `run.py` next to this crate is the benchmark's front end.

use perfbench::measure;
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opt = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let (Some(mode), Some(workload)) = (args.first(), args.get(1)) else {
        fail("usage: perfbench timed|traced <workload> [--seed N] [--seconds S] [--spans PATH]");
    };
    let seed = parse("--seed", opt("--seed"), 0u64);
    let out = match mode.as_str() {
        "timed" => measure::timed(workload, seed, parse("--seconds", opt("--seconds"), 10.0)),
        "traced" => measure::traced(workload, seed, opt("--spans").map(String::as_str)),
        other => Err(format!("unknown mode: {other}")),
    };
    match out {
        Ok(json) => println!("{json}"),
        Err(e) => fail(&e),
    }
}

/// The value of `flag`, or `default` when it is absent.
fn parse<T: FromStr>(flag: &str, value: Option<&String>, default: T) -> T {
    value.map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("bad value for {flag}: {v}")))
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}
