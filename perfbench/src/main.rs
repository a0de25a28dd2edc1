//! End-to-end and per-layer benchmark of the pathcost serving system.
//!
//! ```text
//! perfbench --workload <hot_read|cold_read|ingest_read> --seed <n> --seconds <s> --trace <0|1>
//!           [--fixture-seed <n>]
//! perfbench --smoke
//! ```
//!
//! Each run builds the D1 fixture, boots `pathcost-server` on a loopback
//! port and drives it over HTTP (see `workload.rs`). With `--trace 0` the
//! last line of standard output is a JSON object carrying every end-to-end
//! metric; with `--trace 1` the run is followed by an in-process traced
//! replay (see `traced.rs`) and the object carries the per-layer metrics.
//! Lines before it, each starting with `#`, give provenance and the figures
//! behind the metrics. `--smoke` runs every workload briefly in both modes
//! and checks that every metric is emitted, finite and carries its unit.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload hot_read --seed 1 --seconds 10 --trace 0`

mod client;
mod fixture;
mod metrics;
mod rng;
mod trace;
mod traced;
mod workload;

use fixture::Fixture;
use metrics::Metric;
use std::path::PathBuf;
use workload::{Plan, Workload};

const USAGE: &str = "usage: perfbench --workload <hot_read|cold_read|ingest_read> --seed <n> --seconds <s> --trace <0|1> [--fixture-seed <n>]\n       perfbench --smoke";

/// Seed of the D1 fixture unless `--fixture-seed` says otherwise; the
/// workload seed only drives the request and write streams.
const FIXTURE_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    fixture_seed: u64,
}

enum Mode {
    Run(Args),
    Smoke,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut fixture_seed = FIXTURE_SEED;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            return Ok(Mode::Smoke);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--fixture-seed" => fixture_seed = number(&value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        fixture_seed,
    }))
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Report {
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 8);
    let state_dir = PathBuf::from(".bench_state").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&state_dir).expect("create the benchmark's state directory");
    let fx = Fixture::new(args.fixture_seed);
    let plan = Plan::new(
        &fx,
        args.workload,
        args.seed,
        args.seconds,
        conns,
        state_dir.clone(),
    );
    let untraced = workload::run_untraced(&plan);
    let mut tally_msgs: Vec<String> = untraced.tally.mismatches.clone();
    if let Some(invalid) = &untraced.invalid {
        tally_msgs.push(format!("invalid run: {invalid}"));
    }
    for e in &untraced.tally.errors {
        println!("# failed request: {e}");
    }
    println!(
        "# answer checks: {} compared, {} equal only up to last-bit rounding (OD state-merge order)",
        untraced.tally.checked, untraced.tally.last_bits
    );
    let (mut attempted, mut failed) = (untraced.tally.attempted, untraced.tally.failed);
    println!(
        "# failed_frac {} ({} of {} reads and updates)",
        failed as f64 / attempted.max(1) as f64,
        failed,
        attempted
    );
    for m in &untraced.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &untraced.reported {
        println!(
            "# {} = {} {} (reported, not gated)",
            m.name, m.value, m.unit
        );
    }
    let metrics = if args.trace {
        let traced = traced::run_traced(&plan, &untraced);
        attempted += traced.attempted;
        failed += traced.failed;
        tally_msgs.extend(traced.mismatches);
        traced.metrics
    } else {
        untraced.metrics
    };
    let _ = std::fs::remove_dir_all(&state_dir);
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        tally_msgs.push(format!("metric {} was not measured", m.name));
    }
    for msg in &tally_msgs {
        println!("# check failed: {msg}");
    }
    Report {
        correct: tally_msgs.is_empty(),
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect(),
    }
}

/// Length of a smoke run, seconds: long enough that the open loop's backlog
/// check sees more than a few samples.
const SMOKE_SECONDS: f64 = 4.0;

/// Every workload briefly, in both modes: every metric must be emitted,
/// finite and carry its unit, and the run must be correct.
fn smoke() -> Result<(), String> {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(&Args {
                workload,
                seed: 1,
                seconds: SMOKE_SECONDS,
                trace,
                fixture_seed: FIXTURE_SEED,
            });
            println!(
                "{} trace {}: {}",
                workload.name(),
                u8::from(trace),
                report.json()
            );
            if !report.correct {
                return Err(format!(
                    "{} (trace {trace}) was not correct",
                    workload.name()
                ));
            }
            if report.metrics.is_empty() || report.attempted == 0 {
                return Err(format!(
                    "{} (trace {trace}) reported nothing",
                    workload.name()
                ));
            }
            for m in &report.metrics {
                if !m.value.is_finite() || m.unit.is_empty() {
                    return Err(format!(
                        "{}: metric {} is {} {:?}",
                        workload.name(),
                        m.name,
                        m.value,
                        m.unit
                    ));
                }
            }
        }
    }
    Ok(())
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
        Ok(Mode::Smoke) => {
            if let Err(e) = smoke() {
                eprintln!("smoke failed: {e}");
                std::process::exit(1);
            }
            println!("smoke ok");
        }
        Ok(Mode::Run(args)) => println!("{}", run(&args).json()),
    }
}
