//! End-to-end and per-layer benchmark for the STPP serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload portal_bulk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates a seeded workload, drives it through a real server over
//! loopback TCP (`StppInput` build → `StppClient` → `proto` →
//! `StppServer` → `LocalizationService` / `ServiceSession`), checks every
//! reply bit for bit against an in-process `BatchLocalizer`, and prints
//! one JSON object as the last line of standard output. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload again
//! with spans around each layer call and reports per-layer metrics.
//! Exits 1 when any reply differs from the reference. See
//! `RATIONALE.md` for why each workload and metric exists.

mod conveyor;
mod harness;
mod localize;
mod portal;
mod sortation;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// End-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("tags_per_s", "1/s"),
    ("max_rate_rps", "1/s"),
    ("ttfr_p50_ms", "ms"),
    ("final_p50_ms", "ms"),
    ("final_tail_ms", "ms"),
    ("reports_per_s", "1/s"),
    ("accuracy_x", "share"),
    ("accuracy_y", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// The fixed request rates of the open-loop workload, per second.
pub const RATES: [u32; 2] = [200, 6400];

/// Per-layer metrics (`--trace 1`) with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("pipeline.input_build_ms", "ms"),
        ("proto.request_bytes", "bytes"),
        ("proto.request_encode_ms", "ms"),
        ("proto.request_decode_ms", "ms"),
        ("proto.response_bytes", "bytes"),
        ("proto.response_encode_ms", "ms"),
        ("proto.response_decode_ms", "ms"),
        ("proto.ingest_bytes", "bytes"),
        ("proto.ingest_encode_ms", "ms"),
        ("proto.ingest_decode_ms", "ms"),
        ("service.total_ms", "ms"),
        ("service.prepare_ms", "ms"),
        ("vzone.detect_ms", "ms"),
        ("ordering.order_ms", "ms"),
        ("reference.bank_builds_per_request", "count"),
        ("service.cold_ms", "ms"),
        ("service.warm_ms", "ms"),
        ("service.geometry_hit_share", "share"),
        ("service.registry_evictions", "count"),
        ("session.ingest_ms", "ms"),
        ("streaming.provisional_ms", "ms"),
        ("session.finish_ms", "ms"),
        ("session.flush_examined", "count"),
        ("streaming.first_result_reports", "count"),
        ("client.rtt_ms", "ms"),
        ("server.residual_ms", "ms"),
        ("server.busy_rejections", "count"),
        ("server.connections", "count"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.late_max_ms", "ms"),
        ("loadgen.sent", "count"),
        ("loadgen.succeeded", "count"),
        ("loadgen.failed", "count"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for rate in RATES {
        for (what, unit) in LOADGEN_PER_RATE {
            out.push((format!("loadgen.r{rate}.{what}"), unit));
        }
    }
    out.push(("trace.request_ms".to_string(), "ms"));
    out.push(("trace.overhead_pct".to_string(), "%"));
    out
}

/// The per-rate load-generator figures of the open-loop workload.
pub const LOADGEN_PER_RATE: [(&str, &str); 7] = [
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("late_p99_ms", "ms"),
    ("late_max_ms", "ms"),
    ("sent", "count"),
    ("succeeded", "count"),
    ("failed", "count"),
];

/// The per-layer metrics `workload` exercises: a traced run must
/// measure each of them. The others read 0.
pub fn exercised(workload: &str) -> Vec<String> {
    let own: &[&str] = match workload {
        "portal_bulk" => portal::LAYERS,
        "sortation_mixed" => sortation::LAYERS,
        _ => conveyor::LAYERS,
    };
    let localize = if workload == "conveyor_stream" { &[][..] } else { localize::LAYERS };
    let mut names: Vec<String> =
        harness::LAYERS.iter().chain(localize).chain(own).map(|n| n.to_string()).collect();
    if workload == "sortation_mixed" {
        for rate in RATES {
            names
                .extend(LOADGEN_PER_RATE.iter().map(|(what, _)| format!("loadgen.r{rate}.{what}")));
        }
    }
    names
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// The metric values (end-to-end or per-layer, by `--trace`).
    pub metrics: Metrics,
    /// Units of work attempted (requests, or belts for sessions).
    pub attempted: u64,
    /// Of those, errors + Busy + output mismatches.
    pub failed: u64,
    /// Of those, replies that differed from the in-process reference.
    pub mismatches: u64,
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload portal_bulk|sortation_mixed|conveyor_stream \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "portal_bulk" => portal::run(&args),
        "sortation_mixed" => sortation::run(&args),
        "conveyor_stream" => conveyor::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if !args.trace {
        let ok = 1.0 - run.failed as f64 / run.attempted.max(1) as f64;
        run.metrics.set("ok_share", ok);
    }
    let exercised = if args.trace { exercised(&args.workload) } else { Vec::new() };
    let mut fields = Vec::new();
    let mut complete = true;
    for (name, unit) in &names {
        let mut value = run.metrics.get(name);
        if args.trace && value.is_none() && !exercised.contains(name) {
            // A layer this workload does not exercise did no work.
            value = Some(0.0);
        }
        if !value.is_some_and(f64::is_finite) {
            eprintln!("perfbench: {name} was not measured");
            complete = false;
        }
        let value = value.unwrap_or(f64::NAN);
        println!("  {name:<36} {value:>14.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if let Some(stray) = run.metrics.0.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        eprintln!("perfbench: {stray} is not a declared metric");
        complete = false;
    }
    println!(
        "attempted {} failed {} (fail_share {:.6}) mismatches {}",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        run.mismatches
    );
    let correct = run.mismatches == 0 && complete && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names this program prints are the names `BENCHMARK.json`
    /// declares, in both modes.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
    }

    /// Every metric a workload must measure is a declared per-layer
    /// metric.
    #[test]
    fn exercised_metrics_are_declared() {
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        for workload in ["portal_bulk", "sortation_mixed", "conveyor_stream"] {
            for name in exercised(workload) {
                assert!(layers.contains(&name), "{workload}: {name} is not declared");
            }
        }
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let argv = ["--workload", "portal_bulk", "--seed", "7", "--seconds", "3", "--trace", "1"];
        let args = Args::parse(argv.iter().map(|s| s.to_string())).expect("valid flags");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("portal_bulk", 7, 3.0, true)
        );
        assert!(Args::parse(["--trace", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["--seed"].iter().map(|s| s.to_string())).is_err());
    }
}
