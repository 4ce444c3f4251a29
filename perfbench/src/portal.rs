//! `portal_bulk`: shelf-cart sweeps of about 300 tags, localized over TCP
//! by 2 closed-loop clients. Large frames and many tags per request make
//! request decode and DTW detection do most of the work; every sweep's
//! geometry is warm before timing starts, and no sessions are used, so
//! the bank registry and the session layer sit idle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rfid_reader::SweepRecording;
use stpp_core::StppInput;
use stpp_scenario::build_scenario;
use stpp_scenario::spec::DeploymentSpec;
use stpp_serve::LocalizeReply;

use crate::harness::{
    closed_loop, depth_layout, par_map, result_bits, scenario, set_up, Calibration, Reference, Rng,
    RssSampler, Tally, CALIBRATION_SEED, CALIBRATION_TAGS, THREADS,
};
use crate::localize::{Sent, Trace};
use crate::stats::{median, percentile};
use crate::trace::SpanLog;
use crate::{Args, Run};

/// Tags per sweep.
const TAGS: usize = 300;
/// Tag spacing along the shelf, metres.
const SPACING_M: f64 = 0.06;
/// Distinct sweeps per seed; the clients cycle through them.
const SWEEPS: usize = 4;
/// Calibration sweeps, scored against ground truth.
const CALIBRATION: usize = 8;
/// Server set-ups whose median is `setup_s`.
const SETUPS: usize = 21;
/// The tail percentile of `request_tail_ms`, within a round.
const TAIL: f64 = 90.0;
/// Seconds of each closed-loop round (see `harness::closed_loop`): at
/// least 150 requests, so at least 15 beyond the [`TAIL`] of a round.
const ROUND_S: f64 = 2.0;
/// Most requests whose wire stages a traced run replays.
const REPLAYS: usize = 150;

/// The per-layer metrics this workload exercises.
pub const LAYERS: &[&str] = &["pipeline.input_build_ms"];

/// One seeded sweep with its reference result.
struct Sweep {
    recording: SweepRecording,
    reference: Reference,
    samples: usize,
}

impl Sweep {
    fn generate(seed: u64, index: usize) -> Result<Sweep, String> {
        let seed = seed.wrapping_mul(1_000_003).wrapping_add(index as u64);
        let recording = stpp_bench::benchmark_recording(TAGS, SPACING_M, seed);
        let input = StppInput::from_recording(&recording).map_err(|e| e.to_string())?;
        let reference = Reference::new(
            &input,
            &recording.truth_order_x(),
            &recording.scenario.truth_order_y(),
            false,
        )?;
        let samples = input.observations.iter().map(|o| o.profile.len()).sum();
        Ok(Sweep { recording, reference, samples })
    }

    fn input(&self) -> StppInput {
        StppInput::from_recording(&self.recording).expect("checked when generated")
    }
}

/// A calibration sweep: the shelf cart of `benchmark_recording` over
/// [`CALIBRATION_TAGS`] tags at distinct depths.
fn calibration_sweep(index: usize) -> Result<(Arc<StppInput>, Reference), String> {
    let mut rng = Rng::new(CALIBRATION_SEED, index as u64);
    let layout = depth_layout(&mut rng, CALIBRATION_TAGS, 0.0, SPACING_M);
    let deployment = DeploymentSpec::AntennaSweep {
        standoff_y_m: 0.35,
        height_z_m: 0.0,
        margin_x_m: 0.5,
        speed_mps: 0.1,
        manual: true,
    };
    let spec = scenario(format!("portal calibration {index}"), rng.next_u64(), layout, deployment);
    let built = build_scenario(&spec).map_err(|e| e.to_string())?;
    let reference = Reference::new(&built.input, &built.truth_x, &built.truth_y, false)?;
    Ok((built.input, reference))
}

/// A client's tallies over a closed-loop pass.
#[derive(Debug, Default)]
struct Requests {
    latencies_ms: Vec<f64>,
    failed: u64,
    mismatches: u64,
    tags: u64,
    samples: u64,
    sent: Vec<Sent>,
}

impl Tally for Requests {
    fn merge(&mut self, other: Requests) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.tags += other.tags;
        self.samples += other.samples;
        self.sent.extend(other.sent);
    }

    fn figures(&self, seconds: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("p50", median(&self.latencies_ms)),
            ("tail", percentile(&self.latencies_ms, TAIL)),
            ("tags", self.tags as f64 / seconds),
            ("samples", self.samples as f64 / seconds),
            ("replies", self.sent.len() as f64 / seconds),
        ]
    }
}

/// Each client builds the input from a recording, localizes it and
/// checks the reply, cycling through the sweeps.
fn closed(
    server: &crate::harness::Server,
    sweeps: &[Sweep],
    seconds: f64,
    traced: bool,
) -> Result<crate::harness::Pass<Requests>, String> {
    closed_loop(server, seconds, ROUND_S, traced, |client, log, c, n, tally: &mut Requests| {
        let k = (c + n as usize) % sweeps.len();
        let sweep = &sweeps[k];
        let request = (c as u64) << 32 | n;
        let root = log.open("request", 0, request);
        let started = Instant::now();
        let input = log.time("pipeline.input_build", root.id(), request, || sweep.input());
        let reply = log.time("client.rtt", root.id(), request, || client.localize(&input, None));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        log.close(root);
        match reply.map_err(|e| e.to_string())? {
            LocalizeReply::Localized(response) => {
                tally.latencies_ms.push(ms);
                if result_bits(&response.result) != sweep.reference.bits {
                    tally.mismatches += 1;
                    tally.failed += 1;
                } else {
                    tally.tags += response.result.localized_count() as u64;
                    tally.samples += sweep.samples as u64;
                    tally.sent.push(Sent { request, entry: k, metrics: response.metrics });
                }
            }
            LocalizeReply::Busy { .. } => tally.failed += 1,
        }
        Ok(())
    })
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Run, String> {
    let sweeps = par_map(SWEEPS, |i| Sweep::generate(args.seed, i))
        .into_iter()
        .collect::<Result<Vec<Sweep>, String>>()?;
    let calibration_sweeps =
        par_map(CALIBRATION, calibration_sweep).into_iter().collect::<Result<Vec<_>, String>>()?;
    let (server, setup_s) = set_up(&sweeps[0].input(), SETUPS)?;
    println!("portal_bulk: server core {:?}, {SWEEPS} sweeps of {TAGS} tags", server.core);
    // Serve the calibration sweeps, then warm every sweep's geometry:
    // after this, no request builds banks.
    let mut warm = server.connect()?;
    let mut calibration = Calibration::default();
    for (input, reference) in &calibration_sweeps {
        let reply = match warm.localize(input, None) {
            Ok(LocalizeReply::Localized(r)) => Ok(result_bits(&r.result) == reference.bits),
            other => Err(format!("{other:?}")),
        };
        calibration.record(reply, reference.accuracy);
    }
    for sweep in &sweeps {
        warm.localize(&sweep.input(), None).map_err(|e| format!("warm-up: {e}"))?;
    }
    drop(warm);

    let mut run = Run::default();
    if !args.trace {
        let rss = RssSampler::start();
        let pass = closed(&server, &sweeps, args.seconds, false)?;
        run.metrics.set("peak_rss_mb", rss.finish());
        let done = &pass.tally;
        let p50 = pass.round_median("p50");
        let tail = pass.round_median("tail");
        let m = &mut run.metrics;
        m.set("setup_s", setup_s);
        m.set("request_p50_ms", p50);
        m.set("request_tail_ms", tail);
        // A batch reply is both the first and the final ordering.
        m.set("ttfr_p50_ms", p50);
        m.set("final_p50_ms", p50);
        m.set("final_tail_ms", tail);
        m.set("tags_per_s", pass.round_median("tags"));
        m.set("reports_per_s", pass.round_median("samples"));
        m.set("max_rate_rps", pass.round_median("replies"));
        println!(
            "portal_bulk: requests {}; tail = p{TAIL} with {} samples beyond",
            crate::stats::tails(&done.latencies_ms),
            crate::stats::beyond(&done.latencies_ms, TAIL)
        );
        run.attempted = pass.attempted;
        run.failed = done.failed + pass.errors;
        run.mismatches = done.mismatches;
    } else {
        let untraced = closed(&server, &sweeps, args.seconds * 0.4, false)?;
        let before = server.counters()?;
        let traced = closed(&server, &sweeps, args.seconds * 0.4, true)?;
        let after = server.counters()?;
        let mut trace = Trace { spans: traced.spans, sent: traced.tally.sent, ..Trace::default() };
        let inputs: Vec<StppInput> = sweeps.iter().map(Sweep::input).collect();
        let mut log = SpanLog::new(true, Instant::now(), THREADS as u64);
        let budget = Duration::from_secs_f64(args.seconds * 0.2);
        trace.replay(&mut log, REPLAYS, budget, |k| (&inputs[k], &sweeps[k].reference.result));
        trace.spans.extend(log.into_spans());
        let m = &mut run.metrics;
        trace.layers(&after.since(&before), m);
        let untraced_failed = untraced.tally.failed + untraced.errors;
        crate::harness::closed_loop_layers(m, &after, untraced.attempted, untraced_failed);
        m.set(
            "trace.overhead_pct",
            100.0
                * (crate::stats::mean(&traced.tally.latencies_ms)
                    / crate::stats::mean(&untraced.tally.latencies_ms)
                    - 1.0),
        );
        crate::trace::write_spans(args, &trace.spans);
        run.attempted = untraced.attempted + traced.attempted;
        run.failed = untraced_failed + traced.tally.failed + traced.errors;
        run.mismatches = untraced.tally.mismatches + traced.tally.mismatches;
    }
    calibration.apply(&mut run, !args.trace);
    server.stop()?;
    Ok(run)
}
