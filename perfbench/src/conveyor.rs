//! `conveyor_stream`: seeded conveyor belts (16–24 tags, about 2 k
//! reports each) replayed by 2 closed-loop clients into server-side
//! sessions: `open_session`, then `ingest` frames of 25 reports with a
//! `provisional` poll after each, then `flush_session(finish)`. This is
//! the write path (session buffers, the streaming tracker, Ingest
//! frames) beside the other workloads' read path, and the workload
//! where the tag-moving accuracy defect shows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rfid_gen2::Epc;
use stpp_core::{StppInput, StppResult};
use stpp_scenario::build_scenario;
use stpp_scenario::spec::{DeploymentSpec, LayoutSpec};
use stpp_serve::{
    proto, FlushReply, LocalizationService, Request, RequestMetrics, ServiceConfig,
    SessionGeometry, StppClient, WireReport,
};

use crate::harness::{
    closed_loop, closed_loop_layers, depth_layout, par_map, result_bits, scenario, set_up,
    Calibration, Pass, Reference, Rng, RssSampler, Server, Tally, CALIBRATION_SEED,
    CALIBRATION_TAGS, THREADS,
};
use crate::localize::{mean_of, service_layers};
use crate::stats::{beyond, mean, median, percentile};
use crate::trace::{mean_self_ms, self_times, write_spans, Span, SpanLog};
use crate::{Args, Metrics, Run};

/// Distinct belts per seed; the clients cycle through them.
const BELTS: usize = 200;
/// Calibration belts, scored against ground truth.
const CALIBRATION: usize = 100;
/// Tag spacing along the belt, metres.
const SPACING_M: f64 = 0.12;
/// Reports per Ingest frame.
const FRAME: usize = 25;
/// Seconds of each closed-loop round (see `harness::closed_loop`): at
/// least 200 belts, so at least 20 beyond the [`TAIL`] of a round.
const ROUND_S: f64 = 1.0;
/// Server set-ups whose median is `setup_s`.
const SETUPS: usize = 61;
/// The tail percentile of `request_tail_ms` and `final_tail_ms`, within
/// a round.
const TAIL: f64 = 90.0;
/// A traced run records the spans of every this-many-th belt a client
/// streams; every belt would be about 60 MB of spans per run.
const TRACE_EVERY: u64 = 20;
/// Most belts whose server-side work a traced run replays in process.
const REPLAYS: usize = 40;
/// Attempts at a finishing flush that the server answers Busy.
const FLUSH_ATTEMPTS: usize = 100;

/// The per-layer metrics this workload exercises.
pub const LAYERS: &[&str] = &[
    "proto.ingest_bytes",
    "proto.ingest_encode_ms",
    "proto.ingest_decode_ms",
    "session.ingest_ms",
    "streaming.provisional_ms",
    "session.finish_ms",
    "session.flush_examined",
    "streaming.first_result_reports",
];

/// One seeded belt with its reference result.
struct Belt {
    input: Arc<StppInput>,
    geometry: SessionGeometry,
    frames: Vec<Vec<WireReport>>,
    reference: Reference,
    reports: usize,
}

impl Belt {
    /// Belt `index` of `seed`: a row of 16–24 tags, or for the
    /// calibration set a row of [`CALIBRATION_TAGS`] at distinct depths.
    fn generate(seed: u64, index: usize, calibration: bool) -> Result<Belt, String> {
        let mut rng = Rng::new(seed, index as u64);
        let layout = if calibration {
            depth_layout(&mut rng, CALIBRATION_TAGS, 0.3, SPACING_M)
        } else {
            LayoutSpec::Row {
                start_x_m: 0.3,
                y_m: 0.0,
                spacing_m: SPACING_M,
                count: rng.range(16, 24),
            }
        };
        let deployment = DeploymentSpec::Conveyor {
            belt_speed_mps: 0.3,
            antenna_standoff_y_m: 1.0,
            antenna_height_z_m: 1.0,
            antenna_x_m: 0.0,
            margin_x_m: 0.5,
        };
        let spec = scenario(format!("conveyor belt {index}"), rng.next_u64(), layout, deployment);
        let built = build_scenario(&spec).map_err(|e| e.to_string())?;
        let reference = Reference::new(&built.input, &built.truth_x, &built.truth_y, true)?;
        let wire: Vec<WireReport> = built
            .reports
            .iter()
            .map(|r| WireReport {
                epc_serial: r.epc.serial(),
                time_s: r.time_s,
                phase_rad: r.phase_rad,
            })
            .collect();
        let geometry = SessionGeometry {
            nominal_speed_mps: built.input.nominal_speed_mps,
            wavelength_m: built.input.wavelength_m,
            perpendicular_distance_m: built.input.perpendicular_distance_m,
        };
        Ok(Belt {
            input: built.input,
            geometry,
            frames: wire.chunks(FRAME).map(<[WireReport]>::to_vec).collect(),
            reference,
            reports: wire.len(),
        })
    }
}

/// A client's tallies over a closed-loop pass.
#[derive(Debug, Default)]
struct Belts {
    /// `open_session` sent to the final ordering received, ms.
    belt_ms: Vec<f64>,
    /// First Ingest sent to the first provisional poll with an estimate.
    ttfr_ms: Vec<f64>,
    /// Last Ingest sent to the final ordering received.
    final_ms: Vec<f64>,
    failed: u64,
    mismatches: u64,
    requests: u64,
    reports: u64,
    tags: u64,
    /// Per finished traced belt: the request id its spans carry, and
    /// which belt.
    finished: Vec<(u64, usize)>,
    /// The server's metrics for each finishing flush.
    flushes: Vec<RequestMetrics>,
}

impl Tally for Belts {
    fn merge(&mut self, other: Belts) {
        self.belt_ms.extend(other.belt_ms);
        self.ttfr_ms.extend(other.ttfr_ms);
        self.final_ms.extend(other.final_ms);
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.requests += other.requests;
        self.reports += other.reports;
        self.tags += other.tags;
        self.finished.extend(other.finished);
        self.flushes.extend(other.flushes);
    }

    fn figures(&self, seconds: f64) -> Vec<(&'static str, f64)> {
        vec![
            ("belt_p50", median(&self.belt_ms)),
            ("belt_tail", percentile(&self.belt_ms, TAIL)),
            ("ttfr_p50", median(&self.ttfr_ms)),
            ("final_p50", median(&self.final_ms)),
            ("final_tail", percentile(&self.final_ms, TAIL)),
            ("tags", self.tags as f64 / seconds),
            ("reports", self.reports as f64 / seconds),
            ("requests", self.requests as f64 / seconds),
        ]
    }
}

/// Streams one belt through a server-side session. Returns the final
/// ordering, or the error that ended the belt early.
fn stream_belt(
    client: &mut StppClient,
    belt: &Belt,
    log: &mut SpanLog,
    request: u64,
    tally: &mut Belts,
) -> Result<StppResult, String> {
    let root = log.open("belt", 0, request);
    let id = root.id();
    let opened = Instant::now();
    let session = log
        .time("client.open_session", id, request, || client.open_session(belt.geometry, None))
        .map_err(|e| format!("open_session: {e}"))?;
    tally.requests += 1;
    let mut first_sent: Option<Instant> = None;
    let mut last_sent = Instant::now();
    let mut ttfr = None;
    for frame in &belt.frames {
        let sent = Instant::now();
        first_sent.get_or_insert(sent);
        last_sent = sent;
        log.time("client.rtt", id, request, || client.ingest(session, frame))
            .map_err(|e| format!("ingest: {e}"))?;
        tally.reports += frame.len() as u64;
        let provisional = log
            .time("client.provisional", id, request, || client.provisional(session))
            .map_err(|e| format!("provisional: {e}"))?;
        tally.requests += 2;
        if ttfr.is_none() && provisional.tags_estimated > 0 {
            let first = first_sent.expect("set on the first frame");
            ttfr = Some(first.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut busy = false;
    let mut outcome = None;
    for _ in 0..FLUSH_ATTEMPTS {
        let reply = log.time("client.flush", id, request, || client.flush_session(session, true));
        tally.requests += 1;
        match reply.map_err(|e| format!("flush: {e}"))? {
            FlushReply::Flushed(Some(response)) => {
                outcome = Some(response);
                break;
            }
            FlushReply::Flushed(None) => return Err("finished session held no reports".into()),
            FlushReply::Busy { .. } => {
                busy = true;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let response = outcome.ok_or("finishing flush stayed Busy")?;
    tally.final_ms.push(last_sent.elapsed().as_secs_f64() * 1e3);
    tally.belt_ms.push(opened.elapsed().as_secs_f64() * 1e3);
    log.close(root);
    tally.ttfr_ms.extend(ttfr);
    tally.flushes.push(response.metrics);
    if busy {
        return Err("finishing flush was answered Busy".into());
    }
    Ok(response.result)
}

/// Two clients stream belts and check each final ordering, starting
/// half the belt list apart.
fn closed(
    server: &Server,
    belts: &[Belt],
    seconds: f64,
    traced: bool,
) -> Result<Pass<Belts>, String> {
    closed_loop(server, seconds, ROUND_S, traced, |client, log, c, n, tally: &mut Belts| {
        let k = (c * belts.len() / THREADS + n as usize) % belts.len();
        let belt = &belts[k];
        let request = (c as u64) << 32 | n;
        let sampled = n.is_multiple_of(TRACE_EVERY);
        log.set_enabled(traced && sampled);
        let result = stream_belt(client, belt, log, request, tally)?;
        if result_bits(&result) == belt.reference.bits {
            tally.tags += result.localized_count() as u64;
            if sampled {
                tally.finished.push((request, k));
            }
        } else {
            tally.mismatches += 1;
            tally.failed += 1;
        }
        Ok(())
    })
}

/// What replaying belts in process measured, beside the spans.
#[derive(Debug, Default)]
struct Replay {
    frame_bytes: Vec<f64>,
    flush_examined: Vec<f64>,
    first_result_reports: Vec<f64>,
    mismatches: u64,
    replayed: std::collections::HashSet<u64>,
}

/// Replays one belt's server-side work in process: each Ingest frame
/// is encoded and decoded as the wire does, its reports go into a
/// `ServiceSession`, a provisional ordering follows each frame, and the
/// session is finished.
fn replay_belt(
    service: &Arc<LocalizationService>,
    belt: &Belt,
    log: &mut SpanLog,
    request: u64,
    out: &mut Replay,
) {
    let root = log.open("replay", 0, request);
    let id = root.id();
    let mut session = service.open_session(belt.geometry).expect("default quiescence is valid");
    let mut ingested = 0usize;
    let mut first = None;
    for frame in &belt.frames {
        let request_frame = Request::IngestReports { session: 0, reports: frame.clone() };
        let bytes = log.time("proto.ingest_encode", id, request, || {
            proto::encode_frame(&request_frame).expect("an ingest frame encodes")
        });
        out.frame_bytes.push(bytes.len() as f64);
        let decoded = log.time("proto.ingest_decode", id, request, || {
            proto::decode_frame::<Request>(&bytes).expect("the frame just encoded decodes")
        });
        let (Request::IngestReports { reports, .. }, _) = decoded else {
            unreachable!("an ingest frame decodes to an ingest request")
        };
        log.time("session.ingest", id, request, || {
            for r in &reports {
                session
                    .ingest_sample(Epc::from_serial(r.epc_serial), r.time_s, r.phase_rad)
                    .expect("simulated reports are finite");
            }
        });
        ingested += reports.len();
        let provisional = log.time("streaming.provisional", id, request, || session.provisional());
        if first.is_none() && provisional.tags_estimated > 0 {
            first = Some(ingested);
        }
    }
    out.flush_examined.push(session.flush_examined() as f64);
    out.first_result_reports.extend(first.map(|n| n as f64));
    let finished = log.time("session.finish", id, request, || session.finish());
    log.close(root);
    match finished {
        Ok(Some(response)) if result_bits(&response.result) == belt.reference.bits => {}
        _ => out.mismatches += 1,
    }
    out.replayed.insert(request);
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Run, String> {
    let mut belts = par_map(BELTS + CALIBRATION, |i| match i.checked_sub(BELTS) {
        None => Belt::generate(args.seed, i, false),
        Some(c) => Belt::generate(CALIBRATION_SEED, c, true),
    })
    .into_iter()
    .collect::<Result<Vec<Belt>, String>>()?;
    let calibration_belts = belts.split_off(BELTS);
    // Set up on a fixed input, so that the set-up work does not hinge on
    // the seed.
    let (server, setup_s) = set_up(&calibration_belts[0].input, SETUPS)?;
    println!(
        "conveyor_stream: server core {:?}, {BELTS} belts of {:.0} reports on average",
        server.core,
        mean(&belts.iter().map(|b| b.reports as f64).collect::<Vec<_>>())
    );
    // Stream the calibration belts, which also warms the session path
    // (streaming state, banks).
    let mut warm = server.connect()?;
    let mut unused = Belts::default();
    let mut off = SpanLog::new(false, Instant::now(), 0);
    let mut calibration = Calibration::default();
    for belt in &calibration_belts {
        let reply = stream_belt(&mut warm, belt, &mut off, 0, &mut unused)
            .map(|result| result_bits(&result) == belt.reference.bits);
        calibration.record(reply, belt.reference.accuracy);
    }
    drop(warm);

    let mut run = Run::default();
    if !args.trace {
        let rss = RssSampler::start();
        let pass = closed(&server, &belts, args.seconds, false)?;
        run.metrics.set("peak_rss_mb", rss.finish());
        let done = &pass.tally;
        let m = &mut run.metrics;
        m.set("setup_s", setup_s);
        for (metric, figure) in [
            ("request_p50_ms", "belt_p50"),
            ("request_tail_ms", "belt_tail"),
            ("ttfr_p50_ms", "ttfr_p50"),
            ("final_p50_ms", "final_p50"),
            ("final_tail_ms", "final_tail"),
            ("tags_per_s", "tags"),
            ("reports_per_s", "reports"),
            ("max_rate_rps", "requests"),
        ] {
            m.set(metric, pass.round_median(figure));
        }
        println!("conveyor_stream: belt {}", crate::stats::tails(&done.belt_ms));
        println!("conveyor_stream: ttfr {}", crate::stats::tails(&done.ttfr_ms));
        println!("conveyor_stream: final {}", crate::stats::tails(&done.final_ms));
        println!(
            "conveyor_stream: {} belts; tails = p{TAIL} with {} belts and {} finals beyond, \
             {} belts without a provisional estimate",
            pass.attempted,
            beyond(&done.belt_ms, TAIL),
            beyond(&done.final_ms, TAIL),
            pass.attempted - done.ttfr_ms.len() as u64
        );
        run.attempted = pass.attempted;
        run.failed = done.failed + pass.errors;
        run.mismatches = done.mismatches;
    } else {
        let untraced = closed(&server, &belts, args.seconds * 0.4, false)?;
        let before = server.counters()?;
        let traced = closed(&server, &belts, args.seconds * 0.4, true)?;
        let after = server.counters()?;
        let service = LocalizationService::new(ServiceConfig::default());
        let mut off = SpanLog::new(false, Instant::now(), 0);
        replay_belt(&service, &belts[0], &mut off, 0, &mut Replay::default());
        let mut log = SpanLog::new(true, Instant::now(), THREADS as u64);
        let mut replay = Replay::default();
        let budget = Duration::from_secs_f64(args.seconds * 0.2);
        let started = Instant::now();
        let finished = &traced.tally.finished;
        let stride = finished.len().div_ceil(REPLAYS).max(1);
        for &(request, k) in finished.iter().step_by(stride) {
            if started.elapsed() > budget {
                break;
            }
            replay_belt(&service, &belts[k], &mut log, request, &mut replay);
        }
        let mut spans = traced.spans;
        spans.extend(log.into_spans());
        let m = &mut run.metrics;
        session_layers(&spans, &replay, m);
        service_layers(&traced.tally.flushes, &after.since(&before), m);
        let untraced_failed = untraced.tally.failed + untraced.errors;
        closed_loop_layers(m, &after, untraced.attempted, untraced_failed);
        m.set(
            "trace.overhead_pct",
            100.0 * (mean(&traced.tally.belt_ms) / mean(&untraced.tally.belt_ms) - 1.0),
        );
        write_spans(args, &spans);
        run.attempted = untraced.attempted + traced.attempted;
        run.failed = untraced_failed + traced.tally.failed + traced.errors;
        run.mismatches = untraced.tally.mismatches + traced.tally.mismatches + replay.mismatches;
    }
    calibration.apply(&mut run, !args.trace);
    server.stop()?;
    Ok(run)
}

/// The session-layer figures of a traced run. A figure with no samples
/// is left unset.
fn session_layers(spans: &[Span], replay: &Replay, m: &mut Metrics) {
    let own = self_times(spans);
    let replayed = |r: u64| replay.replayed.contains(&r);
    let span_ms = |name, keep: &dyn Fn(u64) -> bool| mean_self_ms(spans, &own, name, keep);
    let mut set = |metric: &str, value: Option<f64>| {
        if let Some(v) = value {
            m.set(metric, v);
        }
    };
    set("proto.ingest_bytes", mean_of(&replay.frame_bytes));
    for (metric, span) in [
        ("proto.ingest_encode_ms", "proto.ingest_encode"),
        ("proto.ingest_decode_ms", "proto.ingest_decode"),
        ("session.ingest_ms", "session.ingest"),
        ("streaming.provisional_ms", "streaming.provisional"),
        ("session.finish_ms", "session.finish"),
    ] {
        set(metric, span_ms(span, &replayed));
    }
    set("session.flush_examined", mean_of(&replay.flush_examined));
    set("streaming.first_result_reports", mean_of(&replay.first_result_reports));
    set("client.rtt_ms", span_ms("client.rtt", &|_| true));
    // An Ingest round trip = frame encode + frame decode + session
    // ingest + residual (loopback, scheduling, the tiny reply).
    let rtt = span_ms("client.rtt", &replayed);
    let stages: Option<f64> = ["proto.ingest_encode", "proto.ingest_decode", "session.ingest"]
        .iter()
        .map(|s| span_ms(s, &replayed))
        .sum();
    set("server.residual_ms", rtt.zip(stages).map(|(rtt, stages)| rtt - stages));
    set("trace.request_ms", rtt);
}
