//! `sortation_mixed`: small conveyor batches (4–15 tags) spread over 96
//! belt geometries with skewed popularity, sent open loop on a fixed
//! schedule at two fixed rates: one well within capacity, where latency
//! is measured, and one well past it, where the server sets the pace
//! and its goodput is the capacity. There are more geometries than the
//! service's default 64-entry bank registry, so per-request fixed costs,
//! connection handling and registry misses and evictions dominate,
//! while the codec and detection work per request is small.

use std::sync::Arc;
use std::time::{Duration, Instant};

use stpp_core::StppInput;
use stpp_scenario::build_scenario;
use stpp_scenario::spec::{DeploymentSpec, LayoutSpec};
use stpp_serve::{LocalizeReply, StppClient};

use crate::harness::{
    depth_layout, par_map, result_bits, scenario, set_up, Calibration, Reference, Rng, RssSampler,
    Server, CALIBRATION_SEED, THREADS,
};
use crate::localize::{Sent, Trace};
use crate::stats::{beyond, median, percentile};
use crate::trace::{Span, SpanLog};
use crate::{Args, Metrics, Run, RATES};

/// Distinct belt geometries (the registry holds 64).
const GEOMETRIES: usize = 96;
/// Distinct batches per geometry; batch `b` holds 4 + 3b to 6 + 3b
/// tags, so every geometry's batches cover 4–15 tags evenly and the
/// work per request does not hinge on which geometries the seed makes
/// popular.
const BATCHES: usize = 4;
/// Tag spacing along the belt, metres.
const SPACING_M: f64 = 0.3;
/// Zipf exponent of geometry popularity.
const ZIPF_S: f64 = 1.0;
/// A rate passes when its tail latency stays under this limit.
const LIMIT_MS: f64 = 20.0;
/// The tail percentile the limit applies to.
const TAIL: f64 = 75.0;
/// Slices each rate's time is cut into (see [`sweep`]). Each slice also
/// runs on fresh connections: which CPUs the scheduler gives a generator
/// thread and its server connection thread sets how fast a round trip
/// is, and that placement sticks for the life of a connection, so many
/// short-lived connections average over placements.
const ROUNDS: u64 = 20;
/// A slice stops sending this share of its length after its end, plus
/// [`GRACE`]: an on-time generator has sent everything by then, and an
/// overloaded one sends back to back until then.
const OVERRUN: f64 = 0.1;
/// See [`OVERRUN`].
const GRACE: Duration = Duration::from_millis(50);
/// Server set-ups whose median is `setup_s`.
const SETUPS: usize = 61;
/// Requests sent before timing starts, so the registry is in its
/// steady state.
const WARMUP: usize = 600;
/// Most requests whose wire stages a traced run replays.
const REPLAYS: usize = 2000;

/// The per-layer metrics this workload exercises, beside the per-rate
/// `loadgen.r<rate>.*` figures.
pub const LAYERS: &[&str] = &["service.cold_ms"];

/// One seeded conveyor batch with its reference result.
struct Entry {
    input: Arc<StppInput>,
    reference: Reference,
    samples: usize,
}

impl Entry {
    /// Batch `batch` of geometry `geometry`. A timed batch is a row of
    /// 4 + 3b to 6 + 3b tags; a calibration batch (`seed` is
    /// [`CALIBRATION_SEED`]) holds 4 + 2b to 6 + 2b tags at distinct
    /// depths.
    fn generate(seed: u64, index: usize) -> Result<Entry, String> {
        let mut rng = Rng::new(seed, index as u64);
        let (geometry, batch) = (index / BATCHES % GEOMETRIES, (index % BATCHES) as u64);
        let layout = if seed == CALIBRATION_SEED {
            let count = 4 + 2 * batch + rng.range(0, 2);
            depth_layout(&mut rng, count, 0.3, SPACING_M)
        } else {
            let count = 4 + 3 * batch + rng.range(0, 2);
            LayoutSpec::Row { start_x_m: 0.3, y_m: 0.0, spacing_m: SPACING_M, count }
        };
        let deployment = DeploymentSpec::Conveyor {
            belt_speed_mps: 0.3 + 0.003 * (geometry % 16) as f64,
            antenna_standoff_y_m: 0.8 + 0.05 * (geometry / 16) as f64,
            antenna_height_z_m: 1.0,
            antenna_x_m: 0.0,
            margin_x_m: 0.5,
        };
        let spec =
            scenario(format!("sortation belt {geometry}"), rng.next_u64(), layout, deployment);
        let built = build_scenario(&spec).map_err(|e| e.to_string())?;
        let reference = Reference::new(&built.input, &built.truth_x, &built.truth_y, true)?;
        let samples = built.input.observations.iter().map(|o| o.profile.len()).sum();
        Ok(Entry { input: built.input, reference, samples })
    }
}

/// Which batch each request sends: a Zipf-popular geometry, then a
/// uniform batch of it.
struct Popularity {
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
}

impl Popularity {
    fn new(seed: u64) -> Popularity {
        let mut rng = Rng::new(seed, u64::MAX);
        let mut by_rank: Vec<usize> = (0..GEOMETRIES).collect();
        for i in (1..GEOMETRIES).rev() {
            by_rank.swap(i, rng.range(0, i as u64) as usize);
        }
        let weights: Vec<f64> =
            (0..GEOMETRIES).map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Popularity { cdf, by_rank }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(GEOMETRIES - 1);
        self.by_rank[rank] * BATCHES + rng.range(0, BATCHES as u64 - 1) as usize
    }
}

/// What one fixed-rate phase measured.
#[derive(Debug, Default)]
struct Phase {
    rate: u32,
    scheduled: u64,
    sent: u64,
    failed: u64,
    mismatches: u64,
    /// Due time to decoded reply, ms.
    latencies_ms: Vec<f64>,
    /// Due time to send, ms: how late the generator ran.
    late_ms: Vec<f64>,
    /// Lateness over the last tenth of each slice's sends, ms.
    late_end_ms: Vec<f64>,
    /// Each slice's median latency, ms.
    slice_p50_ms: Vec<f64>,
    /// Each slice's tail latency ([`TAIL`]), ms.
    slice_tail_ms: Vec<f64>,
    /// Each slice's goodput: (replies, tags, reads) per second.
    slice_rates: Vec<[f64; 3]>,
    tags: u64,
    samples: u64,
    /// Slice start to the last reply of one generator thread, s.
    elapsed_s: f64,
    records: Vec<Sent>,
    spans: Vec<Span>,
}

impl Phase {
    fn succeeded(&self) -> u64 {
        self.records.len() as u64
    }

    fn passes(&self) -> bool {
        self.sent == self.scheduled
            && self.failed == 0
            && percentile(&self.latencies_ms, TAIL) <= LIMIT_MS
            && median(&self.late_end_ms) <= LIMIT_MS
    }

    fn merge(&mut self, other: Phase) {
        self.scheduled += other.scheduled;
        self.sent += other.sent;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.latencies_ms.extend(other.latencies_ms);
        self.late_ms.extend(other.late_ms);
        self.late_end_ms.extend(other.late_end_ms);
        self.tags += other.tags;
        self.samples += other.samples;
        self.records.extend(other.records);
        self.spans.extend(other.spans);
    }
}

/// One generator thread of a phase: sends request `2j + thread` of the
/// schedule at `start + (2j + thread) / rate`, late or not.
#[allow(clippy::too_many_arguments)]
fn generator(
    client: &mut StppClient,
    pool: &[Entry],
    picks: &[usize],
    thread: usize,
    rate: u32,
    start: Instant,
    hard_stop: Instant,
    log: &mut SpanLog,
    id_base: u64,
) -> Phase {
    let mut phase = Phase { scheduled: picks.len() as u64, ..Phase::default() };
    let tenth = picks.len() - picks.len() / 10;
    for (j, &entry) in picks.iter().enumerate() {
        let i = (THREADS * j + thread) as u64;
        let due = start + Duration::from_secs_f64(i as f64 / rate as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if sent > hard_stop {
            break;
        }
        let request = id_base | i;
        let root = log.open("request", 0, request);
        let reply = log
            .time("client.rtt", root.id(), request, || client.localize(&pool[entry].input, None));
        log.close(root);
        let done = Instant::now();
        phase.sent += 1;
        let late = sent.duration_since(due).as_secs_f64() * 1e3;
        phase.late_ms.push(late);
        if j >= tenth {
            phase.late_end_ms.push(late);
        }
        match reply {
            Ok(LocalizeReply::Localized(response)) => {
                phase.latencies_ms.push(done.duration_since(due).as_secs_f64() * 1e3);
                if result_bits(&response.result) != pool[entry].reference.bits {
                    phase.mismatches += 1;
                    phase.failed += 1;
                } else {
                    phase.tags += response.result.localized_count() as u64;
                    phase.samples += pool[entry].samples as u64;
                    phase.records.push(Sent { request, entry, metrics: response.metrics });
                }
            }
            Ok(LocalizeReply::Busy { .. }) => phase.failed += 1,
            Err(e) => {
                eprintln!("sortation_mixed: request failed: {e}");
                phase.failed += 1;
            }
        }
        phase.elapsed_s = done.duration_since(start).as_secs_f64();
    }
    phase
}

/// Runs every rate of [`RATES`] for `phase_s` seconds each, cut into
/// [`ROUNDS`] slices that take turns, so that a slow spell of the host
/// falls on every rate alike. Each slice's latency and goodput figures
/// are kept apart; the run reports their medians over the slices, which
/// a spell covering fewer than half of them barely moves.
fn sweep(
    server: &Server,
    pool: &[Entry],
    popularity: &Popularity,
    seed: u64,
    phase_s: f64,
    traced: bool,
    pass: u64,
) -> Result<Vec<Phase>, String> {
    let origin = Instant::now();
    let slice_s = phase_s / ROUNDS as f64;
    let mut phases: Vec<Phase> =
        RATES.iter().map(|&rate| Phase { rate, ..Phase::default() }).collect();
    for round in 0..ROUNDS {
        for phase in phases.iter_mut() {
            let rate = phase.rate;
            let id_base = (pass << 56) | (round << 48) | ((rate as u64) << 32);
            let mut rng = Rng::new(seed, id_base);
            let total = (rate as f64 * slice_s) as usize;
            let all: Vec<usize> = (0..total).map(|_| popularity.draw(&mut rng)).collect();
            // Fresh connections for every slice: see [`ROUNDS`].
            let mut clients: Vec<StppClient> =
                (0..THREADS).map(|_| server.connect()).collect::<Result<_, _>>()?;
            let start = Instant::now() + Duration::from_millis(5);
            let hard_stop = start + Duration::from_secs_f64(slice_s * (1.0 + OVERRUN)) + GRACE;
            let parts: Vec<(Phase, Vec<Span>)> = std::thread::scope(|scope| {
                let workers: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(t, client)| {
                        let picks: Vec<usize> =
                            all.iter().skip(t).step_by(THREADS).copied().collect();
                        scope.spawn(move || {
                            let mut log = SpanLog::new(traced, origin, t as u64);
                            let part = generator(
                                client, pool, &picks, t, rate, start, hard_stop, &mut log, id_base,
                            );
                            (part, log.into_spans())
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("generator thread panicked")).collect()
            });
            let elapsed_s = parts.iter().map(|(p, _)| p.elapsed_s).fold(0.0, f64::max);
            let slice: Vec<f64> =
                parts.iter().flat_map(|(p, _)| p.latencies_ms.iter().copied()).collect();
            phase.slice_p50_ms.push(median(&slice));
            phase.slice_tail_ms.push(percentile(&slice, TAIL));
            let count = |f: fn(&Phase) -> u64| parts.iter().map(|(p, _)| f(p)).sum::<u64>() as f64;
            phase.slice_rates.push([
                count(Phase::succeeded) / elapsed_s,
                count(|p| p.tags) / elapsed_s,
                count(|p| p.samples) / elapsed_s,
            ]);
            for (part, spans) in parts {
                phase.merge(part);
                phase.spans.extend(spans);
            }
        }
    }
    for phase in &phases {
        let rate = phase.rate;
        println!("sortation_mixed: {rate:>5} rps: {}", crate::stats::tails(&phase.latencies_ms));
        let slices: Vec<String> = phase.slice_p50_ms.iter().map(|v| format!("{v:.2}")).collect();
        println!("sortation_mixed: {rate:>5} rps: slice p50s {}", slices.join(" "));
        println!(
            "sortation_mixed: {rate:>5} rps: sent {}/{} p{TAIL} {:.3} ms ({} beyond) late p99 \
             {:.3} ms, at slice ends {:.3} ms -> {}",
            phase.sent,
            phase.scheduled,
            percentile(&phase.latencies_ms, TAIL),
            beyond(&phase.latencies_ms, TAIL),
            percentile(&phase.late_ms, 99.0),
            median(&phase.late_end_ms),
            if phase.passes() { "within limit" } else { "over limit" }
        );
    }
    Ok(phases)
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Run, String> {
    let seeded = GEOMETRIES * BATCHES;
    let mut pool = par_map(2 * seeded, |i| match i.checked_sub(seeded) {
        None => Entry::generate(args.seed, i),
        Some(c) => Entry::generate(CALIBRATION_SEED, c),
    })
    .into_iter()
    .collect::<Result<Vec<Entry>, String>>()?;
    let calibration_entries = pool.split_off(seeded);
    let popularity = Popularity::new(args.seed);
    // Set up on a fixed input, so that the set-up work does not hinge on
    // the seed.
    let (server, setup_s) = set_up(&calibration_entries[0].input, SETUPS)?;
    println!(
        "sortation_mixed: server core {:?}, {} batches over {GEOMETRIES} geometries",
        server.core,
        pool.len()
    );
    let mut client = server.connect()?;
    let mut calibration = Calibration::default();
    for entry in &calibration_entries {
        let reply = match client.localize(&entry.input, None) {
            Ok(LocalizeReply::Localized(r)) => Ok(result_bits(&r.result) == entry.reference.bits),
            other => Err(format!("{other:?}")),
        };
        calibration.record(reply, entry.reference.accuracy);
    }
    let mut rng = Rng::new(args.seed, u64::MAX - 1);
    for _ in 0..WARMUP {
        let entry = popularity.draw(&mut rng);
        client.localize(&pool[entry].input, None).map_err(|e| format!("warm-up: {e}"))?;
    }
    drop(client);

    let rates = RATES.len() as f64;
    let mut run = Run::default();
    if !args.trace {
        let rss = RssSampler::start();
        let phases = sweep(&server, &pool, &popularity, args.seed, args.seconds / rates, false, 0)?;
        run.metrics.set("peak_rss_mb", rss.finish());
        // Latency at the highest rate within the limit; throughput at
        // the highest rate, past capacity, where both generators send
        // back to back and the server sets the pace.
        let shown = phases.iter().filter(|p| p.passes()).max_by_key(|p| p.rate);
        let shown = shown.unwrap_or(&phases[0]);
        let overload = phases.last().expect("RATES is not empty");
        let m = &mut run.metrics;
        m.set("setup_s", setup_s);
        let p50 = median(&shown.slice_p50_ms);
        let tail = median(&shown.slice_tail_ms);
        m.set("request_p50_ms", p50);
        m.set("request_tail_ms", tail);
        // A batch reply is both the first and the final ordering.
        m.set("ttfr_p50_ms", p50);
        m.set("final_p50_ms", p50);
        m.set("final_tail_ms", tail);
        let goodput =
            |k: usize| median(&overload.slice_rates.iter().map(|r| r[k]).collect::<Vec<_>>());
        m.set("max_rate_rps", goodput(0));
        m.set("tags_per_s", goodput(1));
        m.set("reports_per_s", goodput(2));
        for phase in &phases {
            run.attempted += phase.sent;
            run.failed += phase.failed;
            run.mismatches += phase.mismatches;
        }
    } else {
        let phase_s = args.seconds / (2.0 * rates);
        let untraced = sweep(&server, &pool, &popularity, args.seed, phase_s, false, 0)?;
        let before = server.counters()?;
        let traced = sweep(&server, &pool, &popularity, args.seed, phase_s, true, 1)?;
        let after = server.counters()?;
        let overhead =
            100.0 * (median(&traced[0].latencies_ms) / median(&untraced[0].latencies_ms) - 1.0);
        let mut trace = Trace::default();
        for phase in traced.iter().chain(&untraced) {
            run.attempted += phase.sent;
            run.failed += phase.failed;
            run.mismatches += phase.mismatches;
        }
        for phase in traced {
            trace.sent.extend(phase.records);
            trace.spans.extend(phase.spans);
        }
        let mut log = SpanLog::new(true, Instant::now(), THREADS as u64);
        let budget = Duration::from_secs_f64(args.seconds * 0.15);
        trace.replay(&mut log, REPLAYS, budget, |k| (&*pool[k].input, &pool[k].reference.result));
        trace.spans.extend(log.into_spans());
        let m = &mut run.metrics;
        trace.layers(&after.since(&before), m);
        loadgen(&untraced, m);
        m.set("server.busy_rejections", after.server.busy_rejections as f64);
        m.set("server.connections", after.server.connections as f64);
        m.set("trace.overhead_pct", overhead);
        crate::trace::write_spans(args, &trace.spans);
    }
    calibration.apply(&mut run, !args.trace);
    server.stop()?;
    Ok(run)
}

/// The load generator's own figures, per rate and over the sweep.
fn loadgen(phases: &[Phase], m: &mut Metrics) {
    let mut late = Vec::new();
    let (mut sent, mut ok, mut failed) = (0, 0, 0);
    for p in phases {
        let r = p.rate;
        m.set(format!("loadgen.r{r}.request_p50_ms"), median(&p.latencies_ms));
        m.set(format!("loadgen.r{r}.request_tail_ms"), percentile(&p.latencies_ms, TAIL));
        m.set(format!("loadgen.r{r}.late_p99_ms"), percentile(&p.late_ms, 99.0));
        m.set(format!("loadgen.r{r}.late_max_ms"), percentile(&p.late_ms, 100.0));
        m.set(format!("loadgen.r{r}.sent"), p.sent as f64);
        m.set(format!("loadgen.r{r}.succeeded"), p.succeeded() as f64);
        m.set(format!("loadgen.r{r}.failed"), p.failed as f64);
        late.extend_from_slice(&p.late_ms);
        sent += p.sent;
        ok += p.succeeded();
        failed += p.failed;
    }
    m.set("loadgen.late_p99_ms", percentile(&late, 99.0));
    m.set("loadgen.late_max_ms", percentile(&late, 100.0));
    m.set("loadgen.sent", sent as f64);
    m.set("loadgen.succeeded", ok as f64);
    m.set("loadgen.failed", failed as f64);
}
