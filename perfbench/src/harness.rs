//! Plumbing every workload shares: the server under test, its counters,
//! seeded randomness, scenario and reference generation, the closed
//! client loop, parallel input generation and the output check.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stpp_core::{ordering_accuracy, BatchLocalizer, StppConfig, StppInput, StppResult};
use stpp_scenario::spec::{
    DeploymentSpec, LayoutSpec, PopulationSpec, ScheduleSpec, ServerSpec, TagPosition,
};
use stpp_scenario::ScenarioSpec;
use stpp_serve::{
    proto, LocalizationService, LocalizeReply, ServerConfig, ServerCore, ServerHandle, ServerStats,
    ServiceConfig, ServiceStats, StppClient, StppServer,
};

use crate::trace::{Span, SpanLog};

/// Generator threads and client connections: the core count of the
/// 2-CPU machine the workloads were sized on.
pub const THREADS: usize = 2;

/// Seed of every workload's calibration inputs: fixed, so the
/// ground-truth accuracy scored on them moves only when the code's
/// answers move.
pub const CALIBRATION_SEED: u64 = 0x5717_ca1b;

/// The per-layer metrics every workload exercises: the service stages,
/// the registry and admission counters, the round trip and the load
/// generator.
pub const LAYERS: &[&str] = &[
    "service.total_ms",
    "service.prepare_ms",
    "vzone.detect_ms",
    "ordering.order_ms",
    "reference.bank_builds_per_request",
    "service.warm_ms",
    "service.geometry_hit_share",
    "service.registry_evictions",
    "client.rtt_ms",
    "server.residual_ms",
    "server.busy_rejections",
    "server.connections",
    "loadgen.late_p99_ms",
    "loadgen.late_max_ms",
    "loadgen.sent",
    "loadgen.succeeded",
    "loadgen.failed",
    "trace.request_ms",
    "trace.overhead_pct",
];

/// Depth step between the tags of a calibration input, metres.
pub const DEPTH_STEP_M: f64 = 0.01;

/// Most tags in one calibration input: 12 depths 1 cm apart span 0.11 m,
/// inside the ~0.14 m of depth a V-zone bottom phase covers before it
/// wraps at the default standoffs.
pub const CALIBRATION_TAGS: u64 = 12;

/// A calibration layout: `count` tags `spacing_m` apart along X from
/// `start_x_m`, each at a depth of its own. The depths are a seeded
/// permutation of `count` steps of [`DEPTH_STEP_M`], so both
/// ground-truth orders are strict and independent of each other.
pub fn depth_layout(rng: &mut Rng, count: u64, start_x_m: f64, spacing_m: f64) -> LayoutSpec {
    let mut depth: Vec<u64> = (0..count).collect();
    for i in (1..depth.len()).rev() {
        depth.swap(i, rng.range(0, i as u64) as usize);
    }
    LayoutSpec::Explicit(
        depth
            .iter()
            .enumerate()
            .map(|(i, &d)| TagPosition {
                x_m: start_x_m + i as f64 * spacing_m,
                y_m: d as f64 * DEPTH_STEP_M,
            })
            .collect(),
    )
}

/// A scenario of `layout` under `deployment`, everything else default.
pub fn scenario(
    name: String,
    seed: u64,
    layout: LayoutSpec,
    deployment: DeploymentSpec,
) -> ScenarioSpec {
    ScenarioSpec {
        name,
        seed,
        population: PopulationSpec { layout, phase_offset_jitter_rad: 0.0 },
        deployment,
        channel: None,
        schedule: ScheduleSpec::default(),
        server: ServerSpec::default(),
        fleet: None,
        storm: None,
        streaming: None,
        client: None,
        impairments: None,
        expectations: Default::default(),
    }
}

/// The in-process reference answer to one input.
pub struct Reference {
    /// The `BatchLocalizer` result.
    pub result: StppResult,
    /// Its wire encoding, which every served reply must equal.
    pub bits: Vec<u8>,
    /// Its (X, Y) `ordering_accuracy` against the ground truth.
    pub accuracy: (f64, f64),
}

impl Reference {
    /// Localizes `input` in process and scores the result against the
    /// ascending-X and ascending-Y ground truths. On a conveyor the tags
    /// pass the antenna in descending X, so the detected X order is
    /// reversed before it is scored, as the repository's scenario runner
    /// and experiments do.
    pub fn new(
        input: &StppInput,
        truth_x: &[u64],
        truth_y: &[u64],
        conveyor: bool,
    ) -> Result<Reference, String> {
        let result = BatchLocalizer::new(StppConfig::default(), 1)
            .localize(input)
            .map_err(|e| format!("reference localization: {e}"))?;
        let mut detected_x = result.order_x.clone();
        if conveyor {
            detected_x.reverse();
        }
        let accuracy =
            (ordering_accuracy(&detected_x, truth_x), ordering_accuracy(&result.order_y, truth_y));
        Ok(Reference { bits: result_bits(&result), result, accuracy })
    }
}

/// Ground-truth scores of a workload's calibration inputs, served over
/// the wire before timing starts and checked like every other reply.
#[derive(Debug, Default)]
pub struct Calibration {
    scores: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
}

impl Calibration {
    /// Records one served calibration input: `reply` is whether its
    /// result matched the reference bit for bit, or the error;
    /// `accuracy` is the reference's (X, Y) ordering accuracy.
    pub fn record(&mut self, reply: Result<bool, String>, accuracy: (f64, f64)) {
        self.attempted += 1;
        match reply {
            Ok(true) => self.scores.push(accuracy),
            Ok(false) => {
                self.mismatches += 1;
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("calibration request failed: {e}");
                self.failed += 1;
            }
        }
    }

    /// Adds the calibration requests to `run`'s counts and, for an
    /// end-to-end run, sets `accuracy_x` / `accuracy_y`.
    pub fn apply(&self, run: &mut crate::Run, end_to_end: bool) {
        run.attempted += self.attempted;
        run.failed += self.failed;
        run.mismatches += self.mismatches;
        if end_to_end {
            let n = self.scores.len().max(1) as f64;
            run.metrics.set("accuracy_x", self.scores.iter().map(|s| s.0).sum::<f64>() / n);
            run.metrics.set("accuracy_y", self.scores.iter().map(|s| s.1).sum::<f64>() / n);
        }
    }
}

/// A running server with default service and server configuration.
pub struct Server {
    handle: ServerHandle,
    /// The server's address.
    pub addr: SocketAddr,
    /// Which core ran (from the environment; never set here).
    pub core: ServerCore,
}

impl Server {
    /// Binds and spawns a server, then sends it `first` and waits for
    /// the reply. Returns the server and the seconds from bind to that
    /// reply, which include the cold reference-bank build.
    fn start(first: &StppInput) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let service = LocalizationService::new(ServiceConfig::default());
        let server = StppServer::bind("127.0.0.1:0", service, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let core = server.core();
        let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
        let addr = handle.addr();
        let mut client = StppClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        match client.localize(first, None) {
            Ok(LocalizeReply::Localized(_)) => {}
            other => return Err(format!("first request failed: {other:?}")),
        }
        let seconds = started.elapsed().as_secs_f64();
        Ok((Server { handle, addr, core }, seconds))
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<StppClient, String> {
        StppClient::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Snapshots the service and server counters over a fresh
    /// connection (an idle one would hit the server's I/O timeout).
    pub fn counters(&self) -> Result<Counters, String> {
        let (service, server) = self.connect()?.stats().map_err(|e| format!("stats: {e}"))?;
        Ok(Counters { service, server })
    }

    /// Shuts the server down and waits for its serve loop to end.
    pub fn stop(self) -> Result<(), String> {
        self.connect()?.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join().map_err(|e| format!("join: {e}"))
    }
}

/// Starts the server `runs` times, each time up to its first reply to
/// `first`, and keeps the last one running. Returns it with the
/// median set-up time, seconds.
pub fn set_up(first: &StppInput, runs: usize) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(runs);
    loop {
        let (server, seconds) = Server::start(first)?;
        times.push(seconds);
        if times.len() == runs {
            return Ok((server, crate::stats::median(&times)));
        }
        server.stop()?;
    }
}

/// A closed-loop client's own tallies, merged across clients.
pub trait Tally: Default + Send {
    /// Adds `other`'s tallies to `self`.
    fn merge(&mut self, other: Self);

    /// The end-to-end figures of one round, from its tallies and its
    /// length in seconds. Each figure a workload reports is the median
    /// of its per-round values (see [`closed_loop`]).
    fn figures(&self, seconds: f64) -> Vec<(&'static str, f64)>;
}

/// What a closed-loop pass measured.
#[derive(Debug, Default)]
pub struct Pass<T> {
    /// The workload's own tallies, over all rounds.
    pub tally: T,
    /// Units of work started.
    pub attempted: u64,
    /// Units that ended in an error (the client then reconnected).
    pub errors: u64,
    /// Each round's [`Tally::figures`].
    pub rounds: Vec<Vec<(&'static str, f64)>>,
    /// The spans of a traced pass.
    pub spans: Vec<Span>,
}

impl<T> Pass<T> {
    /// The median over the rounds of the figure `name`. A round without
    /// a finite value (no samples) is left out.
    pub fn round_median(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|round| round.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v))
            .filter(|v| v.is_finite())
            .collect();
        crate::stats::median(&values)
    }
}

/// Runs [`THREADS`] closed-loop clients for `seconds`. Client `c` calls
/// `step(connection, log, c, n, tally)` for its `n`-th unit of work
/// until time is up. An error is reported and counted, and the client
/// reconnects.
///
/// The time is cut into equal rounds of about `round_s` seconds, and
/// every round runs on fresh client threads over fresh connections.
/// Which CPUs the scheduler gives a client thread and its server
/// connection thread sets how fast a loopback round trip is, and that
/// placement sticks to the threads; many rounds make a run average over
/// placements rather than report whichever one it drew. Each round's
/// figures are kept apart, so that a workload can report their median
/// over the rounds: a slow spell of the host that covers fewer than
/// half the rounds then barely moves it.
pub fn closed_loop<T: Tally>(
    server: &Server,
    seconds: f64,
    round_s: f64,
    traced: bool,
    step: impl Fn(&mut StppClient, &mut SpanLog, usize, u64, &mut T) -> Result<(), String> + Sync,
) -> Result<Pass<T>, String> {
    let origin = Instant::now();
    let step = &step;
    let rounds = (seconds / round_s).round().max(1.0);
    let round = Duration::from_secs_f64(seconds / rounds);
    // Per client: its span log and the next unit's index, both kept
    // across rounds.
    let mut clients: Vec<(SpanLog, u64)> =
        (0..THREADS).map(|c| (SpanLog::new(traced, origin, c as u64), 0)).collect();
    let mut total = Pass::<T>::default();
    for _ in 0..rounds as usize {
        let round_start = Instant::now();
        let round_end = round_start + round;
        let parts: Vec<Result<(T, u64, u64), String>> = std::thread::scope(|scope| {
            let threads: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, (log, n))| {
                    scope.spawn(move || -> Result<(T, u64, u64), String> {
                        let (mut tally, mut attempted, mut errors) = (T::default(), 0, 0);
                        let mut connection = server.connect()?;
                        while Instant::now() < round_end {
                            attempted += 1;
                            if let Err(e) = step(&mut connection, log, c, *n, &mut tally) {
                                eprintln!("perfbench: request failed: {e}");
                                errors += 1;
                                connection = server.connect()?;
                            }
                            *n += 1;
                        }
                        Ok((tally, attempted, errors))
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
        });
        let mut tally = T::default();
        for part in parts {
            let (part, attempted, errors) = part?;
            tally.merge(part);
            total.attempted += attempted;
            total.errors += errors;
        }
        total.rounds.push(tally.figures(round_start.elapsed().as_secs_f64()));
        total.tally.merge(tally);
    }
    for (log, _) in clients {
        total.spans.extend(log.into_spans());
    }
    Ok(total)
}

/// One snapshot of the counters a client can read over the wire.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Service-level counters (registry, sessions).
    pub service: ServiceStats,
    /// Server-level counters (admission, connections).
    pub server: ServerStats,
}

impl Counters {
    /// The counter increase from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (s, e) = (&self.service, &earlier.service);
        let (v, w) = (&self.server, &earlier.server);
        Counters {
            service: ServiceStats {
                requests: s.requests - e.requests,
                geometry_hits: s.geometry_hits - e.geometry_hits,
                geometry_misses: s.geometry_misses - e.geometry_misses,
                registry_flushes: s.registry_flushes - e.registry_flushes,
                registry_evictions: s.registry_evictions - e.registry_evictions,
                sessions_opened: s.sessions_opened - e.sessions_opened,
                session_batches: s.session_batches - e.session_batches,
            },
            server: ServerStats {
                busy_rejections: v.busy_rejections - w.busy_rejections,
                connections: v.connections - w.connections,
                requests: v.requests - w.requests,
                ..*v
            },
        }
    }

    /// Share of service requests whose geometry was already registered.
    pub fn geometry_hit_share(&self) -> f64 {
        let s = &self.service;
        let total = s.geometry_hits + s.geometry_misses;
        if total == 0 {
            0.0
        } else {
            s.geometry_hits as f64 / total as f64
        }
    }
}

/// The load-generator and server figures of a closed-loop workload:
/// `attempted` and `failed` count the untraced pass, `after` is the
/// server's lifetime counters.
pub fn closed_loop_layers(m: &mut crate::Metrics, after: &Counters, attempted: u64, failed: u64) {
    // Closed-loop clients send when the previous reply arrives: they
    // are never late.
    m.set("loadgen.late_p99_ms", 0.0);
    m.set("loadgen.late_max_ms", 0.0);
    m.set("loadgen.sent", attempted as f64);
    m.set("loadgen.succeeded", (attempted - failed) as f64);
    m.set("loadgen.failed", failed as f64);
    m.set("server.busy_rejections", after.server.busy_rejections as f64);
    m.set("server.connections", after.server.connections as f64);
}

/// The process's resident set now, MB (`VmRSS`).
fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Samples the resident set every 50 ms while a measured pass runs and
/// keeps the largest value of each one-second window.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    /// Starts sampling on a thread of its own.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peaks = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let window = Instant::now();
                let mut peak = rss_mb();
                while window.elapsed() < Duration::from_secs(1) && !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(50));
                    peak = peak.max(rss_mb());
                }
                peaks.push(peak);
            }
            peaks
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling. Returns the median of the per-window peaks, MB:
    /// the resident set the pass held at its busiest moments, without
    /// hinging on the single worst overlap of transient buffers the way
    /// the all-time high-water mark does.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peaks = self.thread.join().expect("RSS sampler panicked");
        crate::stats::median(&peaks)
    }
}

/// A result's wire encoding. f64s travel as raw bit patterns, so equal
/// encodings mean bit-identical results.
pub fn result_bits(result: &StppResult) -> Vec<u8> {
    proto::encode_frame(result).expect("a localization result always encodes")
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed
/// alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd605_bbb5_8c8a_bbb5));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// `f(0..n)` computed on [`THREADS`] threads, in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    let mut parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || (t..n).step_by(THREADS).map(|i| (i, f(i))).collect()))
            .collect();
        workers.into_iter().map(|w| w.join().expect("generator thread panicked")).collect()
    });
    let mut out: Vec<(usize, T)> = parts.iter_mut().flat_map(std::mem::take).collect();
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_depends_on_seed_and_stream_only() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut again = Rng::new(5, 1);
        assert!(a.iter().all(|&x| x == again.next_u64()));
        assert_ne!(Rng::new(5, 2).next_u64(), Rng::new(5, 1).next_u64());
        let mut r = Rng::new(9, 0);
        assert!((0..1000).map(|_| r.range(4, 15)).all(|x| (4..=15).contains(&x)));
    }

    #[test]
    fn par_map_keeps_index_order() {
        assert_eq!(par_map(7, |i| i * 10), vec![0, 10, 20, 30, 40, 50, 60]);
    }
}
