//! What the two `Localize` workloads share: the per-request record, the
//! in-process replay of a request's wire stages, and the per-layer
//! figures assembled from spans, replies and counters.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use stpp_core::{StppInput, StppResult};
use stpp_serve::{proto, LocalizationResponse, Request, RequestMetrics, Response};

use crate::harness::Counters;
use crate::stats::mean;
use crate::trace::{mean_self_ms, self_times, Span, SpanLog};
use crate::Metrics;

/// The per-layer metrics both `Localize` workloads exercise.
pub const LAYERS: &[&str] = &[
    "proto.request_bytes",
    "proto.request_encode_ms",
    "proto.request_decode_ms",
    "proto.response_bytes",
    "proto.response_encode_ms",
    "proto.response_decode_ms",
];

/// One answered `Localize` request of a traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// The request id its spans carry.
    pub request: u64,
    /// Which pool input it sent.
    pub entry: usize,
    /// The server's own per-request metrics from the reply.
    pub metrics: RequestMetrics,
}

/// Everything a traced pass and its replay leave behind.
#[derive(Debug, Default)]
pub struct Trace {
    /// Client-side spans of the pass plus the replay spans.
    pub spans: Vec<Span>,
    /// Every answered request of the pass.
    pub sent: Vec<Sent>,
    /// Encoded request and response frame sizes of the replayed
    /// requests, bytes.
    pub request_bytes: Vec<f64>,
    /// See `request_bytes`.
    pub response_bytes: Vec<f64>,
    /// Ids of the replayed requests.
    pub replayed: HashSet<u64>,
}

impl Trace {
    /// Replays the wire stages of an evenly spread subset of `sent`
    /// (at most `limit` requests, stopping once `budget` is spent):
    /// the client's request encode, the server's request decode, the
    /// server's response encode and the client's response decode, each
    /// in its own span under a `replay` root carrying the request's id.
    /// `pool(entry)` gives the input a request sent and its result.
    pub fn replay<'a>(
        &mut self,
        log: &mut SpanLog,
        limit: usize,
        budget: Duration,
        pool: impl Fn(usize) -> (&'a StppInput, &'a StppResult),
    ) {
        let stride = self.sent.len().div_ceil(limit.max(1)).max(1);
        let started = Instant::now();
        let mut buf = Vec::new();
        for sent in self.sent.iter().step_by(stride) {
            if started.elapsed() > budget {
                break;
            }
            let (input, result) = pool(sent.entry);
            let response = Response::Localized {
                response: LocalizationResponse { result: result.clone(), metrics: sent.metrics },
            };
            let request = sent.request;
            let root = log.open("replay", 0, request);
            let id = root.id();
            log.time("proto.request_encode", id, request, || {
                proto::encode_localize_request_into(input, None, &mut buf)
                    .expect("a valid input encodes")
            });
            let decoded = log.time("proto.request_decode", id, request, || {
                proto::decode_frame::<Request>(&buf).expect("the frame just encoded decodes")
            });
            let frame = log.time("proto.response_encode", id, request, || {
                proto::encode_frame(&response).expect("a response encodes")
            });
            let back = log.time("proto.response_decode", id, request, || {
                proto::decode_frame::<Response>(&frame).expect("the frame just encoded decodes")
            });
            log.close(root);
            std::hint::black_box((decoded, back));
            self.request_bytes.push(buf.len() as f64);
            self.response_bytes.push(frame.len() as f64);
            self.replayed.insert(request);
        }
    }

    /// Fills the per-layer figures for a `Localize` workload. `delta` is
    /// the counter increase over the traced pass. A figure with no
    /// samples is left unset.
    pub fn layers(&self, delta: &Counters, m: &mut Metrics) {
        let own = self_times(&self.spans);
        let all = |_: u64| true;
        let replayed = |r: u64| self.replayed.contains(&r);
        let span_ms =
            |name, keep: &dyn Fn(u64) -> bool| mean_self_ms(&self.spans, &own, name, keep);
        let mut set = |metric: &str, value: Option<f64>| {
            if let Some(v) = value {
                m.set(metric, v);
            }
        };
        set("pipeline.input_build_ms", span_ms("pipeline.input_build", &all));
        set("client.rtt_ms", span_ms("client.rtt", &all));
        for (metric, span) in [
            ("proto.request_encode_ms", "proto.request_encode"),
            ("proto.request_decode_ms", "proto.request_decode"),
            ("proto.response_encode_ms", "proto.response_encode"),
            ("proto.response_decode_ms", "proto.response_decode"),
        ] {
            set(metric, span_ms(span, &replayed));
        }
        set("proto.request_bytes", mean_of(&self.request_bytes));
        set("proto.response_bytes", mean_of(&self.response_bytes));

        // The request path of a replayed request: RTT = request encode +
        // request decode + service + response encode + response decode +
        // residual (loopback, queue wait, scheduling).
        let service_ms: Vec<f64> = self
            .sent
            .iter()
            .filter(|s| replayed(s.request))
            .map(|s| s.metrics.total_seconds * 1e3)
            .collect();
        let stages: Option<f64> = ["proto.request_encode", "proto.request_decode"]
            .iter()
            .chain(&["proto.response_encode", "proto.response_decode"])
            .map(|s| span_ms(s, &replayed))
            .chain([mean_of(&service_ms)])
            .sum();
        let residual = span_ms("client.rtt", &replayed).zip(stages).map(|(rtt, s)| rtt - s);
        set("server.residual_ms", residual);
        let request = mean_of(
            &self
                .spans
                .iter()
                .filter(|s| s.name == "request" && replayed(s.request))
                .map(Span::ms)
                .collect::<Vec<_>>(),
        );
        set("trace.request_ms", request);
        let parts = span_ms("pipeline.input_build", &replayed).unwrap_or(0.0)
            + stages.unwrap_or(f64::NAN)
            + residual.unwrap_or(f64::NAN);
        println!(
            "trace: request {:.3} ms = input build + wire stages + service + residual \
             {parts:.3} ms over {} replayed requests",
            request.unwrap_or(f64::NAN),
            self.replayed.len()
        );
        let replies: Vec<RequestMetrics> = self.sent.iter().map(|s| s.metrics).collect();
        service_layers(&replies, delta, m);
    }
}

/// The service-layer figures from the server's own per-request metrics
/// (`replies`) and the counter increase over the traced pass (`delta`).
/// A timing with no samples is left unset.
pub fn service_layers(replies: &[RequestMetrics], delta: &Counters, m: &mut Metrics) {
    let mut set_ms = |metric: &str,
                      f: fn(&RequestMetrics) -> f64,
                      keep: fn(&RequestMetrics) -> bool| {
        let samples: Vec<f64> = replies.iter().filter(|r| keep(r)).map(|r| f(r) * 1e3).collect();
        if let Some(v) = mean_of(&samples) {
            m.set(metric, v);
        }
    };
    let every = |_: &RequestMetrics| true;
    set_ms("service.total_ms", |r| r.total_seconds, every);
    set_ms("service.prepare_ms", |r| r.prepare_seconds, every);
    set_ms("vzone.detect_ms", |r| r.detect_seconds, every);
    set_ms("ordering.order_ms", |r| r.order_seconds, every);
    set_ms("service.cold_ms", |r| r.total_seconds, |r| r.bank_cache.builds > 0);
    set_ms("service.warm_ms", |r| r.total_seconds, |r| r.bank_cache.builds == 0);
    if !replies.is_empty() {
        let builds: u64 = replies.iter().map(|r| r.bank_cache.builds).sum();
        m.set("reference.bank_builds_per_request", builds as f64 / replies.len() as f64);
    }
    m.set("service.geometry_hit_share", delta.geometry_hit_share());
    m.set("service.registry_evictions", delta.service.registry_evictions as f64);
}

/// The mean, or `None` when a layer saw no work.
pub fn mean_of(samples: &[f64]) -> Option<f64> {
    Some(mean(samples)).filter(|m| m.is_finite())
}
