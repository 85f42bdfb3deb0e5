//! Outside-in layer timing: the same request sent through three
//! consecutive public entry points — `ServeEngine::handle` in process,
//! `FeatureClient::call` straight to the owning shard server, and
//! `RouterClient::call` — so each layer's cost is the paired difference
//! between two of them.
//!
//! * engine = `handle` (core::serving + storage / index / tier / WAL);
//! * wire   = direct − engine (serve::client, codec, server queue);
//! * router = routed − direct (shard::router hop, or its scatter and
//!   merge for requests that fan out; the direct figure of a fan-out
//!   request is its slowest shard's).

use crate::cluster::Cluster;
use crate::load::{settle, Job, Ledger, Op, Workload};
use crate::trace::Tracer;
use fstore_common::stats::exact_quantile;
use fstore_serve::{ClientConfig, ClientError, FeatureClient, Request, Response, Transport};
use fstore_shard::RouterClient;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The per-shard requests the router turns `request` into.
pub fn pieces(cluster: &Cluster, request: &Request) -> Vec<(usize, Request)> {
    let index = |key: &str| {
        let id = cluster.map().shard_for(key);
        cluster
            .shards
            .iter()
            .position(|s| s.id == id)
            .expect("mapped shard")
    };
    match request {
        Request::GetFeatures { entity: key, .. }
        | Request::GetEmbedding { key, .. }
        | Request::PutOnline { entity: key, .. } => vec![(index(key), request.clone())],
        Request::GetFeaturesBatch {
            group,
            entities,
            features,
        } => {
            let mut by_shard: BTreeMap<usize, Vec<String>> = BTreeMap::new();
            for e in entities {
                by_shard.entry(index(e)).or_default().push(e.clone());
            }
            by_shard
                .into_iter()
                .map(|(s, entities)| {
                    let piece = Request::GetFeaturesBatch {
                        group: group.clone(),
                        entities,
                        features: features.clone(),
                    };
                    (s, piece)
                })
                .collect()
        }
        other => (0..cluster.shards.len())
            .map(|s| (s, other.clone()))
            .collect(),
    }
}

/// Engine, direct and routed times of one request (µs).
pub struct Sample {
    pub job: Job,
    pub engine_us: f64,
    pub direct_us: f64,
    pub routed_us: f64,
}

/// One connection per shard leader, for the direct leg.
pub fn direct_clients(
    cluster: &Cluster,
    config: &ClientConfig,
) -> std::io::Result<Vec<FeatureClient>> {
    cluster
        .shards
        .iter()
        .map(|s| FeatureClient::connect_with(s.server.addr(), config))
        .collect()
}

fn refused(response: &Result<Response, ClientError>) -> Option<String> {
    match response {
        Ok(Response::Error { code, message }) => Some(format!("{code:?}: {message}")),
        Ok(_) => None,
        Err(e) => Some(e.to_string()),
    }
}

/// Draw jobs from `workload` for `span` and time each through all three
/// entry points. The routed answer is checked like any other, unless the
/// engine or direct leg refused, which records the job as failed instead.
pub fn sample(
    cluster: &Cluster,
    router: &mut RouterClient,
    directs: &mut [FeatureClient],
    workload: &mut dyn Workload,
    span: Duration,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> Vec<Sample> {
    let begin = Instant::now();
    let mut samples = Vec::new();
    let mut request_id = 1u64 << 32;
    while begin.elapsed() < span {
        let job = workload.next_job();
        request_id += 1;
        let parts = pieces(cluster, &job.request);
        let parent = tracer.open("sample", 0, request_id);
        let mut engine_us = 0f64;
        let mut failure = None;
        for (s, piece) in &parts {
            let engine = &cluster.shards[*s].engine;
            let (response, us) = tracer.time("engine", parent, request_id, || {
                engine.handle(piece, 0, false)
            });
            if let Response::Error { code, message } = response {
                failure = Some(format!("engine {code:?}: {message}"));
            }
            engine_us = engine_us.max(us);
        }
        // Direct and routed legs alternate which goes first, so neither
        // always pays for waking the server after the in-process leg.
        let mut direct_us = 0f64;
        let mut direct = |tracer: &mut Tracer, failure: &mut Option<String>| {
            for (s, piece) in &parts {
                let client = &mut directs[*s];
                let (response, us) =
                    tracer.time("direct", parent, request_id, || client.call(piece));
                if let Some(why) = refused(&response) {
                    *failure = Some(format!("direct {why}"));
                }
                direct_us = direct_us.max(us);
            }
        };
        let mut routed = |tracer: &mut Tracer| {
            tracer.time("routed", parent, request_id, || router.call(&job.request))
        };
        let (response, routed_us) = if request_id.is_multiple_of(2) {
            direct(tracer, &mut failure);
            routed(tracer)
        } else {
            let out = routed(tracer);
            direct(tracer, &mut failure);
            out
        };
        tracer.close(parent);
        // Each job is recorded once: a refusal on the engine or direct leg
        // fails it, otherwise the routed answer decides.
        if let Some(why) = failure {
            ledger.record_failed(std::slice::from_ref(&job), &why);
        } else if settle(workload, &job, response, Instant::now(), ledger) {
            samples.push(Sample {
                job,
                engine_us,
                direct_us,
                routed_us,
            });
        }
    }
    samples
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    exact_quantile(&v, 0.5).unwrap_or(f64::NAN)
}

/// `(engine, wire, router)` medians of one op type's samples (µs); the
/// differences are paired per request before taking the median.
pub fn split(samples: &[Sample], op: Op) -> (f64, f64, f64, usize) {
    let of_op: Vec<&Sample> = samples.iter().filter(|s| s.job.op == op).collect();
    (
        median(of_op.iter().map(|s| s.engine_us)),
        median(of_op.iter().map(|s| s.direct_us - s.engine_us)),
        median(of_op.iter().map(|s| s.routed_us - s.direct_us)),
        of_op.len(),
    )
}
