//! `features`: point and batch feature reads over a two-shard cluster
//! with no index, tier, WAL or replication — the read hot path (wire,
//! server, router hop and scatter, online store) does all the work.

use crate::cluster::{plain_shard, Cluster, Settings, NOW};
use crate::data::{key_index, scatter_rank, unit};
use crate::load::{Job, Op, Workload};
use fstore_common::{EntityKey, Result, Rng, Value, Xoshiro256, Zipf};
use fstore_serve::{Request, Response, WireVector};
use fstore_shard::ShardId;
use std::time::Instant;

pub const ENTITIES: usize = 50_000;
pub const FEATURES: usize = 8;
pub const BATCH: usize = 32;
pub const MGET_SHARE: f64 = 0.10;
pub const ZIPF: f64 = 0.99;
pub const RATE: f64 = 600.0;
const GROUP: &str = "user";

pub fn entity(i: usize) -> String {
    format!("u{i:05}")
}

pub fn feature_names(n: usize) -> Vec<String> {
    (0..n).map(|j| format!("f{j}")).collect()
}

fn value(seed: u64, e: usize, j: usize) -> Value {
    Value::Float(unit(seed, e as u64, j as u64))
}

/// Start the shards and load every entity's row into its owner.
pub fn setup(
    settings: &Settings,
    seed: u64,
    phases: &mut Vec<(&'static str, f64)>,
) -> Result<Cluster> {
    let t = Instant::now();
    let shards = (0..settings.shards)
        .map(|i| plain_shard(ShardId(i as u32), settings))
        .collect::<Result<Vec<_>>>()?;
    let cluster = Cluster::new(shards, settings);
    phases.push(("start", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let names = feature_names(FEATURES);
    for e in 0..ENTITIES {
        let key = entity(e);
        let row: Vec<(&str, Value)> = names
            .iter()
            .enumerate()
            .map(|(j, f)| (f.as_str(), value(seed, e, j)))
            .collect();
        cluster
            .owner(&key)
            .parts
            .online
            .put_row(GROUP, &EntityKey::new(key), &row, NOW);
    }
    phases.push(("seed", t.elapsed().as_secs_f64()));
    Ok(cluster)
}

/// 90% `GetFeatures`, 10% `GetFeaturesBatch` of 32, Zipf keys.
pub struct Mix {
    seed: u64,
    rng: Xoshiro256,
    zipf: Zipf,
    features: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            seed,
            rng: Xoshiro256::seeded(seed ^ 0xFEA7),
            zipf: Zipf::new(ENTITIES, ZIPF),
            features: feature_names(FEATURES),
        }
    }

    fn draw(&mut self) -> usize {
        scatter_rank(self.zipf.sample(&mut self.rng), ENTITIES, self.seed)
    }

    fn check_vector(&self, v: &WireVector, expected: &str) -> std::result::Result<(), String> {
        if v.entity != expected {
            return Err(format!("asked {expected}, got {}", v.entity));
        }
        let e = key_index(expected).expect("generated key");
        if v.values.len() != FEATURES {
            return Err(format!("{expected}: {} values", v.values.len()));
        }
        for (j, got) in v.values.iter().enumerate() {
            if *got != value(self.seed, e, j) {
                return Err(format!("{expected}.f{j} = {got:?}"));
            }
        }
        Ok(())
    }
}

impl Workload for Mix {
    fn next_job(&mut self) -> Job {
        if self.rng.chance(MGET_SHARE) {
            let entities = (0..BATCH).map(|_| entity(self.draw())).collect();
            Job {
                op: Op::MGet,
                request: Request::GetFeaturesBatch {
                    group: GROUP.to_string(),
                    entities,
                    features: self.features.clone(),
                },
                tag: 0,
            }
        } else {
            let e = self.draw();
            Job {
                op: Op::Get,
                request: Request::GetFeatures {
                    group: GROUP.to_string(),
                    entity: entity(e),
                    features: self.features.clone(),
                },
                tag: e as u64,
            }
        }
    }

    fn check(
        &mut self,
        jobs: &[Job],
        responses: &[Response],
        _: Instant,
    ) -> Vec<std::result::Result<(), String>> {
        jobs.iter()
            .zip(responses)
            .map(|(job, response)| match (&job.request, response) {
                (_, Response::Error { .. }) => Ok(()),
                (Request::GetFeatures { entity, .. }, Response::Features(v)) => {
                    self.check_vector(v, entity)
                }
                (Request::GetFeaturesBatch { entities, .. }, Response::FeaturesBatch(vs)) => {
                    if vs.len() != entities.len() {
                        return Err(format!("{} of {} vectors", vs.len(), entities.len()));
                    }
                    entities
                        .iter()
                        .zip(vs)
                        .try_for_each(|(e, v)| self.check_vector(v, e))
                }
                (_, other) => Err(format!("unexpected response {other:?}")),
            })
            .collect()
    }
}
