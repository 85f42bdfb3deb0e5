//! `ingest`: routed, WAL-durable writes beside reads of the same keys,
//! with one follower per shard replicating every write. A read-side gain
//! that costs writes, replication or recovery shows here.
//!
//! Feature `j` of entity `e` written at sequence `s` holds
//! `16·s + j + frac(e)`, so any read names the write it came from.

use crate::cluster::{durable_shard, Cluster, Settings, NOW};
use crate::data::{mix, scatter_rank};
use crate::features::feature_names;
use crate::host;
use crate::load::{Job, Op, Workload};
use fstore_common::{EntityKey, FsError, Result, Rng, Value, Xoshiro256, Zipf};
use fstore_serve::{Request, Response};
use fstore_shard::ShardId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

pub const ENTITIES: usize = 2_000;
pub const FEATURES: usize = 4;
pub const PUT_SHARE: f64 = 0.30;
pub const ZIPF: f64 = 0.99;
pub const RATE: f64 = 600.0;
pub const GROUP: &str = "user";

pub fn entity(i: usize) -> String {
    format!("w{i:05}")
}

pub fn value(seed: u64, e: usize, seq: u64, j: usize) -> Value {
    let frac = (mix(seed ^ e as u64) % 1024) as f64 / 1024.0;
    Value::Float((seq * 16 + j as u64) as f64 + frac)
}

/// The write sequence a stored value came from.
pub fn seq_of(value: &Value) -> Option<u64> {
    match value {
        Value::Float(x) if *x >= 0.0 => Some((*x / 16.0).floor() as u64),
        _ => None,
    }
}

fn row(seed: u64, e: usize, seq: u64, names: &[String]) -> Vec<(String, Value)> {
    names
        .iter()
        .enumerate()
        .map(|(j, f)| (f.clone(), value(seed, e, seq, j)))
        .collect()
}

/// Start the durable leaders and their followers, write every entity's
/// first row through the replication leaders, and wait until both
/// followers have applied it.
pub fn setup(
    settings: &Settings,
    seed: u64,
    phases: &mut Vec<(&'static str, f64)>,
) -> Result<Cluster> {
    let t = Instant::now();
    let shards = (0..settings.shards)
        .map(|i| durable_shard(ShardId(i as u32), settings))
        .collect::<Result<Vec<_>>>()?;
    let cluster = Cluster::new(shards, settings);
    phases.push(("start", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let names = feature_names(FEATURES);
    for e in 0..ENTITIES {
        let key = entity(e);
        let values = row(seed, e, 0, &names);
        let borrowed: Vec<(&str, Value)> = values
            .iter()
            .map(|(f, v)| (f.as_str(), v.clone()))
            .collect();
        cluster
            .owner(&key)
            .repl
            .as_ref()
            .expect("ingest shards replicate")
            .put_online(GROUP, &EntityKey::new(key), &borrowed, NOW)?;
    }
    phases.push(("seed", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    if !converged(&cluster, Duration::from_secs(60)) {
        return Err(FsError::Storage(
            "followers did not converge after seeding".into(),
        ));
    }
    phases.push(("converge", t.elapsed().as_secs_f64()));
    Ok(cluster)
}

/// Wait until every follower has applied its leader's last publication.
pub fn converged(cluster: &Cluster, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let behind = cluster.shards.iter().any(|s| {
            let target = s.repl.as_ref().expect("replicated").log().last_seq();
            s.replica
                .as_ref()
                .expect("replicated")
                .follower
                .applied_epoch()
                != target
        });
        if !behind {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An acknowledged write, handed to the freshness watcher.
pub struct Ack {
    pub shard: usize,
    pub entity: usize,
    pub seq: u64,
    pub at: Instant,
}

/// 70% `GetFeatures`, 30% routed `PutOnline`, Zipf keys. Tracks, per
/// entity, the last sequence issued and the range a read may return.
pub struct Mix {
    seed: u64,
    rng: Xoshiro256,
    zipf: Zipf,
    names: Vec<String>,
    /// Highest sequence written (acknowledged or not) per entity.
    pub issued: Vec<u64>,
    /// Highest acknowledged sequence per entity.
    pub acked: Vec<u64>,
    pub puts_acked: u64,
    /// Owning shard index per entity (for the freshness watcher).
    owners: Vec<usize>,
    pub watch: Option<Sender<Ack>>,
}

impl Mix {
    pub fn new(seed: u64, cluster: &Cluster) -> Mix {
        let map = cluster.map();
        let owners = (0..ENTITIES)
            .map(|e| {
                let id = map.shard_for(&entity(e));
                cluster
                    .shards
                    .iter()
                    .position(|s| s.id == id)
                    .expect("mapped")
            })
            .collect();
        Mix {
            seed,
            rng: Xoshiro256::seeded(seed ^ 0x1E57),
            zipf: Zipf::new(ENTITIES, ZIPF),
            names: feature_names(FEATURES),
            issued: vec![0; ENTITIES],
            acked: vec![0; ENTITIES],
            puts_acked: 0,
            owners,
            watch: None,
        }
    }

    pub fn get(&self, e: usize) -> Job {
        Job {
            op: Op::Get,
            request: Request::GetFeatures {
                group: GROUP.to_string(),
                entity: entity(e),
                features: self.names.clone(),
            },
            tag: e as u64,
        }
    }

    /// Check a read of entity `e` against the range `[floor, issued]`:
    /// never older than an acknowledged write, never a value no one wrote.
    fn check_read(
        &self,
        e: usize,
        floor: u64,
        values: &[Value],
    ) -> std::result::Result<(), String> {
        let name = entity(e);
        if values.len() != FEATURES {
            return Err(format!("{name}: {} values", values.len()));
        }
        let seq = seq_of(&values[0]).ok_or_else(|| format!("{name}: {:?}", values[0]))?;
        if seq < floor || seq > self.issued[e] {
            return Err(format!(
                "{name} read seq {seq}, acked {floor}, issued {}",
                self.issued[e]
            ));
        }
        for (j, got) in values.iter().enumerate() {
            if *got != value(self.seed, e, seq, j) {
                return Err(format!("{name}.f{j} = {got:?} (seq {seq})"));
            }
        }
        Ok(())
    }
}

impl Workload for Mix {
    fn next_job(&mut self) -> Job {
        let e = scatter_rank(self.zipf.sample(&mut self.rng), ENTITIES, self.seed);
        if !self.rng.chance(PUT_SHARE) {
            return self.get(e);
        }
        self.issued[e] += 1;
        Job {
            op: Op::Put,
            request: Request::PutOnline {
                group: GROUP.to_string(),
                entity: entity(e),
                values: row(self.seed, e, self.issued[e], &self.names),
                term: 1,
            },
            tag: e as u64,
        }
    }

    fn check(
        &mut self,
        jobs: &[Job],
        responses: &[Response],
        at: Instant,
    ) -> Vec<std::result::Result<(), String>> {
        // Reads in a burst may see any write acknowledged before the burst
        // or within it, so the floor is taken before this burst's acks.
        let floors: Vec<u64> = jobs.iter().map(|j| self.acked[j.tag as usize]).collect();
        let mut verdicts = Vec::with_capacity(jobs.len());
        for (job, response) in jobs.iter().zip(responses) {
            let e = job.tag as usize;
            let verdict = match (&job.request, response) {
                (_, Response::Error { .. }) => Ok(()),
                (Request::PutOnline { values, .. }, Response::PutAck { term, .. }) => {
                    let seq = seq_of(&values[0].1).expect("generated value");
                    if *term != 1 {
                        Err(format!("{} acked at term {term}", entity(e)))
                    } else {
                        self.acked[e] = self.acked[e].max(seq);
                        self.puts_acked += 1;
                        if let Some(watch) = &self.watch {
                            let _ = watch.send(Ack {
                                shard: self.owners[e],
                                entity: e,
                                seq,
                                at,
                            });
                        }
                        Ok(())
                    }
                }
                (Request::PutOnline { .. }, other) => {
                    Err(format!("{}: unexpected put response {other:?}", entity(e)))
                }
                // Reads are checked below, against the floor.
                _ => Ok(()),
            };
            verdicts.push(verdict);
        }
        for ((job, response), (verdict, floor)) in jobs
            .iter()
            .zip(responses)
            .zip(verdicts.iter_mut().zip(floors))
        {
            if job.op != Op::Get || matches!(response, Response::Error { .. }) {
                continue;
            }
            *verdict = match response {
                Response::Features(v) if v.entity == entity(job.tag as usize) => {
                    self.check_read(job.tag as usize, floor, &v.values)
                }
                other => Err(format!("unexpected response {other:?}")),
            };
        }
        verdicts
    }
}

/// What the freshness watcher saw.
#[derive(Default)]
pub struct Freshness {
    /// Acknowledgement → visible in the follower's online store (ms).
    pub fresh_ms: Vec<f64>,
    /// Leader publications not yet applied by the follower, sampled
    /// every millisecond per shard.
    pub lag_epochs: Vec<f64>,
    /// Acknowledged writes that never became visible.
    pub lost: u64,
    /// CPU time the watcher itself ran (s), which is the benchmark's and
    /// not the store's.
    pub cpu_s: f64,
}

/// Poll the followers until every acknowledged write sent on `acks` is
/// visible (the channel closing ends the watch), sampling replication lag
/// along the way. `spent_ns` follows the watcher's own CPU time.
pub fn watch(cluster: &Cluster, acks: Receiver<Ack>, spent_ns: &AtomicU64) -> Freshness {
    let cpu = host::thread_cpu_seconds();
    let mut out = Freshness::default();
    let mut pending: Vec<Ack> = Vec::new();
    let mut open = true;
    let mut next_lag = Instant::now();
    let mut closed_at: Option<Instant> = None;
    loop {
        loop {
            match acks.try_recv() {
                Ok(ack) => pending.push(ack),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    open = false;
                    break;
                }
            }
        }
        let now = Instant::now();
        pending.retain(|ack| {
            let follower = &cluster.shards[ack.shard]
                .replica
                .as_ref()
                .expect("replicated")
                .follower;
            let seen = follower
                .online()
                .get(GROUP, &EntityKey::new(entity(ack.entity)), "f0")
                .and_then(|entry| seq_of(&entry.value));
            if seen.is_some_and(|s| s >= ack.seq) {
                out.fresh_ms.push((now - ack.at).as_secs_f64() * 1e3);
                false
            } else {
                true
            }
        });
        if now >= next_lag {
            for shard in &cluster.shards {
                let leader = shard.repl.as_ref().expect("replicated").log().last_seq();
                let applied = shard
                    .replica
                    .as_ref()
                    .expect("replicated")
                    .follower
                    .applied_epoch();
                out.lag_epochs.push(leader.saturating_sub(applied) as f64);
            }
            next_lag = now + Duration::from_millis(1);
        }
        if !open {
            let since = *closed_at.get_or_insert(now);
            if pending.is_empty() {
                break;
            }
            if now - since > Duration::from_secs(10) {
                out.lost = pending.len() as u64;
                break;
            }
        }
        let spent = host::thread_cpu_seconds() - cpu;
        spent_ns.store((spent * 1e9) as u64, Ordering::Relaxed);
        std::thread::sleep(Duration::from_micros(500));
    }
    out.cpu_s = host::thread_cpu_seconds() - cpu;
    out
}
