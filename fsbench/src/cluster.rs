//! Cluster assembly from the library's public constructors, so the
//! benchmark holds every server handle (and its `ServingMetrics`), every
//! replication and durability handle, and an in-process `ServeEngine`
//! over each shard's components for layer timing.
//!
//! Every setting the numbers depend on is spelled out here rather than
//! taken from a `Default`, so a change of library defaults cannot move
//! the benchmark silently; [`Settings::describe`] records them per run.

use crate::host::ScratchDir;
use crate::{int, obj};
use fstore_common::{FsError, Result, Timestamp};
use fstore_core::FeatureServer;
use fstore_durable::{DurableConfig, DurableLeader, FsyncPolicy};
use fstore_repl::{Follower, LeaderParts, ReplLeader, SyncHandle};
use fstore_serve::{
    fixed_clock, start, BreakerConfig, ClientConfig, Clock, RetryPolicy, ServeConfig, ServeEngine,
    ServerHandle, WriteProvider, MAX_FRAME_LEN,
};
use fstore_shard::{
    ControlPlane, ControlPlaneConfig, RouterClient, RouterConfig, ShardId, ShardInfo, ShardMap,
};
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

/// The serving clock: fixed, so feature ages and write timestamps are the
/// same on every run.
pub const NOW: Timestamp = Timestamp(1_700_000_000_000);

/// Every server, client and replication setting of a run.
#[derive(Clone)]
pub struct Settings {
    pub shards: usize,
    pub serve: ServeConfig,
    pub router: RouterConfig,
    pub control: ControlPlaneConfig,
    /// Publication-log retention per replication leader (ingest only).
    pub retention: usize,
    /// Follower delta-poll cadence (ingest only).
    pub sync_interval: Duration,
    /// WAL fsync policy (ingest only).
    pub fsync: FsyncPolicy,
}

impl Settings {
    pub fn new(shards: usize) -> Settings {
        let client = ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            deadline_budget: None,
            max_response_frame: MAX_FRAME_LEN,
        };
        Settings {
            shards,
            serve: ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: 256,
                max_batch: 32,
                handler_delay: None,
                frame_timeout: Some(Duration::from_secs(10)),
                write_timeout: Some(Duration::from_secs(10)),
                max_request_frame: MAX_FRAME_LEN,
                pipeline_depth: 128,
            },
            router: RouterConfig {
                client: client.clone(),
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::from_millis(10),
                    multiplier: 2.0,
                    max_backoff: Duration::from_secs(1),
                    jitter: 0.25,
                },
                breakers: BreakerConfig {
                    failure_threshold: 3,
                    open_cooldown: Duration::from_millis(500),
                },
            },
            control: ControlPlaneConfig {
                failure_threshold: 2,
                probe: ClientConfig {
                    connect_timeout: Some(Duration::from_millis(250)),
                    read_timeout: Some(Duration::from_millis(250)),
                    write_timeout: Some(Duration::from_millis(250)),
                    ..client
                },
            },
            // Far above any write count a run reaches, so a follower never
            // falls back to a full snapshot (see `repl.fallbacks`).
            retention: 1 << 16,
            sync_interval: Duration::from_millis(5),
            fsync: FsyncPolicy::Always,
        }
    }

    pub fn describe(&self) -> Value {
        let s = &self.serve;
        let r = &self.router;
        let ms =
            |d: Option<Duration>| d.map_or(Value::Null, |d| Value::from(d.as_secs_f64() * 1e3));
        obj([
            ("shards", int(self.shards as u64)),
            (
                "serve",
                obj([
                    ("workers", int(s.workers as u64)),
                    ("queue_depth", int(s.queue_depth as u64)),
                    ("max_batch", int(s.max_batch as u64)),
                    ("handler_delay_ms", ms(s.handler_delay)),
                    ("frame_timeout_ms", ms(s.frame_timeout)),
                    ("write_timeout_ms", ms(s.write_timeout)),
                    ("max_request_frame", int(s.max_request_frame as u64)),
                    ("pipeline_depth", int(s.pipeline_depth as u64)),
                ]),
            ),
            (
                "router",
                obj([
                    ("connect_timeout_ms", ms(r.client.connect_timeout)),
                    ("read_timeout_ms", ms(r.client.read_timeout)),
                    ("write_timeout_ms", ms(r.client.write_timeout)),
                    ("deadline_budget_ms", ms(r.client.deadline_budget)),
                    ("retry_max_attempts", int(u64::from(r.retry.max_attempts))),
                    ("retry_base_backoff_ms", ms(Some(r.retry.base_backoff))),
                    (
                        "breaker_failure_threshold",
                        int(u64::from(r.breakers.failure_threshold)),
                    ),
                    (
                        "breaker_open_cooldown_ms",
                        ms(Some(r.breakers.open_cooldown)),
                    ),
                ]),
            ),
            (
                "control_failure_threshold",
                int(u64::from(self.control.failure_threshold)),
            ),
            ("retention", int(self.retention as u64)),
            ("sync_interval_ms", ms(Some(self.sync_interval))),
            ("fsync", Value::from(format!("{:?}", self.fsync))),
        ])
    }
}

/// A shard's follower: the replica, its sync loop and its server.
pub struct Replica {
    pub follower: Arc<Follower>,
    sync: Option<SyncHandle>,
    pub server: ServerHandle,
}

/// One shard: a leader server over `parts`, plus what the workload layers
/// on it.
pub struct Shard {
    pub id: ShardId,
    pub parts: LeaderParts,
    pub server: ServerHandle,
    /// A second engine over the same components, never started: the
    /// in-process entry point layer timing calls directly.
    pub engine: ServeEngine,
    pub repl: Option<Arc<ReplLeader>>,
    pub replica: Option<Replica>,
    /// WAL directory; removed when the shard is dropped.
    _dir: Option<ScratchDir>,
}

fn clock() -> Clock {
    fixed_clock(NOW)
}

fn serving_error(what: &str, e: std::io::Error) -> FsError {
    FsError::Storage(format!("{what}: {e}"))
}

/// A read-only shard (no WAL, no replication): the online store, the
/// embedding catalog and the index catalog behind one server.
pub fn plain_shard(id: ShardId, settings: &Settings) -> Result<Shard> {
    let parts = LeaderParts::new();
    let engine = || {
        ServeEngine::new(FeatureServer::new(Arc::clone(&parts.online)), clock())
            .with_embeddings(parts.embeddings.clone())
            .with_index_catalog(Arc::clone(&parts.indexes))
    };
    let server = start(engine(), settings.serve.clone())
        .map_err(|e| serving_error("start shard server", e))?;
    Ok(Shard {
        id,
        engine: engine(),
        parts,
        server,
        repl: None,
        replica: None,
        _dir: None,
    })
}

/// A write shard: a replication leader layered over a durable leader in
/// a fresh WAL directory, accepting term-1 writes, with one follower
/// syncing from it and serving behind its own server.
pub fn durable_shard(id: ShardId, settings: &Settings) -> Result<Shard> {
    let dir = ScratchDir::new(&format!("wal-{}", id.0))
        .map_err(|e| FsError::Storage(format!("scratch dir: {e}")))?;
    let (durable, _) = DurableLeader::open(
        dir.path(),
        DurableConfig {
            fsync: settings.fsync,
        },
    )?;
    let leader =
        ReplLeader::with_retention(LeaderParts::from_durable(&durable), settings.retention);
    leader.attach_durable(Arc::clone(&durable));
    let engine = || {
        leader
            .engine(clock())
            .with_write_provider(Arc::clone(&leader) as Arc<dyn WriteProvider>, 1)
    };
    let server = start(engine(), settings.serve.clone())
        .map_err(|e| serving_error("start leader server", e))?;
    durable.attach_metrics(server.metrics());

    let follower = Arc::new(Follower::bootstrap(server.addr().to_string())?);
    let sync = follower.start_sync(settings.sync_interval);
    let replica_server = start(follower.engine(clock()), settings.serve.clone())
        .map_err(|e| serving_error("start follower server", e))?;
    follower.attach_metrics(replica_server.metrics());

    Ok(Shard {
        id,
        parts: leader.parts().clone(),
        engine: engine(),
        server,
        repl: Some(leader),
        replica: Some(Replica {
            follower,
            sync: Some(sync),
            server: replica_server,
        }),
        _dir: Some(dir),
    })
}

impl Shard {
    fn info(&self) -> ShardInfo {
        let mut endpoints = vec![self.server.addr().to_string()];
        if let Some(r) = &self.replica {
            endpoints.push(r.server.addr().to_string());
        }
        ShardInfo::new(self.id, endpoints)
    }

    fn shutdown(mut self) {
        if let Some(mut replica) = self.replica.take() {
            if let Some(sync) = replica.sync.take() {
                sync.stop();
            }
            replica.server.shutdown();
        }
        self.server.shutdown();
    }
}

/// The shards, the map over them, and the control plane owning it (its
/// probe loop is not started: nothing fails over during a run).
pub struct Cluster {
    pub shards: Vec<Shard>,
    pub control: Arc<ControlPlane>,
    router: RouterConfig,
}

impl Cluster {
    pub fn new(shards: Vec<Shard>, settings: &Settings) -> Cluster {
        let map = ShardMap::new(shards.iter().map(Shard::info).collect());
        Cluster {
            shards,
            control: ControlPlane::new(map, settings.control.clone()),
            router: settings.router.clone(),
        }
    }

    pub fn map(&self) -> Arc<ShardMap> {
        self.control.map()
    }

    /// The shard owning `key` under the map the router uses.
    pub fn owner(&self, key: &str) -> &Shard {
        let id = self.control.map().shard_for(key);
        self.shards
            .iter()
            .find(|s| s.id == id)
            .expect("the map only names assembled shards")
    }

    pub fn router(&self) -> RouterClient {
        RouterClient::new(Arc::clone(&self.control), self.router.clone())
    }

    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}
