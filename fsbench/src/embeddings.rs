//! `embeddings`: nearest-neighbour search scattered over two shards and
//! embedding reads across a version history that is mostly spilled to
//! disk — ANN search and tier faults dominate here and nowhere else.
//!
//! Vectors are clustered (each key sits near one of `CLUSTERS` centres),
//! as trained embeddings are; each version moves every key by fresh noise.

use crate::cluster::{plain_shard, Cluster, Settings};
use crate::data::{key_index, mix, unit};
use crate::host::ScratchDir;
use crate::load::{Job, Op, Workload};
use fstore_common::{FsError, Result, Rng, Timestamp, Xoshiro256};
use fstore_embed::{EmbeddingProvenance, EmbeddingTable};
use fstore_index::HnswConfig;
use fstore_serve::{IndexSpec, Request, Response, SearchOptions};
use fstore_shard::ShardId;
use fstore_tier::{TierConfig, TieredEmbeddings};
use std::sync::Arc;
use std::time::Instant;

pub const KEYS: usize = 8_192;
pub const DIM: usize = 64;
pub const VERSIONS: u32 = 8;
pub const K: usize = 10;
pub const CLUSTERS: u64 = 64;
/// Half-width per axis of the box the cluster centres are drawn from, the
/// per-version displacement of a key around its centre, and that of a
/// query around the stored vector it was drawn from.
pub const CENTRE: f64 = 0.5;
pub const NOISE: f64 = 1.0;
pub const QUERY_NOISE: f64 = 1.0;
/// Searches draw from this many fixed queries (perturbed stored vectors),
/// whose exact top-k is computed once before the measured phases.
pub const QUERIES: usize = 256;
pub const SEARCH_SHARE: f64 = 0.5;
/// Share of embedding reads that ask for the latest version; the rest
/// pick a version uniformly from the whole history. About 30% of reads
/// then fault a block in from disk, so the median lies among resident
/// reads and p90 among faults, not on the edge between the two.
pub const LATEST_SHARE: f64 = 0.6;
/// Tier RAM budget as a fraction of each shard's version history.
pub const TIER_BUDGET_FRACTION: f64 = 0.25;
/// Tier block size, demotion watermarks and cache shards.
pub const TIER_BLOCK_BYTES: usize = 64 * 1024;
pub const TIER_WATERMARKS: (f64, f64) = (0.85, 0.60);
pub const TIER_CACHE_SHARDS: usize = 8;
/// The HNSW build and search parameters (the library defaults when this
/// benchmark was written, pinned here).
pub const HNSW: HnswConfig = HnswConfig {
    m: 16,
    ef_construction: 100,
    ef_search: 32,
    seed: 77,
};
pub const RATE: f64 = 300.0;
pub const TABLE: &str = "emb";

pub fn key(i: usize) -> String {
    format!("e{i:05}")
}

/// The stored vector of `key` at `version`.
pub fn vector(seed: u64, version: u32, key: usize) -> Vec<f32> {
    let centre = key as u64 % CLUSTERS;
    let noise_seed = seed ^ (u64::from(version) << 40);
    (0..DIM as u64)
        .map(|j| {
            let c = CENTRE * (2.0 * unit(seed, 0xC0FFEE ^ centre, j) - 1.0);
            let n = 2.0 * unit(noise_seed, key as u64, j) - 1.0;
            (c + NOISE * n) as f32
        })
        .collect()
}

pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact top-`k` keys of `query` among `candidates` (latest version).
pub fn exact_topk(query: &[f32], candidates: &[(usize, Vec<f32>)], k: usize) -> Vec<usize> {
    let mut scored: Vec<(f32, usize)> = candidates
        .iter()
        .map(|(key, v)| (l2(query, v), *key))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, key)| key).collect()
}

/// One shard's tier and the directory its segments live in.
pub struct Tier {
    pub tier: TieredEmbeddings,
    pub budget_bytes: u64,
    _dir: ScratchDir,
}

/// Start the shards, publish the version history (each shard its hash
/// slice), build HNSW over the latest version, and spill cold history.
pub fn setup(
    settings: &Settings,
    seed: u64,
    phases: &mut Vec<(&'static str, f64)>,
) -> Result<(Cluster, Vec<Tier>)> {
    let t = Instant::now();
    let shards = (0..settings.shards)
        .map(|i| plain_shard(ShardId(i as u32), settings))
        .collect::<Result<Vec<_>>>()?;
    let cluster = Cluster::new(shards, settings);
    phases.push(("start", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let map = cluster.map();
    let owners: Vec<usize> = (0..KEYS)
        .map(|i| {
            let id = map.shard_for(&key(i));
            cluster
                .shards
                .iter()
                .position(|s| s.id == id)
                .expect("mapped shard")
        })
        .collect();
    for version in 1..=VERSIONS {
        for (s, shard) in cluster.shards.iter().enumerate() {
            let mut table = EmbeddingTable::new(DIM)?;
            for i in (0..KEYS).filter(|&i| owners[i] == s) {
                table.insert(key(i), vector(seed, version, i))?;
            }
            shard.parts.embeddings.publish(
                TABLE,
                table,
                EmbeddingProvenance::default(),
                Timestamp::millis(i64::from(version)),
            )?;
        }
    }
    phases.push(("seed", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    // Shards are independent nodes, so their indexes build concurrently.
    std::thread::scope(|scope| {
        let builds: Vec<_> = cluster
            .shards
            .iter()
            .map(|shard| scope.spawn(|| shard.parts.indexes.build(TABLE, &IndexSpec::Hnsw(HNSW))))
            .collect();
        builds
            .into_iter()
            .try_for_each(|b| b.join().expect("index build panicked").map(drop))
    })?;
    phases.push(("index_build", t.elapsed().as_secs_f64()));

    let t = Instant::now();
    let mut tiers = Vec::with_capacity(cluster.shards.len());
    for (s, shard) in cluster.shards.iter().enumerate() {
        let rows = owners.iter().filter(|&&o| o == s).count() as u64;
        let history = rows * DIM as u64 * 4 * u64::from(VERSIONS);
        let budget_bytes = (history as f64 * TIER_BUDGET_FRACTION) as u64;
        let dir = ScratchDir::new(&format!("tier-{s}"))
            .map_err(|e| FsError::Storage(format!("scratch dir: {e}")))?;
        let tier = TieredEmbeddings::attach(
            &shard.parts.embeddings,
            TierConfig {
                dir: dir.path().to_path_buf(),
                budget_bytes,
                block_bytes: TIER_BLOCK_BYTES,
                high_watermark: TIER_WATERMARKS.0,
                low_watermark: TIER_WATERMARKS.1,
                cache_shards: TIER_CACHE_SHARDS,
            },
        )?;
        tier.attach_catalog(Arc::clone(&shard.parts.indexes));
        tier.attach_metrics(&shard.server.metrics());
        tier.demote_now()?;
        tiers.push(Tier {
            tier,
            budget_bytes,
            _dir: dir,
        });
    }
    phases.push(("tier_demote", t.elapsed().as_secs_f64()));
    Ok((cluster, tiers))
}

/// The fixed query pool with each query's exact global top-k.
pub struct Queries {
    pub vectors: Vec<Vec<f32>>,
    pub truth: Vec<Vec<usize>>,
}

impl Queries {
    pub fn new(seed: u64) -> Queries {
        let latest: Vec<(usize, Vec<f32>)> =
            (0..KEYS).map(|i| (i, vector(seed, VERSIONS, i))).collect();
        let vectors: Vec<Vec<f32>> = (0..QUERIES as u64)
            .map(|q| {
                let anchor = (mix(seed ^ 0x0E1 ^ q) % KEYS as u64) as usize;
                latest[anchor]
                    .1
                    .iter()
                    .enumerate()
                    .map(|(j, x)| {
                        x + (QUERY_NOISE * (2.0 * unit(seed ^ 0x9E7, q, j as u64) - 1.0)) as f32
                    })
                    .collect()
            })
            .collect();
        let truth = vectors.iter().map(|q| exact_topk(q, &latest, K)).collect();
        Queries { vectors, truth }
    }
}

/// 50% `SearchNearest` (k=10) over the query pool, 50% `GetEmbedding`:
/// 40% latest, 60% uniform over the history.
pub struct Mix {
    pub seed: u64,
    rng: Xoshiro256,
    pub queries: Queries,
    /// Sum of per-search recall@k against the exact top-k, and the count.
    pub recall_sum: f64,
    pub searches: u64,
}

impl Mix {
    pub fn new(seed: u64, queries: Queries) -> Mix {
        Mix {
            seed,
            rng: Xoshiro256::seeded(seed ^ 0xE3BE),
            queries,
            recall_sum: 0.0,
            searches: 0,
        }
    }

    pub fn recall(&self) -> f64 {
        self.recall_sum / self.searches.max(1) as f64
    }
}

/// `tag` of an embedding read: key index × 16 + version (0 = latest).
fn embed_tag(key: usize, version: u32) -> u64 {
    key as u64 * 16 + u64::from(version)
}

pub fn tag_version(tag: u64) -> u32 {
    (tag % 16) as u32
}

impl Workload for Mix {
    fn next_job(&mut self) -> Job {
        if self.rng.chance(SEARCH_SHARE) {
            let q = self.rng.below(QUERIES as u64) as usize;
            Job {
                op: Op::Search,
                request: Request::SearchNearest {
                    table: TABLE.to_string(),
                    query: self.queries.vectors[q].clone(),
                    k: K as u32,
                    options: SearchOptions::default(),
                },
                tag: q as u64,
            }
        } else {
            let k = self.rng.below(KEYS as u64) as usize;
            let version = if self.rng.chance(LATEST_SHARE) {
                0
            } else {
                self.rng.below(u64::from(VERSIONS)) as u32 + 1
            };
            let table = match version {
                0 => TABLE.to_string(),
                v => format!("{TABLE}@v{v}"),
            };
            Job {
                op: Op::Embed,
                request: Request::GetEmbedding { table, key: key(k) },
                tag: embed_tag(k, version),
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
            .map(|(job, response)| match response {
                Response::Error { .. } => Ok(()),
                Response::Neighbors {
                    table_version,
                    hits,
                    ..
                } if job.op == Op::Search => {
                    if *table_version != VERSIONS {
                        return Err(format!("search answered from v{table_version}"));
                    }
                    if hits.len() != K {
                        return Err(format!("{} hits, want {K}", hits.len()));
                    }
                    let mut found: Vec<usize> = Vec::with_capacity(K);
                    for hit in hits {
                        match key_index(&hit.key) {
                            Some(i) if i < KEYS && hit.key == key(i) && !found.contains(&i) => {
                                found.push(i)
                            }
                            _ => {
                                return Err(format!(
                                    "hit {:?} is not a distinct stored key",
                                    hit.key
                                ))
                            }
                        }
                    }
                    let truth = &self.queries.truth[job.tag as usize];
                    let overlap = found.iter().filter(|i| truth.contains(i)).count();
                    self.recall_sum += overlap as f64 / K as f64;
                    self.searches += 1;
                    Ok(())
                }
                Response::Embedding {
                    version, vector, ..
                } if job.op == Op::Embed => {
                    let asked = tag_version(job.tag);
                    let expected_version = if asked == 0 { VERSIONS } else { asked };
                    if *version != expected_version {
                        return Err(format!("v{version} answered, want v{expected_version}"));
                    }
                    let k = (job.tag / 16) as usize;
                    let expected = crate::embeddings::vector(self.seed, expected_version, k);
                    let same = vector.len() == expected.len()
                        && vector
                            .iter()
                            .zip(&expected)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if same {
                        Ok(())
                    } else {
                        Err(format!("{} v{expected_version}: vector differs", key(k)))
                    }
                }
                other => Err(format!("unexpected response {other:?}")),
            })
            .collect()
    }
}
