//! The scatter-gather router: one client that speaks the ordinary wire
//! protocol but fans requests out over a sharded cluster.
//!
//! A [`RouterClient`] holds one `FailoverClient` per shard (leader-first
//! endpoints, per-endpoint circuit breakers — PR 5's machinery, reused
//! unchanged) and routes by request shape:
//!
//! * point reads (`GetFeatures`, `GetEmbedding`) go to the owning shard,
//!   decided by the map's consistent hash;
//! * `GetFeaturesBatch` splits by shard, scatters the sub-batches, and
//!   reassembles the response in the caller's entity order;
//! * `SearchNearest` scatters to *every* shard (each holds a disjoint
//!   slice of the table) and merges the per-shard top-k into a global
//!   top-k — ascending `(distance, key)`, so the merge is deterministic
//!   even under distance ties;
//! * `SearchNearestByKey` first fetches the anchor vector from its home
//!   shard, then runs the scatter with `k+1` and drops the anchor from
//!   the merged hits (only its home shard excludes it natively).
//!
//! A scatter starts no thread. The calling thread writes every shard's
//! request (or pipelined burst) down that shard's persistent connection,
//! then reads each shard's answers back in turn, so the shard servers
//! work in parallel while the caller waits once. The per-shard clients
//! walk their endpoints in lockstep rounds ([`FailoverClient::scatter`]):
//! a shard that failed or pushed back is retried on its next endpoint
//! after one shared backoff, and a shard that answered is never asked
//! again. No answer is left unread: before a scatter returns, every
//! burst it wrote has been read in full or its connection dropped, so a
//! later request on a pooled connection always gets its own answer, even
//! when the router answers the caller with one shard's typed refusal.
//!
//! Because [`RouterClient`] implements the same [`Transport`] trait as
//! every single-node client, the entire `StoreApi` surface works against
//! a sharded cluster unchanged — and `RouterServer` can put the router
//! behind a plain TCP socket by decoding, calling, and encoding.
//!
//! Before every call the router compares the control plane's map version
//! with the one it routed with last; on a change it rebinds each shard's
//! endpoint list in place ([`FailoverClient::set_endpoints`]), keeping
//! live connections and breaker history for endpoints that stayed.

use crate::control::ControlPlane;
use crate::map::{ShardId, ShardMap};
use fstore_common::Value;
use fstore_serve::api::{expect_embedding, Transport};
use fstore_serve::{
    BreakerConfig, ClientConfig, ClientError, ErrorCode, FailoverClient, FailoverStats, Request,
    Response, RetryPolicy, WireHit,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-shard client tuning for a router.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Socket deadlines (and optional per-hop deadline budget) for every
    /// shard connection.
    pub client: ClientConfig,
    /// Retry policy each per-shard `FailoverClient` applies across its
    /// endpoint rounds.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning per shard endpoint.
    pub breakers: BreakerConfig,
}

/// A client over a sharded cluster; see the module docs for routing.
pub struct RouterClient {
    control: Arc<ControlPlane>,
    map: Arc<ShardMap>,
    clients: HashMap<u32, FailoverClient>,
    config: RouterConfig,
}

impl RouterClient {
    pub fn new(control: Arc<ControlPlane>, config: RouterConfig) -> Self {
        let mut router = RouterClient {
            map: control.map(),
            control,
            clients: HashMap::new(),
            config,
        };
        router.bind_clients();
        router
    }

    /// The map this router last routed with.
    pub fn map(&self) -> Arc<ShardMap> {
        Arc::clone(&self.map)
    }

    /// Failover counters per shard (ascending shard id) — how often reads
    /// were answered by a non-preferred endpoint, retried, or exhausted.
    pub fn shard_stats(&self) -> Vec<(ShardId, FailoverStats)> {
        let mut stats: Vec<(ShardId, FailoverStats)> = self
            .clients
            .iter()
            .map(|(&id, c)| (ShardId(id), c.stats()))
            .collect();
        stats.sort_by_key(|(id, _)| *id);
        stats
    }

    /// Adopt the control plane's current map if it moved. Shards present
    /// in both maps keep their client (connections, breaker history);
    /// their endpoint order is rebound to the new map.
    pub fn refresh(&mut self) {
        if self.control.version() == self.map.version() {
            return;
        }
        self.map = self.control.map();
        self.bind_clients();
    }

    fn bind_clients(&mut self) {
        let live: Vec<u32> = self.map.shards().iter().map(|s| s.id.0).collect();
        self.clients.retain(|id, _| live.contains(id));
        for shard in self.map.shards() {
            let addrs: Vec<&str> = shard.endpoints.iter().map(String::as_str).collect();
            match self.clients.get_mut(&shard.id.0) {
                Some(client) => client.set_endpoints(&addrs),
                None => {
                    self.clients.insert(
                        shard.id.0,
                        FailoverClient::connect(
                            &addrs,
                            self.config.client.clone(),
                            self.config.retry,
                            self.config.breakers,
                        ),
                    );
                }
            }
        }
    }

    fn shard_client(&mut self, shard: ShardId) -> &mut FailoverClient {
        self.clients
            .get_mut(&shard.0)
            .expect("bind_clients covers every mapped shard")
    }

    /// Send each shard its burst and gather the answers, thread-free
    /// ([`FailoverClient::scatter`]): every burst is written before the
    /// first answer is read. Outcomes come back in `bursts` order; at
    /// most one burst per shard.
    fn scatter_bursts(
        &mut self,
        bursts: &[(ShardId, Vec<Request>)],
    ) -> Vec<Result<Vec<Response>, ClientError>> {
        // Borrow split: each shard's client is moved out of the list
        // exactly once.
        let mut clients: Vec<(&u32, &mut FailoverClient)> = self.clients.iter_mut().collect();
        let legs = bursts
            .iter()
            .map(|(shard, burst)| {
                let i = clients
                    .iter()
                    .position(|(id, _)| **id == shard.0)
                    .expect("bind_clients covers every mapped shard, once per scatter");
                (clients.swap_remove(i).1, burst.as_slice())
            })
            .collect();
        FailoverClient::scatter(legs)
    }

    /// Scatter `requests` (one per shard); results come back in
    /// ascending shard-id order.
    fn scatter(
        &mut self,
        mut requests: Vec<(ShardId, Request)>,
    ) -> Vec<(ShardId, Result<Response, ClientError>)> {
        requests.sort_by_key(|(shard, _)| *shard);
        let bursts: Vec<(ShardId, Vec<Request>)> = requests
            .into_iter()
            .map(|(shard, request)| (shard, vec![request]))
            .collect();
        let outcomes = self.scatter_bursts(&bursts);
        bursts
            .iter()
            .zip(outcomes)
            .map(|((shard, _), outcome)| {
                let answer = outcome.map(|mut r| r.pop().expect("one answer per request"));
                (*shard, answer)
            })
            .collect()
    }

    fn route(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.refresh();
        match request {
            Request::Health => self.health(),
            Request::GetFeatures { entity, .. } => {
                let shard = self.map.shard_for(entity);
                self.shard_client(shard).call(request)
            }
            Request::GetEmbedding { key, .. } => {
                let shard = self.map.shard_for(key);
                self.shard_client(shard).call(request)
            }
            Request::GetFeaturesBatch {
                group,
                entities,
                features,
            } => self.get_features_batch(group, entities, features),
            Request::SearchNearest {
                table,
                query,
                k,
                options,
            } => self.search_scatter(table, query, *k, *options, None),
            Request::SearchNearestByKey {
                table,
                key,
                k,
                options,
            } => self.search_by_key(table, key, *k, *options),
            Request::ReplSubscribe | Request::ReplSnapshot | Request::ReplDeltas { .. } => {
                Ok(Response::error(
                    ErrorCode::BadRequest,
                    "replication endpoints are per-shard; subscribe to a shard leader directly",
                ))
            }
            Request::PutOnline {
                group,
                entity,
                values,
                ..
            } => self.put_online_routed(group, entity, values),
            // Leadership admin targets a shard by id, not by key.
            Request::Promote { shard, .. } | Request::Demote { shard, .. } => {
                let id = ShardId(*shard);
                if self.map.shard(id).is_none() {
                    return Ok(Response::error(
                        ErrorCode::BadRequest,
                        format!("unknown shard {shard}"),
                    ));
                }
                self.shard_client(id).call(request)
            }
            // The per-shard clients apply their own configured budget per
            // hop; the envelope's budget routes with the inner request.
            Request::WithDeadline { inner, .. } => self.route(inner),
        }
    }

    /// Route a write to the owning shard's leader, stamped with the
    /// shard's *current* leader term from the map — whatever term the
    /// caller wrote is replaced, because the router (not the caller) is
    /// the party tracking promotions. A `NotLeader` refusal means the map
    /// moved under us; adopt the control plane's newer map and re-route
    /// exactly once with the fresh term and endpoint order. One retry is
    /// safe — a refusal proves the write was not applied — and bounded,
    /// so a flapping shard cannot trap the router in a loop.
    fn put_online_routed(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
    ) -> Result<Response, ClientError> {
        let first = self.send_put(group, entity, values)?;
        if !matches!(
            &first,
            Response::Error {
                code: ErrorCode::NotLeader,
                ..
            }
        ) {
            return Ok(first);
        }
        self.refresh();
        self.send_put(group, entity, values)
    }

    fn send_put(
        &mut self,
        group: &str,
        entity: &str,
        values: &[(String, Value)],
    ) -> Result<Response, ClientError> {
        let shard = self.map.shard_for(entity);
        let term = self.map.shard(shard).expect("mapped shard").term;
        let request = Request::PutOnline {
            group: group.to_string(),
            entity: entity.to_string(),
            values: values.to_vec(),
            term,
        };
        self.shard_client(shard).call(&request)
    }

    /// Aggregate health: queue depths summed, draining if any shard is.
    fn health(&mut self) -> Result<Response, ClientError> {
        let requests: Vec<(ShardId, Request)> = self
            .map
            .shards()
            .iter()
            .map(|s| (s.id, Request::Health))
            .collect();
        let mut queue_depth = 0u32;
        let mut draining = false;
        for (_, result) in self.scatter(requests) {
            match result? {
                Response::Health {
                    queue_depth: q,
                    draining: d,
                } => {
                    queue_depth = queue_depth.saturating_add(q);
                    draining |= d;
                }
                other => return Ok(other),
            }
        }
        Ok(Response::Health {
            queue_depth,
            draining,
        })
    }

    /// Split a batch by owning shard, scatter, reassemble in caller order.
    fn get_features_batch(
        &mut self,
        group: &str,
        entities: &[String],
        features: &[String],
    ) -> Result<Response, ClientError> {
        // slot i of the response answers entities[i].
        let mut by_shard: HashMap<u32, (ShardId, Vec<usize>)> = HashMap::new();
        for (i, entity) in entities.iter().enumerate() {
            let shard = self.map.shard_for(entity);
            by_shard
                .entry(shard.0)
                .or_insert((shard, Vec::new()))
                .1
                .push(i);
        }
        let requests: Vec<(ShardId, Request, Vec<usize>)> = by_shard
            .into_values()
            .map(|(shard, slots)| {
                let request = Request::GetFeaturesBatch {
                    group: group.to_string(),
                    entities: slots.iter().map(|&i| entities[i].clone()).collect(),
                    features: features.to_vec(),
                };
                (shard, request, slots)
            })
            .collect();
        let slot_map: HashMap<u32, Vec<usize>> = requests
            .iter()
            .map(|(shard, _, slots)| (shard.0, slots.clone()))
            .collect();
        let results = self.scatter(
            requests
                .into_iter()
                .map(|(shard, request, _)| (shard, request))
                .collect(),
        );
        let mut merged = vec![None; entities.len()];
        for (shard, result) in results {
            match result? {
                Response::FeaturesBatch(vectors) => {
                    let slots = &slot_map[&shard.0];
                    if vectors.len() != slots.len() {
                        return Err(ClientError::UnexpectedResponse("FeaturesBatch"));
                    }
                    for (&slot, vector) in slots.iter().zip(vectors) {
                        merged[slot] = Some(vector);
                    }
                }
                // A shard's typed refusal (missing group, shed, …) stands
                // for the whole batch, matching single-node semantics.
                other => return Ok(other),
            }
        }
        Ok(Response::FeaturesBatch(
            merged
                .into_iter()
                .map(|v| v.expect("every slot was assigned to exactly one shard"))
                .collect(),
        ))
    }

    /// Scatter a `SearchNearest` to every shard and merge the per-shard
    /// top-k into a global top-k; `exclude` drops an anchor key from the
    /// merged hits (the by-key path).
    fn search_scatter(
        &mut self,
        table: &str,
        query: &[f32],
        k: u32,
        options: fstore_serve::SearchOptions,
        exclude: Option<&str>,
    ) -> Result<Response, ClientError> {
        let fetch_k = if exclude.is_some() {
            k.saturating_add(1)
        } else {
            k
        };
        let requests: Vec<(ShardId, Request)> = self
            .map
            .shards()
            .iter()
            .map(|s| {
                (
                    s.id,
                    Request::SearchNearest {
                        table: table.to_string(),
                        query: query.to_vec(),
                        k: fetch_k,
                        options,
                    },
                )
            })
            .collect();
        let mut all_hits: Vec<WireHit> = Vec::new();
        let mut table_version = 0u32;
        let mut index_generation = 0u64;
        for (_, result) in self.scatter(requests) {
            match result? {
                Response::Neighbors {
                    table_version: tv,
                    index_generation: ig,
                    hits,
                } => {
                    // Shards publish independently, so these counters are
                    // per-shard; report the furthest-along one.
                    table_version = table_version.max(tv);
                    index_generation = index_generation.max(ig);
                    all_hits.extend(hits);
                }
                other => return Ok(other),
            }
        }
        if let Some(anchor) = exclude {
            all_hits.retain(|h| h.key != anchor);
        }
        Ok(Response::Neighbors {
            table_version,
            index_generation,
            hits: merge_topk(all_hits, k as usize),
        })
    }

    /// By-key search: resolve the anchor vector on its home shard, then
    /// scatter. The anchor is excluded from the merge explicitly because
    /// only its home shard stores (and natively excludes) it.
    fn search_by_key(
        &mut self,
        table: &str,
        key: &str,
        k: u32,
        options: fstore_serve::SearchOptions,
    ) -> Result<Response, ClientError> {
        let home = self.map.shard_for(key);
        let anchor = self.shard_client(home).call(&Request::GetEmbedding {
            table: table.to_string(),
            key: key.to_string(),
        })?;
        let embedding = match expect_embedding(anchor) {
            Ok(e) => e,
            Err(ClientError::Server { code, message }) => {
                return Ok(Response::Error { code, message })
            }
            Err(e) => return Err(e),
        };
        self.search_scatter(table, &embedding.vector, k, options, Some(key))
    }
}

impl Transport for RouterClient {
    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.route(request)
    }

    /// Pipelined routing: point reads are grouped by owning shard and each
    /// group goes down that shard's connection as one pipelined burst,
    /// with every burst written before any answer is read (one
    /// thread-free scatter). Anything that is not a point read routes
    /// item by item through the ordinary path. Responses come back in
    /// request order regardless of grouping.
    fn call_many(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.refresh();
        let mut slots: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        let mut by_shard: HashMap<u32, (ShardId, Vec<usize>)> = HashMap::new();
        for (i, request) in requests.iter().enumerate() {
            let owner = match request {
                Request::GetFeatures { entity, .. } => Some(self.map.shard_for(entity)),
                Request::GetEmbedding { key, .. } => Some(self.map.shard_for(key)),
                _ => None,
            };
            match owner {
                Some(shard) => by_shard
                    .entry(shard.0)
                    .or_insert((shard, Vec::new()))
                    .1
                    .push(i),
                None => slots[i] = Some(self.route(request)?),
            }
        }
        let groups: Vec<(ShardId, Vec<usize>)> = by_shard.into_values().collect();
        let bursts: Vec<(ShardId, Vec<Request>)> = groups
            .iter()
            .map(|(shard, idxs)| (*shard, idxs.iter().map(|&i| requests[i].clone()).collect()))
            .collect();
        for ((_, idxs), result) in groups.iter().zip(self.scatter_bursts(&bursts)) {
            // The walk returns exactly one answer per request sent.
            for (&slot, response) in idxs.iter().zip(result?) {
                slots[slot] = Some(response);
            }
        }
        Ok(slots
            .into_iter()
            .map(|r| r.expect("every request was grouped or routed"))
            .collect())
    }
}

/// Merge scattered hits into a global top-k: ascending distance
/// (`total_cmp`, so NaNs order deterministically too), ties broken by
/// key. Shards hold disjoint key sets, so no deduplication is needed.
pub fn merge_topk(mut hits: Vec<WireHit>, k: usize) -> Vec<WireHit> {
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.key.cmp(&b.key))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(key: &str, distance: f32) -> WireHit {
        WireHit {
            key: key.to_string(),
            distance,
        }
    }

    #[test]
    fn merge_sorts_truncates_and_breaks_ties_by_key() {
        let merged = merge_topk(
            vec![hit("c", 2.0), hit("b", 1.0), hit("a", 1.0), hit("d", 3.0)],
            3,
        );
        assert_eq!(merged, vec![hit("a", 1.0), hit("b", 1.0), hit("c", 2.0)]);
    }

    #[test]
    fn merge_handles_fewer_hits_than_k() {
        assert_eq!(merge_topk(vec![hit("a", 0.5)], 10), vec![hit("a", 0.5)]);
        assert!(merge_topk(Vec::new(), 10).is_empty());
    }
}
