//! HNSW — hierarchical navigable small world graph (Malkov & Yashunin),
//! the graph-index family of the E9 sweep. Greedy descent through sparse
//! upper layers, beam (`ef`) search in the base layer.

use crate::flat::FlatIndex;
use crate::{check_query, l2_sq, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result, Rng, Xoshiro256};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// HNSW build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max neighbours per node in upper layers (base layer gets 2·M).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Default beam width during search.
    pub ef_search: usize,
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        HnswConfig {
            m: 16,
            ef_construction: 100,
            ef_search: 32,
            seed: 77,
        }
    }
}

/// One node's adjacency per layer.
struct Node {
    /// neighbors[l] = neighbor ids at layer l (l <= level)
    neighbors: Vec<Vec<u32>>,
}

/// The HNSW graph index.
pub struct HnswIndex {
    dim: usize,
    config: HnswConfig,
    data: Vec<Vec<f32>>,
    nodes: Vec<Node>,
    entry: usize,
    max_level: usize,
}

/// Min-heap by distance (via reversed Ord on a max-heap).
struct Candidate(f32, u32);
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap pops the smallest distance first
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

/// Max-heap by distance for bounded result sets.
struct Farthest(f32, u32);
impl PartialEq for Farthest {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for Farthest {}
impl PartialOrd for Farthest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Farthest {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl HnswIndex {
    pub fn build(data: Vec<Vec<f32>>, config: HnswConfig) -> Result<Self> {
        let dim = data.first().map_or(0, Vec::len);
        if dim == 0 {
            return Err(FsError::Index("HNSW needs non-empty vectors".into()));
        }
        if data.iter().any(|v| v.len() != dim) {
            return Err(FsError::Index("ragged vectors".into()));
        }
        if config.m < 2 || config.ef_construction == 0 || config.ef_search == 0 {
            return Err(FsError::Index(
                "HNSW params must be positive (m >= 2)".into(),
            ));
        }
        let mut index = HnswIndex {
            dim,
            config,
            data: Vec::with_capacity(data.len()),
            nodes: Vec::with_capacity(data.len()),
            entry: 0,
            max_level: 0,
        };
        let mut rng = Xoshiro256::seeded(config.seed);
        let ml = 1.0 / (config.m as f64).ln();
        for v in data {
            let level = (-(rng.next_f64().max(1e-12)).ln() * ml) as usize;
            index.insert(v, level);
        }
        Ok(index)
    }

    fn insert(&mut self, vector: Vec<f32>, level: usize) {
        let id = self.data.len() as u32;
        self.data.push(vector);
        self.nodes.push(Node {
            neighbors: vec![Vec::new(); level + 1],
        });
        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }
        let query = self.data[id as usize].clone();

        // phase 1: greedy descent through layers above `level`
        let mut ep = self.entry as u32;
        for l in ((level + 1)..=self.max_level).rev() {
            ep = self.greedy_closest(&query, ep, l);
        }

        // phase 2: beam search + connect at each layer from min(level, max) down
        for l in (0..=level.min(self.max_level)).rev() {
            let found = self.search_layer(&query, ep, l, self.config.ef_construction);
            let max_links = if l == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let candidates: Vec<(u32, f32)> =
                found.iter().map(|&(node, d)| (node as u32, d)).collect();
            let selected = self.select_neighbors(&candidates, max_links);
            for &n in &selected {
                self.nodes[id as usize].neighbors[l].push(n);
                self.nodes[n as usize].neighbors[l].push(id);
                // prune the neighbor if it now has too many links
                if self.nodes[n as usize].neighbors[l].len() > max_links {
                    self.prune(n, l, max_links);
                }
            }
            if let Some(&(best, _)) = found.first() {
                ep = best as u32;
            }
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = id as usize;
        }
    }

    /// Heuristic neighbor selection (Malkov & Yashunin, Alg. 4): walk the
    /// candidates in distance order and keep one only if it is closer to
    /// the base point than to every already-kept neighbor. This preserves
    /// links in *diverse directions* (including long-range inter-cluster
    /// edges) instead of letting one tight cluster monopolize the budget —
    /// without it, clustered data fragments the graph into islands and
    /// recall plateaus. Pruned candidates backfill any remaining slots.
    fn select_neighbors(&self, candidates: &[(u32, f32)], max_links: usize) -> Vec<u32> {
        let mut selected: Vec<(u32, f32)> = Vec::with_capacity(max_links);
        let mut pruned: Vec<u32> = Vec::new();
        for &(cand, d_base) in candidates {
            if selected.len() >= max_links {
                break;
            }
            let diverse = selected
                .iter()
                .all(|&(s, _)| l2_sq(&self.data[cand as usize], &self.data[s as usize]) > d_base);
            if diverse {
                selected.push((cand, d_base));
            } else {
                pruned.push(cand);
            }
        }
        let mut out: Vec<u32> = selected.into_iter().map(|(n, _)| n).collect();
        for n in pruned {
            if out.len() >= max_links {
                break;
            }
            out.push(n);
        }
        out
    }

    /// Re-select the neighbors of an overfull `node` at layer `l` with the
    /// same diversity heuristic.
    fn prune(&mut self, node: u32, l: usize, max_links: usize) {
        let v = self.data[node as usize].clone();
        let mut nbrs = std::mem::take(&mut self.nodes[node as usize].neighbors[l]);
        nbrs.sort_unstable();
        nbrs.dedup();
        let mut cands: Vec<(u32, f32)> = nbrs
            .into_iter()
            .map(|n| (n, l2_sq(&self.data[n as usize], &v)))
            .collect();
        cands.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.nodes[node as usize].neighbors[l] = self.select_neighbors(&cands, max_links);
    }

    /// Greedy walk to the locally closest node at layer `l`.
    fn greedy_closest(&self, query: &[f32], start: u32, l: usize) -> u32 {
        let mut current = start;
        let mut current_d = l2_sq(&self.data[current as usize], query);
        loop {
            let mut improved = false;
            for &n in &self.nodes[current as usize].neighbors[l] {
                let d = l2_sq(&self.data[n as usize], query);
                if d < current_d {
                    current = n;
                    current_d = d;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Beam search at layer `l`; returns up to `ef` hits ascending.
    fn search_layer(&self, query: &[f32], entry: u32, l: usize, ef: usize) -> Vec<Hit> {
        let mut visited = vec![false; self.data.len()];
        let mut candidates = BinaryHeap::new(); // min by distance
        let mut results: BinaryHeap<Farthest> = BinaryHeap::new(); // max by distance
        let d0 = l2_sq(&self.data[entry as usize], query);
        visited[entry as usize] = true;
        candidates.push(Candidate(d0, entry));
        results.push(Farthest(d0, entry));

        while let Some(Candidate(d, node)) = candidates.pop() {
            let worst = results.peek().map_or(f32::INFINITY, |f| f.0);
            if d > worst && results.len() >= ef {
                break;
            }
            for &n in &self.nodes[node as usize].neighbors[l] {
                if visited[n as usize] {
                    continue;
                }
                visited[n as usize] = true;
                let dn = l2_sq(&self.data[n as usize], query);
                let worst = results.peek().map_or(f32::INFINITY, |f| f.0);
                if results.len() < ef || dn < worst {
                    candidates.push(Candidate(dn, n));
                    results.push(Farthest(dn, n));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut hits: Vec<Hit> = results
            .into_iter()
            .map(|Farthest(d, n)| (n as usize, d))
            .collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    }

    fn search_beam(&self, query: &[f32], k: usize, ef: usize) -> Result<Vec<Hit>> {
        check_query(self.dim, self.len(), query, k)?;
        if ef == 0 {
            return Err(FsError::Index("ef must be positive".into()));
        }
        let mut ep = self.entry as u32;
        for l in (1..=self.max_level).rev() {
            ep = self.greedy_closest(query, ep, l);
        }
        let mut hits = self.search_layer(query, ep, 0, ef.max(k));
        hits.truncate(k);
        Ok(hits)
    }

    pub fn max_level(&self) -> usize {
        self.max_level
    }
}

impl VectorIndex for HnswIndex {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn vector(&self, id: usize) -> Option<&[f32]> {
        self.data.get(id).map(Vec::as_slice)
    }

    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Hit>> {
        if params.exhaustive {
            check_query(self.dim, self.len(), query, k)?;
            return Ok(FlatIndex::top_k(&self.data, None, query, k));
        }
        self.search_beam(query, k, params.ef.unwrap_or(self.config.ef_search))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256::seeded(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
            .collect()
    }

    #[test]
    fn build_validation() {
        assert!(HnswIndex::build(vec![], HnswConfig::default()).is_err());
        let d = random_data(5, 4, 1);
        assert!(HnswIndex::build(
            d.clone(),
            HnswConfig {
                m: 1,
                ..HnswConfig::default()
            }
        )
        .is_err());
        assert!(HnswIndex::build(
            d,
            HnswConfig {
                ef_search: 0,
                ..HnswConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn exact_on_tiny_data() {
        let data: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let idx = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let hits = idx.search(&[7.2], 3, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].0, 7);
        assert_eq!(hits[1].0, 8);
        assert_eq!(hits[2].0, 6);
    }

    #[test]
    fn high_recall_on_random_data() {
        let data = random_data(2_000, 16, 2);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let hnsw = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let mut rng = Xoshiro256::seeded(3);
        let mut hit = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            let q: Vec<f32> = (0..16).map(|_| rng.normal() as f32).collect();
            let truth: Vec<usize> = flat
                .search(&q, 10, &SearchParams::default())
                .unwrap()
                .iter()
                .map(|h| h.0)
                .collect();
            let got: Vec<usize> = hnsw
                .search(&q, 10, &SearchParams::with_ef(64))
                .unwrap()
                .iter()
                .map(|h| h.0)
                .collect();
            hit += truth.iter().filter(|t| got.contains(t)).count();
            total += truth.len();
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.9, "HNSW recall@10 {recall}");
    }

    #[test]
    fn recall_improves_with_ef() {
        let data = random_data(1_500, 12, 4);
        let flat = FlatIndex::build(data.clone()).unwrap();
        let hnsw = HnswIndex::build(
            data,
            HnswConfig {
                m: 8,
                ..HnswConfig::default()
            },
        )
        .unwrap();
        let mut rng = Xoshiro256::seeded(5);
        let queries: Vec<Vec<f32>> = (0..25)
            .map(|_| (0..12).map(|_| rng.normal() as f32).collect())
            .collect();
        let recall = |ef: usize| {
            let mut hit = 0;
            let mut total = 0;
            for q in &queries {
                let truth: Vec<usize> = flat
                    .search(q, 10, &SearchParams::default())
                    .unwrap()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                let got: Vec<usize> = hnsw
                    .search(q, 10, &SearchParams::with_ef(ef))
                    .unwrap()
                    .iter()
                    .map(|h| h.0)
                    .collect();
                hit += truth.iter().filter(|t| got.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total as f64
        };
        let lo = recall(10);
        let hi = recall(200);
        assert!(hi > lo, "recall must improve with ef: {lo} vs {hi}");
        assert!(hi > 0.95, "high-ef recall {hi}");
    }

    #[test]
    fn deterministic_build() {
        let data = random_data(300, 8, 6);
        let a = HnswIndex::build(data.clone(), HnswConfig::default()).unwrap();
        let b = HnswIndex::build(data, HnswConfig::default()).unwrap();
        let q = vec![0.5f32; 8];
        assert_eq!(
            a.search(&q, 5, &SearchParams::default()).unwrap(),
            b.search(&q, 5, &SearchParams::default()).unwrap()
        );
    }

    #[test]
    fn query_validation() {
        let idx = HnswIndex::build(random_data(50, 4, 7), HnswConfig::default()).unwrap();
        assert!(idx.search(&[1.0], 3, &SearchParams::default()).is_err());
        assert!(idx.search(&[0.0; 4], 0, &SearchParams::default()).is_err());
        assert!(idx.search(&[0.0; 4], 3, &SearchParams::with_ef(0)).is_err());
    }

    #[test]
    fn single_point_index() {
        let idx = HnswIndex::build(vec![vec![1.0, 2.0]], HnswConfig::default()).unwrap();
        let hits = idx
            .search(&[1.0, 2.0], 5, &SearchParams::default())
            .unwrap();
        assert_eq!(hits, vec![(0, 0.0)]);
    }
}
