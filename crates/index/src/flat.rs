//! Exact brute-force index: the recall-1.0 baseline every ANN index is
//! measured against.

use crate::{check_query, l2_sq, Hit, SearchParams, VectorIndex};
use fstore_common::{FsError, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Brute-force scan over the full dataset.
pub struct FlatIndex {
    dim: usize,
    data: Vec<Vec<f32>>,
}

/// Max-heap entry so the heap root is the *worst* of the current top-k.
struct HeapHit(f32, usize);

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for HeapHit {}
impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl FlatIndex {
    pub fn build(data: Vec<Vec<f32>>) -> Result<Self> {
        let dim = data.first().map_or(0, Vec::len);
        if dim == 0 {
            return Err(FsError::Index("flat index needs non-empty vectors".into()));
        }
        if data.iter().any(|v| v.len() != dim) {
            return Err(FsError::Index("ragged vectors".into()));
        }
        Ok(FlatIndex { dim, data })
    }

    /// Top-k via a bounded max-heap (O(n log k)).
    pub(crate) fn top_k(
        data: &[Vec<f32>],
        ids: Option<&[usize]>,
        query: &[f32],
        k: usize,
    ) -> Vec<Hit> {
        let mut heap: BinaryHeap<HeapHit> = BinaryHeap::with_capacity(k + 1);
        let push = |heap: &mut BinaryHeap<HeapHit>, id: usize, v: &[f32]| {
            let d = l2_sq(v, query);
            if heap.len() < k {
                heap.push(HeapHit(d, id));
            } else if d < heap.peek().unwrap().0 {
                heap.pop();
                heap.push(HeapHit(d, id));
            }
        };
        match ids {
            None => {
                for (id, v) in data.iter().enumerate() {
                    push(&mut heap, id, v);
                }
            }
            Some(ids) => {
                for &id in ids {
                    push(&mut heap, id, &data[id]);
                }
            }
        }
        let mut hits: Vec<Hit> = heap.into_iter().map(|HeapHit(d, id)| (id, d)).collect();
        hits.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        hits
    }
}

impl VectorIndex for FlatIndex {
    fn len(&self) -> usize {
        self.data.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn vector(&self, id: usize) -> Option<&[f32]> {
        self.data.get(id).map(Vec::as_slice)
    }

    // Flat is already exact, so every param set means the same scan.
    fn search(&self, query: &[f32], k: usize, _params: &SearchParams) -> Result<Vec<Hit>> {
        check_query(self.dim, self.len(), query, k)?;
        Ok(Self::top_k(&self.data, None, query, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Vec<f32>> {
        // points at x = 0, 1, 2, ..., 9 on a line
        (0..10).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn build_validation() {
        assert!(FlatIndex::build(vec![]).is_err());
        assert!(FlatIndex::build(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn exact_nearest() {
        let idx = FlatIndex::build(grid()).unwrap();
        let hits = idx
            .search(&[3.2, 0.0], 3, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![3, 4, 2]);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let idx = FlatIndex::build(grid()).unwrap();
        let hits = idx
            .search(&[0.0, 0.0], 100, &SearchParams::default())
            .unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn query_validation() {
        let idx = FlatIndex::build(grid()).unwrap();
        assert!(idx.search(&[1.0], 3, &SearchParams::default()).is_err());
        assert!(idx
            .search(&[1.0, 2.0], 0, &SearchParams::default())
            .is_err());
    }

    #[test]
    fn ties_break_by_id() {
        let data = vec![vec![1.0], vec![1.0], vec![2.0]];
        let idx = FlatIndex::build(data).unwrap();
        let hits = idx.search(&[1.0], 2, &SearchParams::default()).unwrap();
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
    }
}
