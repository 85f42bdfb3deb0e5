//! # fstore-index
//!
//! Vector similarity indexes — the serving substrate for embeddings at
//! scale (paper §4: "users need tools for searching and querying these
//! embeddings … at industrial scale"). Three index families cover the
//! recall/latency/build-cost trade-off surface experiment **E9** sweeps:
//!
//! * [`FlatIndex`] — exact brute-force scan (recall 1.0, O(n) per query);
//! * [`IvfIndex`] — k-means inverted file with `nprobe` search;
//! * [`HnswIndex`] — hierarchical navigable small world graph.
//!
//! All indexes speak squared-L2 over `f32` vectors; cosine search is L2
//! over unit-normalized vectors (see [`normalize_all`]).

pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod recall;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfConfig, IvfIndex};
pub use kmeans::kmeans;
pub use recall::recall_at_k;

use fstore_common::{FsError, Result};

/// A search hit: dataset row id and squared-L2 distance.
pub type Hit = (usize, f32);

/// Per-query search knobs accepted by every index family.
///
/// `None` falls back to the index's configured default; knobs an index
/// family has no use for are ignored (`ef` by IVF, `nprobe` by HNSW, both
/// by Flat). This is what lets one generic call site — the recall harness,
/// the serving catalog, the experiment sweeps — drive any family without
/// matching on concrete types. `exhaustive` forces an exact scan on any
/// index: the recall-1.0 escape hatch when correctness beats latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SearchParams {
    /// HNSW beam width; `None` uses the index's `ef_search`.
    pub ef: Option<usize>,
    /// IVF cells scanned; `None` uses the index's `nprobe`.
    pub nprobe: Option<usize>,
    /// Bypass the approximate structure and scan everything.
    pub exhaustive: bool,
}

impl SearchParams {
    /// Params that pin the HNSW beam width.
    pub fn with_ef(ef: usize) -> Self {
        SearchParams {
            ef: Some(ef),
            ..SearchParams::default()
        }
    }

    /// Params that pin the IVF probe count.
    pub fn with_nprobe(nprobe: usize) -> Self {
        SearchParams {
            nprobe: Some(nprobe),
            ..SearchParams::default()
        }
    }

    /// Params that force an exact scan on any index family.
    pub fn exact() -> Self {
        SearchParams {
            exhaustive: true,
            ..SearchParams::default()
        }
    }
}

/// Common interface over all index families.
pub trait VectorIndex {
    fn len(&self) -> usize;
    fn dim(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The stored vector for a dataset row id, if `id` is in range.
    fn vector(&self, id: usize) -> Option<&[f32]>;
    /// `k` nearest neighbours of `query` under `params`, ascending by
    /// distance. The single search entry point: every family interprets
    /// the knobs it understands and ignores the rest.
    fn search(&self, query: &[f32], k: usize, params: &SearchParams) -> Result<Vec<Hit>>;
}

/// Squared L2 distance, the one kernel every index family shares.
///
/// Sums in `LANES` independent accumulators over whole chunks, then adds
/// the remainder one term at a time. The accumulators do not depend on
/// each other, so the loop vectorizes at the target's baseline; the cost
/// is a summation order that may differ from a sequential sum in the
/// last ulp.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    const LANES: usize = 8;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    let mut lanes = [0.0f32; LANES];
    for (x, y) in a_chunks.zip(b_chunks) {
        for ((acc, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
            let d = x - y;
            *acc += d * d;
        }
    }
    let mut acc: f32 = lanes.iter().sum();
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Unit-normalize every vector (cosine search = L2 on the result).
pub fn normalize_all(data: &mut [Vec<f32>]) {
    for v in data {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 0.0 {
            for x in v.iter_mut() {
                *x /= n;
            }
        }
    }
}

pub(crate) fn check_query(dim: usize, len: usize, query: &[f32], k: usize) -> Result<()> {
    if query.len() != dim {
        return Err(FsError::Index(format!(
            "query dim {} != index dim {dim}",
            query.len()
        )));
    }
    if k == 0 {
        return Err(FsError::Index("k must be positive".into()));
    }
    if len == 0 {
        return Err(FsError::Index("index is empty".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_known() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
        // One full chunk of 8 plus a one-element tail.
        let a = [1.0; 9];
        let mut b = [0.0; 9];
        b[8] = 4.0;
        assert_eq!(l2_sq(&a, &b), 8.0 + 9.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// The lane sum agrees with a sequential `f64` sum for every
            /// length 0..=70, which covers every remainder of 8.
            #[test]
            fn l2_sq_matches_f64_reference(
                a in collection::vec(-100f32..100.0, 70..71),
                b in collection::vec(-100f32..100.0, 70..71),
            ) {
                for n in 0..=70 {
                    let reference: f64 = a[..n]
                        .iter()
                        .zip(&b[..n])
                        .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                        .sum();
                    let got = l2_sq(&a[..n], &b[..n]) as f64;
                    prop_assert!(
                        (got - reference).abs() <= 1e-5 * reference,
                        "n={n}: {got} vs {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn normalize_all_units_and_zeros() {
        let mut data = vec![vec![3.0, 4.0], vec![0.0, 0.0]];
        normalize_all(&mut data);
        assert!((l2_sq(&data[0], &[0.6, 0.8])).abs() < 1e-12);
        assert_eq!(data[1], vec![0.0, 0.0]);
    }
}
