//! Deterministic inputs: every value the benchmark loads or expects is a
//! pure function of the workload seed, so the oracle recomputes what it
//! needs instead of holding a second copy of the data.

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from three coordinates.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = mix(mix(mix(seed) ^ a) ^ b);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf rank → item index: a seed-dependent bijection, so the hot items
/// differ per seed (and land on different shards) instead of always being
/// the lowest ids.
pub fn scatter_rank(rank: usize, n: usize, seed: u64) -> usize {
    const STRIDE: usize = 7_919; // prime, coprime with every n used here
    (rank * STRIDE + (mix(seed) as usize % n)) % n
}

/// The index encoded in a key such as `u00042`.
pub fn key_index(key: &str) -> Option<usize> {
    key.get(1..)?.parse().ok()
}
