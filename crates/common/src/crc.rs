//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every durable record the workspace writes to disk (WAL frames,
//! segment files, cached snapshots).
//!
//! Slicing-by-8: eight tables built at compile time fold eight input bytes
//! per step, where the classic one-table loop folds one. The checksums
//! are the same bytes either way. No external crate, per the
//! vendored-deps policy. The incremental form ([`crc32_update`]) lets
//! callers checksum a header and a payload without concatenating them.

/// `TABLES[0]` is the classic 256-entry table for the reflected IEEE
/// polynomial: the CRC of one byte. `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so one step can fold a byte `k` positions
/// ahead of the end of an 8-byte chunk.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Feed `bytes` into a running checksum previously returned by
/// [`crc32`] or `crc32_update`. Start a chain with `crc32_update(0, ..)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// The CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"header-bytes|payload-bytes-0123456789";
        for split in 0..data.len() {
            let inc = crc32_update(crc32_update(0, &data[..split]), &data[split..]);
            assert_eq!(inc, crc32(data), "split at {split}");
        }
    }

    /// The classic one-byte-per-step loop over `TABLES[0]`: the reference
    /// the sliced loop must match.
    fn crc32_bytewise(crc: u32, bytes: &[u8]) -> u32 {
        let mut crc = !crc;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Every length 0..=70 (every remainder of 8) and every split
            /// point of an incremental chain agree with the one-byte loop.
            #[test]
            fn sliced_matches_bytewise(
                data in proptest::collection::vec(any::<u8>(), 70..71),
                seed in any::<u32>(),
            ) {
                for n in 0..=70 {
                    let bytes = &data[..n];
                    prop_assert_eq!(crc32_update(seed, bytes), crc32_bytewise(seed, bytes), "n={}", n);
                    for split in 0..=n {
                        let chained = crc32_update(crc32_update(0, &bytes[..split]), &bytes[split..]);
                        prop_assert_eq!(chained, crc32_bytewise(0, bytes), "n={} split={}", n, split);
                    }
                }
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"durability matters";
        let good = crc32(data);
        let mut corrupted = data.to_vec();
        for i in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "flip byte {i} bit {bit}");
                corrupted[i] ^= 1 << bit;
            }
        }
    }
}
