//! CRC-32 (IEEE 802.3 polynomial), the checksum guarding every log
//! record and checkpoint file. Slicing-by-8: eight 256-entry tables,
//! computed once at first use, fold eight bytes per step (table `k` maps
//! a byte to its CRC contribution from `k` bytes further back), so a
//! whole checkpoint verifies at memory speed rather than one table
//! lookup per byte. The digest is the classic byte-at-a-time one.

use std::sync::OnceLock;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256 {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            t[0][i] = c;
        }
        for i in 0..256 {
            for k in 1..8 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `chunks` concatenated (IEEE polynomial, the zlib/`cksum -o 3`
/// variant). Taking chunks avoids materializing `header ++ payload` just
/// to checksum it.
pub fn crc32(chunks: &[&[u8]]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    for chunk in chunks {
        let mut words = chunk.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for the IEEE polynomial.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        // Chunking does not change the digest.
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn detects_any_single_byte_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32(&[data]);
        for i in 0..data.len() {
            let mut copy = data.to_vec();
            copy[i] ^= 0x40;
            assert_ne!(crc32(&[&copy]), base, "flip at {i} undetected");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::crc32;
    use proptest::prelude::*;

    /// The byte-at-a-time definition, polynomial division one bit at a
    /// time, with no table shared with the code under test.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest! {
        /// Slicing-by-8 equals the reference on any length from 0 to 300,
        /// from any start inside an 8-byte word, under any chunking.
        #[test]
        fn slicing_by_8_equals_the_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..308),
            skip in 0usize..8,
            cuts in proptest::collection::vec(0usize..301, 0..6),
        ) {
            let data = &bytes[skip.min(bytes.len())..];
            let data = &data[..data.len().min(300)];
            let expected = reference(data);
            prop_assert_eq!(crc32(&[data]), expected);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::with_capacity(cuts.len() + 1);
            let mut from = 0;
            for cut in cuts {
                chunks.push(&data[from..cut]);
                from = cut;
            }
            chunks.push(&data[from..]);
            prop_assert_eq!(crc32(&chunks), expected);
        }
    }
}
