//! CRC-32 (IEEE 802.3 polynomial), implemented in-tree so the storage
//! layer stays dependency-free. Every WAL record and every page carries a
//! checksum; a mismatch marks the torn tail of the log (discarded by
//! recovery) or a corrupt page (reported as [`Error::Storage`]).
//!
//! The checksum is computed by slicing-by-8: eight lookup tables, where
//! table `k` holds the CRC of a byte followed by `k` zero bytes, let one
//! step fold eight input bytes with eight independent lookups instead of
//! eight dependent ones. The values are those of the one-table bytewise
//! algorithm, bit for bit (the tests hold it to a bytewise reference).
//!
//! [`Error::Storage`]: quark_relational::Error::Storage

/// Reflected CRC-32 with the IEEE polynomial `0xEDB88320` (the one used
/// by zlib, gzip and PNG).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC register
/// after byte `b` and then `k` zero bytes. Built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A bytewise CRC that shifts each byte in a bit at a time, straight
    /// from the polynomial: what [`crc32`] must equal on every input.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// A fixed xorshift stream, so failures repeat.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Every length 0–64 from every start offset 0–7: each split between
    /// eight-byte words and the bytewise tail, and every alignment.
    #[test]
    fn slicing_by_8_equals_the_bytewise_reference_at_every_length_and_offset() {
        let data = bytes(0x5eed, 64 + 8);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), reference(slice), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_reference_on_random_inputs() {
        for seed in 1..=64u64 {
            let len = (bytes(seed, 2)[0] as usize * 16 + seed as usize) % 4097;
            let data = bytes(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), len);
            assert_eq!(crc32(&data), reference(&data), "seed {seed}, len {len}");
        }
        let whole = bytes(7, 4096);
        assert_eq!(crc32(&whole), reference(&whole));
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello world");
        let mut flipped = b"hello world".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }
}
