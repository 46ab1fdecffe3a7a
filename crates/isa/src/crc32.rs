//! IEEE CRC-32 (reflected polynomial `0xEDB88320`, the zlib/PNG
//! checksum): the one implementation behind every checksum the trace
//! files and the checkpoint stores carry.

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the state with eight
/// independent lookups instead of eight dependent ones.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ c as u64;
        c = 0;
        for (k, table) in TABLES.iter().rev().enumerate() {
            c ^= table[(word >> (8 * k)) as usize & 0xFF];
        }
    }
    for &byte in chunks.remainder() {
        c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition, as `isa::trace` carried it.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn matches_the_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn matches_the_bytewise_definition_at_every_length_and_alignment() {
        // SplitMix64-random bytes; every length 0..=4096 is taken at a
        // start offset cycling through all eight alignments, and a
        // spread of lengths at each alignment explicitly.
        let mut state = 0x5EED_u64;
        let buf: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for len in 0..=4096 {
            let at = len % 8;
            assert_eq!(
                crc32(&buf[at..at + len]),
                bytewise(&buf[at..at + len]),
                "len {len}"
            );
        }
        for at in 0..8 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4095, 4096] {
                let slice = &buf[at..at + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {at} len {len}");
            }
        }
    }
}
