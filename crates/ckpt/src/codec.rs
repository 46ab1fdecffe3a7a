//! Hand-rolled byte-level codecs for the checkpoint store: LEB128
//! varints, zigzag mapping and run-length encoding of zero runs (the IEEE
//! CRC-32 is `smarts-isa`'s) — everything the on-disk format needs, with
//! no dependencies (the workspace builds offline).

/// Appends `value` as an unsigned LEB128 varint (7 payload bits per
/// byte, high bit = continuation).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `input` at `*pos`, advancing `*pos`.
/// Returns `None` on truncation or a value that overflows 64 bits.
pub fn read_varint(input: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = input.get(*pos)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte & 0x7E != 0) {
            return None;
        }
        value |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Zigzag-maps a signed delta so small-magnitude values of either sign
/// get small codes: 0 → 0, -1 → 1, 1 → 2, -2 → 3, …
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Streams a run of word deltas as varint tokens with zero runs
/// collapsed: token `0` marks a zero run and is followed by the varint
/// run length (≥ 1); any token `t ≥ 1` is one word with delta
/// `unzigzag(t)`. The scheme is unambiguous because a nonzero delta
/// zigzag-maps to a value ≥ 1.
pub struct RleEncoder<'a> {
    out: &'a mut Vec<u8>,
    zero_run: u64,
}

impl<'a> RleEncoder<'a> {
    /// Starts an encoder appending tokens to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        RleEncoder { out, zero_run: 0 }
    }

    /// Encodes one word delta (a wrapping difference reinterpreted as
    /// signed for the zigzag mapping).
    pub fn push(&mut self, delta: u64) {
        if delta == 0 {
            self.zero_run += 1;
            return;
        }
        self.flush_run();
        write_varint(self.out, zigzag(delta as i64));
    }

    /// Encodes `count` consecutive zero deltas — what `count` calls of
    /// `push(0)` would, in one step.
    pub fn push_zeros(&mut self, count: u64) {
        self.zero_run += count;
    }

    fn flush_run(&mut self) {
        if self.zero_run > 0 {
            write_varint(self.out, 0);
            write_varint(self.out, self.zero_run);
            self.zero_run = 0;
        }
    }

    /// Flushes any pending zero run. Must be called once per delta
    /// stream (streams are length-delimited by the decoder's word
    /// count, so no terminator is written).
    pub fn finish(mut self) {
        self.flush_run();
    }
}

/// Applies exactly `words.len()` word deltas from `input` at `*pos`
/// onto `words` in place. Zero runs skip forward without touching the
/// reference words (a zero delta leaves the word unchanged). Returns
/// `None` on truncation, a zero-length run, or a run overshooting
/// `words.len()` — every way a corrupted stream can disagree with the
/// fixed word count the caller derives from the machine geometry; on
/// `None`, `words` may be partially updated and must be discarded.
pub fn apply_deltas(input: &[u8], pos: &mut usize, words: &mut [u64]) -> Option<()> {
    let mut filled = 0usize;
    while filled < words.len() {
        let token = read_varint(input, pos)?;
        if token == 0 {
            let run = read_varint(input, pos)?;
            if run == 0 || run > (words.len() - filled) as u64 {
                return None;
            }
            filled += run as usize;
        } else {
            words[filled] = words[filled].wrapping_add(unzigzag(token) as u64);
            filled += 1;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(value));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80], &mut pos),
            None,
            "dangling continuation"
        );
        // 11 continuation bytes overflow 64 bits.
        let overlong = [0xFFu8; 11];
        pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for value in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1234567, -7654321] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    /// Decodes `count` deltas onto zeros, i.e. the deltas themselves.
    fn decode(buf: &[u8], pos: &mut usize, count: usize) -> Option<Vec<u64>> {
        let mut words = vec![0u64; count];
        apply_deltas(buf, pos, &mut words)?;
        Some(words)
    }

    #[test]
    fn rle_round_trips_mixed_stream() {
        let deltas: Vec<u64> = vec![0, 0, 0, 5, 0, u64::MAX, 0, 0, 1, 0];
        let mut buf = Vec::new();
        let mut enc = RleEncoder::new(&mut buf);
        for &d in &deltas {
            enc.push(d);
        }
        enc.finish();
        let mut pos = 0;
        assert_eq!(decode(&buf, &mut pos, deltas.len()).unwrap(), deltas);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn rle_collapses_long_zero_runs() {
        let mut buf = Vec::new();
        let mut enc = RleEncoder::new(&mut buf);
        for _ in 0..100_000 {
            enc.push(0);
        }
        enc.finish();
        assert!(
            buf.len() < 8,
            "zero run should be a few bytes, got {}",
            buf.len()
        );
        let mut pos = 0;
        let decoded = decode(&buf, &mut pos, 100_000).unwrap();
        assert!(decoded.iter().all(|&d| d == 0));
    }

    #[test]
    fn push_zeros_equals_repeated_zero_pushes() {
        let mut one_by_one = Vec::new();
        let mut enc = RleEncoder::new(&mut one_by_one);
        for d in [0, 0, 7, 0, 0, 0, 0, 0, 9, 0] {
            enc.push(d);
        }
        enc.finish();
        let mut bulk = Vec::new();
        let mut enc = RleEncoder::new(&mut bulk);
        enc.push_zeros(2);
        enc.push(7);
        enc.push_zeros(3);
        enc.push_zeros(2);
        enc.push(9);
        enc.push_zeros(1);
        enc.finish();
        assert_eq!(bulk, one_by_one);
    }

    #[test]
    fn apply_deltas_adds_onto_the_reference() {
        let reference: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let deltas: Vec<u64> = (0..64u64)
            .map(|i| if i % 5 == 0 { i.wrapping_mul(31) } else { 0 })
            .collect();
        let mut buf = Vec::new();
        let mut enc = RleEncoder::new(&mut buf);
        for &d in &deltas {
            enc.push(d);
        }
        enc.finish();

        let expected: Vec<u64> = deltas
            .iter()
            .zip(&reference)
            .map(|(&d, &r)| d.wrapping_add(r))
            .collect();
        let mut in_place = reference.clone();
        let mut pos = 0;
        apply_deltas(&buf, &mut pos, &mut in_place).unwrap();
        assert_eq!(in_place, expected);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn apply_deltas_rejects_overshooting_runs_and_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 0);
        write_varint(&mut buf, 10); // run of 10 into a 5-word stream
        let mut words = [0u64; 5];
        let mut pos = 0;
        assert_eq!(apply_deltas(&buf, &mut pos, &mut words), None);
        let mut pos2 = 0;
        assert_eq!(apply_deltas(&[0x80], &mut pos2, &mut words), None);
    }
}
