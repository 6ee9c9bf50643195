//! Block-coded sorted integer lists: the root-column layout of the
//! persisted word streams ([`crate::compress`]).
//!
//! A [`BlockList`] is an **adaptive** encoding: at encode time the
//! builder picks, per list, whichever of three codecs serializes smallest
//! (see `docs/FORMATS.md` §"Posting list codecs"):
//!
//! * **Delta + bitpack** ([`DeltaList`], tag 0) — the workhorse. Blocks
//!   of up to [`BLOCK`] entries, each with a skip entry (first, max,
//!   payload offset) and deltas packed at the block's minimal fixed bit
//!   width.
//! * **Run-length** ([`RleList`], tag 1) — runs of *consecutive* values
//!   `first, first+1, …, first+len−1` stored as (gap, len) varint pairs.
//!   Wins on dense root ranges with long consecutive stretches.
//! * **Dense bitmap** ([`BitmapList`], tag 2) — a base value plus one bit
//!   per candidate value in `u64` words. Only eligible for strictly
//!   increasing lists (a bitmap cannot represent duplicates); wins on
//!   high-density ranges with gaps that defeat RLE.
//!
//! There is one encoder ([`BlockList::encode`] + [`BlockList::write`]) and
//! one decoder ([`BlockList::read_into`], which streams a serialized list
//! straight into the caller's column); the serialized form tags each list
//! with one leading byte, so the decoder's caller never sees which codec a
//! list chose.

use crate::varint;

/// Entries per block: 128 keeps the skip table small (3 words per 128
/// postings).
const BLOCK: usize = 128;

/// Serialized codec tag of a delta + bitpacked list.
const TAG_DELTA: u8 = 0;
/// Serialized codec tag of a run-length list.
const TAG_RLE: u8 = 1;
/// Serialized codec tag of a dense bitmap list.
const TAG_BITMAP: u8 = 2;

/// Skip entry of one block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct BlockSkip {
    /// First value of the block (stored raw, not packed).
    first: u32,
    /// Largest (= last) value of the block — the max-root skip entry.
    max: u32,
    /// Byte offset of the block's packed payload in `packed`.
    offset: u32,
}

/// A sorted (non-decreasing) `u32` sequence in delta + bitpacked blocks
/// with a per-block skip table — codec tag 0.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct DeltaList {
    /// Total number of entries.
    len: u32,
    /// One skip entry per block.
    skips: Vec<BlockSkip>,
    /// Per block: one width byte, then `ceil((n−1)·width / 8)` bytes of
    /// LSB-first packed deltas (`n` = entries in the block; the first
    /// entry lives in the skip table).
    packed: Vec<u8>,
}

/// Minimal bit width holding `v` (0 for `v == 0`).
#[inline]
fn bits_of(v: u32) -> u32 {
    32 - v.leading_zeros()
}

impl DeltaList {
    /// Encode a non-decreasing sequence.
    fn encode(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        let mut skips = Vec::with_capacity(values.len().div_ceil(BLOCK));
        let mut packed = Vec::with_capacity(values.len() / 2);
        for block in values.chunks(BLOCK) {
            let first = block[0];
            let max = *block.last().expect("chunks are non-empty");
            skips.push(BlockSkip {
                first,
                max,
                offset: packed.len() as u32,
            });
            let width = block
                .windows(2)
                .map(|w| bits_of(w[1] - w[0]))
                .max()
                .unwrap_or(0);
            packed.push(width as u8);
            if width > 0 {
                let mut acc: u64 = 0;
                let mut filled: u32 = 0;
                for w in block.windows(2) {
                    acc |= u64::from(w[1] - w[0]) << filled;
                    filled += width;
                    while filled >= 8 {
                        packed.push((acc & 0xff) as u8);
                        acc >>= 8;
                        filled -= 8;
                    }
                }
                if filled > 0 {
                    packed.push((acc & 0xff) as u8);
                }
            }
        }
        DeltaList {
            len: values.len() as u32,
            skips,
            packed,
        }
    }

    /// Exact serialized size in bytes (excluding the codec tag).
    fn encoded_len(&self) -> usize {
        let mut n = varint::len_u32(self.len) + varint::len_u32(self.packed.len() as u32);
        let mut prev = 0u32;
        for (i, s) in self.skips.iter().enumerate() {
            n += varint::len_u32(s.first - prev) + varint::len_u32(s.max - s.first);
            prev = s.max;
            if i > 0 {
                n += varint::len_u32(s.offset);
            }
        }
        n + self.packed.len()
    }

    /// Serialize into `out` (self-delimiting).
    fn write(&self, out: &mut Vec<u8>) {
        varint::put_u32(out, self.len);
        varint::put_u32(out, self.packed.len() as u32);
        let mut prev = 0u32;
        for (i, s) in self.skips.iter().enumerate() {
            // Skip entries ascend: first ≤ max ≤ next first.
            varint::put_u32(out, s.first - prev);
            varint::put_u32(out, s.max - s.first);
            prev = s.max;
            if i > 0 {
                varint::put_u32(out, s.offset);
            }
        }
        out.extend_from_slice(&self.packed);
    }

    /// Decode a serialized delta list from `buf[*pos..]` straight into
    /// `out` (appended), without materializing a [`DeltaList`] — the
    /// zero-allocation path the word-stream decoder takes per posting
    /// group. `scratch` is caller-provided reusable storage for the skip
    /// entries. `None` on truncation, corruption, or a list that does not
    /// hold exactly `expect` entries (with `out`/`scratch` contents
    /// unspecified).
    fn read_into(
        buf: &[u8],
        pos: &mut usize,
        scratch: &mut Vec<(u32, u32, u32)>,
        out: &mut Vec<u32>,
        expect: usize,
    ) -> Option<()> {
        let len = varint::get_u32(buf, pos)? as usize;
        if len != expect {
            return None;
        }
        let packed_len = varint::get_u32(buf, pos)? as usize;
        let num_blocks = len.div_ceil(BLOCK);
        scratch.clear();
        let mut prev = 0u32;
        for i in 0..num_blocks {
            let first = prev.checked_add(varint::get_u32(buf, pos)?)?;
            let max = first.checked_add(varint::get_u32(buf, pos)?)?;
            prev = max;
            let offset = if i == 0 {
                0
            } else {
                varint::get_u32(buf, pos)?
            };
            if offset as usize > packed_len {
                return None;
            }
            scratch.push((first, max, offset));
        }
        if *pos + packed_len > buf.len() {
            return None;
        }
        let packed = &buf[*pos..*pos + packed_len];
        *pos += packed_len;
        out.reserve(len);
        for (b, &(first, _max, offset)) in scratch.iter().enumerate() {
            let n = if b + 1 == num_blocks {
                len - b * BLOCK
            } else {
                BLOCK
            };
            let mut p = offset as usize;
            let width = u32::from(*packed.get(p)?);
            p += 1;
            if width > 32 {
                return None;
            }
            if p + ((n - 1) * width as usize).div_ceil(8) > packed.len() {
                return None;
            }
            out.push(first);
            if width == 0 {
                for _ in 1..n {
                    out.push(first);
                }
                continue;
            }
            let mask: u64 = (1u64 << width) - 1;
            let mut acc: u64 = 0;
            let mut filled: u32 = 0;
            let mut value = first;
            for _ in 1..n {
                while filled < width {
                    acc |= u64::from(packed[p]) << filled;
                    p += 1;
                    filled += 8;
                }
                value = value.wrapping_add((acc & mask) as u32);
                acc >>= width;
                filled -= width;
                out.push(value);
            }
        }
        Some(())
    }
}

/// One run of consecutive values `first, first+1, …, first+len−1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RleRun {
    /// First value of the run.
    first: u32,
    /// Number of values in the run (≥ 1).
    len: u32,
}

impl RleRun {
    /// Last value of the run.
    #[inline]
    fn last(self) -> u32 {
        self.first + (self.len - 1)
    }
}

/// A sorted sequence stored as runs of consecutive values — codec tag 1.
///
/// A duplicate value closes the current run and opens a length-1 run at
/// the same value (runs may start at their predecessor's last value), so
/// the codec represents any non-decreasing sequence; it only *wins* when
/// runs are long.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RleList {
    /// Total number of entries.
    len: u32,
    /// The runs, ascending (run i+1 starts at or after run i's last).
    runs: Vec<RleRun>,
}

impl RleList {
    /// Encode a non-decreasing sequence.
    fn encode(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        let mut runs: Vec<RleRun> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some(run) if v == run.last().wrapping_add(1) && run.len < u32::MAX => {
                    run.len += 1;
                }
                _ => runs.push(RleRun { first: v, len: 1 }),
            }
        }
        RleList {
            len: values.len() as u32,
            runs,
        }
    }

    /// Exact serialized size in bytes (excluding the codec tag).
    fn encoded_len(&self) -> usize {
        let mut n = varint::len_u32(self.len) + varint::len_u32(self.runs.len() as u32);
        let mut prev_last = 0u32;
        for r in &self.runs {
            n += varint::len_u32(r.first - prev_last) + varint::len_u32(r.len - 1);
            prev_last = r.last();
        }
        n
    }

    /// Serialize into `out` (self-delimiting).
    fn write(&self, out: &mut Vec<u8>) {
        varint::put_u32(out, self.len);
        varint::put_u32(out, self.runs.len() as u32);
        let mut prev_last = 0u32;
        for r in &self.runs {
            // Gap from the previous run's last value: 0 for a duplicate,
            // ≥ 2 for a genuine hole (gap 1 would have merged).
            varint::put_u32(out, r.first - prev_last);
            varint::put_u32(out, r.len - 1);
            prev_last = r.last();
        }
    }

    /// Streaming decode straight into `out` (appended). `None` unless the
    /// list holds exactly `expect` entries.
    fn read_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u32>, expect: usize) -> Option<()> {
        let len = varint::get_u32(buf, pos)?;
        let num_runs = varint::get_u32(buf, pos)? as usize;
        if len as usize != expect || num_runs as u64 > u64::from(len) {
            return None;
        }
        out.reserve(len as usize);
        let mut prev_last = 0u32;
        let mut total = 0u32;
        for _ in 0..num_runs {
            let first = prev_last.checked_add(varint::get_u32(buf, pos)?)?;
            let run_len = varint::get_u32(buf, pos)?.checked_add(1)?;
            let last = first.checked_add(run_len - 1)?;
            total = total.checked_add(run_len)?;
            if total > len {
                return None;
            }
            out.extend(first..=last);
            prev_last = last;
        }
        (total == len).then_some(())
    }
}

/// A strictly increasing sequence stored as a dense bitmap — codec tag 2.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct BitmapList {
    /// Total number of entries (= set bits).
    len: u32,
    /// Value of bit 0 of word 0.
    base: u32,
    /// The bitmap: bit `i` of word `i / 64` ⇔ value `base + i` present.
    words: Vec<u64>,
}

impl BitmapList {
    /// Encode a **strictly increasing** sequence (the selector never
    /// offers a list with duplicates to this codec).
    fn encode(values: &[u32]) -> Self {
        debug_assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "strictly increasing"
        );
        if values.is_empty() {
            return BitmapList::default();
        }
        let base = values[0];
        let span = (values[values.len() - 1] - base) as usize;
        let mut words = vec![0u64; span / 64 + 1];
        for &v in values {
            let off = (v - base) as usize;
            words[off / 64] |= 1u64 << (off % 64);
        }
        BitmapList {
            len: values.len() as u32,
            base,
            words,
        }
    }

    /// Exact serialized size in bytes (excluding the codec tag).
    fn encoded_len(&self) -> usize {
        varint::len_u32(self.len)
            + varint::len_u32(self.base)
            + varint::len_u32(self.words.len() as u32)
            + self.words.len() * 8
    }

    /// Serialize into `out` (self-delimiting).
    fn write(&self, out: &mut Vec<u8>) {
        varint::put_u32(out, self.len);
        varint::put_u32(out, self.base);
        varint::put_u32(out, self.words.len() as u32);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Streaming decode straight into `out` (appended). `None` unless the
    /// list holds exactly `expect` entries.
    fn read_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u32>, expect: usize) -> Option<()> {
        let len = varint::get_u32(buf, pos)?;
        let base = varint::get_u32(buf, pos)?;
        let num_words = varint::get_u32(buf, pos)? as usize;
        if len as usize != expect {
            return None;
        }
        if len == 0 {
            return (num_words == 0).then_some(());
        }
        if num_words == 0 {
            return None;
        }
        let top = u64::from(base) + num_words as u64 * 64 - 1;
        if top > u64::from(u32::MAX) {
            return None;
        }
        if *pos + num_words * 8 > buf.len() {
            return None;
        }
        out.reserve(len as usize);
        let mut total = 0u32;
        for i in 0..num_words {
            let w = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
            *pos += 8;
            total = total.checked_add(w.count_ones())?;
            let mut bits = w;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                out.push(base + (i as u32) * 64 + tz);
                bits &= bits - 1;
            }
        }
        (total == len).then_some(())
    }
}

/// A sorted (non-decreasing) `u32` sequence encoded by one of three
/// codecs, selected per list at encode time by smallest serialized size.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum BlockList {
    /// Delta + bitpacked blocks (tag 0).
    Delta(DeltaList),
    /// Runs of consecutive values (tag 1).
    Rle(RleList),
    /// Dense bitmap (tag 2).
    Bitmap(BitmapList),
}

impl BlockList {
    /// Encode a non-decreasing sequence, picking the codec with the
    /// smallest serialized size (ties keep the delta codec; the bitmap
    /// codec is only eligible for strictly increasing input).
    ///
    /// # Panics
    /// Debug-asserts monotonicity; release builds produce garbage on
    /// unsorted input (the encoder is an internal building block — all
    /// call sites encode already-sorted posting keys).
    pub(crate) fn encode(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        let delta = DeltaList::encode(values);
        if values.is_empty() {
            return BlockList::Delta(delta);
        }
        let delta_bytes = delta.encoded_len();

        // RLE candidate: runs and exact serialized size in one pass,
        // without building the list.
        let mut rle_bytes = varint::len_u32(values.len() as u32);
        let mut num_runs = 0u32;
        let mut strictly_increasing = true;
        {
            let mut run_first = values[0];
            let mut prev = values[0];
            let mut prev_last = 0u32; // previous *run*'s last value
            for &v in &values[1..] {
                if v == prev {
                    strictly_increasing = false;
                }
                if v != prev.wrapping_add(1) || prev.wrapping_add(1) == 0 {
                    rle_bytes +=
                        varint::len_u32(run_first - prev_last) + varint::len_u32(prev - run_first);
                    num_runs += 1;
                    prev_last = prev;
                    run_first = v;
                }
                prev = v;
            }
            rle_bytes += varint::len_u32(run_first - prev_last) + varint::len_u32(prev - run_first);
            num_runs += 1;
            rle_bytes += varint::len_u32(num_runs);
        }

        // Bitmap candidate: size is pure arithmetic on the value span.
        let mut bitmap_bytes = usize::MAX;
        if strictly_increasing {
            let base = values[0];
            let last = values[values.len() - 1];
            let num_words = (last - base) as u64 / 64 + 1;
            if num_words <= usize::MAX as u64 / 8 {
                bitmap_bytes = varint::len_u32(values.len() as u32)
                    + varint::len_u32(base)
                    + varint::len_u32(num_words as u32)
                    + (num_words as usize) * 8;
            }
        }

        if bitmap_bytes < delta_bytes.min(rle_bytes) {
            let bitmap = BitmapList::encode(values);
            debug_assert_eq!(bitmap.encoded_len(), bitmap_bytes, "analytic bitmap sizing");
            BlockList::Bitmap(bitmap)
        } else if rle_bytes < delta_bytes {
            let rle = RleList::encode(values);
            debug_assert_eq!(rle.encoded_len(), rle_bytes, "one-pass RLE sizing");
            BlockList::Rle(rle)
        } else {
            BlockList::Delta(delta)
        }
    }

    /// Serialize into `out`: one codec tag byte, then the codec payload
    /// (self-delimiting; [`Self::read_into`] round-trips).
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        match self {
            BlockList::Delta(l) => {
                out.push(TAG_DELTA);
                l.write(out);
            }
            BlockList::Rle(l) => {
                out.push(TAG_RLE);
                l.write(out);
            }
            BlockList::Bitmap(l) => {
                out.push(TAG_BITMAP);
                l.write(out);
            }
        }
    }

    /// Streaming decode of a tagged list from `buf[*pos..]` straight
    /// into `out` (appended), without materializing a [`BlockList`] — the
    /// zero-allocation path the word-stream decoder takes per posting
    /// group. `scratch` is reusable storage for delta skip entries.
    ///
    /// The list must hold exactly `expect` entries. A run-length list can
    /// legitimately expand a few bytes into billions of values, so only
    /// the caller knows how many a list may hold; the declared length is
    /// checked against `expect` before anything is reserved for it.
    ///
    /// `None` on an unknown tag, a length mismatch, truncation or
    /// corruption (with `out`/`scratch` contents unspecified).
    pub(crate) fn read_into(
        buf: &[u8],
        pos: &mut usize,
        scratch: &mut Vec<(u32, u32, u32)>,
        out: &mut Vec<u32>,
        expect: usize,
    ) -> Option<()> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_DELTA => DeltaList::read_into(buf, pos, scratch, out, expect),
            TAG_RLE => RleList::read_into(buf, pos, out, expect),
            TAG_BITMAP => BitmapList::read_into(buf, pos, out, expect),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    /// `values` under each codec that can represent them (the bitmap
    /// cannot hold duplicates), bypassing the size-based selector.
    fn under_every_codec(values: &[u32]) -> Vec<BlockList> {
        let mut lists = vec![
            BlockList::Delta(DeltaList::encode(values)),
            BlockList::Rle(RleList::encode(values)),
        ];
        if values.windows(2).all(|w| w[0] < w[1]) {
            lists.push(BlockList::Bitmap(BitmapList::encode(values)));
        }
        lists
    }

    fn serialized(list: &BlockList) -> Vec<u8> {
        let mut bytes = Vec::new();
        list.write(&mut bytes);
        bytes
    }

    /// Decode `bytes` as one list of `expect` entries spanning the buffer.
    fn decoded(bytes: &[u8], expect: usize) -> Option<Vec<u32>> {
        let (mut pos, mut scratch, mut out) = (0, Vec::new(), Vec::new());
        BlockList::read_into(bytes, &mut pos, &mut scratch, &mut out, expect)?;
        assert_eq!(pos, bytes.len(), "self-delimiting");
        Some(out)
    }

    #[test]
    fn roundtrip_small() {
        for values in [
            vec![],
            vec![7],
            vec![0, 0, 0],
            vec![1, 5, 5, 9, 1000, u32::MAX],
            (0..1000).map(|i| i * 3).collect::<Vec<u32>>(),
        ] {
            let bytes = serialized(&BlockList::encode(&values));
            assert_eq!(decoded(&bytes, values.len()), Some(values));
        }
    }

    #[test]
    fn roundtrip_small_under_every_codec() {
        for values in [
            vec![],
            vec![7],
            vec![0, 0, 0],
            vec![1, 5, 5, 9, 1000, u32::MAX],
            (0..1000).map(|i| i * 3).collect::<Vec<u32>>(),
            (500..900).collect::<Vec<u32>>(),
        ] {
            for list in under_every_codec(&values) {
                assert_eq!(
                    decoded(&serialized(&list), values.len()),
                    Some(values.clone()),
                    "{list:?}"
                );
            }
        }
    }

    #[test]
    fn selector_picks_the_expected_codec() {
        // Long consecutive runs: RLE wins.
        let runs: Vec<u32> = (0..2000u32).chain(5000..7000).collect();
        assert!(matches!(BlockList::encode(&runs), BlockList::Rle(_)));
        // Dense-but-gappy range (every value except multiples of 3):
        // defeats RLE (runs of 2), beats delta (bitmap ≈ 1.5 bits/value
        // vs 2+ bits of delta payload at width 2).
        let gappy: Vec<u32> = (0..6000u32).filter(|v| v % 3 != 0).collect();
        assert!(matches!(BlockList::encode(&gappy), BlockList::Bitmap(_)));
        // Sparse scattered values: delta wins.
        let sparse: Vec<u32> = (0..500u32).map(|i| i * 1013).collect();
        assert!(matches!(BlockList::encode(&sparse), BlockList::Delta(_)));
        // Duplicates make bitmap ineligible even when dense.
        let dups: Vec<u32> = (0..3000u32).flat_map(|v| [v, v]).collect();
        assert!(!matches!(BlockList::encode(&dups), BlockList::Bitmap(_)));
    }

    #[test]
    fn truncated_reads_fail() {
        let values: Vec<u32> = (0..300).map(|i| i * 5).collect();
        for list in under_every_codec(&values) {
            let bytes = serialized(&list);
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    decoded(&bytes[..cut], values.len()).is_none(),
                    "{list:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = serialized(&BlockList::encode(&[1, 2, 3]));
        bytes[0] = 7; // no such codec
        assert!(decoded(&bytes, 3).is_none());
    }

    #[test]
    fn streaming_decode_rejects_a_length_mismatch_before_reserving() {
        // The declared length is compared with the caller's expectation
        // before it sizes any reservation.
        let values: Vec<u32> = (0..300).collect();
        for list in under_every_codec(&values) {
            let bytes = serialized(&list);
            for wrong in [0, values.len() - 1, values.len() + 1, u32::MAX as usize] {
                let (mut pos, mut scratch, mut out) = (0, Vec::new(), Vec::new());
                assert!(
                    BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut out, wrong).is_none(),
                    "{list:?} expect {wrong}"
                );
                assert!(
                    out.capacity() <= values.len(),
                    "{list:?} reserved for {wrong}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(v in proptest::collection::vec(any::<u32>(), 0..600)) {
            let values = sorted(v);
            let bytes = serialized(&BlockList::encode(&values));
            prop_assert_eq!(decoded(&bytes, values.len()), Some(values));
        }

        #[test]
        fn roundtrip_arbitrary_under_every_codec(
            v in proptest::collection::vec(0u32..100_000, 0..600),
        ) {
            let values = sorted(v);
            for list in under_every_codec(&values) {
                prop_assert_eq!(
                    decoded(&serialized(&list), values.len()),
                    Some(values.clone()),
                    "{:?}",
                    list
                );
            }
        }
    }
}
