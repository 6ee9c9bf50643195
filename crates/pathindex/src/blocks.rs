//! Block-coded sorted integer lists: the root-column layout of the
//! persisted word streams and the seekable cursor the query plane gallops
//! over.
//!
//! A [`BlockList`] is an **adaptive** container: at encode time the
//! builder picks, per list, whichever of three codecs serializes smallest
//! (see `docs/FORMATS.md` §"Posting list codecs"):
//!
//! * **Delta + bitpack** ([`DeltaList`], tag 0) — the workhorse. Blocks
//!   of up to [`BLOCK`] entries, each with a skip entry (first, max,
//!   payload offset) and deltas packed at the block's minimal fixed bit
//!   width. Seek discards whole blocks via the per-block max.
//! * **Run-length** ([`RleList`], tag 1) — runs of *consecutive* values
//!   `first, first+1, …, first+len−1` stored as (gap, len) varint pairs.
//!   Wins on dense root ranges with long consecutive stretches; seek is a
//!   binary search over run boundaries and decodes nothing.
//! * **Dense bitmap** ([`BitmapList`], tag 2) — a base value plus one bit
//!   per candidate value in `u64` words, with a per-word rank (prefix
//!   popcount) table rebuilt at load time. Only eligible for strictly
//!   increasing lists (a bitmap cannot represent duplicates); wins on
//!   high-density ranges with gaps that defeat RLE. Seek is O(1) word
//!   arithmetic plus a popcount.
//!
//! All three sit behind one [`BlockList`] enum and one [`BlockCursor`],
//! so `SeekCursor` callers (gallop intersection, the word-stream
//! decoder) never see which codec a list chose. The serialized form tags
//! each list with one leading byte.

use crate::varint;

/// Entries per block. 128 keeps a whole decoded block in two cache lines
/// of `u32`s and the skip table small (3 words per 128 postings).
pub const BLOCK: usize = 128;

/// Serialized codec tag of a delta + bitpacked list.
pub(crate) const TAG_DELTA: u8 = 0;
/// Serialized codec tag of a run-length list.
pub(crate) const TAG_RLE: u8 = 1;
/// Serialized codec tag of a dense bitmap list.
pub(crate) const TAG_BITMAP: u8 = 2;

/// Which codec a [`BlockList`] selected at encode time — surfaced for
/// stats and the per-encoding decode microbenches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Delta + bitpacked blocks (tag 0).
    Delta,
    /// Runs of consecutive values (tag 1).
    Rle,
    /// Dense bitmap over a value range (tag 2).
    Bitmap,
}

impl Encoding {
    /// Stable lowercase name (stats output, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Delta => "delta",
            Encoding::Rle => "rle",
            Encoding::Bitmap => "bitmap",
        }
    }
}

/// Skip entry of one block: enough to decide "can this block contain a
/// value ≥/== target" without decoding the payload.
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
pub struct DeltaList {
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
    pub(crate) fn encode(values: &[u32]) -> Self {
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

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> usize {
        self.skips.len()
    }

    /// Resident bytes (payload + skip table).
    fn heap_bytes(&self) -> usize {
        self.packed.len() + self.skips.len() * std::mem::size_of::<BlockSkip>()
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

    /// Entries in block `b`.
    #[inline]
    fn block_len(&self, b: usize) -> usize {
        if b + 1 == self.skips.len() {
            self.len as usize - b * BLOCK
        } else {
            BLOCK
        }
    }

    /// Decode block `b` into `out` (cleared first). Returns the number of
    /// entries written.
    fn decode_block(&self, b: usize, out: &mut [u32; BLOCK]) -> usize {
        let skip = self.skips[b];
        let n = self.block_len(b);
        out[0] = skip.first;
        let mut pos = skip.offset as usize;
        let width = u32::from(self.packed[pos]);
        pos += 1;
        if width == 0 {
            // All deltas zero: a run of identical values.
            for slot in out.iter_mut().take(n).skip(1) {
                *slot = skip.first;
            }
            return n;
        }
        let mask: u64 = (1u64 << width) - 1;
        let mut acc: u64 = 0;
        let mut filled: u32 = 0;
        let mut prev = skip.first;
        for slot in out.iter_mut().take(n).skip(1) {
            while filled < width {
                acc |= u64::from(self.packed[pos]) << filled;
                pos += 1;
                filled += 8;
            }
            // Wrapping: a corrupted stream must decode to garbage, not
            // panic (the failure-injection tests flip arbitrary bytes).
            prev = prev.wrapping_add((acc & mask) as u32);
            acc >>= width;
            filled -= width;
            *slot = prev;
        }
        n
    }

    /// Decode the whole list (tests, full materialization paths).
    fn decode_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut buf = [0u32; BLOCK];
        for b in 0..self.skips.len() {
            let n = self.decode_block(b, &mut buf);
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    /// Serialize into `out` (self-delimiting; [`Self::read`] round-trips).
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
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

    /// Deserialize from `buf[*pos..]`, advancing `pos`. `None` on
    /// truncation or structural corruption.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = varint::get_u32(buf, pos)?;
        let packed_len = varint::get_u32(buf, pos)? as usize;
        let num_blocks = (len as usize).div_ceil(BLOCK);
        // Every block has a skip entry of at least two varint bytes.
        if num_blocks > (buf.len() - *pos) / 2 {
            return None;
        }
        let mut skips = Vec::with_capacity(num_blocks);
        let mut prev = 0u32;
        for i in 0..num_blocks {
            let first = prev.checked_add(varint::get_u32(buf, pos)?)?;
            let max = first.checked_add(varint::get_u32(buf, pos)?)?;
            prev = max;
            let offset = if i == 0 {
                0
            } else {
                let o = varint::get_u32(buf, pos)?;
                if o as usize > packed_len {
                    return None;
                }
                o
            };
            skips.push(BlockSkip { first, max, offset });
        }
        if *pos + packed_len > buf.len() {
            return None;
        }
        let packed = buf[*pos..*pos + packed_len].to_vec();
        *pos += packed_len;
        let out = DeltaList { len, skips, packed };
        // Widths must keep every block's payload inside `packed`.
        for b in 0..out.skips.len() {
            let n = out.block_len(b);
            let off = out.skips[b].offset as usize;
            let width = *out.packed.get(off)? as usize;
            if width > 32 {
                return None;
            }
            let payload = ((n - 1) * width).div_ceil(8);
            if off + 1 + payload > out.packed.len() {
                return None;
            }
        }
        Some(out)
    }

    /// Decode a serialized delta list from `buf[*pos..]` straight into
    /// `out` (appended), without materializing a [`DeltaList`] — the
    /// zero-allocation path the word-stream decoder takes per posting
    /// group. `scratch` is caller-provided reusable storage for the skip
    /// entries. Returns the number of blocks decoded; `None` on
    /// truncation, corruption, or a list that does not hold exactly
    /// `expect` entries (with `out`/`scratch` contents unspecified).
    fn read_into(
        buf: &[u8],
        pos: &mut usize,
        scratch: &mut Vec<(u32, u32, u32)>,
        out: &mut Vec<u32>,
        expect: usize,
    ) -> Option<u64> {
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
        Some(num_blocks as u64)
    }
}

/// One run of consecutive values `first, first+1, …, first+len−1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RleRun {
    /// First value of the run.
    first: u32,
    /// Number of values in the run (≥ 1).
    len: u32,
    /// Entries before this run — the rank that makes `remaining()` O(1).
    cum: u32,
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
pub struct RleList {
    /// Total number of entries.
    len: u32,
    /// The runs, ascending (run i+1 starts at or after run i's last).
    runs: Vec<RleRun>,
}

impl RleList {
    /// Encode a non-decreasing sequence.
    pub(crate) fn encode(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        let mut runs: Vec<RleRun> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some(run) if v == run.last().wrapping_add(1) && run.len < u32::MAX => {
                    run.len += 1;
                }
                _ => {
                    let cum = runs.last().map_or(0, |r| r.cum + r.len);
                    runs.push(RleRun {
                        first: v,
                        len: 1,
                        cum,
                    });
                }
            }
        }
        RleList {
            len: values.len() as u32,
            runs,
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Number of runs (the codec's "blocks").
    fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Resident bytes.
    fn heap_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<RleRun>()
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

    /// Decode the whole list.
    fn decode_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for r in &self.runs {
            out.extend(r.first..=r.last());
        }
        out
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

    /// Deserialize from `buf[*pos..]`, advancing `pos`.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = varint::get_u32(buf, pos)?;
        let num_runs = varint::get_u32(buf, pos)? as usize;
        // Every run is a (gap, len) pair of at least two varint bytes.
        if num_runs as u64 > u64::from(len) || num_runs > (buf.len() - *pos) / 2 {
            return None;
        }
        let mut runs = Vec::with_capacity(num_runs);
        let mut prev_last = 0u32;
        let mut cum = 0u32;
        for _ in 0..num_runs {
            let first = prev_last.checked_add(varint::get_u32(buf, pos)?)?;
            let run_len = varint::get_u32(buf, pos)?.checked_add(1)?;
            // Last value must not overflow u32.
            first.checked_add(run_len - 1)?;
            runs.push(RleRun {
                first,
                len: run_len,
                cum,
            });
            cum = cum.checked_add(run_len)?;
            prev_last = first + (run_len - 1);
        }
        if cum != len {
            return None;
        }
        Some(RleList { len, runs })
    }

    /// Streaming decode straight into `out` (appended). Returns the
    /// number of runs decoded; `None` unless the list holds exactly
    /// `expect` entries.
    fn read_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u32>, expect: usize) -> Option<u64> {
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
        if total != len {
            return None;
        }
        Some(num_runs as u64)
    }
}

/// A strictly increasing sequence stored as a dense bitmap — codec tag 2.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BitmapList {
    /// Total number of entries (= set bits).
    len: u32,
    /// Value of bit 0 of word 0.
    base: u32,
    /// The bitmap: bit `i` of word `i / 64` ⇔ value `base + i` present.
    words: Vec<u64>,
    /// `ranks[i]` = set bits in `words[..i]` (`ranks.len() == words.len()
    /// + 1`). In-memory only — rebuilt on read, never serialized.
    ranks: Vec<u32>,
}

impl BitmapList {
    /// Encode a **strictly increasing** sequence (the selector never
    /// offers a list with duplicates to this codec).
    pub(crate) fn encode(values: &[u32]) -> Self {
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
        let ranks = Self::build_ranks(&words);
        BitmapList {
            len: values.len() as u32,
            base,
            words,
            ranks,
        }
    }

    fn build_ranks(words: &[u64]) -> Vec<u32> {
        let mut ranks = Vec::with_capacity(words.len() + 1);
        let mut total = 0u32;
        ranks.push(0);
        for w in words {
            total += w.count_ones();
            ranks.push(total);
        }
        ranks
    }

    /// Number of entries.
    fn len(&self) -> usize {
        self.len as usize
    }

    /// Number of words (the codec's "blocks").
    fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Resident bytes (bitmap + rank table).
    fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.ranks.len() * 4
    }

    /// Exact serialized size in bytes (excluding the codec tag).
    fn encoded_len(&self) -> usize {
        varint::len_u32(self.len)
            + varint::len_u32(self.base)
            + varint::len_u32(self.words.len() as u32)
            + self.words.len() * 8
    }

    /// Decode the whole list.
    fn decode_all(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for (i, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                out.push(self.base + (i as u32) * 64 + tz);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Serialize into `out` (self-delimiting; ranks are derived and not
    /// written).
    fn write(&self, out: &mut Vec<u8>) {
        varint::put_u32(out, self.len);
        varint::put_u32(out, self.base);
        varint::put_u32(out, self.words.len() as u32);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserialize from `buf[*pos..]`, advancing `pos`.
    fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = varint::get_u32(buf, pos)?;
        let base = varint::get_u32(buf, pos)?;
        let num_words = varint::get_u32(buf, pos)? as usize;
        if len == 0 {
            return (num_words == 0).then(BitmapList::default);
        }
        if num_words == 0 {
            return None;
        }
        // Highest representable value must fit in u32.
        let top = u64::from(base) + num_words as u64 * 64 - 1;
        if top > u64::from(u32::MAX) {
            return None;
        }
        if *pos + num_words * 8 > buf.len() {
            return None;
        }
        let mut words = Vec::with_capacity(num_words);
        let mut total = 0u32;
        for _ in 0..num_words {
            let w = u64::from_le_bytes(buf[*pos..*pos + 8].try_into().expect("8 bytes"));
            *pos += 8;
            total = total.checked_add(w.count_ones())?;
            words.push(w);
        }
        if total != len {
            return None;
        }
        let ranks = Self::build_ranks(&words);
        Some(BitmapList {
            len,
            base,
            words,
            ranks,
        })
    }

    /// Streaming decode straight into `out` (appended). Returns the
    /// number of words decoded; `None` unless the list holds exactly
    /// `expect` entries.
    fn read_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u32>, expect: usize) -> Option<u64> {
        let len = varint::get_u32(buf, pos)?;
        let base = varint::get_u32(buf, pos)?;
        let num_words = varint::get_u32(buf, pos)? as usize;
        if len as usize != expect {
            return None;
        }
        if len == 0 {
            return (num_words == 0).then_some(0);
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
        if total != len {
            return None;
        }
        Some(num_words as u64)
    }
}

/// A sorted (non-decreasing) `u32` sequence behind one of three codecs,
/// selected per list at encode time by smallest serialized size. The
/// cursor and (de)serialization APIs are codec-agnostic; callers that
/// care which codec won can ask [`BlockList::encoding`].
#[derive(Clone, Debug, PartialEq)]
pub enum BlockList {
    /// Delta + bitpacked blocks (tag 0).
    Delta(DeltaList),
    /// Runs of consecutive values (tag 1).
    Rle(RleList),
    /// Dense bitmap (tag 2).
    Bitmap(BitmapList),
}

impl Default for BlockList {
    fn default() -> Self {
        BlockList::Delta(DeltaList::default())
    }
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
    pub fn encode(values: &[u32]) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        let delta = DeltaList::encode(values);
        if values.is_empty() {
            return BlockList::Delta(delta);
        }
        let mut best_bytes = delta.encoded_len();
        let mut best = Encoding::Delta;

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
        if rle_bytes < best_bytes {
            best_bytes = rle_bytes;
            best = Encoding::Rle;
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
                if bitmap_bytes < best_bytes {
                    best = Encoding::Bitmap;
                }
            }
        }

        match best {
            Encoding::Delta => BlockList::Delta(delta),
            Encoding::Rle => {
                let rle = RleList::encode(values);
                debug_assert_eq!(rle.encoded_len(), rle_bytes, "one-pass RLE sizing");
                BlockList::Rle(rle)
            }
            Encoding::Bitmap => {
                let bitmap = BitmapList::encode(values);
                debug_assert_eq!(bitmap.encoded_len(), bitmap_bytes, "analytic bitmap sizing");
                BlockList::Bitmap(bitmap)
            }
        }
    }

    /// Which codec this list uses.
    pub fn encoding(&self) -> Encoding {
        match self {
            BlockList::Delta(_) => Encoding::Delta,
            BlockList::Rle(_) => Encoding::Rle,
            BlockList::Bitmap(_) => Encoding::Bitmap,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            BlockList::Delta(l) => l.len(),
            BlockList::Rle(l) => l.len(),
            BlockList::Bitmap(l) => l.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of codec units: blocks (delta), runs (RLE), or words
    /// (bitmap) — the granularity [`BlockCursor::blocks_decoded`] counts
    /// for the delta codec and the unit `seek` skips over.
    pub fn num_blocks(&self) -> usize {
        match self {
            BlockList::Delta(l) => l.num_blocks(),
            BlockList::Rle(l) => l.num_runs(),
            BlockList::Bitmap(l) => l.num_words(),
        }
    }

    /// Resident bytes (payload + skip/rank tables).
    pub fn heap_bytes(&self) -> usize {
        match self {
            BlockList::Delta(l) => l.heap_bytes(),
            BlockList::Rle(l) => l.heap_bytes(),
            BlockList::Bitmap(l) => l.heap_bytes(),
        }
    }

    /// Decode the whole list (tests, full materialization paths).
    pub fn decode_all(&self) -> Vec<u32> {
        match self {
            BlockList::Delta(l) => l.decode_all(),
            BlockList::Rle(l) => l.decode_all(),
            BlockList::Bitmap(l) => l.decode_all(),
        }
    }

    /// Serialize into `out`: one codec tag byte, then the codec payload
    /// (self-delimiting; [`Self::read`] round-trips).
    pub fn write(&self, out: &mut Vec<u8>) {
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

    /// Deserialize a tagged list from `buf[*pos..]`, advancing `pos`.
    /// `None` on an unknown tag, truncation, or structural corruption.
    pub fn read(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_DELTA => DeltaList::read(buf, pos).map(BlockList::Delta),
            TAG_RLE => RleList::read(buf, pos).map(BlockList::Rle),
            TAG_BITMAP => BitmapList::read(buf, pos).map(BlockList::Bitmap),
            _ => None,
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
    /// Returns the number of codec units decoded (blocks / runs / words);
    /// `None` on a length mismatch, truncation or corruption (with
    /// `out`/`scratch` contents unspecified).
    pub fn read_into(
        buf: &[u8],
        pos: &mut usize,
        scratch: &mut Vec<(u32, u32, u32)>,
        out: &mut Vec<u32>,
        expect: usize,
    ) -> Option<u64> {
        let tag = *buf.get(*pos)?;
        *pos += 1;
        match tag {
            TAG_DELTA => DeltaList::read_into(buf, pos, scratch, out, expect),
            TAG_RLE => RleList::read_into(buf, pos, out, expect),
            TAG_BITMAP => BitmapList::read_into(buf, pos, out, expect),
            _ => None,
        }
    }

    /// Force a specific codec (tests and microbenches; `None` when the
    /// codec cannot represent the input — bitmap with duplicates).
    pub fn encode_as(values: &[u32], enc: Encoding) -> Option<Self> {
        debug_assert!(values.windows(2).all(|w| w[0] <= w[1]), "input sorted");
        match enc {
            Encoding::Delta => Some(BlockList::Delta(DeltaList::encode(values))),
            Encoding::Rle => Some(BlockList::Rle(RleList::encode(values))),
            Encoding::Bitmap => values
                .windows(2)
                .all(|w| w[0] < w[1])
                .then(|| BlockList::Bitmap(BitmapList::encode(values))),
        }
    }

    /// A cursor positioned before the first entry.
    pub fn cursor(&self) -> BlockCursor<'_> {
        let inner = match self {
            BlockList::Delta(l) => Inner::Delta(DeltaCursor {
                list: l,
                block: 0,
                pos: 0,
                decoded: usize::MAX,
                buf: [0; BLOCK],
                buf_len: 0,
                blocks_decoded: 0,
            }),
            BlockList::Rle(l) => Inner::Rle(RleCursor {
                list: l,
                run: 0,
                inrun: 0,
            }),
            BlockList::Bitmap(l) => Inner::Bitmap(BitmapCursor {
                list: l,
                word: 0,
                bits: l.words.first().copied().unwrap_or(0),
            }),
        };
        BlockCursor { inner }
    }
}

/// Forward-only cursor over a [`DeltaList`].
struct DeltaCursor<'a> {
    list: &'a DeltaList,
    /// Current block index.
    block: usize,
    /// Position of the next entry within the current block.
    pos: usize,
    /// Which block `buf` holds (`usize::MAX` = none yet).
    decoded: usize,
    buf: [u32; BLOCK],
    buf_len: usize,
    /// Blocks decoded so far (the observability counter behind
    /// `stats.hot.blocks_decoded`).
    blocks_decoded: u64,
}

impl DeltaCursor<'_> {
    /// Make sure the current block is decoded into `buf`.
    #[inline]
    fn fill(&mut self) {
        if self.decoded != self.block {
            self.buf_len = self.list.decode_block(self.block, &mut self.buf);
            self.decoded = self.block;
            self.blocks_decoded += 1;
        }
    }

    fn seek(&mut self, target: u32) -> Option<u32> {
        let skips = &self.list.skips;
        if self.block >= skips.len() {
            return None;
        }
        // Skip blocks whose max is below the target: gallop then binary
        // search over the skip table (cheap — no payload decode).
        if skips[self.block].max < target {
            let mut step = 1usize;
            let mut lo = self.block + 1;
            while lo + step < skips.len() && skips[lo + step].max < target {
                lo += step;
                step <<= 1;
            }
            let hi = (lo + step).min(skips.len());
            let adv = skips[lo..hi].partition_point(|s| s.max < target);
            self.block = lo + adv;
            self.pos = 0;
            if self.block >= skips.len() {
                return None;
            }
        }
        // Within-block: decode and binary search the tail.
        self.fill();
        let idx = self.pos + self.buf[self.pos..self.buf_len].partition_point(|&v| v < target);
        debug_assert!(idx < self.buf_len, "block max >= target ensures a hit");
        self.pos = idx;
        Some(self.buf[idx])
    }

    #[inline]
    fn next_value(&mut self) -> Option<u32> {
        if self.block >= self.list.skips.len() {
            return None;
        }
        self.fill();
        let v = self.buf[self.pos];
        self.pos += 1;
        if self.pos == self.buf_len {
            self.block += 1;
            self.pos = 0;
        }
        Some(v)
    }

    fn remaining(&self) -> usize {
        if self.block >= self.list.skips.len() {
            return 0;
        }
        self.list.len() - (self.block * BLOCK + self.pos)
    }
}

/// Forward-only cursor over an [`RleList`]: positions are (run, offset)
/// pairs; values are computed, never decoded into a buffer.
struct RleCursor<'a> {
    list: &'a RleList,
    /// Current run index.
    run: usize,
    /// Offset of the next entry within the current run.
    inrun: u32,
}

impl RleCursor<'_> {
    fn seek(&mut self, target: u32) -> Option<u32> {
        let runs = &self.list.runs;
        if self.run >= runs.len() {
            return None;
        }
        let r = runs[self.run];
        let current = r.first + self.inrun;
        if current >= target {
            return Some(current);
        }
        if r.last() >= target {
            // Runs are consecutive, so the target itself is present.
            self.inrun = target - r.first;
            return Some(target);
        }
        let adv = runs[self.run + 1..].partition_point(|x| x.last() < target);
        self.run += 1 + adv;
        self.inrun = 0;
        if self.run >= runs.len() {
            return None;
        }
        let r = runs[self.run];
        if target > r.first {
            self.inrun = target - r.first;
            Some(target)
        } else {
            Some(r.first)
        }
    }

    #[inline]
    fn next_value(&mut self) -> Option<u32> {
        let runs = &self.list.runs;
        if self.run >= runs.len() {
            return None;
        }
        let r = runs[self.run];
        let v = r.first + self.inrun;
        self.inrun += 1;
        if self.inrun == r.len {
            self.run += 1;
            self.inrun = 0;
        }
        Some(v)
    }

    fn remaining(&self) -> usize {
        match self.list.runs.get(self.run) {
            Some(r) => self.list.len() - (r.cum + self.inrun) as usize,
            None => 0,
        }
    }
}

/// Forward-only cursor over a [`BitmapList`]: the current word's
/// unconsumed bits are held in a register; `seek` is word arithmetic and
/// `remaining` reads the rank table.
struct BitmapCursor<'a> {
    list: &'a BitmapList,
    /// Current word index.
    word: usize,
    /// Unconsumed bits of the current word (consumed bits cleared).
    bits: u64,
}

impl BitmapCursor<'_> {
    /// Advance `word` until `bits` is non-empty (or the list ends).
    #[inline]
    fn settle(&mut self) -> bool {
        while self.bits == 0 {
            self.word += 1;
            match self.list.words.get(self.word) {
                Some(&w) => self.bits = w,
                None => return false,
            }
        }
        true
    }

    fn seek(&mut self, target: u32) -> Option<u32> {
        let l = self.list;
        if l.words.is_empty() || self.word >= l.words.len() {
            return None;
        }
        if target > l.base {
            let off = u64::from(target - l.base);
            let tw = (off / 64) as usize;
            if tw >= l.words.len() {
                // Current word might still hold values ≥ target only if
                // tw were ≤ word; tw ≥ len ⇒ target beyond the bitmap.
                if tw > self.word {
                    self.word = l.words.len();
                    self.bits = 0;
                    return None;
                }
            }
            if tw > self.word {
                self.word = tw;
                self.bits = l.words[tw] & (!0u64 << (off % 64));
            } else if tw == self.word {
                self.bits &= !0u64 << (off % 64);
            }
            // tw < word: everything at or after the cursor already ≥ target.
        }
        if !self.settle() {
            return None;
        }
        Some(l.base + (self.word as u32) * 64 + self.bits.trailing_zeros())
    }

    #[inline]
    fn next_value(&mut self) -> Option<u32> {
        if self.list.words.is_empty() || self.word >= self.list.words.len() || !self.settle() {
            return None;
        }
        let tz = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(self.list.base + (self.word as u32) * 64 + tz)
    }

    fn remaining(&self) -> usize {
        if self.word >= self.list.words.len() {
            return 0;
        }
        // Values in words after the current one, plus unconsumed bits here.
        (self.list.len - self.list.ranks[self.word + 1] + self.bits.count_ones()) as usize
    }
}

// The delta variant carries its 128-entry decode buffer inline: cursors
// are short-lived stack objects created in the intersection inner loop,
// so boxing the buffer would trade a stack bump for a heap allocation
// per cursor.
#[allow(clippy::large_enum_variant)]
enum Inner<'a> {
    Delta(DeltaCursor<'a>),
    Rle(RleCursor<'a>),
    Bitmap(BitmapCursor<'a>),
}

/// Forward-only cursor over a [`BlockList`] with skip-ahead `seek`,
/// dispatching to the list's codec.
///
/// `seek` targets must be non-decreasing (the cursor never rewinds) —
/// exactly the discipline of gallop intersection.
pub struct BlockCursor<'a> {
    inner: Inner<'a>,
}

impl<'a> BlockCursor<'a> {
    /// The least entry `≥ target` at or after the current position,
    /// advancing the cursor **to** it (a following [`Self::next_value`]
    /// returns it again — peek semantics, what leapfrog intersection
    /// wants). Skips whole blocks/runs/words without decoding them.
    pub fn seek(&mut self, target: u32) -> Option<u32> {
        match &mut self.inner {
            Inner::Delta(c) => c.seek(target),
            Inner::Rle(c) => c.seek(target),
            Inner::Bitmap(c) => c.seek(target),
        }
    }

    /// Blocks decoded by this cursor so far. Only the delta codec decodes
    /// block buffers; RLE and bitmap cursors compute values in place and
    /// always report 0.
    pub fn blocks_decoded(&self) -> u64 {
        match &self.inner {
            Inner::Delta(c) => c.blocks_decoded,
            Inner::Rle(_) | Inner::Bitmap(_) => 0,
        }
    }

    /// The next entry, advancing past it (also available through the
    /// [`Iterator`] impl).
    #[inline]
    pub fn next_value(&mut self) -> Option<u32> {
        match &mut self.inner {
            Inner::Delta(c) => c.next_value(),
            Inner::Rle(c) => c.next_value(),
            Inner::Bitmap(c) => c.next_value(),
        }
    }

    /// Entries not yet consumed (exact).
    pub fn remaining(&self) -> usize {
        match &self.inner {
            Inner::Delta(c) => c.remaining(),
            Inner::Rle(c) => c.remaining(),
            Inner::Bitmap(c) => c.remaining(),
        }
    }
}

impl Iterator for BlockCursor<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        self.next_value()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL_ENCODINGS: [Encoding; 3] = [Encoding::Delta, Encoding::Rle, Encoding::Bitmap];

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
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
            let list = BlockList::encode(&values);
            assert_eq!(list.decode_all(), values);
            let mut bytes = Vec::new();
            list.write(&mut bytes);
            let mut pos = 0;
            let back = BlockList::read(&bytes, &mut pos).expect("decodes");
            assert_eq!(pos, bytes.len());
            assert_eq!(back.decode_all(), values);
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
            for enc in ALL_ENCODINGS {
                let Some(list) = BlockList::encode_as(&values, enc) else {
                    assert_eq!(enc, Encoding::Bitmap, "only bitmap may refuse");
                    assert!(values.windows(2).any(|w| w[0] == w[1]));
                    continue;
                };
                assert_eq!(list.encoding(), enc);
                assert_eq!(list.decode_all(), values, "{enc:?}");
                let mut bytes = Vec::new();
                list.write(&mut bytes);
                let mut pos = 0;
                let back = BlockList::read(&bytes, &mut pos).expect("decodes");
                assert_eq!(pos, bytes.len(), "{enc:?}");
                assert_eq!(back.decode_all(), values, "{enc:?}");
            }
        }
    }

    #[test]
    fn selector_picks_the_expected_codec() {
        // Long consecutive runs: RLE wins.
        let runs: Vec<u32> = (0..2000u32).chain(5000..7000).collect();
        assert_eq!(BlockList::encode(&runs).encoding(), Encoding::Rle);
        // Dense-but-gappy range (every value except multiples of 3):
        // defeats RLE (runs of 2), beats delta (bitmap ≈ 1.5 bits/value
        // vs 2+ bits of delta payload at width 2).
        let gappy: Vec<u32> = (0..6000u32).filter(|v| v % 3 != 0).collect();
        assert_eq!(BlockList::encode(&gappy).encoding(), Encoding::Bitmap);
        // Sparse scattered values: delta wins.
        let sparse: Vec<u32> = (0..500u32).map(|i| i * 1013).collect();
        assert_eq!(BlockList::encode(&sparse).encoding(), Encoding::Delta);
        // Duplicates make bitmap ineligible even when dense.
        let dups: Vec<u32> = (0..3000u32).flat_map(|v| [v, v]).collect();
        assert_ne!(BlockList::encode(&dups).encoding(), Encoding::Bitmap);
    }

    #[test]
    fn cursor_next_streams_everything() {
        let values: Vec<u32> = (0..500).map(|i| i * 7 + (i % 3)).collect();
        for enc in ALL_ENCODINGS {
            let Some(list) = BlockList::encode_as(&values, enc) else {
                continue;
            };
            let mut c = list.cursor();
            let mut out = Vec::new();
            for v in c.by_ref() {
                out.push(v);
            }
            assert_eq!(out, values, "{enc:?}");
            if enc == Encoding::Delta {
                assert_eq!(c.blocks_decoded(), list.num_blocks() as u64);
            }
        }
    }

    #[test]
    fn seek_finds_lower_bounds() {
        let values: Vec<u32> = (0..1000).map(|i| i * 10).collect();
        for enc in ALL_ENCODINGS {
            let list = BlockList::encode_as(&values, enc).expect("strictly increasing");
            let mut c = list.cursor();
            assert_eq!(c.seek(0), Some(0), "{enc:?}");
            assert_eq!(c.seek(15), Some(20), "{enc:?}");
            assert_eq!(c.seek(20), Some(20), "{enc:?}"); // peek: still there
            assert_eq!(c.next(), Some(20), "{enc:?}");
            assert_eq!(c.seek(5000), Some(5000), "{enc:?}");
            assert_eq!(c.seek(9991), None, "{enc:?}");
        }
    }

    #[test]
    fn seek_skips_blocks_without_decoding() {
        let values: Vec<u32> = (0..BLOCK as u32 * 40).collect();
        let list = BlockList::encode_as(&values, Encoding::Delta).expect("delta always encodes");
        let mut c = list.cursor();
        // Jump straight to the 30th block: at most the target block (plus
        // the first, if touched) is decoded.
        assert_eq!(c.seek(30 * BLOCK as u32 + 5), Some(30 * BLOCK as u32 + 5));
        assert!(c.blocks_decoded() <= 1, "decoded {}", c.blocks_decoded());
    }

    #[test]
    fn remaining_counts_down() {
        let values: Vec<u32> = (0..300).collect();
        for enc in ALL_ENCODINGS {
            let list = BlockList::encode_as(&values, enc).expect("strictly increasing");
            let mut c = list.cursor();
            assert_eq!(c.remaining(), 300, "{enc:?}");
            c.next();
            assert_eq!(c.remaining(), 299, "{enc:?}");
            c.seek(290);
            assert_eq!(c.remaining(), 10, "{enc:?}");
        }
    }

    #[test]
    fn truncated_reads_fail() {
        let values: Vec<u32> = (0..300).map(|i| i * 5).collect();
        for enc in ALL_ENCODINGS {
            let list = BlockList::encode_as(&values, enc).expect("strictly increasing");
            let mut bytes = Vec::new();
            list.write(&mut bytes);
            for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
                let mut pos = 0;
                assert!(
                    BlockList::read(&bytes[..cut], &mut pos).is_none(),
                    "{enc:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let list = BlockList::encode(&[1, 2, 3]);
        let mut bytes = Vec::new();
        list.write(&mut bytes);
        bytes[0] = 7; // no such codec
        let mut pos = 0;
        assert!(BlockList::read(&bytes, &mut pos).is_none());
        let mut pos = 0;
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        assert!(BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut out, 3).is_none());
    }

    #[test]
    fn streaming_decode_rejects_a_length_mismatch_before_reserving() {
        // The declared length is compared with the caller's expectation
        // before it sizes any reservation.
        let values: Vec<u32> = (0..300).collect();
        for enc in ALL_ENCODINGS {
            let list = BlockList::encode_as(&values, enc).expect("strictly increasing");
            let mut bytes = Vec::new();
            list.write(&mut bytes);
            for wrong in [0, values.len() - 1, values.len() + 1, u32::MAX as usize] {
                let (mut pos, mut scratch, mut out) = (0, Vec::new(), Vec::new());
                assert!(
                    BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut out, wrong).is_none(),
                    "{enc:?} expect {wrong}"
                );
                assert!(
                    out.capacity() <= values.len(),
                    "{enc:?} reserved for {wrong}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(v in proptest::collection::vec(any::<u32>(), 0..600)) {
            let values = sorted(v);
            let list = BlockList::encode(&values);
            prop_assert_eq!(list.decode_all(), values.clone());
            let mut bytes = Vec::new();
            list.write(&mut bytes);
            let mut pos = 0;
            let back = BlockList::read(&bytes, &mut pos).expect("round-trips");
            prop_assert_eq!(pos, bytes.len());
            prop_assert_eq!(back.decode_all(), values.clone());
            // The zero-copy streaming decoder agrees.
            let mut pos = 0;
            let mut scratch = Vec::new();
            let mut streamed = Vec::new();
            let units =
                BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut streamed, values.len())
                    .expect("streams");
            prop_assert_eq!(pos, bytes.len());
            prop_assert_eq!(units as usize, list.num_blocks());
            prop_assert_eq!(streamed, values);
        }

        #[test]
        fn roundtrip_arbitrary_under_every_codec(
            v in proptest::collection::vec(0u32..100_000, 0..600),
        ) {
            let values = sorted(v);
            for enc in ALL_ENCODINGS {
                let Some(list) = BlockList::encode_as(&values, enc) else { continue };
                prop_assert_eq!(list.decode_all(), values.clone(), "{:?}", enc);
                let mut bytes = Vec::new();
                list.write(&mut bytes);
                let mut pos = 0;
                let back = BlockList::read(&bytes, &mut pos).expect("round-trips");
                prop_assert_eq!(pos, bytes.len(), "{:?}", enc);
                prop_assert_eq!(back.decode_all(), values.clone(), "{:?}", enc);
                let mut pos = 0;
                let mut scratch = Vec::new();
                let mut streamed = Vec::new();
                BlockList::read_into(&bytes, &mut pos, &mut scratch, &mut streamed, values.len())
                    .expect("streams");
                prop_assert_eq!(pos, bytes.len(), "{:?}", enc);
                prop_assert_eq!(streamed, values.clone(), "{:?}", enc);
            }
        }

        #[test]
        fn seek_equals_partition_point(
            v in proptest::collection::vec(0u32..5000, 1..600),
            targets in proptest::collection::vec(0u32..5100, 1..40),
        ) {
            let values = sorted(v);
            let mut targets = sorted(targets);
            targets.dedup();
            for enc in ALL_ENCODINGS {
                let Some(list) = BlockList::encode_as(&values, enc) else { continue };
                let mut c = list.cursor();
                for &t in &targets {
                    let expect = values
                        .get(values.partition_point(|&x| x < t))
                        .copied();
                    prop_assert_eq!(c.seek(t), expect, "{:?} target {}", enc, t);
                }
            }
        }

        #[test]
        fn interleaved_seek_and_next_agree_across_codecs(
            v in proptest::collection::vec(0u32..4000, 1..400),
            ops in proptest::collection::vec((any::<bool>(), 0u32..4100), 1..60),
        ) {
            let values = sorted(v);
            // Drive the same (monotone-seek | next) op sequence through
            // all eligible codecs; every step must agree.
            let lists: Vec<BlockList> = ALL_ENCODINGS
                .iter()
                .filter_map(|&e| BlockList::encode_as(&values, e))
                .collect();
            let mut cursors: Vec<BlockCursor<'_>> =
                lists.iter().map(BlockList::cursor).collect();
            let mut floor = 0u32;
            for &(is_seek, t) in &ops {
                if is_seek {
                    let t = t.max(floor);
                    floor = t;
                    let results: Vec<Option<u32>> =
                        cursors.iter_mut().map(|c| c.seek(t)).collect();
                    prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "{:?}", results);
                } else {
                    let results: Vec<Option<u32>> =
                        cursors.iter_mut().map(|c| c.next_value()).collect();
                    prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "{:?}", results);
                    if let Some(v) = results[0] {
                        floor = floor.max(v);
                    }
                }
                let rems: Vec<usize> = cursors.iter().map(|c| c.remaining()).collect();
                prop_assert!(rems.windows(2).all(|w| w[0] == w[1]), "{:?}", rems);
            }
        }
    }
}
