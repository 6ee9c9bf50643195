//! The persisted index image — the **`PKB5`** container — and the word
//! store behind [`crate::word_index::IndexShard`].
//!
//! `PKB5` is the only persisted path-index format, and both storage tiers
//! boot from it the same way: open the image in place, decode each word
//! on first touch. They differ only in where the image bytes live — the
//! mapped tier maps the file, the heap tier reads it into memory:
//!
//! * **the container**: an offset-table layout whose sections are 8-byte
//!   aligned and whose per-word payloads are word streams (a table of the
//!   list's distinct score pairs, then postings that each lead with their
//!   root as a varint gap within their pattern group and refer to their
//!   score pair by index);
//! * **[`Region`]**: where the container bytes live — a read-only file
//!   mapping on Unix, or a window of a heap buffer (the heap tier, the
//!   non-Unix fallback, tests, and a checkpoint's index blob inside the
//!   file it was read with) — behind one borrowing interface;
//! * **the word store**: one shard's word-sorted lexicon rows, each with a
//!   slot for the word's decoded list. [`open_region`] parses only the
//!   header, bounds, pattern keys and lexicon (O(words), not O(postings));
//!   stream bytes are *borrowed in place* and a word's slot is filled when
//!   the first query touches it. Boot cost and decoded bytes are
//!   decoupled from index size. A store built in memory (an index build,
//!   a full refresh, the eager decode) has every slot filled and no
//!   region.
//!
//! The tier an index reports is read off its bytes:
//! [`StorageBackend::Mmap`] iff a shard's region is a file mapping, else
//! [`StorageBackend::Heap`].
//!
//! [`crate::snapshot::decode`] is the eager reference decoder (every word
//! up front, no region kept); no boot path takes it.
//!
//! All reads go through byte-slice little-endian conversions — never
//! pointer casts — so the layout is alignment-safe on every target and a
//! hostile file can at worst produce a typed
//! [`SnapshotError`] (with the byte offset of the damage), never a panic
//! or undefined behavior.
//!
//! The normative byte-level specification lives in `docs/FORMATS.md`
//! (`PKB5`); change that document first when bumping the version.

use crate::compress::{self, decode_stream, CompressError};
use crate::pattern::{PatternId, PatternSet};
use crate::word_index::{IndexShard, PathIndexes, WordPathIndex};
use patternkb_graph::snapshot::{invalid_data, SnapshotError};
use patternkb_graph::WordId;
use std::sync::{Arc, OnceLock};

/// Magic of the persisted index container.
pub const MAGIC_V5: &[u8; 4] = b"PKB5";
/// The one container version written and read: 4, where each word stream
/// leads with its score table.
const IMAGE_VERSION: u32 = 4;
/// Fixed header: magic, version, d, nshards, file length, then the
/// 4-entry section directory of `(offset, len)` u64 pairs.
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8 + 4 * 16;
/// Bytes of one fixed-width lexicon entry.
const LEX_ENTRY_LEN: usize = 32;

// ---------------------------------------------------------------------
// Which tier serves a query.
// ---------------------------------------------------------------------

/// Which storage tier backs the path indexes of an engine: read off the
/// bytes, never configured on an index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageBackend {
    /// Postings on the heap: an index built in memory, or a v5 image
    /// read into memory (a snapshot file, a checkpoint) and decoded per
    /// word on first touch.
    #[default]
    Heap,
    /// A v5 snapshot file mapped read-only, per-word decode deferred to
    /// first query touch.
    Mmap,
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageBackend::Heap => write!(f, "heap"),
            StorageBackend::Mmap => write!(f, "mmap"),
        }
    }
}

impl std::str::FromStr for StorageBackend {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "heap" => Ok(StorageBackend::Heap),
            "mmap" => Ok(StorageBackend::Mmap),
            other => Err(format!("unknown storage backend {other:?} (heap|mmap)")),
        }
    }
}

// ---------------------------------------------------------------------
// Region: where the container bytes live.
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    //! Hand-rolled libc bindings for the two calls we need (the workspace
    //! stays dependency-free; the `libc` crate is deliberately absent).
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> i32;
    }

    /// `MAP_FAILED` is `(void *) -1`.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only file mapping (Unix only). Unmapped on drop.
#[cfg(unix)]
struct MmapFile {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never mutated or remapped after
// creation; shared immutable access from any thread is sound.
#[cfg(unix)]
unsafe impl Send for MmapFile {}
#[cfg(unix)]
unsafe impl Sync for MmapFile {}

#[cfg(unix)]
impl Drop for MmapFile {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly what mmap returned.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

enum RegionInner {
    /// A heap buffer of which the region is the window `range`.
    Owned(Vec<u8>, std::ops::Range<usize>),
    #[cfg(unix)]
    Mapped(MmapFile),
}

/// Where an opened snapshot's bytes live: a read-only file mapping, or a
/// heap buffer (the heap tier's image read into memory, the non-Unix
/// fallback, tests, and checkpoint blobs that are already in memory).
/// Either way the container is *borrowed*, not decoded: the word store
/// reads lexicon and stream bytes in place.
pub struct Region {
    inner: RegionInner,
}

impl Region {
    /// Wrap an owned byte buffer (the heap tier, tests, fallback).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        Region::from_vec_range(bytes, 0..len)
    }

    /// The window `range` of an owned buffer — a checkpoint's index blob
    /// inside the file it was read with, borrowed rather than copied out.
    ///
    /// # Panics
    /// If `range` does not lie inside `bytes`.
    pub fn from_vec_range(bytes: Vec<u8>, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= bytes.len(),
            "region window {range:?} outside a {}-byte buffer",
            bytes.len()
        );
        Region {
            inner: RegionInner::Owned(bytes, range),
        }
    }

    /// Map `path` read-only. On Unix this is `mmap(PROT_READ,
    /// MAP_PRIVATE)` — boot touches only the pages it parses; elsewhere
    /// the file is read into a heap buffer (same semantics, no paging).
    pub fn map_file(path: &std::path::Path) -> std::io::Result<Self> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Ok(Region::from_vec(Vec::new()));
            }
            // SAFETY: fd is a freshly opened readable file, length is the
            // file's current size; a MAP_FAILED return is handled below.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::map_failed() {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Region {
                inner: RegionInner::Mapped(MmapFile { ptr, len }),
            })
        }
        #[cfg(not(unix))]
        {
            Ok(Region::from_vec(std::fs::read(path)?))
        }
    }

    /// The region's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            RegionInner::Owned(v, range) => &v[range.clone()],
            #[cfg(unix)]
            RegionInner::Mapped(m) => {
                // SAFETY: the mapping is PROT_READ, lives as long as self,
                // and spans exactly `len` bytes.
                unsafe { std::slice::from_raw_parts(m.ptr as *const u8, m.len) }
            }
        }
    }

    /// Bytes the region holds on the heap: the whole buffer it windows,
    /// or 0 for a file mapping, whose pages belong to the page cache.
    pub fn heap_len(&self) -> usize {
        match &self.inner {
            RegionInner::Owned(v, _) => v.len(),
            #[cfg(unix)]
            RegionInner::Mapped(_) => 0,
        }
    }

    /// Whether the bytes come from a file mapping (vs a heap buffer).
    pub fn is_file_mapping(&self) -> bool {
        match &self.inner {
            RegionInner::Owned(..) => false,
            #[cfg(unix)]
            RegionInner::Mapped(_) => true,
        }
    }
}

// ---------------------------------------------------------------------
// v5 writer.
// ---------------------------------------------------------------------

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

fn pad8(buf: &mut Vec<u8>) {
    while buf.len() % 8 != 0 {
        buf.push(0);
    }
}

/// Serialize built indexes into the `PKB5` container: per word, one
/// word stream, plus the offset table that makes in-place reads possible.
/// A word whose stream fails to decode is left out, as
/// [`IndexShard::iter_words`] leaves it; [`save_v5`] and a checkpoint
/// prepare every word first, so they fail instead.
pub fn encode_v5(idx: &PathIndexes) -> Vec<u8> {
    // Per-(shard, word) streams in lexicon order: ascending shard, then
    // ascending word within the shard.
    let mut streams: Vec<(u32, WordId, u32, Box<[u8]>)> = Vec::new();
    for (s, shard) in idx.shards().iter().enumerate() {
        for (w, widx) in shard.iter_words() {
            streams.push((s as u32, w, widx.len() as u32, compress::encode(&widx)));
        }
    }

    let nshards = idx.num_shards();
    let bounds_off = HEADER_LEN;
    let bounds_len = 4 * (nshards + 1);

    let mut patterns_bytes: Vec<u8> = Vec::new();
    patterns_bytes.extend_from_slice(&(idx.patterns().len() as u32).to_le_bytes());
    for i in 0..idx.patterns().len() {
        let key = idx.patterns().key(PatternId(i as u32));
        patterns_bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
        for &v in key {
            patterns_bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    let patterns_off = align8(bounds_off + bounds_len);
    let patterns_len = patterns_bytes.len();

    let lex_off = align8(patterns_off + patterns_len);
    let lex_len = 8 + LEX_ENTRY_LEN * streams.len();
    let streams_off = align8(lex_off + lex_len);

    // Assign each stream its absolute, 8-aligned offset.
    let mut at = streams_off;
    let mut placed: Vec<(u32, WordId, usize, u32, &[u8])> = Vec::with_capacity(streams.len());
    for (s, w, num_postings, stream) in &streams {
        placed.push((*s, *w, at, *num_postings, stream));
        at = align8(at + stream.len());
    }
    let file_len = at;

    let mut buf: Vec<u8> = Vec::with_capacity(file_len);
    buf.extend_from_slice(MAGIC_V5);
    buf.extend_from_slice(&IMAGE_VERSION.to_le_bytes());
    buf.extend_from_slice(&(idx.d() as u32).to_le_bytes());
    buf.extend_from_slice(&(nshards as u32).to_le_bytes());
    buf.extend_from_slice(&(file_len as u64).to_le_bytes());
    let streams_len = file_len - streams_off;
    for (off, len) in [
        (bounds_off, bounds_len),
        (patterns_off, patterns_len),
        (lex_off, lex_len),
        (streams_off, streams_len),
    ] {
        buf.extend_from_slice(&(off as u64).to_le_bytes());
        buf.extend_from_slice(&(len as u64).to_le_bytes());
    }
    debug_assert_eq!(buf.len(), HEADER_LEN);

    for &b in idx.bounds() {
        buf.extend_from_slice(&b.to_le_bytes());
    }
    pad8(&mut buf);
    debug_assert_eq!(buf.len(), patterns_off);
    buf.extend_from_slice(&patterns_bytes);
    pad8(&mut buf);
    debug_assert_eq!(buf.len(), lex_off);

    buf.extend_from_slice(&(placed.len() as u64).to_le_bytes());
    for (s, w, off, num_postings, stream) in &placed {
        buf.extend_from_slice(&w.0.to_le_bytes());
        buf.extend_from_slice(&s.to_le_bytes());
        buf.extend_from_slice(&(*off as u64).to_le_bytes());
        buf.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        buf.extend_from_slice(&num_postings.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
    }
    pad8(&mut buf);
    debug_assert_eq!(buf.len(), streams_off);

    for (_, _, off, _, stream) in &placed {
        debug_assert_eq!(buf.len(), *off);
        buf.extend_from_slice(stream);
        pad8(&mut buf);
    }
    debug_assert_eq!(buf.len(), file_len);
    buf
}

/// Write a `PKB5` image of `idx` to `path`: into `<path>.tmp`, then
/// renamed over `path`. A live mapping of the old file keeps its inode,
/// so it is never truncated under a reader (see `docs/FORMATS.md`).
/// Every word is decoded first, so a damaged stream in the image `idx`
/// was opened from fails the save with `InvalidData`, naming `path` and
/// the damage's byte offset, before anything is written.
pub fn save_v5(idx: &PathIndexes, path: &std::path::Path) -> std::io::Result<()> {
    idx.prepare_words(&idx.word_ids())
        .map_err(|e| invalid_data(path, e))?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, encode_v5(idx))?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------
// v5 parser (shared by the open and the eager decode).
// ---------------------------------------------------------------------

/// One lexicon row of an opened container (this shard's slice of it).
#[derive(Clone, Copy, Debug)]
struct LexEntry {
    word: WordId,
    /// Absolute byte offset of the word's stream.
    offset: u64,
    /// Exact stream length in bytes (alignment padding excluded).
    len: u64,
    num_postings: u32,
}

/// The parsed frame of a v5 container: everything except the posting
/// streams, which stay as untouched byte ranges.
struct ParsedV5 {
    d: usize,
    bounds: Vec<u32>,
    patterns: PatternSet,
    /// Per shard, the lexicon entries owned by that shard (word-sorted).
    shard_entries: Vec<Vec<LexEntry>>,
}

fn take(data: &[u8], pos: usize, n: usize) -> Result<&[u8], SnapshotError> {
    if pos + n > data.len() {
        return Err(SnapshotError::Truncated { offset: data.len() });
    }
    Ok(&data[pos..pos + n])
}

fn read_u32(data: &[u8], pos: usize) -> Result<u32, SnapshotError> {
    Ok(u32::from_le_bytes(take(data, pos, 4)?.try_into().unwrap()))
}

fn read_u64(data: &[u8], pos: usize) -> Result<u64, SnapshotError> {
    Ok(u64::from_le_bytes(take(data, pos, 8)?.try_into().unwrap()))
}

fn parse_v5(data: &[u8]) -> Result<ParsedV5, SnapshotError> {
    if data.len() < 4 {
        return Err(SnapshotError::Truncated { offset: data.len() });
    }
    if &data[..4] != MAGIC_V5 {
        return Err(SnapshotError::BadMagic);
    }
    let version = read_u32(data, 4)?;
    if version != IMAGE_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let d = read_u32(data, 8)? as usize;
    if d == 0 || d > crate::build::MAX_D {
        return Err(SnapshotError::BadReference { offset: 8 });
    }
    let nshards = read_u32(data, 12)? as usize;
    if nshards == 0 {
        return Err(SnapshotError::BadReference { offset: 12 });
    }
    let file_len = read_u64(data, 16)? as usize;
    if file_len > data.len() {
        return Err(SnapshotError::Truncated { offset: data.len() });
    }
    if file_len < data.len() || file_len < HEADER_LEN {
        return Err(SnapshotError::BadReference { offset: 16 });
    }

    // Section directory: in-range, 8-aligned, ascending.
    let mut sections = [(0usize, 0usize); 4];
    for (i, s) in sections.iter_mut().enumerate() {
        let at = 24 + 16 * i;
        let off = read_u64(data, at)? as usize;
        let len = read_u64(data, at + 8)? as usize;
        let Some(end) = off.checked_add(len) else {
            return Err(SnapshotError::BadReference { offset: at });
        };
        if off % 8 != 0 || off < HEADER_LEN || end > file_len {
            return Err(SnapshotError::BadReference { offset: at });
        }
        *s = (off, len);
    }
    let [(bounds_off, bounds_len), (pat_off, pat_len), (lex_off, lex_len), (str_off, str_len)] =
        sections;

    // Shard bounds.
    if bounds_len != 4 * (nshards + 1) {
        return Err(SnapshotError::BadReference { offset: bounds_off });
    }
    let mut bounds = Vec::with_capacity(nshards + 1);
    for i in 0..=nshards {
        bounds.push(read_u32(data, bounds_off + 4 * i)?);
    }
    if bounds[0] != 0
        || *bounds.last().expect("non-empty") != u32::MAX
        || bounds.windows(2).any(|w| w[0] > w[1])
    {
        return Err(SnapshotError::BadReference { offset: bounds_off });
    }

    // Pattern keys: id = intern position, like every other tier.
    let pat_end = pat_off + pat_len;
    let npatterns = read_u32(data, pat_off)? as usize;
    let mut patterns = PatternSet::new();
    let mut key: Vec<u32> = Vec::new();
    let mut at = pat_off + 4;
    for expected in 0..npatterns {
        let len = read_u32(data, at)? as usize;
        if len == 0 || len > 2 * crate::build::MAX_D + 2 || at + 4 + 4 * len > pat_end {
            return Err(SnapshotError::BadReference { offset: at });
        }
        key.clear();
        for k in 0..len {
            key.push(read_u32(data, at + 4 + 4 * k)?);
        }
        let id = patterns.intern_key(&key);
        if id.0 as usize != expected {
            return Err(SnapshotError::BadReference { offset: at });
        }
        at += 4 + 4 * len;
    }
    if at > pat_end {
        return Err(SnapshotError::Truncated { offset: pat_end });
    }

    // Lexicon: fixed-width entries sorted strictly by (shard, word), each
    // pointing at an 8-aligned stream range inside the streams section.
    let nentries = read_u64(data, lex_off)? as usize;
    let expect_len = nentries
        .checked_mul(LEX_ENTRY_LEN)
        .and_then(|n| n.checked_add(8));
    if expect_len != Some(lex_len) {
        return Err(SnapshotError::BadReference { offset: lex_off });
    }
    let mut shard_entries: Vec<Vec<LexEntry>> = (0..nshards).map(|_| Vec::new()).collect();
    let mut prev: Option<(u32, u32)> = None;
    for i in 0..nentries {
        let at = lex_off + 8 + LEX_ENTRY_LEN * i;
        let word = read_u32(data, at)?;
        let shard = read_u32(data, at + 4)? as usize;
        let offset = read_u64(data, at + 8)?;
        let len = read_u64(data, at + 16)?;
        let num_postings = read_u32(data, at + 24)?;
        if shard >= nshards {
            return Err(SnapshotError::BadReference { offset: at });
        }
        if prev.is_some_and(|p| p >= (shard as u32, word)) {
            // Strictly ascending (shard, word): no duplicates, and every
            // shard's slice is contiguous and word-sorted.
            return Err(SnapshotError::BadReference { offset: at });
        }
        prev = Some((shard as u32, word));
        let Some(end) = offset.checked_add(len) else {
            return Err(SnapshotError::BadReference { offset: at });
        };
        if offset % 8 != 0 || (offset as usize) < str_off || end as usize > str_off + str_len {
            return Err(SnapshotError::BadReference { offset: at });
        }
        shard_entries[shard].push(LexEntry {
            word: WordId(word),
            offset,
            len,
            num_postings,
        });
    }

    Ok(ParsedV5 {
        d,
        bounds,
        patterns,
        shard_entries,
    })
}

/// Decode one lexicon entry's stream from the container bytes — the one
/// path the open image and the eager decode take: the word stream must
/// decode exactly, every root must lie in the shard's range, and every
/// pattern id must resolve in the shared pattern set. Errors carry the
/// absolute byte offset of the damaged stream.
fn decode_entry(
    data: &[u8],
    e: &LexEntry,
    root_lo: u32,
    root_hi: u32,
    npatterns: u32,
) -> Result<WordPathIndex, SnapshotError> {
    let at = e.offset as usize;
    let buf = &data[at..at + e.len as usize];
    let widx = decode_stream(buf, e.num_postings).map_err(|err| match err {
        CompressError::Truncated => SnapshotError::Truncated { offset: at },
        CompressError::Corrupt => SnapshotError::BadReference { offset: at },
    })?;
    // Patterns and roots ascend: the extremes bound them all.
    let (roots, max_pattern) = (widx.roots(), widx.patterns().max());
    if max_pattern.is_some_and(|p| p.0 >= npatterns)
        || roots.first().is_some_and(|&r| r < root_lo)
        || (root_hi != u32::MAX && roots.last().is_some_and(|&r| r >= root_hi))
    {
        return Err(SnapshotError::BadReference { offset: at });
    }
    Ok(widx)
}

// ---------------------------------------------------------------------
// The word store.
// ---------------------------------------------------------------------

/// One shard's words: its word-sorted lexicon rows, each with a slot
/// holding the word's decoded list. A store opened over an image borrows
/// the stream bytes from the shared [`Region`] and fills a word's slot
/// the first time a query touches it; a store built from lists in memory
/// has every slot filled and no region. Either way the store lends no
/// borrows: a filled slot hands out `Arc` handles to its list, a query
/// holds the handles it took until it ends, and a handle keeps its list
/// alive after the index is dropped.
pub(crate) struct WordStore {
    entries: Vec<LexEntry>,
    /// Parallel to `entries`. Errors are kept too, so a damaged stream is
    /// decoded (and fails) once, deterministically.
    slots: Vec<OnceLock<Result<Arc<WordPathIndex>, SnapshotError>>>,
    region: Option<Arc<Region>>,
    root_lo: u32,
    root_hi: u32,
    npatterns: u32,
}

impl WordStore {
    /// A store of lists already decoded: an index build, a full refresh,
    /// the eager decode. Nothing is left to read.
    pub(crate) fn from_lists(mut lists: Vec<(WordId, WordPathIndex)>) -> Self {
        lists.sort_unstable_by_key(|(w, _)| *w);
        let (entries, slots) = lists
            .into_iter()
            .map(|(word, list)| {
                let entry = LexEntry {
                    word,
                    offset: 0,
                    len: 0,
                    num_postings: list.len() as u32,
                };
                (entry, OnceLock::from(Ok(Arc::new(list))))
            })
            .unzip();
        WordStore {
            entries,
            slots,
            region: None,
            root_lo: 0,
            root_hi: u32::MAX,
            npatterns: 0,
        }
    }

    fn slot(&self, w: WordId) -> Option<usize> {
        self.entries.binary_search_by_key(&w, |e| e.word).ok()
    }

    fn decoded(&self, i: usize) -> &Result<Arc<WordPathIndex>, SnapshotError> {
        self.slots[i].get_or_init(|| {
            let region = self
                .region
                .as_ref()
                .expect("a store without a region has every slot filled");
            decode_entry(
                region.bytes(),
                &self.entries[i],
                self.root_lo,
                self.root_hi,
                self.npatterns,
            )
            .map(Arc::new)
        })
    }

    /// A handle to the list for `w`, if the shard holds postings for it.
    /// On an opened image this decodes the word's stream on first touch;
    /// a corrupt stream makes the word unavailable here — call
    /// [`Self::prepare`] first to surface the typed error.
    pub(crate) fn word(&self, w: WordId) -> Option<Arc<WordPathIndex>> {
        self.decoded(self.slot(w)?).as_ref().ok().cloned()
    }

    /// How many postings the shard holds for `w`, from the lexicon
    /// (never decodes).
    pub(crate) fn word_len(&self, w: WordId) -> Option<usize> {
        self.slot(w).map(|i| self.entries[i].num_postings as usize)
    }

    /// Every word with postings in this shard, ascending.
    pub(crate) fn word_ids(&self) -> Vec<WordId> {
        self.entries.iter().map(|e| e.word).collect()
    }

    pub(crate) fn num_words(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn num_postings(&self) -> usize {
        self.entries.iter().map(|e| e.num_postings as usize).sum()
    }

    /// Heap bytes held right now: the lexicon plus the lists decoded so
    /// far — not the image bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<LexEntry>()
            + self
                .slots
                .iter()
                .filter_map(|s| s.get()?.as_ref().ok())
                .map(|w| w.heap_bytes())
                .sum::<usize>()
    }

    /// The image this store reads its streams from (shared by every
    /// shard of one open); `None` for a store built in memory.
    pub(crate) fn region(&self) -> Option<&Arc<Region>> {
        self.region.as_ref()
    }

    /// Ensure `w` is decoded (no-op when absent or already decoded),
    /// surfacing a corrupt stream as its typed error.
    pub(crate) fn prepare(&self, w: WordId) -> Result<(), SnapshotError> {
        match self.slot(w) {
            None => Ok(()),
            Some(i) => self.decoded(i).as_ref().map(|_| ()).map_err(|e| *e),
        }
    }
}

/// Open a v5 container over `region`: parse header, bounds, patterns and
/// lexicon (O(words)); defer every posting decode to first query touch.
/// The index reports [`StorageBackend::Mmap`] iff `region` is a file
/// mapping.
pub fn open_region(region: Region) -> Result<PathIndexes, SnapshotError> {
    let parsed = parse_v5(region.bytes())?;
    let region = Arc::new(region);
    let npatterns = parsed.patterns.len() as u32;
    let mut shards = Vec::with_capacity(parsed.shard_entries.len());
    for (s, entries) in parsed.shard_entries.into_iter().enumerate() {
        shards.push(IndexShard::new(WordStore {
            slots: entries.iter().map(|_| OnceLock::new()).collect(),
            entries,
            region: Some(Arc::clone(&region)),
            root_lo: parsed.bounds[s],
            root_hi: parsed.bounds[s + 1],
            npatterns,
        }));
    }
    Ok(PathIndexes::new(
        parsed.d,
        Arc::new(parsed.patterns),
        parsed.bounds,
        shards,
    ))
}

/// Open a v5 snapshot *file*: mapped read-only ([`StorageBackend::Mmap`];
/// a heap buffer off Unix) or read into one heap buffer
/// ([`StorageBackend::Heap`]). Either way only the lexicon is parsed and
/// each word decodes on first touch: cost is O(lexicon), not O(postings).
pub fn open_file(path: &std::path::Path, backend: StorageBackend) -> std::io::Result<PathIndexes> {
    let region = match backend {
        StorageBackend::Mmap => Region::map_file(path)?,
        StorageBackend::Heap => Region::from_vec(std::fs::read(path)?),
    };
    open_region(region).map_err(|e| invalid_data(path, e))
}

/// [`open_file`] on the mapped tier.
pub fn open_mapped(path: &std::path::Path) -> std::io::Result<PathIndexes> {
    open_file(path, StorageBackend::Mmap)
}

/// Open v5 container *bytes* in place, without copying them again: the
/// buffer becomes the region, per-word decode stays deferred. The index
/// reports the heap tier.
pub fn open_bytes(bytes: Vec<u8>) -> Result<PathIndexes, SnapshotError> {
    open_region(Region::from_vec(bytes))
}

/// Decode a container with every word decoded eagerly and no region kept
/// — the body of [`crate::snapshot::decode`], and the reference the
/// opened image is tested bit-identical against. No boot path takes it.
pub(crate) fn decode_v5(data: &[u8]) -> Result<PathIndexes, SnapshotError> {
    let parsed = parse_v5(data)?;
    let npatterns = parsed.patterns.len() as u32;
    let mut shards = Vec::with_capacity(parsed.shard_entries.len());
    for (s, entries) in parsed.shard_entries.iter().enumerate() {
        let mut lists = Vec::with_capacity(entries.len());
        for e in entries {
            let widx = decode_entry(data, e, parsed.bounds[s], parsed.bounds[s + 1], npatterns)?;
            lists.push((e.word, widx));
        }
        shards.push(IndexShard::new(WordStore::from_lists(lists)));
    }
    Ok(PathIndexes::new(
        parsed.d,
        Arc::new(parsed.patterns),
        parsed.bounds,
        shards,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_indexes, BuildConfig};
    use crate::posting::KeyedPosting;
    use patternkb_graph::{GraphBuilder, KnowledgeGraph, NodeId};
    use patternkb_text::{SynonymTable, TextIndex};

    fn sample(n: usize) -> (KnowledgeGraph, TextIndex) {
        let mut b = GraphBuilder::new();
        let t0 = b.add_type("Device");
        let t1 = b.add_type("Vendor");
        let mk = b.add_attr("maker");
        let rel = b.add_attr("related");
        let names = ["alpha", "beta", "gamma", "delta"];
        let nodes: Vec<_> = (0..n)
            .map(|i| b.add_node(if i % 2 == 0 { t0 } else { t1 }, names[i % names.len()]))
            .collect();
        for i in 0..n {
            b.add_edge(nodes[i], mk, nodes[(i * 5 + 1) % n]);
            b.add_edge(nodes[i], rel, nodes[(i * 3 + 2) % n]);
        }
        let g = b.build();
        let t = TextIndex::build(&g, SynonymTable::new());
        (g, t)
    }

    fn build(g: &KnowledgeGraph, t: &TextIndex, d: usize, shards: usize) -> PathIndexes {
        build_indexes(
            g,
            t,
            &BuildConfig {
                d,
                threads: 1,
                shards,
            },
        )
    }

    fn canon_word(
        pats: &PatternSet,
        widx: &WordPathIndex,
    ) -> Vec<(Vec<u32>, Vec<NodeId>, bool, u64, u64)> {
        let mut v: Vec<_> = widx
            .postings_pattern_first()
            .iter()
            .map(|p: &KeyedPosting| {
                (
                    pats.key(p.pattern).to_vec(),
                    widx.nodes_of(p).to_vec(),
                    p.edge_terminal,
                    widx.score_terms(p).pagerank.to_bits(),
                    widx.score_terms(p).sim.to_bits(),
                )
            })
            .collect();
        v.sort();
        v
    }

    fn assert_same_index(a: &PathIndexes, b: &PathIndexes) {
        assert_eq!(a.d(), b.d());
        assert_eq!(a.bounds(), b.bounds());
        assert_eq!(a.num_shards(), b.num_shards());
        assert_eq!(a.num_words(), b.num_words());
        assert_eq!(a.num_postings(), b.num_postings());
        for (sa, sb) in a.shards().iter().zip(b.shards()) {
            assert_eq!(sa.num_words(), sb.num_words());
            for (w, wa) in sa.iter_words() {
                let wb = sb.word(w).expect("word survives");
                assert_eq!(
                    canon_word(a.patterns(), &wa),
                    canon_word(b.patterns(), &wb),
                    "word {w:?}"
                );
            }
        }
    }

    #[test]
    fn v5_heap_decode_roundtrips_across_shard_counts() {
        let (g, t) = sample(60);
        for shards in [1usize, 2, 5] {
            let idx = build(&g, &t, 3, shards);
            let image = encode_v5(&idx);
            assert_eq!(&image[..4], MAGIC_V5);
            let back = decode_v5(&image).expect("v5 decodes");
            assert_eq!(back.storage_backend(), StorageBackend::Heap);
            assert_same_index(&idx, &back);
        }
    }

    #[test]
    fn v5_mapped_open_is_identical_and_lazy() {
        let (g, t) = sample(60);
        let idx = build(&g, &t, 3, 3);
        let image = encode_v5(&idx);
        let mapped = open_bytes(image).expect("opens");
        assert_eq!(mapped.storage_backend(), StorageBackend::Heap);
        // Metadata visible without any decode.
        assert_eq!(mapped.num_words(), idx.num_words());
        assert_eq!(mapped.num_postings(), idx.num_postings());
        // Resident bytes start near-zero (lexicon only) and grow as
        // words are touched — the decode really is deferred.
        let before = mapped.heap_bytes();
        assert_same_index(&idx, &mapped);
        let after = mapped.heap_bytes();
        assert!(
            after > before,
            "touching words must grow the decode cache ({before} -> {after})"
        );
    }

    #[test]
    fn an_image_read_into_memory_opens_lazily_as_the_heap_tier() {
        let (g, t) = sample(60);
        let idx = build(&g, &t, 3, 2);
        let image = encode_v5(&idx);
        let image_len = image.len();
        let heap = open_region(Region::from_vec(image)).unwrap();
        assert_eq!(heap.storage_backend(), StorageBackend::Heap);
        let before = heap.heap_bytes();
        assert_same_index(&idx, &heap);
        assert!(heap.heap_bytes() > before, "words decode on first touch");
        // The image both shards read from is resident once.
        assert_eq!(heap.resident_bytes(), heap.heap_bytes() + image_len);
    }

    #[test]
    fn v5_file_roundtrip_via_mmap() {
        let (g, t) = sample(40);
        let idx = build(&g, &t, 3, 2);
        let dir = std::env::temp_dir().join("patternkb_storage_v5_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.pkb5");
        save_v5(&idx, &path).unwrap();
        let mapped = open_mapped(&path).unwrap();
        assert_eq!(mapped.storage_backend(), StorageBackend::Mmap);
        assert_same_index(&idx, &mapped);
        // Mapped pages are the page cache's, not the index's.
        assert_eq!(mapped.resident_bytes(), mapped.heap_bytes());
        let read = open_file(&path, StorageBackend::Heap).unwrap();
        assert_eq!(read.storage_backend(), StorageBackend::Heap);
        assert_same_index(&idx, &read);
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(read.resident_bytes(), read.heap_bytes() + file_len);
        std::fs::remove_file(&path).ok();
    }

    /// A root outside its shard's declared range would be mis-routed by
    /// the cross-shard candidate-root merge and by incremental refresh,
    /// so both tiers reject it: collapse one shard's range to empty and
    /// its (well-formed) streams no longer belong there.
    #[test]
    fn v5_rejects_roots_outside_shard_bounds() {
        let (g, t) = sample(30);
        let idx = build(&g, &t, 2, 3);
        assert!(idx.shards().iter().all(|s| s.num_postings() > 0));
        let image = encode_v5(&idx);
        let bound1_at = HEADER_LEN + 4;
        // bounds[1] = 0 empties shard 0 (its roots are now ≥ hi);
        // bounds[1] = bounds[2] empties shard 1 (its roots are now < lo).
        for b1 in [0, idx.bounds()[2]] {
            let mut bad = image.clone();
            bad[bound1_at..bound1_at + 4].copy_from_slice(&b1.to_le_bytes());
            assert!(matches!(
                decode_v5(&bad),
                Err(SnapshotError::BadReference { .. })
            ));
            let mapped = open_bytes(bad).expect("framing is intact");
            let errors: Vec<_> = mapped
                .word_ids()
                .into_iter()
                .filter_map(|w| mapped.prepare_words(&[w]).err())
                .collect();
            assert!(!errors.is_empty(), "bounds[1] = {b1}");
            assert!(errors
                .iter()
                .all(|e| matches!(e, SnapshotError::BadReference { .. })));
        }
    }

    #[test]
    fn v5_rejects_garbage_and_bad_version() {
        assert_eq!(
            decode_v5(b"xx").unwrap_err(),
            SnapshotError::Truncated { offset: 2 }
        );
        assert_eq!(
            decode_v5(b"XXXXxxxxxxxxxxxxxxxxxxxxxxxx").unwrap_err(),
            SnapshotError::BadMagic
        );
        let (g, t) = sample(10);
        let mut image = encode_v5(&build(&g, &t, 2, 1));
        image[4] = 99;
        assert_eq!(
            decode_v5(&image).unwrap_err(),
            SnapshotError::BadVersion(99)
        );
    }

    #[test]
    fn v5_truncation_yields_typed_errors_everywhere() {
        let (g, t) = sample(24);
        let idx = build(&g, &t, 2, 2);
        let image = encode_v5(&idx);
        for cut in [0, 3, 16, 40, 90, image.len() / 2, image.len() - 1] {
            let prefix = &image[..cut];
            // Heap decode fails typed.
            assert!(decode_v5(prefix).is_err(), "heap decode, cut {cut}");
            // Mapped open either fails at open, or opens and then fails
            // typed on prepare — never panics, never serves garbage.
            if let Ok(mapped) = open_bytes(prefix.to_vec()) {
                let mut saw_err = false;
                for w in mapped.word_ids() {
                    if mapped.prepare_words(&[w]).is_err() {
                        saw_err = true;
                    }
                }
                assert!(saw_err, "cut {cut}: open succeeded but no stream failed");
            }
        }
    }

    #[test]
    fn v5_bit_flips_never_panic_and_errors_carry_offsets() {
        let (g, t) = sample(16);
        let idx = build(&g, &t, 2, 1);
        let image = encode_v5(&idx);
        let mut typed_errors = 0usize;
        for byte in 0..image.len() {
            let mut bad = image.clone();
            bad[byte] ^= 0xa5;
            // Heap decode: typed error or a well-formed different decode.
            match decode_v5(&bad) {
                Err(
                    SnapshotError::Truncated { .. }
                    | SnapshotError::BadReference { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::BadVersion(_),
                ) => typed_errors += 1,
                Err(SnapshotError::BadUtf8 { .. }) => typed_errors += 1,
                Ok(_) => {}
            }
            // Mapped path: open + full prepare never panics either.
            if let Ok(mapped) = open_bytes(bad) {
                for w in mapped.word_ids() {
                    let _ = mapped.prepare_words(&[w]);
                }
            }
        }
        assert!(typed_errors > 0, "corruption must surface typed errors");
    }

    #[test]
    fn v5_corrupt_stream_surfaces_via_prepare_with_stream_offset() {
        let (g, t) = sample(24);
        let idx = build(&g, &t, 2, 1);
        let mut image = encode_v5(&idx);
        // The streams section offset sits in directory entry 3.
        let str_off = u64::from_le_bytes(image[24 + 48..24 + 56].try_into().unwrap()) as usize;
        // Damage the first stream's table length (a flipped table byte
        // would be a valid-but-different float).
        image[str_off] ^= 0xff;
        let mapped = open_bytes(image).expect("framing is intact");
        let mut offsets = Vec::new();
        for w in mapped.word_ids() {
            if let Err(e) = mapped.prepare_words(&[w]) {
                match e {
                    SnapshotError::Truncated { offset }
                    | SnapshotError::BadReference { offset } => offsets.push(offset),
                    other => panic!("unexpected error {other:?}"),
                }
            }
        }
        assert!(
            offsets.iter().any(|&o| o >= str_off),
            "error offset must point into the streams section: {offsets:?}"
        );
    }

    #[test]
    fn region_from_vec_and_file_agree() {
        let (g, t) = sample(12);
        let idx = build(&g, &t, 2, 1);
        let image = encode_v5(&idx);
        let dir = std::env::temp_dir().join("patternkb_storage_region_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.pkb5");
        std::fs::write(&path, &image).unwrap();
        let file_region = Region::map_file(&path).unwrap();
        assert_eq!(file_region.bytes(), &image[..]);
        let vec_region = Region::from_vec(image);
        assert!(!vec_region.is_file_mapping());
        std::fs::remove_file(&path).ok();
    }

    /// `MmapFile::drop` unmaps: every `open_mapped` of a file leaves no
    /// mapping of it behind once the last handle on the index is gone,
    /// including a handle shared past the first drop. `save_v5` over a
    /// mapped file replaces its inode, so the live mapping still reads
    /// the image it was opened on rather than faulting past a new EOF.
    /// A full refresh replaces every base, so the refreshed index is on
    /// the heap and holds no reference to the mapping.
    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_a_mapped_index_unmaps_its_file() {
        let (g, t) = sample(40);
        let idx = build(&g, &t, 3, 2);
        let dir = std::env::temp_dir().join("patternkb_storage_unmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("unmap-{}.pkb5", std::process::id()));
        save_v5(&idx, &path).unwrap();
        let name = path.to_str().unwrap().to_string();
        let mappings = || {
            std::fs::read_to_string("/proc/self/maps")
                .unwrap()
                .lines()
                .filter(|l| l.contains(name.as_str()))
                .count()
        };
        assert_eq!(mappings(), 0);
        for _ in 0..8 {
            let mapped = open_mapped(&path).unwrap();
            assert!(mappings() > 0, "open_mapped maps the file");
            assert_same_index(&idx, &mapped);
            drop(mapped);
            assert_eq!(mappings(), 0, "drop unmaps the file");
        }
        let first = Arc::new(open_mapped(&path).unwrap());
        let clone = Arc::clone(&first);
        drop(first);
        assert!(mappings() > 0, "a live clone keeps the mapping");
        // A smaller image, written before any word of the live one is
        // decoded: an in-place rewrite would truncate the mapped file.
        save_v5(&build(&g, &t, 2, 1), &path).unwrap();
        assert_same_index(&idx, &clone);
        drop(clone);
        assert_eq!(mappings(), 0, "the last drop unmaps the file");

        save_v5(&idx, &path).unwrap();
        let mapped = open_mapped(&path).unwrap();
        // Re-reading PageRank (a `Recompute` batch) rebuilds every list.
        let (refreshed, _, changed) =
            crate::incremental::try_refresh_indexes(&mapped, &g, &g, &t, &t, &[NodeId(0)], true)
                .unwrap();
        assert_eq!(changed, crate::incremental::ChangedWords::All);
        assert_eq!(mapped.storage_backend(), StorageBackend::Mmap);
        assert_eq!(refreshed.storage_backend(), StorageBackend::Heap);
        assert_eq!(refreshed.resident_bytes(), refreshed.heap_bytes());
        drop(mapped);
        assert_eq!(mappings(), 0, "a full refresh keeps no handle on the file");
        assert_same_index(&idx, &refreshed);
        std::fs::remove_file(&path).ok();
    }

    /// A word handle owns its list: taken from an opened index, it stays
    /// whole after the index is dropped — on the mapped tier after the
    /// file is unmapped too — and equals the eager decode's list. Evicting
    /// a decoded slot relies on exactly this.
    #[test]
    fn a_word_handle_outlives_its_index() {
        let (g, t) = sample(40);
        let image = encode_v5(&build(&g, &t, 3, 2));
        let fresh = crate::snapshot::decode(&image).unwrap();
        let dir = std::env::temp_dir().join("patternkb_storage_handle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("handle-{}.pkb5", std::process::id()));
        std::fs::write(&path, &image).unwrap();
        let name = path.to_str().unwrap().to_string();
        let mappings = || {
            std::fs::read_to_string("/proc/self/maps").map_or(0, |maps| {
                maps.lines().filter(|l| l.contains(name.as_str())).count()
            })
        };
        for mapped in [true, false] {
            let opened = if mapped {
                open_mapped(&path).unwrap()
            } else {
                open_bytes(image.clone()).unwrap()
            };
            let mut handles = Vec::new();
            for (s, shard) in opened.shards().iter().enumerate() {
                for w in shard.word_ids() {
                    handles.push((s, w, shard.word(w).expect("an intact stream decodes")));
                }
            }
            assert_eq!(
                handles.len(),
                opened.shards().iter().map(IndexShard::num_words).sum()
            );
            drop(opened);
            if mapped && cfg!(target_os = "linux") {
                assert_eq!(mappings(), 0, "dropping the index unmaps the file");
            }
            for (s, w, handle) in handles {
                let list = fresh.word_in(s, w).unwrap();
                assert_eq!(
                    handle.postings_pattern_first(),
                    list.postings_pattern_first()
                );
                assert_eq!(handle.arena(), list.arena(), "shard {s}, word {w:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_window_of_a_buffer_opens_like_the_image_alone() {
        // The image at an unaligned offset between foreign bytes, as a
        // checkpoint's index blob sits after its graph blob.
        let (g, t) = sample(40);
        let idx = build(&g, &t, 3, 2);
        let image = encode_v5(&idx);
        let at = 13;
        let buf = [vec![0xAB; at], image.clone(), vec![0xCD; 5]].concat();
        let region = Region::from_vec_range(buf, at..at + image.len());
        let opened = open_region(region).expect("window opens");
        assert_same_index(&idx, &opened);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("heap".parse::<StorageBackend>(), Ok(StorageBackend::Heap));
        assert_eq!("mmap".parse::<StorageBackend>(), Ok(StorageBackend::Mmap));
        assert!("disk".parse::<StorageBackend>().is_err());
        assert_eq!(StorageBackend::Heap.to_string(), "heap");
        assert_eq!(StorageBackend::Mmap.to_string(), "mmap");
    }
}
