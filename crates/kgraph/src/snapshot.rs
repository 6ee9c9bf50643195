//! Versioned binary snapshots of a [`KnowledgeGraph`].
//!
//! Large synthetic datasets are expensive to regenerate, so the experiment
//! harness persists them. The codec is hand-written over [`bytes`]: a small,
//! dependency-light length-prefixed format.
//!
//! Layout (little endian):
//!
//! ```text
//! magic "PKBG" | u32 version | types | attrs |
//! u32 n | n × (u32 type, str text) |
//! u32 m | m × (u32 src, u32 attr, u32 dst) |
//! u8 has_pagerank | n × f64
//! ```
//!
//! where an interner is `u32 count | count × str` and `str` is
//! `u32 len | bytes`.
//!
//! The module also owns the pieces every other binary codec in the stack
//! shares: [`SnapshotError`] (decode failures carrying the byte offset
//! where they happened) and [`Reader`] (a little-endian cursor that
//! produces those errors). The index snapshot, the delta codec and the
//! write-ahead log all decode through them, so a corrupt file anywhere
//! reports the same actionable `<path>: … at byte N` shape.

use crate::builder::GraphBuilder;
use crate::graph::KnowledgeGraph;
use crate::ids::Id;
use crate::interner::Interner;
use bytes::{BufMut, BytesMut};

const MAGIC: &[u8; 4] = b"PKBG";
const VERSION: u32 = 1;

/// Errors from decoding any patternkb binary format ([`decode`], the index
/// snapshot, the delta codec, WAL records).
///
/// Every data-dependent variant carries the absolute byte offset at which
/// decoding failed, so a corrupt-file report pinpoints the damage instead
/// of just naming the failure class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Input does not start with the expected magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Input ended early or a length prefix overruns the buffer.
    Truncated {
        /// Byte offset at which the input ran out.
        offset: usize,
    },
    /// A string was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the offending string's length prefix.
        offset: usize,
    },
    /// An id referenced an out-of-range interner slot or node.
    BadReference {
        /// Byte offset just past the record holding the bad id.
        offset: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a patternkb snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot is truncated at byte {offset}")
            }
            SnapshotError::BadUtf8 { offset } => {
                write!(f, "snapshot contains invalid UTF-8 at byte {offset}")
            }
            SnapshotError::BadReference { offset } => {
                write!(f, "snapshot contains an out-of-range id near byte {offset}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Wrap a decode failure as [`std::io::ErrorKind::InvalidData`], prefixed
/// with the file path — the one helper every IO call site (graph and index
/// snapshots, WAL segments, checkpoints) uses so corrupt-file reports name
/// the file *and* the byte offset.
pub fn invalid_data(path: &std::path::Path, e: SnapshotError) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{}: {e}", path.display()),
    )
}

/// A little-endian decoding cursor that tracks its absolute byte offset
/// and reports it in every error. Shared by all binary codecs in the
/// workspace (graph/index snapshots, [`crate::mutate::GraphDelta`] bytes,
/// WAL records). It borrows its input: nothing is copied to read it.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `data`, positioned at byte 0.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Absolute byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fail with [`SnapshotError::Truncated`] unless `n` bytes remain.
    pub fn need(&self, n: usize) -> Result<(), SnapshotError> {
        if self.remaining() < n {
            Err(SnapshotError::Truncated {
                offset: self.offset(),
            })
        } else {
            Ok(())
        }
    }

    /// Read a `u32` element count and check that the input can still hold
    /// that many elements of at least `min_elem_bytes` each — the one
    /// gate every count-driven allocation goes through, so a corrupt
    /// count is a [`SnapshotError::Truncated`] at the count's offset
    /// instead of a multi-gigabyte `Vec::with_capacity`.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let offset = self.offset();
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(SnapshotError::Truncated { offset }),
        }
    }

    /// A [`SnapshotError::BadReference`] at the current offset, for call
    /// sites that validate an id they just read.
    pub fn bad_reference(&self) -> SnapshotError {
        SnapshotError::BadReference {
            offset: self.offset(),
        }
    }

    /// The next `n` bytes, borrowed, and move past them.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.need(n)?;
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        Ok(self.bytes(N)?.try_into().expect("N bytes"))
    }

    /// Read exactly `out.len()` bytes.
    pub fn take(&mut self, out: &mut [u8]) -> Result<(), SnapshotError> {
        out.copy_from_slice(self.bytes(out.len())?);
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Read a `u32 len | bytes` length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let start = self.offset();
        let len = self.u32()? as usize;
        std::str::from_utf8(self.bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| SnapshotError::BadUtf8 { offset: start })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_interner<I: Id>(buf: &mut BytesMut, interner: &Interner<I>) {
    buf.put_u32_le(interner.len() as u32);
    for (_, s) in interner.iter() {
        put_str(buf, s);
    }
}

/// Serialize `g` to a byte buffer.
pub fn encode(g: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + g.heap_bytes());
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    put_interner(&mut buf, g.types());
    put_interner(&mut buf, g.attrs());
    buf.put_u32_le(g.num_nodes() as u32);
    for v in g.nodes() {
        buf.put_u32_le(g.node_type(v).as_u32());
        put_str(&mut buf, g.node_text(v));
    }
    buf.put_u32_le(g.num_edges() as u32);
    for e in g.edges() {
        buf.put_u32_le(e.source.as_u32());
        buf.put_u32_le(e.attr.as_u32());
        buf.put_u32_le(e.target.as_u32());
    }
    let has_pr = g.nodes().any(|v| g.pagerank(v) != 0.0);
    buf.put_u8(has_pr as u8);
    if has_pr {
        for v in g.nodes() {
            buf.put_f64_le(g.pagerank(v));
        }
    }
    buf.to_vec()
}

/// Deserialize a graph previously produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<KnowledgeGraph, SnapshotError> {
    let mut r = Reader::new(data);
    let mut magic = [0u8; 4];
    r.take(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }

    // A string is at least its 4-byte length prefix.
    let ntypes = r.count(4)?;
    let mut type_texts = Vec::with_capacity(ntypes);
    for _ in 0..ntypes {
        type_texts.push(r.str()?);
    }
    if type_texts.first().map(String::as_str) != Some("") {
        return Err(r.bad_reference());
    }
    let nattrs = r.count(4)?;
    let mut attr_texts = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        attr_texts.push(r.str()?);
    }

    let mut b = GraphBuilder::new();
    b.skip_pagerank();
    let mut type_ids = Vec::with_capacity(ntypes);
    type_ids.push(KnowledgeGraph::TEXT_TYPE);
    for t in type_texts.iter().skip(1) {
        type_ids.push(b.add_type(t));
    }
    let mut attr_ids = Vec::with_capacity(nattrs);
    for a in &attr_texts {
        attr_ids.push(b.add_attr(a));
    }

    let n = r.count(4 + 4)?; // type id + text length prefix
    let mut node_ids = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.u32()? as usize;
        let text = r.str()?;
        let &tid = type_ids.get(t).ok_or_else(|| r.bad_reference())?;
        node_ids.push(b.add_node(tid, &text));
    }
    let m = r.u32()? as usize;
    for _ in 0..m {
        let s = r.u32()? as usize;
        let a = r.u32()? as usize;
        let t = r.u32()? as usize;
        let &src = node_ids.get(s).ok_or_else(|| r.bad_reference())?;
        let &attr = attr_ids.get(a).ok_or_else(|| r.bad_reference())?;
        let &dst = node_ids.get(t).ok_or_else(|| r.bad_reference())?;
        b.add_edge(src, attr, dst);
    }
    let mut g = b.build();
    if r.u8()? == 1 {
        r.need(8 * n)?;
        let mut pr = Vec::with_capacity(n);
        for _ in 0..n {
            pr.push(r.f64()?);
        }
        g.set_pagerank(pr);
    }
    Ok(g)
}

/// Write a snapshot to `path`.
pub fn save(g: &KnowledgeGraph, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(g))
}

/// Read a snapshot from `path`.
pub fn load(path: &std::path::Path) -> std::io::Result<KnowledgeGraph> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| invalid_data(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_type("Software");
        let t2 = b.add_type("Company");
        let dev = b.add_attr("Developer");
        let rev = b.add_attr("Revenue");
        let sql = b.add_node(t1, "SQL Server");
        let ms = b.add_node(t2, "Microsoft");
        b.add_edge(sql, dev, ms);
        b.add_text_edge(ms, rev, "US$ 77 billion");
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let decoded = decode(&encode(&g)).expect("decode");
        assert_eq!(decoded.num_nodes(), g.num_nodes());
        assert_eq!(decoded.num_edges(), g.num_edges());
        for v in g.nodes() {
            assert_eq!(decoded.node_text(v), g.node_text(v));
            assert_eq!(
                decoded.type_text(decoded.node_type(v)),
                g.type_text(g.node_type(v))
            );
            assert!((decoded.pagerank(v) - g.pagerank(v)).abs() < 1e-15);
        }
        let ge: Vec<_> = g.edges().collect();
        let de: Vec<_> = decoded.edges().collect();
        assert_eq!(ge.len(), de.len());
        for (a, b) in ge.iter().zip(&de) {
            assert_eq!(g.attr_text(a.attr), decoded.attr_text(b.attr));
            assert_eq!(a.source, b.source);
            assert_eq!(a.target, b.target);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            decode(b"np").unwrap_err(),
            SnapshotError::Truncated { offset: 0 }
        );
        assert_eq!(decode(b"nope").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(
            decode(b"XXXX\x01\x00\x00\x00").unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut data = encode(&sample());
        data[4] = 99;
        assert_eq!(decode(&data).unwrap_err(), SnapshotError::BadVersion(99));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let data = encode(&sample());
        // Chop the buffer at a few places; decoding must error, not panic,
        // and the reported offset must sit inside the surviving prefix.
        for cut in [5, 10, 20, data.len() / 2, data.len() - 1] {
            match decode(&data[..cut]) {
                Err(SnapshotError::Truncated { offset }) => {
                    assert!(offset <= cut, "offset {offset} beyond cut {cut}")
                }
                Err(_) => {}
                Ok(_) => panic!("cut at {cut} should fail"),
            }
        }
    }

    #[test]
    fn count_is_checked_against_the_remaining_bytes() {
        let mut data = 3u32.to_le_bytes().to_vec();
        data.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&data).count(4), Ok(3));
        assert_eq!(
            Reader::new(&data).count(5),
            Err(SnapshotError::Truncated { offset: 0 })
        );
        // A product that overflows `usize` is rejected, not wrapped.
        let huge = u32::MAX.to_le_bytes();
        assert_eq!(
            Reader::new(&huge).count(usize::MAX),
            Err(SnapshotError::Truncated { offset: 0 })
        );
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let e = SnapshotError::Truncated { offset: 17 };
        assert!(e.to_string().contains("byte 17"), "{e}");
        let path = std::path::Path::new("/data/broken.pkbg");
        let io = invalid_data(path, e);
        let msg = io.to_string();
        assert!(
            msg.contains("broken.pkbg") && msg.contains("byte 17"),
            "{msg}"
        );
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("patternkb_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.pkbg");
        save(&g, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.num_nodes(), g.num_nodes());
        std::fs::remove_file(&path).ok();
    }
}
