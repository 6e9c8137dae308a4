//! The `PTRC` wire format: constants, CRC32, LEB128 varints, and the framed
//! header ([`TraceMeta`]).
//!
//! Layout (all multi-byte integers little-endian):
//!
//! ```text
//! header  := "PTRC" version:u16 flags:u16 cores:u32 nodes:u32 length:u64
//!            name_len:varint name:bytes
//!            class_count:u8 class:u8 ...        (ascending, < MAX_CLASSES)
//!            crc32:u32                          (over all preceding bytes)
//! chunk   := 0x01 payload_len:u32 payload crc32:u32
//!            payload := seq:varint count:varint base_cycle:varint
//!                       event ...               (count times)
//!            event   := cycle_delta:varint src_core:varint dst_node:varint
//!                       kindclass:u8            (kind low 2 bits, class high nibble)
//! footer  := 0xFF payload_len:u32 payload crc32:u32
//!            payload := total_chunks:varint total_events:varint
//! ```
//!
//! Cycle stamps are delta-encoded within a chunk against the chunk's own
//! `base_cycle` (the first event's absolute cycle), so every chunk decodes
//! independently; the embedded `seq` defeats chunk reordering, which a
//! per-chunk CRC alone cannot. Frame CRCs cover the tag and length bytes as
//! well as the payload, so a bit-flip anywhere in a frame is caught.

use pnoc_sim::Cycle;
use pnoc_traffic::{ClassId, PacketKind, MAX_CLASSES};
use std::io::{self, Read};

/// File magic: the first four bytes of every PTRC stream.
pub const MAGIC: [u8; 4] = *b"PTRC";
/// Wire-format version this crate reads and writes.
pub const VERSION: u16 = 1;
/// Frame tag of an event chunk.
pub const CHUNK_TAG: u8 = 0x01;
/// Frame tag of the trailing footer.
pub const FOOTER_TAG: u8 = 0xFF;
/// Default events per chunk (the writer's buffering granularity — and the
/// reader's peak memory, which is O(chunk), never O(trace)).
pub const DEFAULT_CHUNK_EVENTS: usize = 4096;
/// Upper bound on events per chunk a writer may buffer.
pub const MAX_CHUNK_EVENTS: usize = 32_768;
/// Upper bound on a chunk payload the reader will allocate; a corrupt
/// length field cannot make it allocate more.
pub const MAX_CHUNK_PAYLOAD: usize = 1 << 20;
/// Upper bound on the header's workload-name length.
pub const MAX_NAME_LEN: usize = 4096;

/// Shorthand for the only error kind malformed input ever produces.
pub(crate) fn invalid(why: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.into())
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected), table-driven.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// LEB128 varints.

/// Append `v` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// A bounds-checked cursor over a decoded payload. Every failure is an
/// [`io::ErrorKind::InvalidData`] error — payload decoding never panics.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| invalid("payload truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Unsigned LEB128. Rejects encodings longer than 10 bytes and 10-byte
    /// encodings whose final byte overflows 64 bits.
    pub(crate) fn varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(invalid("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(invalid("varint longer than 10 bytes"));
            }
        }
    }

    /// All payload bytes must be consumed: leftover bytes in a CRC-valid
    /// frame mean the declared event count and the payload disagree.
    pub(crate) fn finish(self, what: &str) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(invalid(format!(
                "{what} payload has {} undecoded trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Kind/class packing.

/// Pack a message kind (low 2 bits) and class (high nibble) into one byte.
/// Bits 2–3 are reserved-zero, so every corrupted byte pattern is either a
/// valid different event (caught by the CRC) or structurally rejected.
pub(crate) fn pack_kindclass(kind: PacketKind, class: ClassId) -> u8 {
    let k = match kind {
        PacketKind::Request => 0u8,
        PacketKind::Reply => 1,
        PacketKind::Data => 2,
    };
    debug_assert!(usize::from(class) < MAX_CLASSES);
    k | (class << 4)
}

/// Inverse of [`pack_kindclass`]; rejects reserved bit patterns.
pub(crate) fn unpack_kindclass(byte: u8) -> io::Result<(PacketKind, ClassId)> {
    if byte & 0b0000_1100 != 0 {
        return Err(invalid(format!(
            "kindclass byte {byte:#04x} sets reserved bits"
        )));
    }
    let kind = match byte & 0b11 {
        0 => PacketKind::Request,
        1 => PacketKind::Reply,
        2 => PacketKind::Data,
        _ => {
            return Err(invalid(format!(
                "kindclass byte {byte:#04x} has invalid kind"
            )))
        }
    };
    let class = byte >> 4;
    if usize::from(class) >= MAX_CLASSES {
        return Err(invalid(format!("class {class} out of range")));
    }
    Ok((kind, class))
}

// ---------------------------------------------------------------------------
// Header.

/// The trace-level metadata carried by a PTRC header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-readable workload name.
    pub name: String,
    /// Number of cores the trace addresses.
    pub cores: usize,
    /// Number of nodes the trace addresses.
    pub nodes: usize,
    /// Total cycles the trace spans (events satisfy `cycle < length`).
    pub length: Cycle,
    /// Tenant classes events may carry: non-empty, strictly ascending, each
    /// below [`MAX_CLASSES`]. An event whose class is outside this table is
    /// malformed.
    pub classes: Vec<ClassId>,
}

impl TraceMeta {
    /// Metadata with the default single-class table `[0]`.
    pub fn new(name: impl Into<String>, cores: usize, nodes: usize, length: Cycle) -> Self {
        Self {
            name: name.into(),
            cores,
            nodes,
            length,
            classes: vec![0],
        }
    }

    /// Replace the tenant-class table.
    pub fn with_classes(mut self, classes: Vec<ClassId>) -> Self {
        self.classes = classes;
        self
    }

    /// Structural validation (shared by the writer and the header parser).
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.nodes == 0 {
            return Err(format!(
                "trace dimensions must be positive (cores {}, nodes {})",
                self.cores, self.nodes
            ));
        }
        if u32::try_from(self.cores).is_err() || u32::try_from(self.nodes).is_err() {
            return Err("trace dimensions must fit in u32".to_string());
        }
        if self.name.len() > MAX_NAME_LEN {
            return Err(format!("trace name longer than {MAX_NAME_LEN} bytes"));
        }
        if self.classes.is_empty() {
            return Err("class table must be non-empty".to_string());
        }
        if !self.classes.windows(2).all(|w| w[0] < w[1]) {
            return Err("class table must be strictly ascending".to_string());
        }
        if usize::from(*self.classes.last().expect("non-empty")) >= MAX_CLASSES {
            return Err(format!("class table exceeds MAX_CLASSES ({MAX_CLASSES})"));
        }
        Ok(())
    }

    /// Membership mask over the class table.
    pub(crate) fn class_mask(&self) -> [bool; MAX_CLASSES] {
        let mut mask = [false; MAX_CLASSES];
        for &c in &self.classes {
            mask[usize::from(c)] = true;
        }
        mask
    }

    /// Serialize the header, including its trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.validate().is_ok(), "encoding an invalid TraceMeta");
        let mut buf = Vec::with_capacity(40 + self.name.len() + self.classes.len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        buf.extend_from_slice(&(self.cores as u32).to_le_bytes());
        buf.extend_from_slice(&(self.nodes as u32).to_le_bytes());
        buf.extend_from_slice(&self.length.to_le_bytes());
        put_varint(&mut buf, self.name.len() as u64);
        buf.extend_from_slice(self.name.as_bytes());
        buf.push(self.classes.len() as u8);
        buf.extend_from_slice(&self.classes);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// Read and validate a PTRC header from the front of `r`. Returns the
/// metadata and the number of header bytes consumed. Every malformation —
/// wrong magic, unsupported version, CRC mismatch, truncation, out-of-range
/// dimensions or class table — is [`io::ErrorKind::InvalidData`].
pub(crate) fn read_header<R: Read>(r: &mut R) -> io::Result<(TraceMeta, usize)> {
    let mut raw: Vec<u8> = Vec::with_capacity(64);
    let mut take = |n: usize, raw: &mut Vec<u8>, what: &str| -> io::Result<usize> {
        let start = raw.len();
        raw.resize(start + n, 0);
        r.read_exact(&mut raw[start..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                invalid(format!("header truncated in {what}"))
            } else {
                e
            }
        })?;
        Ok(start)
    };

    let at = take(24, &mut raw, "fixed fields")?;
    if raw[at..at + 4] != MAGIC {
        return Err(invalid("bad magic: not a PTRC stream"));
    }
    let version = u16::from_le_bytes([raw[4], raw[5]]);
    if version != VERSION {
        return Err(invalid(format!(
            "unsupported PTRC version {version} (expected {VERSION})"
        )));
    }
    let flags = u16::from_le_bytes([raw[6], raw[7]]);
    if flags != 0 {
        return Err(invalid(format!("reserved flags set: {flags:#06x}")));
    }
    let cores = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
    let nodes = u32::from_le_bytes([raw[12], raw[13], raw[14], raw[15]]) as usize;
    let length = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));

    // Name: streamed varint, then the bytes.
    let mut name_len = 0u64;
    let mut shift = 0u32;
    loop {
        let at = take(1, &mut raw, "name length")?;
        let byte = raw[at];
        name_len |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 21 {
            return Err(invalid("name length varint too long"));
        }
    }
    if name_len as usize > MAX_NAME_LEN {
        return Err(invalid(format!(
            "name length {name_len} exceeds {MAX_NAME_LEN}"
        )));
    }
    let at = take(name_len as usize, &mut raw, "name")?;
    let name = std::str::from_utf8(&raw[at..])
        .map_err(|_| invalid("trace name is not UTF-8"))?
        .to_string();

    let at = take(1, &mut raw, "class count")?;
    let class_count = raw[at] as usize;
    let at = take(class_count, &mut raw, "class table")?;
    let classes: Vec<ClassId> = raw[at..].to_vec();

    let crc_computed = crc32(&raw);
    let at = take(4, &mut raw, "header CRC")?;
    let crc_stored = u32::from_le_bytes(raw[at..].try_into().expect("4 bytes"));
    if crc_computed != crc_stored {
        return Err(invalid(format!(
            "header CRC mismatch (stored {crc_stored:#010x}, computed {crc_computed:#010x})"
        )));
    }

    let meta = TraceMeta {
        name,
        cores,
        nodes,
        length,
        classes,
    };
    meta.validate().map_err(invalid)?;
    Ok((meta, raw.len()))
}

// ---------------------------------------------------------------------------
// Structural frame walking (test harness support).

/// Walk a complete in-memory PTRC buffer and return `(header_len, frames)`,
/// where each frame range covers tag + length + payload + CRC. Purely
/// structural (frame CRCs are *not* checked) — this is the corruption and
/// reorder test harness's scalpel, not a validating reader.
pub fn frame_ranges(buf: &[u8]) -> io::Result<(usize, Vec<std::ops::Range<usize>>)> {
    let mut slice = buf;
    let (_, header_len) = read_header(&mut slice)?;
    let mut frames = Vec::new();
    let mut pos = header_len;
    while pos < buf.len() {
        if buf.len() - pos < 5 {
            return Err(invalid("trailing bytes too short for a frame"));
        }
        let tag = buf[pos];
        if tag != CHUNK_TAG && tag != FOOTER_TAG {
            return Err(invalid(format!("unknown frame tag {tag:#04x}")));
        }
        let len = u32::from_le_bytes(buf[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        let end = pos
            .checked_add(5 + len + 4)
            .filter(|&e| e <= buf.len())
            .ok_or_else(|| invalid("frame length exceeds buffer"))?;
        frames.push(pos..end);
        pos = end;
    }
    Ok((header_len, frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_round_trips_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.varint().unwrap(), v);
            c.finish("test").unwrap();
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes.
        let buf = [0x80u8; 11];
        assert!(Cursor::new(&buf).varint().is_err());
        // 10-byte encoding whose top byte overflows bit 64.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(Cursor::new(&buf).varint().is_err());
        // u64::MAX itself is fine.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(Cursor::new(&buf).varint().unwrap(), u64::MAX);
    }

    #[test]
    fn kindclass_round_trips_and_rejects_reserved() {
        for kind in [PacketKind::Request, PacketKind::Reply, PacketKind::Data] {
            for class in 0..MAX_CLASSES as u8 {
                let byte = pack_kindclass(kind, class);
                assert_eq!(unpack_kindclass(byte).unwrap(), (kind, class));
            }
        }
        assert!(unpack_kindclass(0b0000_0011).is_err(), "kind 3 invalid");
        assert!(unpack_kindclass(0b0000_0100).is_err(), "reserved bit 2");
        assert!(unpack_kindclass(0b0000_1000).is_err(), "reserved bit 3");
        assert!(unpack_kindclass(0x40).is_err(), "class 4 out of range");
    }

    #[test]
    fn header_round_trips() {
        let meta = TraceMeta::new("fft", 64, 16, 1_000_000).with_classes(vec![0, 1, 3]);
        let bytes = meta.encode();
        let mut slice = bytes.as_slice();
        let (back, consumed) = read_header(&mut slice).unwrap();
        assert_eq!(back, meta);
        assert_eq!(consumed, bytes.len());
        assert!(slice.is_empty());
    }

    #[test]
    fn header_rejects_bad_magic_version_and_crc() {
        let meta = TraceMeta::new("x", 4, 2, 100);
        let good = meta.encode();

        let mut bad = good.clone();
        bad[0] = b'Q';
        let err = read_header(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut bad = good.clone();
        bad[4] = 9;
        assert!(read_header(&mut bad.as_slice()).is_err());

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        let err = read_header(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC"));
    }

    #[test]
    fn header_truncation_is_invalid_data() {
        let meta = TraceMeta::new("truncate-me", 8, 4, 50);
        let good = meta.encode();
        for cut in 0..good.len() {
            let err = read_header(&mut &good[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn meta_validation_rejects_degenerates() {
        assert!(TraceMeta::new("x", 0, 4, 10).validate().is_err());
        assert!(TraceMeta::new("x", 4, 0, 10).validate().is_err());
        assert!(TraceMeta::new("x", 4, 4, 10)
            .with_classes(vec![])
            .validate()
            .is_err());
        assert!(TraceMeta::new("x", 4, 4, 10)
            .with_classes(vec![1, 1])
            .validate()
            .is_err());
        assert!(TraceMeta::new("x", 4, 4, 10)
            .with_classes(vec![0, MAX_CLASSES as u8])
            .validate()
            .is_err());
        assert!(TraceMeta::new("x", 4, 4, 10)
            .with_classes(vec![0, 1, 2, 3])
            .validate()
            .is_ok());
    }
}
