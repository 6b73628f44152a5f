//! Versioned, checksummed manifest log.
//!
//! The manifest is the store's namespace: an append-only log of `put` and
//! `delete` records mapping dataset names to segment extents (each extent
//! a block directory followed by its blocks, see [`crate::block`]). Replaying
//! the log from the top reconstructs the live name → extent index after a
//! restart — the single-machine analogue of an HDFS `NameNode` replaying
//! its edit log.
//!
//! Each entry is framed as
//!
//! ```text
//! [u32 body_len] [u64 fnv1a64(body)] [body…]
//! ```
//!
//! so a crash mid-append leaves a *torn tail*: a frame whose length field
//! runs past EOF or whose checksum does not match. Replay stops at the
//! first torn frame and truncates the file there — every fully committed
//! entry before it survives, and the store's crash-consistency contract
//! (segment extent fsynced *before* its manifest entry is appended) means
//! a truncated tail never orphans referenced data, only un-references
//! bytes that were still in flight.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::checksum::fnv1a64;

/// Name of the manifest log inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.log";

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// Everything the store must remember about one committed blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlobMeta {
    /// Type tag of the records serialized into the blob (e.g.
    /// `"((u64,u64,u64,u64),f64)"`), checked on read so a dataset is never
    /// decoded as the wrong record type after a restart.
    pub type_tag: String,
    /// Number of blocks in the extent; its first `blocks` directory rows
    /// describe them.
    pub blocks: u64,
    /// Segment file the extent lives in.
    pub segment: u32,
    /// Byte offset of the extent inside the segment.
    pub offset: u64,
    /// On-disk extent length: the directory plus every (post-codec) block.
    pub stored_len: u64,
    /// Decoded payload length, summed over the blocks.
    pub raw_len: u64,
    /// In-memory size estimate of the dataset (`EstimateSize` bytes);
    /// persisted because it cannot be recomputed from encoded bytes.
    pub est_bytes: u64,
    /// Number of records in the dataset.
    pub records: u64,
    /// FNV-1a digest of the extent's block directory, whose rows carry
    /// each block's own digest.
    pub payload_checksum: u64,
}

/// One replayed manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Monotonic version; later entries for a name shadow earlier ones.
    pub version: u64,
    /// Dataset name the entry applies to.
    pub name: String,
    /// `Some(meta)` for a put, `None` for a delete.
    pub meta: Option<BlobMeta>,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let out = self.bytes.get(self.pos..self.pos + n).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "truncated manifest body")
        })?;
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn str(&mut self, len: usize) -> io::Result<String> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 manifest string"))
    }
}

fn encode_body(entry: &ManifestEntry) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(64 + entry.name.len());
    body.push(if entry.meta.is_some() {
        KIND_PUT
    } else {
        KIND_DELETE
    });
    put_u64(&mut body, entry.version);
    let name_len = u16::try_from(entry.name.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "dataset name too long"))?;
    put_u16(&mut body, name_len);
    body.extend_from_slice(entry.name.as_bytes());
    if let Some(meta) = &entry.meta {
        let tag_len = u16::try_from(meta.type_tag.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "type tag too long"))?;
        put_u16(&mut body, tag_len);
        body.extend_from_slice(meta.type_tag.as_bytes());
        put_u64(&mut body, meta.blocks);
        put_u32(&mut body, meta.segment);
        put_u64(&mut body, meta.offset);
        put_u64(&mut body, meta.stored_len);
        put_u64(&mut body, meta.raw_len);
        put_u64(&mut body, meta.est_bytes);
        put_u64(&mut body, meta.records);
        put_u64(&mut body, meta.payload_checksum);
    }
    Ok(body)
}

fn decode_body(body: &[u8]) -> io::Result<ManifestEntry> {
    let mut c = Cursor {
        bytes: body,
        pos: 0,
    };
    let kind = c.u8()?;
    let version = c.u64()?;
    let name_len = c.u16()? as usize;
    let name = c.str(name_len)?;
    let meta = match kind {
        KIND_DELETE => None,
        KIND_PUT => {
            let tag_len = c.u16()? as usize;
            let type_tag = c.str(tag_len)?;
            Some(BlobMeta {
                type_tag,
                blocks: c.u64()?,
                segment: c.u32()?,
                offset: c.u64()?,
                stored_len: c.u64()?,
                raw_len: c.u64()?,
                est_bytes: c.u64()?,
                records: c.u64()?,
                payload_checksum: c.u64()?,
            })
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown manifest entry kind {other}"),
            ))
        }
    };
    if c.pos != body.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes in manifest body",
        ));
    }
    Ok(ManifestEntry {
        version,
        name,
        meta,
    })
}

/// Outcome of replaying a manifest log.
#[derive(Debug)]
pub struct Replay {
    /// Live namespace after applying every committed entry in order.
    pub index: BTreeMap<String, BlobMeta>,
    /// Next version to assign (max committed version + 1).
    pub next_version: u64,
    /// Committed entries replayed.
    pub entries: usize,
    /// Bytes of torn tail truncated away, if any.
    pub truncated_bytes: u64,
}

/// Open handle to the manifest log: replay on open, append afterwards.
#[derive(Debug)]
pub struct Manifest {
    file: File,
    path: PathBuf,
    next_version: u64,
    entries: usize,
}

impl Manifest {
    /// Open (creating if absent) the manifest in `dir`, replaying the log
    /// and truncating any torn tail left by a crash mid-append.
    pub fn open(dir: &Path) -> io::Result<(Manifest, Replay)> {
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = Vec::new();
        match File::open(&path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        let mut index = BTreeMap::new();
        let mut next_version = 1u64;
        let mut entries = 0usize;
        let mut pos = 0usize;
        let valid_end = loop {
            if pos == bytes.len() {
                break pos;
            }
            let Some(header) = bytes.get(pos..pos + 12) else {
                break pos;
            };
            let body_len = u32::from_le_bytes(header[0..4].try_into().expect("len 4")) as usize;
            let want = u64::from_le_bytes(header[4..12].try_into().expect("len 8"));
            let Some(body) = bytes.get(pos + 12..pos + 12 + body_len) else {
                break pos;
            };
            if fnv1a64(body) != want {
                break pos;
            }
            let Ok(entry) = decode_body(body) else {
                break pos;
            };
            next_version = next_version.max(entry.version + 1);
            match entry.meta {
                Some(meta) => {
                    index.insert(entry.name, meta);
                }
                None => {
                    index.remove(&entry.name);
                }
            }
            entries += 1;
            pos += 12 + body_len;
        };

        let truncated_bytes = (bytes.len() - valid_end) as u64;
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        if truncated_bytes > 0 {
            file.set_len(valid_end as u64)?;
            file.sync_data()?;
        }
        let mut manifest = Manifest {
            file,
            path,
            next_version,
            entries,
        };
        // Position the cursor at the committed end for future appends.
        io::Seek::seek(&mut manifest.file, io::SeekFrom::Start(valid_end as u64))?;
        Ok((
            manifest,
            Replay {
                index,
                next_version,
                entries,
                truncated_bytes,
            },
        ))
    }

    fn append(&mut self, entry: &ManifestEntry) -> io::Result<()> {
        let body = encode_body(entry)?;
        let body_len = u32::try_from(body.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "manifest body too large"))?;
        let mut frame = Vec::with_capacity(12 + body.len());
        put_u32(&mut frame, body_len);
        put_u64(&mut frame, fnv1a64(&body));
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.entries += 1;
        Ok(())
    }

    /// Commit a put; returns the version assigned to the entry.
    pub fn append_put(&mut self, name: &str, meta: BlobMeta) -> io::Result<u64> {
        let version = self.next_version;
        self.append(&ManifestEntry {
            version,
            name: name.to_string(),
            meta: Some(meta),
        })?;
        self.next_version += 1;
        Ok(version)
    }

    /// Commit a delete; returns the version assigned to the entry.
    pub fn append_delete(&mut self, name: &str) -> io::Result<u64> {
        let version = self.next_version;
        self.append(&ManifestEntry {
            version,
            name: name.to_string(),
            meta: None,
        })?;
        self.next_version += 1;
        Ok(version)
    }

    /// Committed entries in the log (including shadowed and deleted ones).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Path of the log file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("haten2-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(segment: u32, offset: u64) -> BlobMeta {
        BlobMeta {
            type_tag: "((u64,u64,u64,u64),f64)".to_string(),
            blocks: 2,
            segment,
            offset,
            stored_len: 100,
            raw_len: 400,
            est_bytes: 640,
            records: 10,
            payload_checksum: 0xdead_beef,
        }
    }

    #[test]
    fn body_roundtrip() {
        for entry in [
            ManifestEntry {
                version: 1,
                name: "tensor/x".to_string(),
                meta: Some(meta(3, 1234)),
            },
            ManifestEntry {
                version: 9,
                name: "gone".to_string(),
                meta: None,
            },
        ] {
            let body = encode_body(&entry).unwrap();
            assert_eq!(decode_body(&body).unwrap(), entry);
        }
    }

    #[test]
    fn replay_applies_puts_deletes_and_shadowing() {
        let dir = tmpdir("replay");
        {
            let (mut m, replay) = Manifest::open(&dir).unwrap();
            assert_eq!(replay.entries, 0);
            m.append_put("a", meta(0, 0)).unwrap();
            m.append_put("b", meta(0, 100)).unwrap();
            m.append_put("a", meta(1, 0)).unwrap(); // shadows the first put
            m.append_delete("b").unwrap();
        }
        let (m, replay) = Manifest::open(&dir).unwrap();
        assert_eq!(replay.entries, 4);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(m.entries(), 4);
        assert_eq!(replay.next_version, 5);
        assert_eq!(replay.index.len(), 1);
        assert_eq!(replay.index["a"].segment, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let dir = tmpdir("torn");
        {
            let (mut m, _) = Manifest::open(&dir).unwrap();
            m.append_put("a", meta(0, 0)).unwrap();
            m.append_put("b", meta(0, 100)).unwrap();
        }
        // Simulate a crash mid-append: garbage tail bytes.
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(&[0x42; 7]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut m, replay) = Manifest::open(&dir).unwrap();
        assert_eq!(replay.entries, 2);
        assert_eq!(replay.truncated_bytes, 7);
        assert_eq!(replay.index.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, committed);

        // Appending after truncation produces a clean, replayable log.
        m.append_delete("a").unwrap();
        let (_, replay) = Manifest::open(&dir).unwrap();
        assert_eq!(replay.entries, 3);
        assert_eq!(replay.index.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_cuts_replay_at_that_entry() {
        let dir = tmpdir("corrupt");
        {
            let (mut m, _) = Manifest::open(&dir).unwrap();
            m.append_put("a", meta(0, 0)).unwrap();
            m.append_put("b", meta(0, 100)).unwrap();
            m.append_put("c", meta(0, 200)).unwrap();
        }
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the middle entry's body; replay must stop before it.
        let one_entry = bytes.len() / 3;
        bytes[one_entry + 20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_, replay) = Manifest::open(&dir).unwrap();
        assert_eq!(replay.entries, 1);
        assert_eq!(replay.index.len(), 1);
        assert!(replay.index.contains_key("a"));
        assert!(replay.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_logs_open_clean() {
        let dir = tmpdir("empty");
        let (_, replay) = Manifest::open(&dir).unwrap();
        assert_eq!(replay.entries, 0);
        assert_eq!(replay.next_version, 1);
        assert!(replay.index.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
