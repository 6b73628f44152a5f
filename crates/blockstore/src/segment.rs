//! Append-only segment files.
//!
//! A segment is a plain data file `seg-NNNNNN.dat` that only ever grows;
//! a stored dataset is one contiguous extent `(segment, offset, len)`
//! inside one segment — its block directory followed by its blocks. The
//! writer appends to the newest segment and rotates to a fresh file once
//! it crosses the configured size, so no file grows unboundedly and old
//! segments become immutable — the single-machine analogue of a
//! `DataNode`'s block files.
//!
//! Reads are positional (`pread`-style): a shared, cached read handle per
//! segment plus `read_at` at the recorded offset. There is no user-level
//! buffer layer — the OS page cache *is* the cache, which gives hot
//! extents mmap-like service times without `unsafe` or explicit mappings.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File name of segment `id` inside the store directory.
#[must_use]
pub fn segment_file_name(id: u32) -> String {
    format!("seg-{id:06}.dat")
}

/// Parse a segment id back out of a file name, if it is one of ours.
#[must_use]
pub fn parse_segment_file_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".dat")?;
    if digits.len() == 6 && digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// Appends blobs to the newest segment, rotating at a size threshold.
#[derive(Debug)]
pub struct SegmentWriter {
    dir: PathBuf,
    id: u32,
    file: File,
    len: u64,
    rotate_at: u64,
    synced: bool,
}

impl SegmentWriter {
    /// Open the writer over `dir`, resuming the highest-numbered existing
    /// segment (or creating `seg-000000.dat` in an empty directory).
    pub fn open(dir: &Path, rotate_at: u64) -> io::Result<SegmentWriter> {
        let mut max_id: Option<u32> = None;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(id) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                max_id = Some(max_id.map_or(id, |m: u32| m.max(id)));
            }
        }
        let id = max_id.unwrap_or(0);
        let path = dir.join(segment_file_name(id));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(SegmentWriter {
            dir: dir.to_path_buf(),
            id,
            file,
            len,
            rotate_at: rotate_at.max(1),
            synced: true,
        })
    }

    /// Append `parts` back to back as one extent — never split across a
    /// rotation — and return the `(segment, offset)` it starts at. The data
    /// is not durable until [`SegmentWriter::sync`] returns.
    pub fn append(&mut self, parts: &[&[u8]]) -> io::Result<(u32, u64)> {
        let extent_len: u64 = parts.iter().map(|p| p.len() as u64).sum();
        if self.len > 0 && self.len.saturating_add(extent_len) > self.rotate_at {
            self.rotate()?;
        }
        let offset = self.len;
        self.synced = false;
        for part in parts {
            io::Write::write_all(&mut self.file, part)?;
            self.len += part.len() as u64;
        }
        Ok((self.id, offset))
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.id += 1;
        let path = self.dir.join(segment_file_name(self.id));
        self.file = OpenOptions::new().create(true).append(true).open(&path)?;
        self.len = 0;
        self.synced = true;
        Ok(())
    }

    /// Fsync the current segment. Must complete before a manifest entry
    /// referencing the appended extent is committed.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.synced {
            self.file.sync_data()?;
            self.synced = true;
        }
        Ok(())
    }

    /// Id of the segment currently being appended to.
    #[must_use]
    pub fn current_segment(&self) -> u32 {
        self.id
    }

    /// Bytes in the segment currently being appended to.
    #[must_use]
    pub fn current_len(&self) -> u64 {
        self.len
    }
}

/// Shared positional reader over a store directory's segments.
///
/// Read handles are opened lazily and cached per segment; reads go through
/// `read_at` (on Unix) so concurrent readers never contend on a seek
/// cursor and the page cache backs repeated access to hot extents.
#[derive(Debug, Default)]
pub struct SegmentReader {
    dir: PathBuf,
    handles: Mutex<HashMap<u32, Arc<File>>>,
}

impl SegmentReader {
    /// A reader over the segments in `dir`.
    #[must_use]
    pub fn new(dir: &Path) -> SegmentReader {
        SegmentReader {
            dir: dir.to_path_buf(),
            handles: Mutex::new(HashMap::new()),
        }
    }

    fn handle(&self, segment: u32) -> io::Result<Arc<File>> {
        let mut handles = self.handles.lock().expect("segment reader cache poisoned");
        if let Some(f) = handles.get(&segment) {
            return Ok(Arc::clone(f));
        }
        let path = self.dir.join(segment_file_name(segment));
        let file = Arc::new(File::open(&path)?);
        handles.insert(segment, Arc::clone(&file));
        Ok(file)
    }

    /// Fill `buf` from `offset` in `segment`; a short read is an error.
    pub fn read_exact_at(&self, segment: u32, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        read_exact_at(&*self.handle(segment)?, buf, offset)
    }

    /// Drop cached read handles (e.g. after segments are removed).
    pub fn clear_cache(&self) {
        self.handles
            .lock()
            .expect("segment reader cache poisoned")
            .clear();
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    // Portable fallback: clone the handle so the shared cursor is not
    // disturbed, then seek + read on the clone.
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("haten2-segment-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn read(r: &SegmentReader, segment: u32, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        r.read_exact_at(segment, offset, &mut buf)?;
        Ok(buf)
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(segment_file_name(7), "seg-000007.dat");
        assert_eq!(parse_segment_file_name("seg-000007.dat"), Some(7));
        assert_eq!(parse_segment_file_name("seg-7.dat"), None);
        assert_eq!(parse_segment_file_name("manifest.log"), None);
        assert_eq!(parse_segment_file_name("seg-00000x.dat"), None);
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut w = SegmentWriter::open(&dir, 1 << 20).unwrap();
        let (s0, o0) = w.append(&[b"hello"]).unwrap();
        let (s1, o1) = w.append(&[b"wor", b"", b"ld!"]).unwrap();
        w.sync().unwrap();
        assert_eq!((s0, o0), (0, 0));
        assert_eq!((s1, o1), (0, 5));
        let r = SegmentReader::new(&dir);
        assert_eq!(read(&r, s0, o0, 5).unwrap(), b"hello");
        assert_eq!(read(&r, s1, o1, 6).unwrap(), b"world!");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_creates_new_segments() {
        let dir = tmpdir("rotate");
        let mut w = SegmentWriter::open(&dir, 10).unwrap();
        let (s0, _) = w.append(&[&[1u8; 8]]).unwrap();
        let (s1, o1) = w.append(&[&[2u8; 8]]).unwrap();
        let (s2, o2) = w.append(&[&[3u8; 64]]).unwrap(); // oversized blob still fits alone
        w.sync().unwrap();
        assert_eq!(s0, 0);
        assert_eq!((s1, o1), (1, 0));
        assert_eq!((s2, o2), (2, 0));
        let r = SegmentReader::new(&dir);
        assert_eq!(read(&r, s2, o2, 64).unwrap(), vec![3u8; 64]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_resumes_highest_segment() {
        let dir = tmpdir("reopen");
        {
            let mut w = SegmentWriter::open(&dir, 10).unwrap();
            w.append(&[&[1u8; 8]]).unwrap();
            w.append(&[&[2u8; 8]]).unwrap(); // rotates to segment 1
            w.sync().unwrap();
        }
        let mut w = SegmentWriter::open(&dir, 10).unwrap();
        assert_eq!(w.current_segment(), 1);
        assert_eq!(w.current_len(), 8);
        let (s, o) = w.append(&[&[9u8; 2]]).unwrap();
        w.sync().unwrap();
        // 8 + 2 = 10 <= rotate_at, so it stays in segment 1.
        assert_eq!((s, o), (1, 8));
        let r = SegmentReader::new(&dir);
        assert_eq!(read(&r, 1, 8, 2).unwrap(), vec![9u8; 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_read_is_an_error() {
        let dir = tmpdir("short");
        let mut w = SegmentWriter::open(&dir, 1 << 20).unwrap();
        w.append(&[b"abc"]).unwrap();
        w.sync().unwrap();
        let r = SegmentReader::new(&dir);
        assert!(read(&r, 0, 1, 10).is_err());
        assert!(read(&r, 3, 0, 1).is_err()); // no such segment
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
