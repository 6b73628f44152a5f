//! The block store façade: named datasets over segments + manifest.
//!
//! A dataset is stored as blocks ([`crate::block`]): `put_blocks` appends
//! one contiguous extent `[block directory][block 0][block 1]…` to the
//! current segment, fsyncs the segment, and only then commits a manifest
//! entry referencing the extent — so a crash at any point leaves either a
//! fully readable dataset or no dataset, never a manifest entry pointing
//! at unsynced bytes. Reading is per block: [`BlockStore::directory`]
//! fetches the directory and verifies it against the manifest's checksum,
//! [`BlockStore::read_block`] is a positional read of one block into a
//! reused buffer followed by that block's checksum verification and
//! decode, so a caller can spread a dataset's blocks over threads and
//! never holds its bytes whole. `put`/`get` of a byte blob are the same
//! blocks cut at [`BLOCK_TARGET_BYTES`] and read back in order. The store
//! speaks bytes only; record typing, where a block ends (on a record
//! boundary) and the spill policy live in the engine's `Dfs` layer.
//!
//! Space is append-only: overwriting or deleting a dataset shadows the
//! old extent in the manifest but does not reclaim segment bytes. The
//! stats report the resulting dead volume so callers (and the bench
//! harness) can see write amplification; compaction is future work and
//! mirrors HDFS, where blocks are immutable and reclamation is a
//! namespace-level concern.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use crate::block::{self, BlockBuf, BlockEntry, EncodedBlock, ENTRY_BYTES};
use crate::checksum::{fnv1a64, fnv1a64_lanes};
use crate::codec::{self, Codec};
use crate::manifest::{BlobMeta, Manifest};
use crate::segment::{SegmentReader, SegmentWriter};

/// Default segment rotation threshold (64 MiB).
pub const DEFAULT_SEGMENT_ROTATE_BYTES: u64 = 64 << 20;

/// Raw (pre-codec) size a block is cut at: 256 KiB. One constant, not a
/// knob: a block must be large enough that its directory row and its
/// `pread` are noise, and small enough that a reader's two block buffers
/// stay in a core's L2 and a dataset of a MiB still splits across every
/// core. The sweep in EXPERIMENTS.md ("Blocks under the durable DFS") has
/// 64 KiB level with it, 1 MiB 4 % behind and 16 MiB 25 % behind on
/// `durable-scan`.
pub const BLOCK_TARGET_BYTES: usize = 1 << 18;

/// Configuration for opening a [`BlockStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding segments and the manifest (created if absent).
    pub dir: PathBuf,
    /// Preferred codec for new blocks (per-block fallback to `Raw` when the
    /// encoding does not shrink; reads always honor the recorded codec).
    pub codec: Codec,
    /// Rotate to a fresh segment file once the current one crosses this.
    pub segment_rotate_bytes: u64,
}

impl StoreOptions {
    /// Options rooted at `dir` with the default codec and rotation size.
    pub fn new(dir: impl Into<PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            codec: Codec::ZeroRle,
            segment_rotate_bytes: DEFAULT_SEGMENT_ROTATE_BYTES,
        }
    }

    /// Set the preferred codec.
    #[must_use]
    pub fn codec(mut self, codec: Codec) -> StoreOptions {
        self.codec = codec;
        self
    }

    /// Set the segment rotation threshold.
    #[must_use]
    pub fn segment_rotate_bytes(mut self, bytes: u64) -> StoreOptions {
        self.segment_rotate_bytes = bytes;
        self
    }
}

/// A blob read back from the store: decoded bytes plus its manifest meta.
#[derive(Debug, Clone)]
pub struct StoredBlob {
    /// Manifest metadata the blob was served under.
    pub meta: BlobMeta,
    /// Decoded (raw) payload bytes.
    pub bytes: Vec<u8>,
}

/// A dataset's verified block directory: what [`BlockStore::read_block`]
/// needs to fetch any of its blocks, in any order, from any thread.
#[derive(Debug, Clone)]
pub struct BlockDirectory {
    name: String,
    meta: BlobMeta,
    entries: Vec<BlockEntry>,
    /// Segment offset of each block.
    offsets: Vec<u64>,
}

impl BlockDirectory {
    /// Manifest metadata of the dataset generation this directory is of.
    #[must_use]
    pub fn meta(&self) -> &BlobMeta {
        &self.meta
    }

    /// One row per block, in extent order.
    #[must_use]
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }
}

/// Per-dataset durable I/O counters (raw, pre-codec byte volumes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetIo {
    /// Raw bytes written for this dataset (sum over all puts).
    pub bytes_written: u64,
    /// Raw bytes read back for this dataset (sum over all gets).
    pub bytes_read: u64,
    /// Number of puts.
    pub writes: u64,
    /// Number of gets.
    pub reads: u64,
}

/// Snapshot of store-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed puts.
    pub puts: u64,
    /// Completed gets (hits only).
    pub gets: u64,
    /// Completed deletes.
    pub deletes: u64,
    /// Raw (pre-codec) bytes accepted by puts.
    pub raw_bytes_written: u64,
    /// On-disk (post-codec) bytes appended to segments.
    pub stored_bytes_written: u64,
    /// Raw bytes served by gets.
    pub raw_bytes_read: u64,
    /// On-disk bytes fetched from segments by gets.
    pub stored_bytes_read: u64,
    /// Live datasets in the namespace.
    pub live_datasets: u64,
    /// On-disk bytes referenced by live datasets.
    pub live_stored_bytes: u64,
    /// Raw bytes represented by live datasets.
    pub live_raw_bytes: u64,
    /// On-disk bytes shadowed by overwrites/deletes (not reclaimed).
    pub dead_stored_bytes: u64,
    /// Torn-tail bytes truncated from the manifest when the store opened.
    pub truncated_bytes_on_open: u64,
}

#[derive(Debug, Default)]
struct Counters {
    puts: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
    raw_bytes_written: AtomicU64,
    stored_bytes_written: AtomicU64,
    raw_bytes_read: AtomicU64,
    stored_bytes_read: AtomicU64,
    dead_stored_bytes: AtomicU64,
}

#[derive(Debug)]
struct WriterState {
    segments: SegmentWriter,
    manifest: Manifest,
}

/// Durable block store: crash-consistent named blobs on local disk.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    codec: Codec,
    index: RwLock<BTreeMap<String, BlobMeta>>,
    writer: Mutex<WriterState>,
    reader: SegmentReader,
    counters: Counters,
    io: Mutex<BTreeMap<String, DatasetIo>>,
    truncated_on_open: u64,
}

impl BlockStore {
    /// Open (creating if needed) the store at `options.dir`, replaying the
    /// manifest to rebuild the namespace.
    pub fn open(options: StoreOptions) -> io::Result<BlockStore> {
        std::fs::create_dir_all(&options.dir)?;
        let (manifest, replay) = Manifest::open(&options.dir)?;
        let segments = SegmentWriter::open(&options.dir, options.segment_rotate_bytes)?;
        Ok(BlockStore {
            dir: options.dir.clone(),
            codec: options.codec,
            index: RwLock::new(replay.index),
            writer: Mutex::new(WriterState { segments, manifest }),
            reader: SegmentReader::new(&options.dir),
            counters: Counters::default(),
            io: Mutex::new(BTreeMap::new()),
            truncated_on_open: replay.truncated_bytes,
        })
    }

    /// Directory the store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably store `raw` under `name`, replacing any previous blob.
    ///
    /// `type_tag` names the record type serialized into the bytes;
    /// `records` and `est_bytes` are engine-level bookkeeping persisted
    /// alongside the extent because they cannot be recovered from the
    /// encoded payload after a restart. The blob is opaque here, so it is
    /// cut every [`BLOCK_TARGET_BYTES`] and `records` is apportioned to
    /// the blocks by byte share; a caller that knows where its records end
    /// encodes its own blocks and calls [`BlockStore::put_blocks`].
    pub fn put(
        &self,
        name: &str,
        type_tag: &str,
        raw: &[u8],
        records: u64,
        est_bytes: u64,
    ) -> io::Result<BlobMeta> {
        let records_before =
            |end: usize| (u128::from(records) * end as u128 / raw.len().max(1) as u128) as u64;
        let blocks: Vec<EncodedBlock<'_>> = raw
            .chunks(BLOCK_TARGET_BYTES)
            .enumerate()
            .map(|(i, chunk)| {
                let start = i * BLOCK_TARGET_BYTES;
                let share = records_before(start + chunk.len()) - records_before(start);
                self.encode_block(chunk, share)
            })
            .collect();
        self.put_blocks(name, type_tag, &blocks, est_bytes)
    }

    /// Encode and checksum one block with this store's preferred codec.
    /// Pure CPU on the caller's thread: blocks of one dataset can be
    /// prepared concurrently and handed to [`BlockStore::put_blocks`].
    #[must_use]
    pub fn encode_block<'a>(&self, raw: &'a [u8], records: u64) -> EncodedBlock<'a> {
        EncodedBlock::encode(self.codec, raw, records)
    }

    /// Durably store `blocks`, in order, as the dataset `name`, replacing
    /// any previous generation: one sequential append of the directory and
    /// the blocks, one fsync, one manifest commit.
    pub fn put_blocks(
        &self,
        name: &str,
        type_tag: &str,
        blocks: &[EncodedBlock<'_>],
        est_bytes: u64,
    ) -> io::Result<BlobMeta> {
        let directory = block::encode_directory(blocks);
        let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + blocks.len());
        parts.push(&directory);
        parts.extend(blocks.iter().map(EncodedBlock::stored));
        let sum = |field: fn(&BlockEntry) -> u64| blocks.iter().map(|b| field(b.entry())).sum();
        let stored_len: u64 = directory.len() as u64 + sum(|e| e.stored_len);
        let raw_len: u64 = sum(|e| e.raw_len);
        let meta = {
            let mut w = self.writer.lock().expect("block store writer poisoned");
            let (segment, offset) = w.segments.append(&parts)?;
            // Crash-consistency: the extent must be durable before the
            // manifest entry referencing it commits.
            w.segments.sync()?;
            let meta = BlobMeta {
                type_tag: type_tag.to_string(),
                blocks: blocks.len() as u64,
                segment,
                offset,
                stored_len,
                raw_len,
                est_bytes,
                records: sum(|e| e.records),
                payload_checksum: fnv1a64(&directory),
            };
            w.manifest.append_put(name, meta.clone())?;
            meta
        };
        let prior = {
            let mut index = self.index.write().expect("block store index poisoned");
            index.insert(name.to_string(), meta.clone())
        };
        if let Some(old) = prior {
            self.counters
                .dead_stored_bytes
                .fetch_add(old.stored_len, Ordering::Relaxed);
        }
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        self.counters
            .raw_bytes_written
            .fetch_add(raw_len, Ordering::Relaxed);
        self.counters
            .stored_bytes_written
            .fetch_add(stored_len, Ordering::Relaxed);
        {
            let mut io = self.io.lock().expect("block store io map poisoned");
            let entry = io.entry(name.to_string()).or_default();
            entry.bytes_written += raw_len;
            entry.writes += 1;
        }
        Ok(meta)
    }

    /// Read the blob stored under `name`, block by block — each verified
    /// against its checksum and decoded — into one buffer. Returns
    /// `Ok(None)` when the name is not live.
    pub fn get(&self, name: &str) -> io::Result<Option<StoredBlob>> {
        let Some(meta) = self.meta(name) else {
            return Ok(None);
        };
        let dir = self.directory(name, meta)?;
        let raw_len = usize::try_from(dir.meta.raw_len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "raw length overflow"))?;
        let mut bytes = Vec::with_capacity(raw_len);
        let mut buf = BlockBuf::default();
        for index in 0..dir.entries.len() {
            bytes.extend_from_slice(self.read_block(&dir, index, &mut buf)?);
        }
        self.record_read(&dir);
        Ok(Some(StoredBlob {
            meta: dir.meta,
            bytes,
        }))
    }

    /// Fetch and verify the block directory of the generation of `name`
    /// that `meta` describes (extents are immutable, so a `meta` obtained
    /// earlier stays readable even if the name has been overwritten
    /// since). Nothing is metered until [`BlockStore::record_read`].
    pub fn directory(&self, name: &str, meta: BlobMeta) -> io::Result<BlockDirectory> {
        let invalid = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} reading dataset '{name}'"),
            )
        };
        let dir_len = usize::try_from(meta.blocks)
            .ok()
            .and_then(|blocks| blocks.checked_mul(ENTRY_BYTES))
            .filter(|&len| len as u64 <= meta.stored_len)
            .ok_or_else(|| invalid("block count exceeds the extent"))?;
        let mut bytes = vec![0u8; dir_len];
        self.reader
            .read_exact_at(meta.segment, meta.offset, &mut bytes)?;
        if fnv1a64(&bytes) != meta.payload_checksum {
            return Err(invalid("block directory checksum mismatch"));
        }
        let entries = block::parse_directory(&bytes)?;
        // The rows must tile the extent exactly, or a block's offset would
        // point outside it.
        let mut offsets = Vec::with_capacity(entries.len());
        let mut end = dir_len as u64;
        let mut raw_len = 0u64;
        for e in &entries {
            offsets.push(meta.offset + end);
            end = end
                .checked_add(e.stored_len)
                .ok_or_else(|| invalid("block lengths overflow"))?;
            raw_len = raw_len
                .checked_add(e.raw_len)
                .ok_or_else(|| invalid("block lengths overflow"))?;
        }
        if end != meta.stored_len || raw_len != meta.raw_len {
            return Err(invalid("block directory disagrees with the manifest"));
        }
        Ok(BlockDirectory {
            name: name.to_string(),
            meta,
            entries,
            offsets,
        })
    }

    /// Read block `index` of `dir` into `buf`, verify its checksum and
    /// decode it; returns the block's raw bytes (borrowed from `buf`).
    /// Safe to call for different blocks from different threads, each with
    /// its own `buf`.
    pub fn read_block<'b>(
        &self,
        dir: &BlockDirectory,
        index: usize,
        buf: &'b mut BlockBuf,
    ) -> io::Result<&'b [u8]> {
        let invalid = |what: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} in block {index} of dataset '{}'", dir.name),
            )
        };
        let entry = &dir.entries[index];
        let (Ok(stored_len), Ok(raw_len)) = (
            usize::try_from(entry.stored_len),
            usize::try_from(entry.raw_len),
        ) else {
            return Err(invalid("length overflow"));
        };
        if buf.stored.len() < stored_len {
            buf.stored.resize(stored_len, 0);
        }
        let stored = &mut buf.stored[..stored_len];
        self.reader
            .read_exact_at(dir.meta.segment, dir.offsets[index], stored)?;
        if fnv1a64_lanes(stored) != entry.checksum {
            return Err(invalid("checksum mismatch"));
        }
        codec::decode(entry.codec, stored, raw_len, &mut buf.raw)
            .map_err(|e| invalid(&e.to_string()))
    }

    /// Meter one completed read of every block of `dir` — a get. The
    /// caller that drove [`BlockStore::read_block`] over the dataset
    /// reports it once, so the counters do not depend on how the blocks
    /// were spread over threads, and a read that failed is not a read.
    pub fn record_read(&self, dir: &BlockDirectory) {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        self.counters
            .stored_bytes_read
            .fetch_add(dir.meta.stored_len, Ordering::Relaxed);
        self.counters
            .raw_bytes_read
            .fetch_add(dir.meta.raw_len, Ordering::Relaxed);
        let mut io = self.io.lock().expect("block store io map poisoned");
        let entry = io.entry(dir.name.clone()).or_default();
        entry.bytes_read += dir.meta.raw_len;
        entry.reads += 1;
    }

    /// Manifest metadata for `name`, if live (no payload read).
    #[must_use]
    pub fn meta(&self, name: &str) -> Option<BlobMeta> {
        self.index
            .read()
            .expect("block store index poisoned")
            .get(name)
            .cloned()
    }

    /// Whether `name` is live in the namespace.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.index
            .read()
            .expect("block store index poisoned")
            .contains_key(name)
    }

    /// Remove `name` from the namespace (extent bytes are not reclaimed).
    /// Returns whether the name was live.
    pub fn delete(&self, name: &str) -> io::Result<bool> {
        let was_live = {
            let index = self.index.read().expect("block store index poisoned");
            index.contains_key(name)
        };
        if !was_live {
            return Ok(false);
        }
        {
            let mut w = self.writer.lock().expect("block store writer poisoned");
            w.manifest.append_delete(name)?;
        }
        let removed = {
            let mut index = self.index.write().expect("block store index poisoned");
            index.remove(name)
        };
        if let Some(old) = removed {
            self.counters
                .dead_stored_bytes
                .fetch_add(old.stored_len, Ordering::Relaxed);
            self.counters.deletes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(true)
    }

    /// Names of all live datasets, sorted.
    #[must_use]
    pub fn datasets(&self) -> Vec<String> {
        self.index
            .read()
            .expect("block store index poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Per-dataset durable I/O counters accumulated since open.
    #[must_use]
    pub fn dataset_io(&self) -> BTreeMap<String, DatasetIo> {
        self.io.lock().expect("block store io map poisoned").clone()
    }

    /// Snapshot of store-wide counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let (live_datasets, live_stored_bytes, live_raw_bytes) = {
            let index = self.index.read().expect("block store index poisoned");
            (
                index.len() as u64,
                index.values().map(|m| m.stored_len).sum(),
                index.values().map(|m| m.raw_len).sum(),
            )
        };
        StoreStats {
            puts: self.counters.puts.load(Ordering::Relaxed),
            gets: self.counters.gets.load(Ordering::Relaxed),
            deletes: self.counters.deletes.load(Ordering::Relaxed),
            raw_bytes_written: self.counters.raw_bytes_written.load(Ordering::Relaxed),
            stored_bytes_written: self.counters.stored_bytes_written.load(Ordering::Relaxed),
            raw_bytes_read: self.counters.raw_bytes_read.load(Ordering::Relaxed),
            stored_bytes_read: self.counters.stored_bytes_read.load(Ordering::Relaxed),
            live_datasets,
            live_stored_bytes,
            live_raw_bytes,
            dead_stored_bytes: self.counters.dead_stored_bytes.load(Ordering::Relaxed),
            truncated_bytes_on_open: self.truncated_on_open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("haten2-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> BlockStore {
        BlockStore::open(StoreOptions::new(dir)).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = open(&dir);
        let payload: Vec<u8> = (0..500u32).flat_map(|i| i.to_le_bytes()).collect();
        let meta = store.put("ds/x", "u32", &payload, 500, 2000).unwrap();
        assert_eq!(meta.raw_len, payload.len() as u64);
        assert_eq!(meta.records, 500);
        assert_eq!(meta.est_bytes, 2000);

        let blob = store.get("ds/x").unwrap().unwrap();
        assert_eq!(blob.bytes, payload);
        assert_eq!(blob.meta.type_tag, "u32");

        assert!(store.delete("ds/x").unwrap());
        assert!(!store.delete("ds/x").unwrap());
        assert!(store.get("ds/x").unwrap().is_none());
        assert!(!store.contains("ds/x"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmpdir("reopen");
        let payload = vec![7u8; 1000];
        {
            let store = open(&dir);
            store.put("keep", "u8", &payload, 1000, 1000).unwrap();
            store.put("drop", "u8", &[1, 2, 3], 3, 3).unwrap();
            store.delete("drop").unwrap();
            store.put("keep2", "u8", &[9; 10], 10, 10).unwrap();
        }
        let store = open(&dir);
        assert_eq!(store.datasets(), vec!["keep".to_string(), "keep2".into()]);
        assert_eq!(store.get("keep").unwrap().unwrap().bytes, payload);
        assert_eq!(store.get("keep2").unwrap().unwrap().bytes, vec![9u8; 10]);
        assert!(store.get("drop").unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrite_shadows_and_counts_dead_bytes() {
        let dir = tmpdir("shadow");
        let store = open(&dir);
        store.put("a", "u8", &[1u8; 100], 100, 100).unwrap();
        let first_stored = store.stats().stored_bytes_written;
        store.put("a", "u8", &[2u8; 100], 100, 100).unwrap();
        assert_eq!(store.get("a").unwrap().unwrap().bytes, vec![2u8; 100]);
        let stats = store.stats();
        assert_eq!(stats.live_datasets, 1);
        assert_eq!(stats.dead_stored_bytes, first_stored);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn per_dataset_io_is_metered() {
        let dir = tmpdir("meter");
        let store = open(&dir);
        store.put("a", "u8", &[0u8; 64], 64, 64).unwrap();
        store.get("a").unwrap().unwrap();
        store.get("a").unwrap().unwrap();
        let io = store.dataset_io();
        assert_eq!(io["a"].writes, 1);
        assert_eq!(io["a"].reads, 2);
        assert_eq!(io["a"].bytes_written, 64);
        assert_eq!(io["a"].bytes_read, 128);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_extent_is_detected_on_read() {
        let dir = tmpdir("bitrot");
        let store = open(&dir);
        // Incompressible payload so it is stored raw and byte 0 of the
        // extent is payload (not codec framing).
        let payload: Vec<u8> = (1..=255u8).cycle().take(300).collect();
        let meta = store.put("a", "u8", &payload, 300, 300).unwrap();
        drop(store);
        // Flip the block's first byte on disk (the directory precedes it).
        let seg = dir.join(crate::segment::segment_file_name(meta.segment));
        let mut bytes = std::fs::read(&seg).unwrap();
        let at = usize::try_from(meta.offset).unwrap() + ENTRY_BYTES;
        bytes[at] ^= 0xff;
        std::fs::write(&seg, &bytes).unwrap();
        let store = open(&dir);
        let err = store.get("a").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressible_payloads_store_smaller() {
        let dir = tmpdir("codec");
        let store = open(&dir);
        let mut payload = Vec::new();
        for i in 0..2000u64 {
            payload.extend_from_slice(&(i % 50).to_le_bytes());
        }
        let meta = store.put("ix", "u64", &payload, 2000, 16000).unwrap();
        assert_eq!(meta.blocks, 1);
        assert!(meta.stored_len * 2 < meta.raw_len);
        assert_eq!(store.get("ix").unwrap().unwrap().bytes, payload);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tmpdir("emptyblob");
        let store = open(&dir);
        store.put("nil", "unit", &[], 0, 0).unwrap();
        let blob = store.get("nil").unwrap().unwrap();
        assert!(blob.bytes.is_empty());
        drop(store);
        let store = open(&dir);
        assert!(store.get("nil").unwrap().unwrap().bytes.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
