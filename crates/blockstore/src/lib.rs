//! Durable append-only block store — the on-disk half of the HaTen2 DFS.
//!
//! HaTen2 keeps the input tensor, every intermediate dataset, and the
//! factor matrices on HDFS; the billion-nonzero regime of the paper is
//! only reachable because datasets larger than cluster RAM live in HDFS
//! blocks and are streamed back on demand. This crate reproduces the
//! storage layer of that story against the local filesystem:
//!
//! * **Segments** ([`segment`]) — append-only data files
//!   (`seg-NNNNNN.dat`). A dataset is one contiguous extent in a segment;
//!   readers fetch pieces of it with positional reads (`pread`), so the
//!   OS page cache serves hot extents without any user-level buffer
//!   management — the mmap-style access path of an HDFS `DataNode`.
//! * **Blocks** ([`block`]) — the HDFS block. An extent is a block
//!   directory followed by blocks of ~256 KiB of whole records, each encoded
//!   and checksummed on its own, so a dataset is read (and prepared for
//!   writing) block by block on as many threads as the caller has, through
//!   block-sized buffers rather than dataset-sized ones.
//! * **Manifest** ([`manifest`]) — a versioned, checksummed append-only
//!   log mapping dataset name → (segment, offset, length, block count,
//!   type tag, directory checksum). Replaying the log reconstructs the
//!   namespace after a crash or restart; a torn tail (a crash mid-append)
//!   is detected by the per-entry checksum and truncated away. This is
//!   the `NameNode`'s edit log, scaled to one machine. Integrity chains
//!   downward: manifest frame → block directory → block.
//! * **Codec** ([`codec`]) — optional per-block compression. Sparse
//!   tensor payloads are index-heavy (`u64` slots whose high bytes are
//!   almost always zero), so suppressing each word's zero high bytes
//!   removes most of the wire volume without burning CPU on entropy
//!   coding. The byte zero-run codec older stores were written with is
//!   still read.
//! * **Store** ([`store`]) — the façade tying them together:
//!   `put_blocks`/`directory`/`read_block` of named datasets (and
//!   `put`/`get` of byte blobs over the same blocks) plus `delete`, with
//!   crash-consistent durability (segment extent is fsynced before the
//!   manifest entry that references it commits).
//! * **Local FS façade** ([`localfs`]) — atomic, fsynced small-file
//!   writes for the checkpoint layer, so *all* file I/O of the engine
//!   crates is confined to this crate (`crates/{mapreduce,core}/clippy.toml`
//!   ban `std::fs` there) and every write follows the same
//!   crash-consistency discipline.
//!
//! The crate speaks bytes only: record typing, size estimation, and the
//! spill/cache policy live in `haten2-mapreduce`'s `Dfs`, which drives
//! this store through its `Durable` backend.

#![forbid(unsafe_code)]

pub mod block;
pub mod checksum;
pub mod codec;
pub mod localfs;
pub mod manifest;
pub mod segment;
pub mod store;

pub use block::{BlockBuf, BlockEntry, EncodedBlock};
pub use checksum::{fnv1a64, fnv1a64_lanes};
pub use codec::Codec;
pub use manifest::{BlobMeta, Manifest, ManifestEntry};
pub use store::{
    BlockDirectory, BlockStore, DatasetIo, StoreOptions, StoreStats, StoredBlob, BLOCK_TARGET_BYTES,
};
