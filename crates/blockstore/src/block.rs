//! The block: the unit a dataset is stored, checksummed and read in.
//!
//! A dataset's extent is `[directory][block 0][block 1]…`. Each block is a
//! run of whole records, encoded on its own ([`crate::codec`]: word-granular
//! zero suppression by default, raw when that does not shrink it; blocks
//! of older stores may be zero-RLE) and checksummed on its own, so
//! readers can fetch, verify and decode blocks independently — on
//! different threads, or one at a time through a small reused buffer —
//! instead of materialising the dataset's bytes. The directory has one
//! fixed-width row per block,
//!
//! ```text
//! [u64 stored_len] [u64 raw_len] [u64 records] [u8 codec] [u64 fnv1a64_lanes(stored bytes)]
//! ```
//!
//! and is itself covered by the manifest entry's `payload_checksum`, which
//! the manifest frame's checksum covers in turn: manifest → directory →
//! block. No stored byte is handed to a decoder before the link above it
//! has verified.

use std::borrow::Cow;
use std::io;

use crate::checksum::fnv1a64_lanes;
use crate::codec::{self, Codec};

/// Bytes of one directory row.
pub(crate) const ENTRY_BYTES: usize = 33;

/// Directory row: everything needed to fetch, verify and decode one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// On-disk (post-codec) length of the block.
    pub stored_len: u64,
    /// Decoded length of the block.
    pub raw_len: u64,
    /// Records serialized into the block (blocks hold whole records).
    pub records: u64,
    /// Codec this block was stored with.
    pub codec: Codec,
    /// [`fnv1a64_lanes`] digest of the block's stored bytes.
    pub checksum: u64,
}

/// One block encoded and checksummed, ready to be appended.
#[derive(Debug, Clone)]
pub struct EncodedBlock<'a> {
    entry: BlockEntry,
    stored: Cow<'a, [u8]>,
}

impl<'a> EncodedBlock<'a> {
    /// Encode `raw` — the wire bytes of `records` whole records — with
    /// `preferred` (raw fallback per block) and checksum the result. A
    /// raw-stored block borrows `raw`.
    #[must_use]
    pub fn encode(preferred: Codec, raw: &'a [u8], records: u64) -> EncodedBlock<'a> {
        let (codec, stored) = codec::encode_auto(preferred, raw);
        EncodedBlock {
            entry: BlockEntry {
                stored_len: stored.len() as u64,
                raw_len: raw.len() as u64,
                records,
                codec,
                checksum: fnv1a64_lanes(&stored),
            },
            stored,
        }
    }

    /// Detach from the caller's buffer (copies a raw-stored block).
    #[must_use]
    pub fn into_owned(self) -> EncodedBlock<'static> {
        EncodedBlock {
            entry: self.entry,
            stored: Cow::Owned(self.stored.into_owned()),
        }
    }

    /// The block's directory row.
    #[must_use]
    pub fn entry(&self) -> &BlockEntry {
        &self.entry
    }

    /// The bytes that go to disk.
    #[must_use]
    pub fn stored(&self) -> &[u8] {
        &self.stored
    }
}

/// Serialize the directory of `blocks`.
pub(crate) fn encode_directory(blocks: &[EncodedBlock<'_>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.len() * ENTRY_BYTES);
    for block in blocks {
        let e = &block.entry;
        out.extend_from_slice(&e.stored_len.to_le_bytes());
        out.extend_from_slice(&e.raw_len.to_le_bytes());
        out.extend_from_slice(&e.records.to_le_bytes());
        out.push(e.codec.tag());
        out.extend_from_slice(&e.checksum.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_directory`]; `bytes` must already have verified
/// against the manifest's checksum.
pub(crate) fn parse_directory(bytes: &[u8]) -> io::Result<Vec<BlockEntry>> {
    if !bytes.len().is_multiple_of(ENTRY_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("block directory of {} bytes is not whole rows", bytes.len()),
        ));
    }
    let u64_at = |row: &[u8], at: usize| {
        u64::from_le_bytes(row[at..at + 8].try_into().expect("8-byte field of a row"))
    };
    bytes
        .chunks_exact(ENTRY_BYTES)
        .map(|row| {
            Ok(BlockEntry {
                stored_len: u64_at(row, 0),
                raw_len: u64_at(row, 8),
                records: u64_at(row, 16),
                codec: Codec::from_tag(row[24])?,
                checksum: u64_at(row, 25),
            })
        })
        .collect()
}

/// Reusable buffers for reading blocks one after another: the bytes as
/// stored, and the decode target of a compressed block.
#[derive(Debug, Default)]
pub struct BlockBuf {
    pub(crate) stored: Vec<u8>,
    pub(crate) raw: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_roundtrips() {
        let zeros = vec![0u8; 4096];
        let dense: Vec<u8> = (1..=255u8).cycle().take(300).collect();
        let blocks = [
            EncodedBlock::encode(Codec::Words, &zeros, 512),
            EncodedBlock::encode(Codec::Words, &dense, 300),
            EncodedBlock::encode(Codec::Raw, &[], 0),
            EncodedBlock::encode(Codec::ZeroRle, &zeros, 512),
        ];
        assert_eq!(blocks[0].entry().codec, Codec::Words);
        assert_eq!(blocks[1].entry().codec, Codec::Raw);
        assert_eq!(blocks[3].entry().codec, Codec::ZeroRle);
        let bytes = encode_directory(&blocks);
        assert_eq!(bytes.len(), 4 * ENTRY_BYTES);
        let back = parse_directory(&bytes).unwrap();
        let want: Vec<BlockEntry> = blocks.iter().map(|b| *b.entry()).collect();
        assert_eq!(back, want);
        assert!(parse_directory(&[]).unwrap().is_empty());
    }

    #[test]
    fn malformed_directories_are_rejected() {
        let block = EncodedBlock::encode(Codec::Raw, &[1, 2, 3], 3);
        let mut bytes = encode_directory(std::slice::from_ref(&block));
        assert!(parse_directory(&bytes[..ENTRY_BYTES - 1]).is_err());
        bytes[24] = 9; // unknown codec tag
        assert!(parse_directory(&bytes).is_err());
    }

    #[test]
    fn raw_stored_block_borrows_until_detached() {
        let dense: Vec<u8> = (1..=200u8).collect();
        let block = EncodedBlock::encode(Codec::Words, &dense, 200);
        assert_eq!(block.stored().as_ptr(), dense.as_ptr());
        let owned = block.into_owned();
        assert_ne!(owned.stored().as_ptr(), dense.as_ptr());
        assert_eq!(owned.stored(), &dense[..]);
    }
}
