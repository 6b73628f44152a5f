//! Property tests: codec round-trips, strictness and robustness over
//! random data, store recovery, and the block layout's round-trip and
//! corruption behaviour at every block of a many-block extent.

#![allow(clippy::unwrap_used)]

use haten2_blockstore::codec::{
    decode, encode_auto, words_decode, words_encode, zero_rle_decode, zero_rle_encode,
};
use haten2_blockstore::segment::segment_file_name;
use haten2_blockstore::{BlobMeta, BlockBuf, BlockStore, Codec, StoreOptions, BLOCK_TARGET_BYTES};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haten2-blocks-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> BlockStore {
    BlockStore::open(StoreOptions::new(dir)).unwrap()
}

/// Index-heavy bytes (compress) with an incompressible stretch in the
/// middle, so a many-block blob has blocks of both codecs.
fn mixed_payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let dense = (len / 4..3 * (len / 4)).contains(&i);
            if dense || i % 8 == 0 {
                (i % 251 + 1) as u8
            } else {
                0
            }
        })
        .collect()
}

/// Rewrite the store's one segment file through `edit`.
fn edit_segment(dir: &Path, meta: &BlobMeta, edit: impl FnOnce(&mut Vec<u8>)) {
    let seg = dir.join(segment_file_name(meta.segment));
    let mut bytes = std::fs::read(&seg).unwrap();
    edit(&mut bytes);
    std::fs::write(&seg, &bytes).unwrap();
}

#[test]
fn blobs_of_every_block_count_roundtrip() {
    let dir = tmp_dir("sizes");
    let sizes = [
        0,
        1,
        BLOCK_TARGET_BYTES - 1,
        BLOCK_TARGET_BYTES,
        BLOCK_TARGET_BYTES + 1,
        3 * BLOCK_TARGET_BYTES + 17,
    ];
    {
        let store = open(&dir);
        for len in sizes {
            let payload = mixed_payload(len);
            let meta = store
                .put(&format!("b{len}"), "u8", &payload, len as u64, len as u64)
                .unwrap();
            assert_eq!(meta.blocks, len.div_ceil(BLOCK_TARGET_BYTES) as u64);
            assert_eq!(meta.raw_len, len as u64);
            assert_eq!(meta.records, len as u64, "record shares sum to the total");
        }
    }
    // Blocks written by one process are read by the next.
    let store = open(&dir);
    for len in sizes {
        let blob = store.get(&format!("b{len}")).unwrap().unwrap();
        assert_eq!(blob.bytes, mixed_payload(len), "len {len}");
    }
    // One get meters the payload once, whatever its block count; the
    // directory is stored bytes but not payload.
    let last = sizes[sizes.len() - 1];
    let io = store.dataset_io();
    assert_eq!(io[&format!("b{last}")].bytes_read, last as u64);
    assert_eq!(io[&format!("b{last}")].reads, 1);
    assert_eq!(store.stats().gets, sizes.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn blocks_are_readable_independently_and_in_any_order() {
    let dir = tmp_dir("anyorder");
    let store = open(&dir);
    let payload = mixed_payload(4 * BLOCK_TARGET_BYTES + 5);
    let meta = store.put("x", "u8", &payload, 7, 7).unwrap();
    let directory = store.directory("x", meta).unwrap();
    let codecs: Vec<Codec> = directory.entries().iter().map(|e| e.codec).collect();
    assert!(codecs.contains(&Codec::Raw) && codecs.contains(&Codec::Words));
    let mut buf = BlockBuf::default();
    for index in (0..directory.entries().len()).rev() {
        let start = index * BLOCK_TARGET_BYTES;
        let end = (start + BLOCK_TARGET_BYTES).min(payload.len());
        let raw = store.read_block(&directory, index, &mut buf).unwrap();
        assert_eq!(raw, &payload[start..end], "block {index}");
    }
    // Driving blocks by hand meters nothing until the read is reported.
    assert_eq!(store.stats().gets, 0);
    store.record_read(&directory);
    assert_eq!(store.stats().gets, 1);
    assert_eq!(store.stats().raw_bytes_read, payload.len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_flipped_byte_in_any_block_or_the_directory_is_detected() {
    let dir = tmp_dir("flip");
    let payload = mixed_payload(3 * BLOCK_TARGET_BYTES + 100);
    let meta = open(&dir).put("x", "u8", &payload, 1, 1).unwrap();
    let directory = open(&dir).directory("x", meta.clone()).unwrap();
    let dir_len = (meta.stored_len
        - directory
            .entries()
            .iter()
            .map(|e| e.stored_len)
            .sum::<u64>()) as usize;
    // One victim byte in the directory, then first/middle/last of every
    // block.
    let base = meta.offset as usize;
    let mut victims = vec![("directory".to_string(), base + dir_len / 2)];
    let mut at = base + dir_len;
    for (i, e) in directory.entries().iter().enumerate() {
        let len = e.stored_len as usize;
        for off in [0, len / 2, len - 1] {
            victims.push((format!("block {i}"), at + off));
        }
        at += len;
    }
    assert_eq!(victims.len(), 1 + 3 * 4);
    for (what, victim) in victims {
        edit_segment(&dir, &meta, |bytes| bytes[victim] ^= 0x40);
        let err = match open(&dir).get("x") {
            Err(err) => err,
            Ok(blob) => panic!("{what}: served {:?} bytes", blob.map(|b| b.bytes.len())),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains("'x'"), "{what}: {err}");
        edit_segment(&dir, &meta, |bytes| bytes[victim] ^= 0x40);
    }
    // Restored bit for bit: readable again.
    assert_eq!(open(&dir).get("x").unwrap().unwrap().bytes, payload);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_extent_truncated_at_any_block_boundary_is_an_error() {
    let dir = tmp_dir("truncate");
    let payload = mixed_payload(3 * BLOCK_TARGET_BYTES + 100);
    let meta = open(&dir).put("x", "u8", &payload, 1, 1).unwrap();
    let directory = open(&dir).directory("x", meta.clone()).unwrap();
    let mut cut = (meta.offset + meta.stored_len) as usize;
    for e in directory.entries().iter().rev() {
        // Drop the last remaining block, then the one before it, …
        cut -= e.stored_len as usize;
        edit_segment(&dir, &meta, |bytes| bytes.truncate(cut));
        assert!(open(&dir).get("x").is_err(), "cut at {cut}");
    }
    // … and finally the directory itself.
    edit_segment(&dir, &meta, |bytes| bytes.truncate(meta.offset as usize));
    assert!(open(&dir).get("x").is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Little-endian words of 0 to 8 significant bytes each, cut to a length
/// of 0 to 4096 bytes (rarely a multiple of the codec's 16-byte pair).
fn word_bytes() -> impl Strategy<Value = Vec<u8>> {
    let words = proptest::collection::vec((0u32..=8, any::<u64>()), 0..=512);
    (words, 0usize..=4096).prop_map(|(words, len)| {
        let mut raw: Vec<u8> = (words.iter())
            .flat_map(|&(n, w)| {
                let mask = if n == 0 { 0 } else { u64::MAX >> (64 - 8 * n) };
                (w & mask).to_le_bytes()
            })
            .collect();
        raw.truncate(len);
        raw
    })
}

proptest! {
    #[test]
    fn words_roundtrip_at_any_length(raw in word_bytes()) {
        let enc = words_encode(&raw);
        prop_assert_eq!(words_decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn every_cut_of_a_word_stream_fails(raw in word_bytes(), at in any::<u64>()) {
        let enc = words_encode(&raw);
        // One cut drawn at random, and the last byte lost.
        let cut = usize::try_from(at % enc.len() as u64).unwrap();
        prop_assert!(words_decode(&enc[..cut], raw.len()).is_err(), "cut at {}", cut);
        prop_assert!(words_decode(&enc[..enc.len() - 1], raw.len()).is_err());
    }

    #[test]
    fn a_trailing_byte_fails(raw in word_bytes(), extra in any::<u8>()) {
        let mut enc = words_encode(&raw);
        enc.push(extra);
        prop_assert!(words_decode(&enc, raw.len()).is_err());
    }

    #[test]
    fn a_nibble_of_nine_to_fifteen_fails(raw in word_bytes(), nibble in 9u8..=15, high in any::<bool>(), pick in any::<u64>()) {
        prop_assume!(raw.len() >= 16);
        let enc = words_encode(&raw);
        // Walk the tags to a random pair's and overwrite one nibble.
        let pairs = raw.len() / 16;
        let target = usize::try_from(pick % pairs as u64).unwrap();
        // Past the varint of the length (one byte below 128, else two).
        let mut pos = if raw.len() < 128 { 1 } else { 2 };
        for _ in 0..target {
            pos += 1 + usize::from(enc[pos] & 0xf) + usize::from(enc[pos] >> 4);
        }
        let mut bad = enc.clone();
        bad[pos] = if high { (bad[pos] & 0x0f) | (nibble << 4) } else { (bad[pos] & 0xf0) | nibble };
        let err = words_decode(&bad, raw.len()).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_declared_length_off_by_one_fails(raw in word_bytes()) {
        let enc = words_encode(&raw);
        prop_assert!(words_decode(&enc, raw.len() + 1).is_err());
        if !raw.is_empty() {
            prop_assert!(words_decode(&enc, raw.len() - 1).is_err());
        }
    }

    #[test]
    fn incompressible_blocks_are_stored_raw(raw in proptest::collection::vec(1u8..=255, 0..=4096)) {
        // No zero byte: every word has all 8 significant bytes, so the
        // stream is the payload plus its tags and never shrinks.
        let (codec, stored) = encode_auto(Codec::Words, &raw);
        prop_assert_eq!(codec, Codec::Raw);
        prop_assert_eq!(&stored[..], &raw[..]);
    }

    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        raw_len in 0usize..8192,
    ) {
        // `Ok` or `Err`; the property is that this returns at all.
        let mut scratch = Vec::new();
        for codec in [Codec::Raw, Codec::ZeroRle, Codec::Words] {
            let _ = decode(codec, &bytes, raw_len, &mut scratch);
        }
        let _ = words_decode(&bytes, raw_len);
        let _ = zero_rle_decode(&bytes, raw_len);
    }

    #[test]
    fn zero_rle_roundtrips(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
        let enc = zero_rle_encode(&raw);
        prop_assert_eq!(zero_rle_decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn sparse_bytes_roundtrip_and_shrink(
        runs in proptest::collection::vec((0u8..=255, 1usize..40), 1..40)
    ) {
        // Alternate literal bytes with zero padding, like index-heavy records.
        let mut raw = Vec::new();
        for (byte, pad) in runs {
            raw.push(byte);
            raw.extend(std::iter::repeat_n(0u8, pad));
        }
        let mut scratch = Vec::new();
        for preferred in [Codec::ZeroRle, Codec::Words] {
            let (codec, stored) = encode_auto(preferred, &raw);
            prop_assert_eq!(decode(codec, &stored, raw.len(), &mut scratch).unwrap(), &raw[..]);
        }
    }

    #[test]
    fn store_roundtrips_random_blobs(
        raw_blobs in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(any::<u8>(), 0..256)),
            1..8,
        ),
        seed in any::<u32>(),
    ) {
        let blobs: Vec<(String, Vec<u8>)> = raw_blobs
            .into_iter()
            .map(|(id, bytes)| (format!("ds-{id}"), bytes))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "haten2-store-prop-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = BlockStore::open(StoreOptions::new(&dir)).unwrap();
            for (name, bytes) in &blobs {
                store
                    .put(name, "u8", bytes, bytes.len() as u64, bytes.len() as u64)
                    .unwrap();
            }
        }
        // Reopen: last write per name wins, byte-identical.
        let store = BlockStore::open(StoreOptions::new(&dir)).unwrap();
        let mut expected = std::collections::BTreeMap::new();
        for (name, bytes) in &blobs {
            expected.insert(name.clone(), bytes.clone());
        }
        for (name, bytes) in &expected {
            prop_assert_eq!(&store.get(name).unwrap().unwrap().bytes, bytes);
        }
        prop_assert_eq!(store.datasets().len(), expected.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
