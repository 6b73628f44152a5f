//! Property tests: the durable block-store backend must be
//! observationally equivalent to the in-memory backend — same data, same
//! typed errors, same capacity arithmetic — for every input we can throw
//! at it. Durability may change *where* bytes live, never behaviour.
//!
//! The second half holds the durable backend's block layout to the same
//! standard: datasets of every block count and record shape reload bit
//! for bit, a damaged block or directory is a typed error naming the
//! dataset, and neither the records nor a single counter depend on how
//! many threads decoded the blocks, nor does a reload that fails part-way
//! leak or double-drop a record (the `*reload*` tests run under TSan in
//! `scripts/check.sh --sanitize`).

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]
#![expect(
    clippy::disallowed_methods,
    reason = "tests clear scratch stores, damage segment files and race two readers on raw threads"
)]

use haten2_blockstore::segment::segment_file_name;
use haten2_blockstore::{BlockStore, DatasetIo, StoreOptions, StoreStats, BLOCK_TARGET_BYTES};
use haten2_mapreduce::{
    run_job, Cluster, ClusterConfig, Dfs, DfsBackend, DurableConfig, EstimateSize, JobSpec,
    MrError, Persist, SpillStats,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

fn tmp_dir(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!("haten2-backend-eq-{tag}-{}", std::process::id()))
}

/// A fresh durable Dfs under `dir`; caller removes the dir.
fn durable_dfs(dir: &PathBuf, capacity: Option<usize>, budget: Option<usize>) -> Dfs {
    let mut cfg = DurableConfig::new(dir);
    if let Some(b) = budget {
        cfg = cfg.memory_budget(b);
    }
    Dfs::durable(&cfg, capacity).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `SpillCapacityExceeded` fires on the same puts with the same
    /// fields on both backends, and accepted puts leave identical
    /// `live_bytes` — capacity accounting is backend-independent.
    #[test]
    fn spill_capacity_error_is_backend_independent(
        sizes in proptest::collection::vec(0usize..200, 1..8),
        capacity in 1usize..4000,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmp_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mem = Dfs::with_capacity(Some(capacity));
        let dur = durable_dfs(&dir, Some(capacity), None);
        for (id, n) in sizes.iter().enumerate() {
            let name = format!("ds-{id}");
            let records: Vec<u64> = (0..*n as u64).collect();
            let a = mem.put(&name, records.clone());
            let b = dur.put(&name, records);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (a, b) => prop_assert!(false, "backends disagree: {:?} vs {:?}", a, b),
            }
            prop_assert_eq!(mem.live_bytes(), dur.live_bytes());
            prop_assert_eq!(mem.contains(&name), dur.contains(&name));
        }
        drop(dur);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `ReducerOom` fires identically on clusters over either backend:
    /// same typed error, or same output bits.
    #[test]
    fn reducer_oom_is_backend_independent(
        input in proptest::collection::vec((0u64..6, 0u64..100), 1..60),
        budget in 1usize..2000,
        tag in 0u64..1_000_000,
    ) {
        let dir = tmp_dir(tag.wrapping_add(7_000_000));
        let _ = std::fs::remove_dir_all(&dir);
        let run = |cluster: &Cluster| -> Result<Vec<(u64, u64)>, MrError> {
            cluster.dfs().put("in", input.clone())?;
            let stored = cluster.dfs().get_required::<(u64, u64)>("sum", "in")?;
            let out = run_job(
                cluster,
                JobSpec::named("sum"),
                &stored,
                |k: &u64, v: &u64, emit| emit(*k, *v),
                |k, vals, emit| emit(*k, vals.iter().sum::<u64>()),
            )?;
            cluster.dfs().put("out", out)?;
            let mut out = cluster.dfs().get::<(u64, u64)>("out").unwrap().to_vec();
            out.sort();
            Ok(out)
        };
        let mem_cluster = Cluster::new(ClusterConfig {
            reducer_memory_bytes: Some(budget),
            ..ClusterConfig::with_machines(3)
        });
        let dur_cluster = Cluster::new(ClusterConfig {
            reducer_memory_bytes: Some(budget),
            dfs: DfsBackend::Durable(DurableConfig::new(&dir)),
            ..ClusterConfig::with_machines(3)
        });
        match (run(&mem_cluster), run(&dur_cluster)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(ea), Err(eb)) => {
                prop_assert!(matches!(ea, MrError::ReducerOom { .. }), "unexpected: {ea:?}");
                prop_assert_eq!(ea, eb);
            }
            (a, b) => prop_assert!(false, "backends disagree: {:?} vs {:?}", a, b),
        }
        drop(dur_cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Forced spilling (zero memory budget) never changes a single bit:
    /// every get decodes from segment files yet equals the memory copy.
    #[test]
    fn forced_spill_roundtrip_is_bit_exact(
        records in proptest::collection::vec((0u64..1000, -1.0e9f64..1.0e9), 0..120),
        tag in 0u64..1_000_000,
    ) {
        let dir = tmp_dir(tag.wrapping_add(14_000_000));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = Dfs::new();
        let dur = durable_dfs(&dir, None, Some(0));
        mem.put("r", records.clone()).unwrap();
        dur.put("r", records).unwrap();
        let a = mem.get::<(u64, f64)>("r").unwrap();
        let b = dur.get::<(u64, f64)>("r").unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.0, y.0);
            prop_assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
        if !a.is_empty() {
            prop_assert!(dur.spill_stats().reload_events >= 1);
        }
        drop(dur);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("haten2-blocks-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable cluster that keeps nothing resident, so every get reloads.
fn spilling_cluster(dir: &Path, threads: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        threads,
        dfs: DfsBackend::Durable(DurableConfig::new(dir).memory_budget(0)),
        ..ClusterConfig::with_machines(2)
    })
}

/// How many 16-byte [`tensor_like`] records fill four and a half blocks.
const FIVE_BLOCKS: u64 = (BLOCK_TARGET_BYTES / 16 * 9 / 2) as u64;

/// Index-heavy records whose middle third is incompressible, so a
/// many-block dataset has blocks of both codecs.
fn tensor_like(n: u64) -> Vec<(u64, f64)> {
    (0..n)
        .map(|i| {
            let dense = (n / 3..2 * n / 3).contains(&i);
            let key = if dense {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
            } else {
                i % 977
            };
            (
                key,
                f64::from_bits(key.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> 2),
            )
        })
        .collect()
}

/// Store, per-dataset, spill and bytes-read counters, in that order.
type Counters = (StoreStats, BTreeMap<String, DatasetIo>, SpillStats, usize);

/// Every durable counter a reload moves.
fn durable_counters(dfs: &Dfs) -> Counters {
    (
        dfs.store_stats().unwrap(),
        dfs.durable_dataset_io().unwrap(),
        dfs.spill_stats(),
        dfs.total_bytes_read(),
    )
}

/// Put on the memory backend and, at one to four threads, on a durable
/// cluster; reopen the durable one (a dataset of zero estimated bytes is
/// never spilled, but after a restart nothing is resident), reload from
/// segments, compare. The records and every durable counter must equal the
/// one-thread run's, however the blocks split into ranges. Returns the
/// dataset's block count as the store recorded it.
fn roundtrip<T>(tag: &str, records: Vec<T>) -> u64
where
    T: EstimateSize + Persist + Clone + PartialEq + std::fmt::Debug + Send + Sync + 'static,
{
    let mem = Dfs::new();
    let bytes = mem.put("r", records.clone()).unwrap();
    let want = mem.get::<T>("r").unwrap();
    let mut one_thread = None;
    let mut blocks = 0;
    for threads in 1..=4 {
        let what = format!("{tag}, {threads} threads");
        let dir = fresh_dir(&format!("{tag}-{threads}"));
        let put = spilling_cluster(&dir, threads)
            .dfs()
            .put("r", records.clone());
        assert_eq!(put.unwrap(), bytes, "{what}");
        let cluster = spilling_cluster(&dir, threads);
        assert_eq!(*cluster.dfs().get::<T>("r").unwrap(), *want, "{what}");
        let counters = durable_counters(cluster.dfs());
        if let Some(first) = &one_thread {
            assert_eq!(*first, counters, "{what}");
        } else {
            one_thread = Some(counters);
        }
        assert_eq!(
            cluster.dfs().spill_stats().reload_events,
            1,
            "{what}: served from segments"
        );
        drop(cluster);
        let store = BlockStore::open(StoreOptions::new(&dir)).unwrap();
        let meta = store.meta("r").unwrap();
        assert_eq!(meta.records, records.len() as u64, "{what}");
        blocks = meta.blocks;
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    blocks
}

#[test]
fn datasets_of_every_block_count_and_record_shape_roundtrip() {
    // Sizes whose block ranges differ in record count at two to four
    // threads: none, one record, one full block, a full block and one
    // record, and five blocks the last of which is short.
    let per_block = (BLOCK_TARGET_BYTES / 8) as u64;
    assert_eq!(roundtrip::<u64>("empty", vec![]), 0);
    assert_eq!(roundtrip("one", vec![(7u64, -0.0f64)]), 1);
    assert_eq!(roundtrip("exact", (0..per_block).collect::<Vec<u64>>()), 1);
    assert_eq!(
        roundtrip("exact+1", (0..=per_block).collect::<Vec<u64>>()),
        2
    );
    assert_eq!(roundtrip("many", tensor_like(FIVE_BLOCKS)), 5);
    // Variable-width records: a block ends where a record ends.
    let strings: Vec<String> = (0..3000u32)
        .map(|i| format!("{i:04}-").repeat(1 + (i as usize * 37) % 400))
        .collect();
    let string_bytes: usize = strings.iter().map(EstimateSize::est_bytes).sum();
    let blocks = roundtrip("strings", strings);
    assert!(blocks >= 2 && blocks as usize <= string_bytes / BLOCK_TARGET_BYTES + 1);
    let vecs: Vec<Vec<u64>> = (0..2000u64).map(|i| (0..i % 300).collect()).collect();
    assert!(roundtrip("vecs", vecs) >= 2);
    // A record larger than the block target gets a block to itself.
    let giant: Vec<u64> = (0..(BLOCK_TARGET_BYTES as u64 / 4)).collect();
    assert_eq!(
        roundtrip("giant", vec![vec![1u64], giant.clone(), vec![2], giant]),
        2
    );
    assert_eq!(
        roundtrip("options", vec![Some((1u64, "a".to_string())), None]),
        1
    );
    // Zero-width records have no bytes to cut at; their count survives,
    // in one block or, a block per `BLOCK_TARGET_BYTES` records, in three.
    assert_eq!(roundtrip("units", vec![(); 1000]), 1);
    assert_eq!(
        roundtrip("many-units", vec![(); 2 * BLOCK_TARGET_BYTES + 1]),
        3
    );
}

/// One way to damage a segment file.
#[derive(Debug)]
enum Damage {
    /// Flip one bit of the byte at this offset.
    Flip(usize),
    /// Cut the file off at this offset.
    Truncate(usize),
}

/// Damage the one segment of `dir` in each of the ways given, one at a
/// time, and check every read of dataset `t` fails as a storage error
/// naming it.
fn assert_damage_is_detected(dir: &Path, damage: &[(String, Damage)]) {
    let seg = dir.join(segment_file_name(0));
    let pristine = std::fs::read(&seg).unwrap();
    for (what, damage) in damage {
        let mut bytes = pristine.clone();
        match *damage {
            Damage::Flip(at) => bytes[at] ^= 0x01,
            Damage::Truncate(at) => bytes.truncate(at),
        }
        std::fs::write(&seg, &bytes).unwrap();
        for threads in [1, 3] {
            let cluster = spilling_cluster(dir, threads);
            match cluster.dfs().get_required::<(u64, f64)>("job", "t") {
                Err(MrError::StorageFailed { dataset, .. }) => assert_eq!(dataset, "t", "{what}"),
                other => panic!("{what} ({threads} threads): {:?}", other.map(|r| r.len())),
            }
            assert!(cluster.dfs().get::<(u64, f64)>("t").is_none(), "{what}");
            let stats = cluster.dfs().store_stats().unwrap();
            assert_eq!(
                (stats.gets, stats.raw_bytes_read),
                (0, 0),
                "{what}: a failed read is not metered"
            );
        }
    }
    std::fs::write(&seg, &pristine).unwrap();
}

#[test]
fn damage_to_any_block_or_the_directory_is_a_storage_error_naming_the_dataset() {
    let dir = fresh_dir("damage");
    let records = tensor_like(FIVE_BLOCKS);
    spilling_cluster(&dir, 1)
        .dfs()
        .put("t", records.clone())
        .unwrap();
    let store = BlockStore::open(StoreOptions::new(&dir)).unwrap();
    let meta = store.meta("t").unwrap();
    let directory = store.directory("t", meta.clone()).unwrap();
    drop(store);
    let stored: Vec<usize> = (directory.entries().iter())
        .map(|e| e.stored_len as usize)
        .collect();
    assert_eq!(stored.len(), 5);
    let base = meta.offset as usize;
    let dir_len = meta.stored_len as usize - stored.iter().sum::<usize>();

    let mut damage = vec![
        ("directory, first byte".to_string(), Damage::Flip(base)),
        (
            "directory, last byte".to_string(),
            Damage::Flip(base + dir_len - 1),
        ),
    ];
    let mut at = base + dir_len;
    for (b, len) in stored.iter().enumerate() {
        for off in [0, len / 2, len - 1] {
            damage.push((format!("block {b} + {off}"), Damage::Flip(at + off)));
        }
        // The extent ends here: this block and all after it are gone.
        damage.push((format!("cut before block {b}"), Damage::Truncate(at)));
        at += len;
    }
    assert_damage_is_detected(&dir, &damage);

    // Undamaged again, the same bytes serve the records.
    let cluster = spilling_cluster(&dir, 3);
    assert_eq!(*cluster.dfs().get::<(u64, f64)>("t").unwrap(), records);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_is_identical_at_one_to_four_threads() {
    let records = tensor_like(4 * FIVE_BLOCKS);
    let run = |threads: usize| {
        let dir = fresh_dir(&format!("threads{threads}"));
        let cluster = spilling_cluster(&dir, threads);
        cluster.dfs().put("t", records.clone()).unwrap();
        cluster.dfs().put("one-block", vec![1u64, 2, 3]).unwrap();
        for _ in 0..3 {
            assert_eq!(*cluster.dfs().get::<(u64, f64)>("t").unwrap(), records);
        }
        assert_eq!(
            *cluster.dfs().get::<u64>("one-block").unwrap(),
            vec![1, 2, 3]
        );
        let counters = durable_counters(cluster.dfs());
        drop(cluster);
        std::fs::remove_dir_all(&dir).unwrap();
        counters
    };
    let one = run(1);
    assert_eq!(one.0.gets, 4);
    assert_eq!(
        one.1["t"].bytes_read,
        3 * 16 * 4 * FIVE_BLOCKS,
        "payload only, no directory"
    );
    for threads in 2..=4 {
        assert_eq!(one, run(threads), "{threads} threads");
    }
}

/// How many [`Tracked`] records `read_record` has made, and how many of
/// those have been dropped (one test uses the type).
static DECODED: AtomicUsize = AtomicUsize::new(0);
static DECODED_DROPS: AtomicUsize = AtomicUsize::new(0);

/// A `u64` record with drop glue: a copy made by decoding counts its drop.
struct Tracked {
    value: u64,
    decoded: bool,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        if self.decoded {
            DECODED_DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl EstimateSize for Tracked {
    const FIXED_BYTES: Option<usize> = Some(8);
    fn est_bytes(&self) -> usize {
        8
    }
}

impl Persist for Tracked {
    fn type_tag() -> String {
        "tracked".to_string()
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        self.value.write_record(out);
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let value = u64::read_record(bytes, pos)?;
        DECODED.fetch_add(1, Ordering::SeqCst);
        Some(Tracked {
            value,
            decoded: true,
        })
    }
}

#[test]
fn a_failed_reload_drops_every_decoded_record_exactly_once() {
    let dir = fresh_dir("drops");
    let per_block = BLOCK_TARGET_BYTES / 8;
    let n = 5 * per_block as u64 - 7;
    let records: Vec<Tracked> = (0..n)
        .map(|value| Tracked {
            value,
            decoded: false,
        })
        .collect();
    spilling_cluster(&dir, 1).dfs().put("t", records).unwrap();
    let store = BlockStore::open(StoreOptions::new(&dir)).unwrap();
    let meta = store.meta("t").unwrap();
    let directory = store.directory("t", meta.clone()).unwrap();
    drop(store);
    let entries = directory.entries();
    assert_eq!(entries.len(), 5);
    // Damage the middle of the last block, which is in the last range at
    // every thread count; every range before it parses in full first.
    let last_len = entries[4].stored_len as usize;
    let last_at = (meta.offset + meta.stored_len) as usize - last_len;
    let seg = dir.join(segment_file_name(0));
    let pristine = std::fs::read(&seg).unwrap();
    let mut damaged = pristine.clone();
    damaged[last_at + last_len / 2] ^= 0x01;
    std::fs::write(&seg, &damaged).unwrap();

    for threads in 1..=4 {
        let cluster = spilling_cluster(&dir, threads);
        let dfs = cluster.dfs();
        let metered = || (durable_counters(dfs), dfs.reads_of("t"));
        let before = metered();
        let (decoded, dropped) = (
            DECODED.load(Ordering::SeqCst),
            DECODED_DROPS.load(Ordering::SeqCst),
        );
        match dfs.get_required::<Tracked>("job", "t") {
            Err(MrError::StorageFailed { dataset, .. }) => assert_eq!(dataset, "t"),
            other => panic!("{threads} threads: {:?}", other.map(|r| r.len())),
        }
        assert_eq!(metered(), before, "{threads} threads: nothing metered");
        let decoded = DECODED.load(Ordering::SeqCst) - decoded;
        assert_eq!(
            decoded,
            4 * per_block,
            "{threads} threads: blocks 0-3 parsed"
        );
        assert_eq!(
            DECODED_DROPS.load(Ordering::SeqCst) - dropped,
            decoded,
            "{threads} threads: every parsed record dropped exactly once"
        );
    }

    // Restored, the same reload serves every record, and they too drop once.
    std::fs::write(&seg, &pristine).unwrap();
    let (decoded, dropped) = (
        DECODED.load(Ordering::SeqCst),
        DECODED_DROPS.load(Ordering::SeqCst),
    );
    let back = spilling_cluster(&dir, 3).dfs().get::<Tracked>("t").unwrap();
    assert!(back.iter().map(|r| r.value).eq(0..n));
    assert_eq!(
        DECODED_DROPS.load(Ordering::SeqCst),
        dropped,
        "claimed, not dropped"
    );
    drop(back);
    assert_eq!(DECODED.load(Ordering::SeqCst) - decoded, n as usize);
    assert_eq!(DECODED_DROPS.load(Ordering::SeqCst) - dropped, n as usize);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_of_one_spilled_dataset_from_two_threads_at_once() {
    let dir = fresh_dir("concurrent");
    let records = tensor_like(4 * FIVE_BLOCKS);
    let cluster = spilling_cluster(&dir, 2);
    cluster.dfs().put("t", records.clone()).unwrap();
    let start = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let reader = || {
            s.spawn(|| {
                start.wait();
                cluster.dfs().get_required::<(u64, f64)>("reader", "t")
            })
        };
        let (a, b) = (reader(), reader());
        (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
    });
    assert_eq!(*a, records);
    assert_eq!(*b, records);
    assert_eq!(cluster.dfs().reads_of("t"), Some(2));
    assert_eq!(cluster.dfs().store_stats().unwrap().gets, 2);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reload_from_inside_a_running_job_nests_in_the_pool() {
    let dir = fresh_dir("nested");
    let records = tensor_like(4 * FIVE_BLOCKS);
    let cluster = spilling_cluster(&dir, 4);
    cluster.dfs().put("t", records.clone()).unwrap();
    let want: u64 = records.iter().fold(0, |h, r| h.wrapping_mul(31) ^ r.0);
    // Four map tasks on a four-executor pool, each reloading the
    // many-block dataset: every reload's broadcast is issued from inside
    // another broadcast.
    let probes: Vec<(u64, u64)> = (0..4).map(|i| (i, i)).collect();
    let out = run_job(
        &cluster,
        JobSpec::named("probe"),
        &probes,
        |k: &u64, _: &u64, emit| {
            let t = cluster.dfs().get_required::<(u64, f64)>("probe", "t");
            let digest = t.map(|t| t.iter().fold(0u64, |h, r| h.wrapping_mul(31) ^ r.0));
            emit(*k, digest.unwrap_or(0));
        },
        |k, digests, emit| emit(*k, digests[0]),
    )
    .unwrap();
    assert_eq!(out.len(), 4);
    assert!(out.iter().all(|&(_, digest)| digest == want));
    assert_eq!(cluster.dfs().store_stats().unwrap().gets, 4);
    drop(cluster);
    std::fs::remove_dir_all(&dir).unwrap();
}
