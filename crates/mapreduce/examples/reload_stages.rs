//! Where a spilled reload's time goes, stage by stage.
//!
//! Stores a tensor shaped like the benchmark's `durable-scan` workload —
//! power-law `((i, j, k, 0), v)` records over dims 40 000 × 40 000 × 400,
//! values in `[0.5, 2)` — as ~256 KiB blocks in a block store, then times
//! each stage of reading it back on one thread with warm buffers:
//!
//! * `pread` — the positional read of every block's stored bytes;
//! * `checksum` — `fnv1a64_lanes` over those bytes;
//! * `decode` — the block codec, stored bytes to raw bytes;
//! * `parse` — raw bytes to records ([`parse_records`], the loop a reload
//!   runs), into one reused `Vec`;
//!
//! and then a whole [`Dfs`] reload (`get_required` of a spilled dataset)
//! on clusters of 1 and 2 threads. Each figure is the median of several
//! repetitions.
//!
//! ```text
//! cargo run --release -p haten2-mapreduce --example reload_stages -- [nnz] [raw|zero-rle|words]
//! ```
//!
//! The defaults are 1 000 000 records and the store's default codec.

use std::collections::HashSet;
use std::time::Instant;

use haten2_blockstore::codec::decode;
use haten2_blockstore::segment::SegmentReader;
use haten2_blockstore::{fnv1a64_lanes, BlockStore, StoreOptions, BLOCK_TARGET_BYTES};
use haten2_mapreduce::{
    encode_records, parse_records, Cluster, ClusterConfig, Codec, DfsBackend, DurableConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Rec = ((u64, u64, u64, u64), f64);

const DIMS: [u64; 3] = [40_000, 40_000, 400];
const REPS: usize = 7;

/// A power-law index below `n`, drawn as the benchmark draws it.
fn powerlaw_index(rng: &mut StdRng, n: u64) -> u64 {
    let u: f64 = rng.gen();
    let x = (u * (1.0 + n as f64).ln()).exp() - 1.0;
    (x.max(0.0) as u64).min(n - 1)
}

/// `nnz` distinct power-law cells with values in `[0.5, 2)`.
fn powerlaw_records(nnz: usize, seed: u64) -> Vec<Rec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(nnz);
    let mut records = Vec::with_capacity(nnz);
    while records.len() < nnz {
        let [i, j, k] = DIMS.map(|n| powerlaw_index(&mut rng, n));
        if seen.insert((i, j, k)) {
            records.push(((i, j, k, 0), rng.gen_range(0.5..2.0)));
        }
    }
    records
}

/// Median wall time of `REPS` runs of `f`, in milliseconds.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let nnz: usize = args.next().map_or(Ok(1_000_000), |a| a.parse())?;
    let codec = match args.next().as_deref() {
        None => DurableConfig::new("").codec,
        Some("raw") => Codec::Raw,
        Some("zero-rle") => Codec::ZeroRle,
        Some("words") => Codec::Words,
        Some(other) => return Err(format!("unknown codec {other}").into()),
    };
    let records = powerlaw_records(nnz, 1);
    let raw_bytes = encode_records(&records).len();
    let scratch = std::env::temp_dir().join(format!("haten2-reload-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // The dataset as the Dfs writes it: blocks of whole records cut at
    // the target size, each encoded on its own.
    let store_dir = scratch.join("store");
    let store = BlockStore::open(StoreOptions::new(&store_dir).codec(codec))?;
    let per_block = BLOCK_TARGET_BYTES / raw_bytes.div_ceil(nnz.max(1)).max(1);
    let raws: Vec<Vec<u8>> = records
        .chunks(per_block.max(1))
        .map(encode_records)
        .collect();
    let blocks: Vec<_> = (raws.iter().zip(records.chunks(per_block.max(1))))
        .map(|(raw, chunk)| store.encode_block(raw, chunk.len() as u64))
        .collect();
    let meta = store.put_blocks("x", "((u64,u64,u64,u64),f64)", &blocks, raw_bytes as u64)?;
    drop(blocks);
    let dir = store.directory("x", meta.clone())?;
    let entries = dir.entries();
    let stored_total: u64 = entries.iter().map(|e| e.stored_len).sum();
    let mut offset = meta.offset + (meta.stored_len - stored_total);
    let offsets: Vec<u64> = (entries.iter())
        .map(|e| {
            let at = offset;
            offset += e.stored_len;
            at
        })
        .collect();

    let reader = SegmentReader::new(&store_dir);
    let mut stored: Vec<Vec<u8>> = (entries.iter())
        .map(|e| vec![0u8; e.stored_len as usize])
        .collect();
    let pread = median_ms(|| {
        for (buf, &at) in stored.iter_mut().zip(&offsets) {
            reader.read_exact_at(meta.segment, at, buf).expect("pread");
        }
    });
    let checksum = median_ms(|| {
        for (buf, e) in stored.iter().zip(entries) {
            assert_eq!(fnv1a64_lanes(buf), e.checksum);
        }
    });
    let mut decoded: Vec<Vec<u8>> = vec![Vec::new(); entries.len()];
    let decode_ms = median_ms(|| {
        for ((buf, e), out) in stored.iter().zip(entries).zip(&mut decoded) {
            if e.codec == Codec::Raw {
                // A raw block is served as stored; copied here only so
                // every block's bytes sit in `decoded`.
                out.clear();
                out.extend_from_slice(buf);
            } else {
                decode(e.codec, buf, e.raw_len as usize, out).expect("decode");
            }
        }
    });
    assert!(decoded.iter().zip(&raws).all(|(d, r)| d == r));
    let mut parsed: Vec<Rec> = Vec::with_capacity(nnz);
    let parse = median_ms(|| {
        parsed.clear();
        for (raw, e) in decoded.iter().zip(entries) {
            parse_records(raw, Some(e.records), |r| parsed.push(r)).expect("parse");
        }
    });
    assert!(parsed == records);
    drop(store);

    let mut reloads = Vec::new();
    for threads in [1, 2] {
        let cfg = DurableConfig::new(scratch.join(format!("dfs-{threads}")))
            .codec(codec)
            .memory_budget(0);
        let cluster = Cluster::try_new(ClusterConfig {
            threads,
            dfs: DfsBackend::Durable(cfg),
            ..ClusterConfig::with_machines(4)
        })?;
        cluster.dfs().put("x", records.clone())?;
        let ms = median_ms(|| {
            let got = cluster
                .dfs()
                .get_required::<Rec>("reload", "x")
                .expect("reload");
            assert_eq!(got.len(), nnz);
        });
        reloads.push((threads, ms));
    }
    std::fs::remove_dir_all(&scratch)?;

    let mb = raw_bytes as f64 / 1e6;
    println!(
        "{nnz} records, {mb:.1} MB raw, {} blocks, codec {codec:?}: {:.1} MB stored ({:.2}x)",
        entries.len(),
        stored_total as f64 / 1e6,
        raw_bytes as f64 / stored_total.max(1) as f64
    );
    println!("{:<18} {:>9} {:>10}", "stage", "ms", "raw MB/s");
    let stages = [
        ("pread", pread),
        ("checksum", checksum),
        ("decode", decode_ms),
        ("parse", parse),
    ];
    let reload_rows = reloads
        .iter()
        .map(|&(t, ms)| (format!("dfs reload, {t} thr"), ms));
    for (stage, ms) in stages
        .iter()
        .map(|&(s, ms)| (s.to_string(), ms))
        .chain(reload_rows)
    {
        println!("{stage:<18} {ms:>9.2} {:>10.0}", mb / (ms / 1e3));
    }
    Ok(())
}
