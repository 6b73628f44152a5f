//! Durable-backend restart semantics at the engine level: datasets written
//! through a [`DfsBackend::Durable`] cluster reopen from disk in a fresh
//! cluster over the same directory; an intermediate lost after the restart
//! is re-derived by re-running its producer against the source reloaded
//! from the segment files, bit-identically; and a store written in the
//! zero-run codec stays readable after the default codec changed, new
//! datasets joining it in the new one.

#![allow(clippy::unwrap_used)]

use haten2_blockstore::{BlockStore, StoreOptions};
use haten2_mapreduce::{
    run_job, Cluster, ClusterConfig, Codec, DfsBackend, DurableConfig, JobSpec,
};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "haten2-durable-restart-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cluster(dir: &PathBuf) -> Cluster {
    Cluster::new(ClusterConfig {
        dfs: DfsBackend::Durable(DurableConfig::new(dir)),
        ..ClusterConfig::with_machines(3)
    })
}

/// The producer of `counts`: reads `logs` from the DFS, writes `counts`.
fn count_job(cluster: &Cluster) -> haten2_mapreduce::Result<()> {
    let logs = cluster.dfs().get_required::<(u64, u64)>("count", "logs")?;
    let counts = run_job(
        cluster,
        JobSpec::named("count"),
        &logs,
        |_: &u64, v: &u64, emit| emit(*v, 1u64),
        |k, vals, emit| emit(*k, vals.len() as u64),
    )?;
    cluster.dfs().put("counts", counts)?;
    Ok(())
}

#[test]
fn lost_intermediate_rederives_from_durably_reloaded_source_after_restart() {
    let dir = tmp_dir("rederive");

    // Phase 1: a durable cluster ingests the source and derives the
    // intermediate, then the "process" dies (cluster dropped).
    let phase1_counts;
    {
        let cluster = durable_cluster(&dir);
        cluster
            .dfs()
            .put("logs", vec![(0u64, 3u64), (1, 3), (2, 5), (3, 5), (4, 5)])
            .unwrap();
        count_job(&cluster).unwrap();
        phase1_counts = cluster.dfs().get::<(u64, u64)>("counts").unwrap();
    }

    // Phase 2: a fresh cluster over the same directory sees both datasets
    // without any puts — the manifest replay recovered them.
    let cluster = durable_cluster(&dir);
    assert!(
        cluster.dfs().contains("logs"),
        "source must survive restart"
    );
    assert!(
        cluster.dfs().contains("counts"),
        "intermediate must survive restart"
    );

    // Lose the intermediate *after* the restart, then re-run its producer
    // against the source reloaded from segment files.
    assert!(cluster.dfs().delete("counts").unwrap());
    count_job(&cluster).unwrap();
    let counts = cluster
        .dfs()
        .get_required::<(u64, u64)>("max", "counts")
        .unwrap();
    let max = run_job(
        &cluster,
        JobSpec::named("max"),
        &counts,
        |_: &u64, c: &u64, emit| emit(0u8, *c),
        |_, vals, emit| emit(0u8, vals.into_iter().max().unwrap_or(0)),
    )
    .unwrap();
    cluster.dfs().put("max", max).unwrap();

    // The re-derived intermediate matches the pre-restart bits exactly,
    // because the source round-tripped through the block store losslessly.
    let rederived = cluster.dfs().get::<(u64, u64)>("counts").unwrap();
    assert_eq!(*rederived, *phase1_counts);
    let max = cluster.dfs().get::<(u8, u64)>("max").unwrap();
    assert_eq!(max[0], (0, 3));
    // The reload path (not a warm cache) actually served the source.
    assert!(
        cluster.dfs().spill_stats().reload_events >= 1,
        "source should have been reloaded from segments"
    );

    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleted_datasets_stay_deleted_across_restart() {
    let dir = tmp_dir("delete");
    {
        let cluster = durable_cluster(&dir);
        cluster.dfs().put("keep", vec![1u64, 2, 3]).unwrap();
        cluster.dfs().put("drop", vec![9u64]).unwrap();
        assert!(cluster.dfs().delete("drop").unwrap());
    }
    let cluster = durable_cluster(&dir);
    assert!(cluster.dfs().contains("keep"));
    assert!(
        !cluster.dfs().contains("drop"),
        "a durable delete must survive restart (manifest tombstone)"
    );
    assert_eq!(*cluster.dfs().get::<u64>("keep").unwrap(), vec![1, 2, 3]);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn blocks_written_by_one_process_are_read_by_the_next() {
    let dir = tmp_dir("blocks");
    // ~5 MiB of fixed-width records and ~3 MiB of variable-width ones:
    // several record-aligned blocks each.
    let tensor: Vec<((u64, u64, u64, u64), f64)> = (0..130_000u64)
        .map(|i| ((i % 4099, i % 577, i % 13, 0), i as f64 * 0.25 - 7.0))
        .collect();
    let rows: Vec<(u64, Vec<f64>)> = (0..4_000u64)
        .map(|i| (i, (0..i % 200).map(|j| (i * j) as f64).collect()))
        .collect();
    let with_threads = |threads: usize| {
        Cluster::new(ClusterConfig {
            threads,
            dfs: DfsBackend::Durable(DurableConfig::new(&dir)),
            ..ClusterConfig::with_machines(3)
        })
    };
    {
        let writer = with_threads(3);
        writer.dfs().put("tensor", tensor.clone()).unwrap();
        writer.dfs().put("rows", rows.clone()).unwrap();
    }
    // The reader has another thread count: the layout on disk is the
    // writer's records', not the writer's pool's.
    for threads in [1, 4] {
        let reader = with_threads(threads);
        assert_eq!(reader.dfs().spill_stats().reload_events, 0);
        let dfs = reader.dfs();
        assert_eq!(
            *dfs.get::<((u64, u64, u64, u64), f64)>("tensor").unwrap(),
            tensor
        );
        assert_eq!(*dfs.get::<(u64, Vec<f64>)>("rows").unwrap(), rows);
        assert_eq!(reader.dfs().spill_stats().reload_events, 2);
        let io = reader.dfs().durable_dataset_io().unwrap();
        assert_eq!(io["tensor"].bytes_read, 40 * 130_000);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The codec of every block of each dataset in the store at `dir`.
fn codecs_by_dataset(dir: &PathBuf) -> Vec<(String, Vec<Codec>)> {
    let store = BlockStore::open(StoreOptions::new(dir)).unwrap();
    (store.datasets().into_iter())
        .map(|name| {
            let meta = store.meta(&name).unwrap();
            let directory = store.directory(&name, meta).unwrap();
            let codecs = directory.entries().iter().map(|e| e.codec).collect();
            (name, codecs)
        })
        .collect()
}

#[test]
fn zero_rle_stores_stay_readable_under_the_word_codec_default() {
    let dir = tmp_dir("codecs");
    let tensor: Vec<((u64, u64, u64, u64), f64)> = (0..20_000u64)
        .map(|i| ((i % 4099, i % 577, i % 13, 0), (i as f64).sqrt() - 50.0))
        .collect();
    let rows: Vec<(u64, Vec<u64>)> = (0..4_000u64)
        .map(|i| (i, (0..i % 50).map(|j| i * j).collect()))
        .collect();
    {
        let old = Cluster::new(ClusterConfig {
            dfs: DfsBackend::Durable(DurableConfig::new(&dir).codec(Codec::ZeroRle)),
            ..ClusterConfig::with_machines(3)
        });
        old.dfs().put("tensor", tensor.clone()).unwrap();
        old.dfs().put("rows", rows.clone()).unwrap();
    }
    assert_eq!(DurableConfig::new(&dir).codec, Codec::Words);
    {
        // Reopened at the default, spilling everything: every read below
        // is a reload of the zero-run blocks.
        let cluster = Cluster::new(ClusterConfig {
            dfs: DfsBackend::Durable(DurableConfig::new(&dir).memory_budget(0)),
            ..ClusterConfig::with_machines(3)
        });
        let dfs = cluster.dfs();
        let back = dfs.get::<((u64, u64, u64, u64), f64)>("tensor").unwrap();
        assert_eq!(back.len(), tensor.len());
        assert!(
            (back.iter().zip(&tensor)).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        );
        assert_eq!(*dfs.get::<(u64, Vec<u64>)>("rows").unwrap(), rows);
        assert_eq!(dfs.spill_stats().reload_events, 2);
        dfs.put("tensor2", tensor.clone()).unwrap();
        dfs.put("rows2", rows.clone()).unwrap();
        assert_eq!(*dfs.get::<(u64, Vec<u64>)>("rows2").unwrap(), rows);
    }
    // One store now holds both codecs: the old datasets' blocks as they
    // were written, the new ones' in the word codec.
    let codecs = codecs_by_dataset(&dir);
    for (name, blocks) in &codecs {
        let want = if name.ends_with('2') {
            Codec::Words
        } else {
            Codec::ZeroRle
        };
        assert!(blocks.len() > 1, "{name}: several blocks");
        assert!(blocks.iter().all(|&c| c == want), "{name}: {blocks:?}");
    }
    assert_eq!(codecs.len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}
