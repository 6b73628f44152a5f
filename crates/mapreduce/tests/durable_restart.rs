//! Durable-backend restart semantics at the engine level: datasets written
//! through a [`DfsBackend::Durable`] cluster reopen from disk in a fresh
//! cluster over the same directory, and re-deriving an intermediate works
//! against the *reloaded* inputs — losing it after a restart and re-running
//! its producer from the segment files reproduces it bit-identically.

#![allow(clippy::unwrap_used)]

use haten2_mapreduce::{run_job, Cluster, ClusterConfig, DfsBackend, DurableConfig, JobSpec};
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
fn lineage_rederives_from_durably_reloaded_source_after_restart() {
    let dir = tmp_dir("lineage");

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
