//! All eight HaTen2 pipelines must produce bit-identical output on the
//! durable block-store backend — both with an unlimited memory budget
//! (write-through, reads served resident) and with a zero budget (every
//! dataset spills immediately; every read decodes from segment files).
//! Durability may move bytes, never change them.
//!
//! The durable runs put the block store *in the dataflow*, as HaTen2 keeps
//! the tensor on HDFS: the input tensor is persisted to the durable DFS
//! and read back (under a zero budget that read decodes segment files
//! through the codec), and the decomposition runs on the reloaded copy.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_chaos::{chaos_tensor, fingerprint};
use haten2_core::{load_tensor, parafac_als, persist_tensor, tucker_als, AlsOptions, Variant};
use haten2_mapreduce::{Cluster, ClusterConfig, DfsBackend, DurableConfig};
use haten2_tensor::CooTensor3;
use std::path::Path;

fn run_fingerprint(cluster: &Cluster, x: &CooTensor3, decomp: &str, variant: Variant) -> u64 {
    let opts = AlsOptions {
        max_iters: 2,
        tol: 0.0,
        ..AlsOptions::with_variant(variant)
    };
    if decomp == "parafac" {
        let r = parafac_als(cluster, x, 2, &opts).unwrap();
        fingerprint(
            r.lambda
                .iter()
                .copied()
                .chain(r.factors.iter().flat_map(|f| f.data().iter().copied()))
                .chain(r.fits.iter().copied()),
        )
    } else {
        let r = tucker_als(cluster, x, [2, 2, 2], &opts).unwrap();
        fingerprint(
            r.factors
                .iter()
                .flat_map(|f| f.data().iter().copied())
                .chain(r.core.data().iter().copied())
                .chain(r.core_norms.iter().copied()),
        )
    }
}

fn durable_cluster(dir: &Path, budget: Option<usize>) -> Cluster {
    let mut cfg = DurableConfig::new(dir);
    if let Some(b) = budget {
        cfg = cfg.memory_budget(b);
    }
    Cluster::new(ClusterConfig {
        dfs: DfsBackend::Durable(cfg),
        ..ClusterConfig::with_machines(4)
    })
}

/// Persist the tensor into the cluster's durable DFS, read it back (the
/// HDFS round-trip), and decompose the reloaded copy.
fn run_via_durable_tensor(cluster: &Cluster, decomp: &str, variant: Variant) -> u64 {
    persist_tensor(cluster, "eq/input", &chaos_tensor()).unwrap();
    let x = load_tensor(cluster, "eq/input").unwrap().unwrap();
    run_fingerprint(cluster, &x, decomp, variant)
}

#[test]
fn all_eight_pipelines_bit_identical_on_durable_backend() {
    let base = std::env::temp_dir().join(format!("haten2-durable-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let x = chaos_tensor();

    for decomp in ["parafac", "tucker"] {
        for variant in Variant::ALL {
            let mem = run_fingerprint(
                &Cluster::new(ClusterConfig::with_machines(4)),
                &x,
                decomp,
                variant,
            );

            // Unlimited budget: write-through durability, resident reads.
            let dir = base.join(format!("{decomp}-{}-unlimited", variant.name()));
            let unlimited = durable_cluster(&dir, None);
            let fp = run_via_durable_tensor(&unlimited, decomp, variant);
            assert_eq!(
                fp, mem,
                "{decomp}/{variant}: durable (unlimited budget) diverged from memory"
            );

            // Zero budget: the tensor spills on put and the read-back
            // decodes it from segment files through the codec; the
            // paranoid end of the spill spectrum.
            let dir = base.join(format!("{decomp}-{}-spill", variant.name()));
            let spilled = durable_cluster(&dir, Some(0));
            let fp = run_via_durable_tensor(&spilled, decomp, variant);
            assert_eq!(
                fp, mem,
                "{decomp}/{variant}: durable (forced spill) diverged from memory"
            );
            let stats = spilled.dfs().spill_stats();
            assert!(
                stats.spill_events > 0 && stats.reload_events > 0,
                "{decomp}/{variant}: zero budget must actually exercise the \
                 spill/reload path (got {stats:?})"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}
