//! Driver-state persistence through the cluster-owned DFS.
//!
//! HaTen2 keeps the input tensor and the factor matrices *on HDFS*
//! between jobs; the driver only orchestrates. This module reproduces
//! that placement: the tensor and per-sweep factor state are stored as
//! typed datasets in [`Cluster::dfs`], so on a durable backend
//! ([`haten2_mapreduce::DfsBackend::Durable`]) they survive a process
//! restart and a resumed driver reloads them from disk instead of
//! regenerating — the property the chaos harness's kill-and-reexec
//! scenario asserts. On the default memory backend these helpers still
//! work (and are metered), they just don't outlive the process.
//!
//! Naming convention: a caller-chosen key plus typed suffixes —
//! `{key}` for the record payload, `{key}.dims` / `{key}.shape` for the
//! geometry datasets that make the payload self-describing.

use crate::records::{tensor_records, Ix4};
use crate::{CoreError, Result};
use haten2_linalg::Mat;
use haten2_mapreduce::Cluster;
use haten2_tensor::{CooTensor3, DenseTensor3, Entry3};

/// Suffixes of the three factor datasets / files of a saved model.
pub(crate) const FACTOR_NAMES: [&str; 3] = ["A", "B", "C"];

/// A Tucker core stored as sparse entries, as the dense `dims` tensor the
/// factors' column counts say it is (trailing all-zero slices included).
pub(crate) fn dense_core(sparse: &CooTensor3, dims: [usize; 3]) -> Result<DenseTensor3> {
    let mut core = DenseTensor3::zeros(dims);
    for e in sparse.entries() {
        if e.i as usize >= dims[0] || e.j as usize >= dims[1] || e.k as usize >= dims[2] {
            return Err(CoreError::InvalidArgument(format!(
                "core entry ({}, {}, {}) outside factor ranks {dims:?}",
                e.i, e.j, e.k
            )));
        }
        core.set(e.i as usize, e.j as usize, e.k as usize, e.v);
    }
    Ok(core)
}

/// Store `x` under `key` in the cluster's DFS: `{key}` holds the
/// `(Ix4, f64)` entry records, `{key}.dims` the mode sizes.
pub fn persist_tensor(cluster: &Cluster, key: &str, x: &CooTensor3) -> Result<()> {
    let dims = x.dims();
    let dfs = cluster.dfs();
    dfs.put(&format!("{key}.dims"), vec![(dims[0], dims[1], dims[2])])?;
    dfs.put(key, tensor_records(x))?;
    Ok(())
}

/// Load a tensor stored by [`persist_tensor`]; `None` when either dataset
/// is absent (e.g. memory backend after a restart).
pub fn load_tensor(cluster: &Cluster, key: &str) -> Result<Option<CooTensor3>> {
    let dfs = cluster.dfs();
    let Some(dims) = dfs.get::<(u64, u64, u64)>(&format!("{key}.dims")) else {
        return Ok(None);
    };
    let Some(records) = dfs.get::<(Ix4, f64)>(key) else {
        return Ok(None);
    };
    let &(d0, d1, d2) = dims
        .first()
        .ok_or_else(|| CoreError::InvalidArgument(format!("dataset '{key}.dims' is empty")))?;
    let entries = records
        .iter()
        .map(|&((i, j, k, _), v)| Entry3::new(i, j, k, v))
        .collect();
    Ok(Some(CooTensor3::from_entries([d0, d1, d2], entries)?))
}

/// Store a dense factor matrix under `key`: `{key}` holds the row-major
/// `f64` data, `{key}.shape` the `(rows, cols)` geometry.
pub fn persist_factor(cluster: &Cluster, key: &str, m: &Mat) -> Result<()> {
    let dfs = cluster.dfs();
    dfs.put(
        &format!("{key}.shape"),
        vec![(m.rows() as u64, m.cols() as u64)],
    )?;
    dfs.put(key, m.data().to_vec())?;
    Ok(())
}

/// Load a factor stored by [`persist_factor`].
pub fn load_factor(cluster: &Cluster, key: &str) -> Result<Option<Mat>> {
    let dfs = cluster.dfs();
    let Some(shape) = dfs.get::<(u64, u64)>(&format!("{key}.shape")) else {
        return Ok(None);
    };
    let Some(data) = dfs.get::<f64>(key) else {
        return Ok(None);
    };
    let &(rows, cols) = shape
        .first()
        .ok_or_else(|| CoreError::InvalidArgument(format!("dataset '{key}.shape' is empty")))?;
    let m = Mat::from_vec(rows as usize, cols as usize, data.as_slice().to_vec())
        .map_err(CoreError::Linalg)?;
    Ok(Some(m))
}

/// Store mid-run PARAFAC state (`λ` + factors) under `key` — the DFS
/// counterpart of [`crate::checkpoint::save_parafac_state`], written by
/// the sweep loop on durable clusters so factor snapshots land in the
/// block store (metered, restart-visible).
pub fn persist_parafac_state(
    cluster: &Cluster,
    key: &str,
    lambda: &[f64],
    factors: &[Mat; 3],
) -> Result<()> {
    for (f, name) in factors.iter().zip(FACTOR_NAMES) {
        persist_factor(cluster, &format!("{key}.{name}"), f)?;
    }
    cluster
        .dfs()
        .put(&format!("{key}.lambda"), lambda.to_vec())?;
    Ok(())
}

/// Load PARAFAC state stored by [`persist_parafac_state`]: `(λ, [A, B, C])`.
pub fn load_parafac_state(cluster: &Cluster, key: &str) -> Result<Option<(Vec<f64>, [Mat; 3])>> {
    let Some(lambda) = cluster.dfs().get::<f64>(&format!("{key}.lambda")) else {
        return Ok(None);
    };
    let mut factors = Vec::with_capacity(3);
    for name in FACTOR_NAMES {
        match load_factor(cluster, &format!("{key}.{name}"))? {
            Some(f) => factors.push(f),
            None => return Ok(None),
        }
    }
    let [a, b, c]: [Mat; 3] = factors.try_into().expect("exactly three factors were read");
    Ok(Some((lambda.as_slice().to_vec(), [a, b, c])))
}

/// Store mid-run Tucker state (core + factors) under `key`. The core
/// travels as sparse `(Ix4, f64)` records plus a dims dataset, like a
/// tensor.
pub fn persist_tucker_state(
    cluster: &Cluster,
    key: &str,
    core: &DenseTensor3,
    factors: &[Mat; 3],
) -> Result<()> {
    for (f, name) in factors.iter().zip(FACTOR_NAMES) {
        persist_factor(cluster, &format!("{key}.{name}"), f)?;
    }
    persist_tensor(cluster, &format!("{key}.core"), &core.to_coo())
}

/// Load Tucker state stored by [`persist_tucker_state`]:
/// `(core, [A, B, C])`. Core dimensions come from the factor column
/// counts, so trailing all-zero core slices are preserved exactly as in
/// the file-based checkpoint loader.
pub fn load_tucker_state(cluster: &Cluster, key: &str) -> Result<Option<(DenseTensor3, [Mat; 3])>> {
    let mut factors = Vec::with_capacity(3);
    for name in FACTOR_NAMES {
        match load_factor(cluster, &format!("{key}.{name}"))? {
            Some(f) => factors.push(f),
            None => return Ok(None),
        }
    }
    let [a, b, c]: [Mat; 3] = factors.try_into().expect("exactly three factors were read");
    let Some(sparse_core) = load_tensor(cluster, &format!("{key}.core"))? else {
        return Ok(None);
    };
    let core = dense_core(&sparse_core, [a.cols(), b.cols(), c.cols()])?;
    Ok(Some((core, [a, b, c])))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests clear their scratch store directories"
)]
mod tests {
    use super::*;
    use haten2_mapreduce::{ClusterConfig, DfsBackend, DurableConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sparse_random(dims: [u64; 3], nnz: usize, seed: u64) -> CooTensor3 {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries = (0..nnz)
            .map(|_| {
                Entry3::new(
                    rng.gen_range(0..dims[0]),
                    rng.gen_range(0..dims[1]),
                    rng.gen_range(0..dims[2]),
                    rng.gen_range(0.5..2.0),
                )
            })
            .collect();
        CooTensor3::from_entries(dims, entries).unwrap()
    }

    fn durable_cluster(tag: &str) -> (Cluster, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("haten2-core-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = Cluster::new(ClusterConfig {
            dfs: DfsBackend::Durable(DurableConfig::new(&dir)),
            ..ClusterConfig::with_machines(2)
        });
        (cluster, dir)
    }

    #[test]
    fn tensor_roundtrips_through_memory_dfs() {
        let x = sparse_random([6, 5, 4], 30, 11);
        let cluster = Cluster::new(ClusterConfig::with_machines(2));
        persist_tensor(&cluster, "t", &x).unwrap();
        let back = load_tensor(&cluster, "t").unwrap().unwrap();
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.entries(), x.entries());
        assert!(load_tensor(&cluster, "missing").unwrap().is_none());
    }

    #[test]
    fn tensor_survives_simulated_restart_on_durable_backend() {
        let x = sparse_random([8, 7, 6], 50, 13);
        let (cluster, dir) = durable_cluster("tensor");
        persist_tensor(&cluster, "input", &x).unwrap();
        drop(cluster);

        // A fresh cluster over the same directory finds the tensor,
        // bit-identical (entry values round-trip as raw f64 bits).
        let cluster = Cluster::new(ClusterConfig {
            dfs: DfsBackend::Durable(DurableConfig::new(&dir)),
            ..ClusterConfig::with_machines(2)
        });
        let back = load_tensor(&cluster, "input").unwrap().unwrap();
        assert_eq!(back.dims(), x.dims());
        assert_eq!(back.entries(), x.entries());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn factor_state_roundtrips_across_restart() {
        let mut rng = StdRng::seed_from_u64(17);
        let factors = [
            Mat::random(5, 2, &mut rng),
            Mat::random(4, 2, &mut rng),
            Mat::random(3, 2, &mut rng),
        ];
        let lambda = vec![1.25, -0.5];
        let (cluster, dir) = durable_cluster("state");
        persist_parafac_state(&cluster, "ck", &lambda, &factors).unwrap();
        drop(cluster);

        let cluster = Cluster::new(ClusterConfig {
            dfs: DfsBackend::Durable(DurableConfig::new(&dir)),
            ..ClusterConfig::with_machines(2)
        });
        let (l2, f2) = load_parafac_state(&cluster, "ck").unwrap().unwrap();
        assert_eq!(l2, lambda);
        for (orig, loaded) in factors.iter().zip(&f2) {
            assert_eq!(orig.data(), loaded.data(), "factor bits must survive");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tucker_state_roundtrips() {
        let mut rng = StdRng::seed_from_u64(19);
        let factors = [
            Mat::random(5, 2, &mut rng),
            Mat::random(4, 3, &mut rng),
            Mat::random(3, 2, &mut rng),
        ];
        let mut core = DenseTensor3::zeros([2, 3, 2]);
        core.set(0, 0, 0, 1.5);
        core.set(1, 2, 1, -2.25);
        let cluster = Cluster::new(ClusterConfig::with_machines(2));
        persist_tucker_state(&cluster, "tk", &core, &factors).unwrap();
        let (c2, f2) = load_tucker_state(&cluster, "tk").unwrap().unwrap();
        assert_eq!(c2.dims(), [2, 3, 2]);
        assert!(c2.approx_eq(&core, 0.0));
        for (orig, loaded) in factors.iter().zip(&f2) {
            assert_eq!(orig.data(), loaded.data());
        }
    }
}
