//! Durable I/O pass: symbolic block-store traffic floors per pipeline.
//!
//! When the input tensor lives in the durable block store (the HDFS
//! placement HaTen2 assumes) and the driver's memory budget is smaller
//! than the tensor, every pass a job DAG takes over the big input is a
//! compulsory read from segment files — no cache can serve it. The floor
//! for one ALS sweep is therefore
//!
//! ```text
//! durable bytes read ≥ (passes over X) · nnz · record_bytes
//! ```
//!
//! with `passes` derived statically from the registered
//! [`haten2_mapreduce::JobGraph::big_input_reads`] and `record_bytes` measured from the
//! *actual* durable encoding of one tensor record (the
//! [`haten2_mapreduce::Persist`] wire format for `(Ix4, f64)`), not a
//! hand-maintained constant. The out-of-core optimum is a single pass —
//! the compulsory-miss bound: under `M < nnz · record_bytes`, at least
//! the whole tensor must stream in once per sweep. A pipeline's **read
//! amplification** is its passes over that optimum; making it 1 is
//! exactly HaTen2-DRI's §III-B4 job-integration saving, so the table
//! below is the paper's qualitative claim turned into a checkable
//! inequality. The `durable-scan` benchmark workload measures the runtime
//! counterpart from [`haten2_mapreduce::Dfs::durable_dataset_io`] and the
//! spill gauges, and checks `mapreduce.dfs.read_amplification` against
//! this floor on every sample.

use haten2_core::{plan_for, Decomp, Ix4, Variant};
use haten2_mapreduce::{encode_records, SymExpr};

/// Durable wire width of one COO tensor record, measured by encoding one
/// `(Ix4, f64)` through the engine's `Persist` format.
pub fn tensor_record_bytes() -> u64 {
    let one: [(Ix4, f64); 1] = [((0, 0, 0, 0), 0.0)];
    encode_records(&one).len() as u64
}

/// Symbolic durable-read floor for one pipeline sweep.
#[derive(Debug, Clone)]
pub struct DurableIoRow {
    /// Decomposition.
    pub decomp: Decomp,
    /// Variant.
    pub variant: Variant,
    /// Registered graph name.
    pub graph: String,
    /// Passes the DAG takes over the big input per sweep
    /// ([`haten2_mapreduce::JobGraph::big_input_reads`]).
    pub passes: SymExpr,
    /// Durable bytes those passes must stream per sweep:
    /// `passes · nnz · record_bytes`.
    pub bytes_per_sweep: SymExpr,
    /// The compulsory-miss optimum: one full-tensor read,
    /// `nnz · record_bytes`.
    pub floor_bytes: SymExpr,
}

impl DurableIoRow {
    /// Read amplification over the single-pass optimum (= `passes`).
    pub fn amplification(&self) -> &SymExpr {
        &self.passes
    }
}

/// The durable I/O table: one row per registered pipeline.
pub fn durable_io_table() -> Vec<DurableIoRow> {
    let rec = SymExpr::c(tensor_record_bytes());
    let tensor_bytes = SymExpr::nnz() * rec;
    let mut rows = Vec::new();
    for decomp in Decomp::ALL {
        for variant in Variant::ALL {
            let graph = plan_for(decomp, variant);
            let passes = graph.big_input_reads();
            rows.push(DurableIoRow {
                decomp,
                variant,
                graph: graph.name.clone(),
                bytes_per_sweep: passes.clone() * tensor_bytes.clone(),
                floor_bytes: tensor_bytes.clone(),
                passes,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::regime_envs;

    #[test]
    fn record_bytes_match_the_wire_format() {
        // Ix4 = 4 × u64 = 32 bytes, value f64 = 8 bytes, LE fixed-width.
        assert_eq!(tensor_record_bytes(), 40);
    }

    #[test]
    fn every_pipeline_reads_the_tensor_at_least_once_per_sweep() {
        let envs = regime_envs();
        for row in durable_io_table() {
            for env in &envs {
                let passes = row.passes.eval(env);
                assert!(passes >= 1, "{}: zero passes over the big input", row.graph);
                assert_eq!(
                    row.bytes_per_sweep.eval(env),
                    passes * row.floor_bytes.eval(env),
                    "{}: bytes/sweep must be passes × floor",
                    row.graph
                );
            }
        }
    }

    /// DRI's job integration is the minimum-amplification variant: on
    /// every regime its passes over X are ≤ every other variant's — the
    /// statically-checked form of the paper's §III-B4 claim.
    #[test]
    fn dri_attains_minimal_read_amplification() {
        let envs = regime_envs();
        let rows = durable_io_table();
        for decomp in Decomp::ALL {
            let dri = rows
                .iter()
                .find(|r| r.decomp == decomp && r.variant == Variant::Dri)
                .unwrap();
            for other in rows.iter().filter(|r| r.decomp == decomp) {
                for env in &envs {
                    assert!(
                        dri.passes.eval(env) <= other.passes.eval(env),
                        "{}: DRI amplification above {}",
                        dri.graph,
                        other.graph
                    );
                }
            }
        }
    }
}
