//! Dataflow well-formedness: every dataset is produced before it is
//! consumed, never clobbered while live, and never written for nothing.
//!
//! The pass walks a [`JobGraph`]'s templates in execution order at
//! *template* and *dataset* granularity: the instances of one template
//! (e.g. the `Q` Hadamard jobs `tucker-dnn-had-b{}`, each writing its own
//! shard `t_prime#{}`) all write the same dataset and count as a single
//! write event, and a read of any shard is a read of the dataset.
//! Driver-provided inputs are modelled as a write by the pseudo-producer
//! [`DRIVER`] that happens before the first job.

use crate::Violation;
use haten2_mapreduce::{dataset_base, JobGraph};
use std::collections::HashMap;

/// Pseudo-producer name for datasets that exist before the first job
/// (driver-provided inputs).
pub const DRIVER: &str = "<driver input>";

/// State of one dataset while walking the graph.
struct DatasetState {
    /// Template name of the most recent writer.
    last_writer: String,
    /// Whether anything read the dataset since that write.
    read_since_write: bool,
}

/// Check a graph's dataset wiring; returns every violation found (empty =
/// well-formed).
pub fn check_dataflow(graph: &JobGraph) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut state: HashMap<String, DatasetState> = graph
        .inputs
        .iter()
        .map(|ds| {
            (
                ds.clone(),
                DatasetState {
                    last_writer: DRIVER.to_string(),
                    // Inputs are allowed to go unread (a driver may register
                    // more views than a variant touches).
                    read_since_write: true,
                },
            )
        })
        .collect();

    for job in &graph.jobs {
        for ds in &job.reads {
            match state.get_mut(dataset_base(ds)) {
                Some(s) => s.read_since_write = true,
                None => violations.push(Violation::DanglingRead {
                    job: job.name.clone(),
                    dataset: ds.clone(),
                }),
            }
        }
        for ds in job.writes.iter().map(|ds| dataset_base(ds)) {
            if let Some(s) = state.get(ds) {
                if !s.read_since_write {
                    violations.push(Violation::LostWrite {
                        job: job.name.clone(),
                        dataset: ds.to_string(),
                        prior_job: s.last_writer.clone(),
                    });
                }
            }
            state.insert(
                ds.to_string(),
                DatasetState {
                    last_writer: job.name.clone(),
                    read_since_write: false,
                },
            );
        }
    }

    for (ds, s) in &state {
        if !s.read_since_write && !graph.outputs.iter().any(|o| o == ds) {
            violations.push(Violation::UnusedDataset {
                job: s.last_writer.clone(),
                dataset: ds.clone(),
            });
        }
    }
    violations.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_mapreduce::{PlanJob, SymExpr};

    fn well_formed() -> JobGraph {
        JobGraph::new("wf", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("expand{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("merge")
                    .reads(["t"])
                    .writes(["y"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
    }

    #[test]
    fn accepts_well_formed_graph() {
        assert!(check_dataflow(&well_formed()).is_empty());
    }

    #[test]
    fn flags_dangling_read() {
        let mut g = well_formed();
        g.jobs[1].reads = vec!["t_typo".to_string()];
        let v = check_dataflow(&g);
        assert_eq!(v.len(), 2, "dangling read plus the now-unread 't': {v:?}");
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::DanglingRead { job, dataset } if job == "merge" && dataset == "t_typo"
        )));
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::UnusedDataset { dataset, .. } if dataset == "t"
        )));
    }

    #[test]
    fn flags_lost_write() {
        let mut g = well_formed();
        g.jobs.insert(
            1,
            PlanJob::new("rogue-refresh")
                .reads(["x"])
                .writes(["t"])
                .emits(SymExpr::nnz(), SymExpr::nnz()),
        );
        let v = check_dataflow(&g);
        assert!(v.iter().any(|v| matches!(
            v,
            Violation::LostWrite { job, dataset, prior_job }
                if job == "rogue-refresh" && dataset == "t" && prior_job == "expand{}"
        )));
    }

    #[test]
    fn flags_unused_dataset() {
        let g = well_formed().job(
            PlanJob::new("rogue-scan")
                .reads(["y"])
                .writes(["scratch"])
                .emits(SymExpr::nnz(), SymExpr::nnz()),
        );
        let v = check_dataflow(&g);
        assert!(matches!(
            &v[..],
            [Violation::UnusedDataset { job, dataset }]
                if job == "rogue-scan" && dataset == "scratch"
        ));
    }
}
