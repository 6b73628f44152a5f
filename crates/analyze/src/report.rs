//! Full verification report: every registered pipeline against its paper
//! row, its durable I/O floor and communication bound, and the workspace
//! determinism scan, rendered as the markdown committed to `ANALYSIS.md`.

use crate::comm::{check_comm, comm_table, shuffle_claim, witness_env, CommRow};
use crate::cost::{paper_claim, regime_envs, PaperClaim};
use crate::determinism::{check_determinism, DeterminismReport};
use crate::io::{durable_io_table, tensor_record_bytes, DurableIoRow};
use crate::{analyze_graph, Violation};
use haten2_core::{comm_for, plan_for, Decomp, Variant};
use haten2_mapreduce::SymExpr;
use std::fmt::Write as _;

/// Verdict for one (decomposition × variant) pipeline.
pub struct RowVerdict {
    /// Decomposition.
    pub decomp: Decomp,
    /// Variant.
    pub variant: Variant,
    /// Registered graph name.
    pub graph: String,
    /// The paper row the graph was held to.
    pub claim: PaperClaim,
    /// Longest dependency chain in the graph, in jobs — the number of
    /// sequential MapReduce rounds a DAG scheduler cannot avoid, versus
    /// the paper's *total* job count which assumes one job at a time.
    pub critical_path: SymExpr,
    /// Template name of the job whose intermediate data dominates (attains
    /// the max on the regime grid).
    pub dominant_job: String,
    /// Dataflow/cost violations (empty = the row verifies).
    pub violations: Vec<Violation>,
}

/// The full verification report.
pub struct Report {
    /// One verdict per pipeline, Tucker rows first.
    pub rows: Vec<RowVerdict>,
    /// Number of regime environments each equivalence was checked on.
    pub envs_checked: usize,
    /// Symbolic durable-read floors, one row per pipeline.
    pub durable_io: Vec<DurableIoRow>,
    /// Communication certification: shuffle volume vs. MTTKRP lower
    /// bound, one row per pipeline.
    pub comm: Vec<CommRow>,
    /// Communication violations (shuffle-mismatch / comm-bound-exceeded
    /// across all pipelines; empty = certified).
    pub comm_violations: Vec<Violation>,
    /// The UDF-purity scan over the workspace sources.
    pub determinism: DeterminismReport,
}

impl Report {
    /// `true` when every pipeline matches its paper row and communication
    /// bound, and the determinism scan is clean.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.violations.is_empty())
            && self.determinism.ok()
            && self.comm_violations.is_empty()
            && self.comm.iter().all(|c| !c.gap_unbounded_in_nnz)
    }

    /// All violations across every pass.
    pub fn violations(&self) -> Vec<&Violation> {
        self.rows
            .iter()
            .flat_map(|r| r.violations.iter())
            .chain(self.determinism.violations.iter())
            .chain(self.comm_violations.iter())
            .collect()
    }

    /// Render as the markdown committed to `ANALYSIS.md`.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Static plan analysis: paper cost table");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "Derived statically from the `JobGraph`s registered in \
             `haten2_core::plan` — no job was executed. Each derived bound \
             was checked for extensional equivalence with the paper's \
             claimed expression on {} operating-regime environments \
             (`haten2_analyze::cost::regime_envs`), alongside the dataflow \
             well-formedness pass. Expressions count map-output records \
             (the engine's `map_output_records`); dimensions are canonical \
             (`I` = target mode). The *critical path* \
             column is the longest read-after-write chain in the job DAG \
             (`JobGraph::critical_path_jobs`): the sequential-round floor \
             the concurrent scheduler cannot beat, shown beside the \
             paper's total job counts which assume one job at a time. \
             `crates/bench` cross-checks these symbolic depths against the \
             scheduler's measured `BatchReport::critical_path_len`.",
            self.envs_checked
        );
        for decomp in Decomp::ALL {
            let table = match decomp {
                Decomp::Tucker => "Table III",
                Decomp::Parafac => "Table IV",
            };
            let _ = writeln!(out);
            let _ = writeln!(out, "## {decomp} ({table})");
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "| Variant | Max intermediate data | Total jobs | Critical path (jobs) | Tensor reads | Dominant job | Verdict |"
            );
            let _ = writeln!(out, "|---|---|---|---|---|---|---|");
            for r in self.rows.iter().filter(|r| r.decomp == decomp) {
                let verdict = if r.violations.is_empty() {
                    "verified"
                } else {
                    "VIOLATED"
                };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | `{}` | {} |",
                    r.variant,
                    r.claim.max_intermediate,
                    r.claim.total_jobs,
                    r.critical_path,
                    r.claim.tensor_reads,
                    r.dominant_job,
                    verdict
                );
            }
        }
        let notes: Vec<&RowVerdict> = self
            .rows
            .iter()
            .filter(|r| r.claim.note.is_some())
            .collect();
        if !notes.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "Notes:");
            for r in notes {
                let _ = writeln!(out, "- `{}`: {}.", r.graph, r.claim.note.unwrap_or(""));
            }
        }

        let _ = writeln!(out);
        let _ = writeln!(out, "## Durable I/O floor");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "With the tensor resident in the durable block store and a \
             memory budget below its footprint (the out-of-core regime the \
             spill benchmark drives), every pass over the big input is a \
             compulsory segment read: per sweep a pipeline must stream at \
             least `passes · nnz · {} B` from disk, where {} B is the \
             measured `Persist` wire width of one `(Ix4, f64)` tensor \
             record. The single-pass floor `nnz · {} B` is the \
             compulsory-miss optimum; *read amplification* is the \
             pipeline's passes over it — the quantity HaTen2-DRI's job \
             integration (§III-B4) drives to the minimum. \
             The `durable-scan` benchmark workload measures the durable \
             traffic as `mapreduce.dfs.read_amplification` for \
             cross-checking.",
            tensor_record_bytes(),
            tensor_record_bytes(),
            tensor_record_bytes()
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| Pipeline | Tensor passes / sweep | Durable bytes / sweep | Single-pass floor | Read amplification |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|");
        for r in &self.durable_io {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} |",
                r.graph,
                r.passes,
                r.bytes_per_sweep,
                r.floor_bytes,
                r.amplification()
            );
        }

        let _ = writeln!(out);
        let _ = writeln!(out, "## Communication certification");
        let _ = writeln!(out);
        let witness = witness_env();
        let _ = writeln!(
            out,
            "Each pipeline's total shuffle volume \
             (`JobGraph::shuffle_bytes` = Σ jobs · per-instance map-output \
             bytes) was checked for extensional equivalence with a \
             hand-reconstructed closed form on the regime grid, then held \
             to two MTTKRP communication lower bounds instantiated from \
             the pipeline's `CommSpec` (after Ballard & Rouse, \
             arXiv:1708.07401, adapted to the engine's stateless-mapper, \
             no-combiner execution model): the memory-independent floor \
             `nnz · w_min` (every contributing nonzero crosses the shuffle \
             as at least one minimum-width wire record) and the \
             memory-dependent `nnz · rank_eff · 8 / Mr` (a reducer holding \
             `Mr` bytes combines each resident byte with at most one \
             shuffled byte per residency). The *gap* column is the ratio \
             `shuffle / max(bounds)` at the witness environment \
             (nnz={}, I={}, J={}, K={}, Q={}, R={}, Mr={}); *bounded* \
             certifies the symbolic gap does not grow without bound in \
             `nnz`. Exact-marked pipelines are dynamically cross-checked: \
             the metered cluster shuffle equals the symbolic prediction \
             and never falls below the instantiated bound \
             (`crates/bench/tests/analyzer_crosscheck.rs`).",
            witness.nnz,
            witness.dim_i,
            witness.dim_j,
            witness.dim_k,
            witness.rank_q,
            witness.rank_r,
            witness.reducer_memory
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| Pipeline | Shuffle volume (B) | Applicable lower bound (B) | Gap at witness | Bounded in `nnz` | Exact |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for c in &self.comm {
            let _ = writeln!(
                out,
                "| `{}` | {} | max({}, {}) | {}× | {} | {} |",
                c.graph,
                c.shuffle,
                c.bound_indep,
                c.bound_dep,
                c.gap_at_witness,
                if c.gap_unbounded_in_nnz {
                    "UNBOUNDED"
                } else {
                    "yes"
                },
                if c.exact { "yes" } else { "upper bound" }
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "For each decomposition the DRI variant attains the **minimum \
             gap ratio on every regime environment** \
             (`haten2_analyze::comm`): the job-integrated pipeline is \
             certified closest to communication-optimal, the static form \
             of the paper's §III-B4 claim."
        );

        let _ = writeln!(out);
        let _ = writeln!(out, "## Determinism");
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{} source file(s) scanned for nondeterministic UDFs (unordered \
             iteration feeding emits, wall-clock reads, thread-id \
             dependence, undeclared float reductions); {} reducer site(s) \
             seen, of which {} perform float reductions declared \
             commutative-associative in the plan metadata and covered by \
             generated property tests. Verdict: {}.",
            self.determinism.files_scanned,
            self.determinism.reducers.len(),
            self.determinism
                .reducers
                .iter()
                .filter(|r| r.has_float_reduction)
                .count(),
            if self.determinism.ok() {
                "clean"
            } else {
                "VIOLATED"
            }
        );

        let violations = self.violations();
        if !violations.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "## Violations");
            let _ = writeln!(out);
            for v in violations {
                let _ = writeln!(out, "- {v}");
            }
        }
        out
    }
}

/// Verify all eight registered pipelines against the paper's cost tables
/// and communication bounds, and run the workspace determinism scan.
pub fn verify_paper_table() -> Report {
    let envs = regime_envs();
    let sample = envs[0];
    let mut rows = Vec::new();
    for decomp in Decomp::ALL {
        for variant in Variant::ALL {
            let graph = plan_for(decomp, variant);
            let claim = paper_claim(decomp, variant);
            let violations = analyze_graph(&graph, &claim, &envs);
            let critical_path = graph.critical_path_jobs();
            let max = graph.max_intermediate_records();
            let dominant_job = graph
                .jobs
                .iter()
                .find(|j| j.records.eval(&sample) == max.eval(&sample))
                .map(|j| j.name.clone())
                .unwrap_or_default();
            rows.push(RowVerdict {
                decomp,
                variant,
                graph: graph.name.clone(),
                claim,
                critical_path,
                dominant_job,
                violations,
            });
        }
    }
    let mut comm_violations = Vec::new();
    for decomp in Decomp::ALL {
        for variant in Variant::ALL {
            comm_violations.extend(check_comm(
                &plan_for(decomp, variant),
                &shuffle_claim(decomp, variant),
                &comm_for(decomp, variant),
                &envs,
            ));
        }
    }
    Report {
        rows,
        envs_checked: envs.len(),
        durable_io: durable_io_table(),
        comm: comm_table(),
        comm_violations,
        determinism: check_determinism(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_verifies() {
        let report = verify_paper_table();
        assert!(report.ok(), "{:?}", report.violations());
        assert_eq!(report.rows.len(), 8);
    }

    #[test]
    fn markdown_contains_all_variants_and_verdicts() {
        let md = verify_paper_table().to_markdown();
        for name in ["HaTen2-Naive", "HaTen2-DNN", "HaTen2-DRN", "HaTen2-DRI"] {
            assert!(md.contains(name), "missing {name}");
        }
        assert!(md.contains("Table III"));
        assert!(md.contains("Table IV"));
        assert!(md.contains("verified"));
        assert!(!md.contains("VIOLATED"));
        assert!(md.contains("nnz·(Q + R)"));
        assert!(md.contains("Critical path (jobs)"));
        assert!(md.contains("## Durable I/O floor"));
        assert!(md.contains("Read amplification"));
        assert!(md.contains("## Communication certification"));
        assert!(md.contains("Applicable lower bound"));
        assert!(md.contains("arXiv:1708.07401"));
        assert!(
            md.contains("minimum gap ratio"),
            "DRI-minimality note missing:\n{md}"
        );
        assert!(!md.contains("UNBOUNDED"));
        assert!(md.contains("## Determinism"));
    }

    /// Every registered pipeline's critical path is a rank-independent
    /// constant — that is the whole point of the DAG scheduler: the
    /// paper's `Q + R`-style job counts collapse to a fixed number of
    /// sequential rounds. Expected depths per variant hold for both
    /// decompositions.
    #[test]
    fn critical_paths_are_constant_and_below_total_jobs() {
        let report = verify_paper_table();
        let env = regime_envs()[0];
        for r in &report.rows {
            let depth = match r.critical_path {
                SymExpr::Const(c) => c,
                ref e => panic!("{}: critical path {e} is not a constant", r.graph),
            };
            let expected = match r.variant {
                Variant::Naive => 2,
                Variant::Dnn => 4,
                Variant::Drn => 2,
                Variant::Dri => 2,
            };
            assert_eq!(depth, expected, "{}: unexpected depth", r.graph);
            assert!(
                u128::from(depth) <= r.claim.total_jobs.eval(&env),
                "{}: critical path exceeds total jobs",
                r.graph
            );
        }
    }
}
