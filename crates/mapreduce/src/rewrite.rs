//! Runtime-executable plan rewrites and the skew detector that triggers
//! them.
//!
//! The `haten2-analyze` crate *certifies* plan rewrites statically
//! (dataflow sanity, race-freedom, volume non-inflation); this module
//! holds the **shared transform** so the graph the runtime submits is the
//! very graph the analyzer certified — the analyzer's `HeavyKeySplit`
//! delegates here, and the pipelines' submitter executes
//! [`heavy_key_split`]'s output, so "executed graph" and "certified graph"
//! cannot drift.
//!
//! [`heavy_key_split`] is the classic two-phase aggregation for skewed
//! reduce keys: the pipeline's final single-instance comm-assoc merge is
//! split into `M` per-slice jobs — each one runs the merge's own
//! operation over the same inputs but reduces only the keys in its hash
//! slice ([`PlanJob::key_sliced`]), writing a private `…__part#i` shard —
//! followed by a cheap `mergeparts` pass that reassembles the output
//! dataset. Slices are whole key groups (assigned by the same
//! FNV-1a hash the shuffle partitioner uses, [`crate::job::key_slice`]),
//! so every group is still reduced in one piece, in the same value order
//! as the unrewritten job: the reassembled output is **bit-identical** to
//! the unrewritten plan's, which is what lets Sequential mode stay the
//! oracle for rewritten runs.
//!
//! Callers outside the certification machinery must not apply the raw
//! transform: runtime submission goes through a certification record
//! (`CERTIFIED_REWRITES` / `certified_rewrite_for` in `haten2-core`),
//! enforced by the `no-uncertified-rewrite` source lint.

use crate::job::key_slice;
use crate::plan::{JobGraph, PlanJob, SymExpr};
use std::hash::Hash;

/// Index of the job [`heavy_key_split`] targets: the last single-instance
/// comm-assoc job that writes a graph output. `None` means the rewrite is
/// the identity (e.g. the Naive/DNN pipelines, whose final writers are
/// per-rank job families).
pub fn heavy_key_split_target(graph: &JobGraph) -> Option<usize> {
    graph.jobs.iter().rposition(|j| {
        j.comm_assoc
            && j.writes.iter().any(|w| graph.outputs.contains(w))
            && j.count == SymExpr::c(1)
    })
}

fn split_jobs(target: &PlanJob) -> (PlanJob, PlanJob) {
    let m = SymExpr::machines();
    let part = format!("{}__part", target.writes[0]);
    // Each split instance runs the target's own operation over its hash
    // slice of the keys and shuffles records/M of them; floor division
    // makes the cost an upper bound, not generic-position exact.
    let mut split = PlanJob::new(format!("{}-split{{}}", target.name))
        .repeat(m.clone())
        .emits(
            target.records.clone() / m.clone(),
            target.bytes.clone() / m.clone(),
        )
        .upper_bound();
    split.key_sliced = true;
    split.op = target.op.clone();
    split.comm_assoc = target.comm_assoc;
    split.reads = target.reads.clone();
    split.writes = vec![format!("{part}#{{}}")];
    // The merge re-shuffles the M partials of every slice — the second
    // phase of the aggregation, and the entire declared inflation. It
    // folds nothing: records leave in arrival order.
    let mut merge = PlanJob::new(format!("{}-mergeparts", target.name))
        .op("merge_parts_job")
        .emits(
            m.clone() * (target.records.clone() / m.clone()),
            m.clone() * (target.bytes.clone() / m),
        )
        .upper_bound();
    merge.reads = vec![part];
    merge.writes = target.writes.clone();
    (split, merge)
}

/// The `heavy-key-split` two-phase-aggregation rewrite: replace the
/// target merge job (see [`heavy_key_split_target`]) with `machines`
/// per-slice split jobs plus a `mergeparts` reassembly pass. Returns the
/// graph unchanged when no target exists. Declared shuffle inflation is
/// 2/1 (the partials cross the shuffle a second time, nothing worse) —
/// the analyzer re-certifies exactly this transform.
pub fn heavy_key_split(graph: &JobGraph) -> JobGraph {
    let Some(at) = heavy_key_split_target(graph) else {
        return graph.clone();
    };
    let mut out = graph.clone();
    let (split, merge) = split_jobs(&graph.jobs[at]);
    out.jobs.splice(at..=at, [split, merge]);
    out
}

/// A cheap map-side key-frequency sketch: a fixed-width array of counters
/// indexed by the engine's shuffle hash ([`crate::job::key_slice`]), so a
/// heavy reduce key is detectable in one `O(records)` pass without
/// materializing a per-key map — the same run-building scan the map side
/// already performs in `arena.rs` visits every key once.
///
/// Because buckets use the *same* hash-slice assignment the split jobs
/// use, `bucket(s)` is exactly the number of observed records split
/// instance `s` would own — which is what feeds the scheduler's
/// per-split cost hints.
#[derive(Debug, Clone)]
pub struct KeyFreqSketch {
    counts: Vec<u64>,
    total: u64,
}

impl KeyFreqSketch {
    /// A sketch with `width` buckets (clamped to at least 1). Width is
    /// normally the machine count, matching the split fan-out.
    #[must_use]
    pub fn new(width: usize) -> Self {
        KeyFreqSketch {
            counts: vec![0; width.max(1)],
            total: 0,
        }
    }

    /// Count one record with the given reduce key.
    pub fn observe<K: Hash>(&mut self, key: &K) {
        let w = self.counts.len();
        self.counts[key_slice(key, w)] += 1;
        self.total += 1;
    }

    /// Number of buckets.
    #[must_use]
    pub fn width(&self) -> usize {
        self.counts.len()
    }

    /// Records observed in bucket `slice` (0 for out-of-range slices).
    #[must_use]
    pub fn bucket(&self, slice: usize) -> u64 {
        self.counts.get(slice).copied().unwrap_or(0)
    }

    /// Total records observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Heaviest bucket relative to the uniform share: `1.0` means
    /// perfectly balanced, `width` means everything hashed to one bucket.
    /// An empty sketch reports `1.0` (nothing to skew).
    #[must_use]
    pub fn skew_ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let max = self.counts.iter().copied().max().unwrap_or(0);
        max as f64 * self.counts.len() as f64 / self.total as f64
    }
}

/// When the pipelines apply a certified rewrite at submission time.
///
/// `Off` is the default: job counts and plans stay exactly what Tables
/// III/IV publish, and no sketch is built. `Auto` is the production
/// setting — the pipelines' submitter builds a [`KeyFreqSketch`] over the
/// target-mode indices of the input tensor (the reduce keys of the final
/// merge) and rewrites only when its [`KeyFreqSketch::skew_ratio`] reaches
/// the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RewritePolicy {
    /// Never rewrite (the paper-faithful default).
    #[default]
    Off,
    /// Always submit the rewritten plan (bit-identity harnesses use this).
    Always,
    /// Rewrite when the observed key-frequency skew ratio reaches
    /// `skew_threshold` (heaviest hash slice ≥ threshold × uniform share).
    Auto {
        /// Skew ratio at or above which the rewrite fires.
        skew_threshold: f64,
    },
}

impl RewritePolicy {
    /// Whether this policy ever reads a sketch: `Auto` to decide, `Always`
    /// for the split jobs' cost hints. Under `Off` building one is an
    /// `O(nnz)` pass nobody looks at.
    #[must_use]
    pub fn wants_sketch(&self) -> bool {
        !matches!(self, RewritePolicy::Off)
    }

    /// Whether a pipeline should submit the rewritten plan, given the
    /// map-side key-frequency sketch of the merge's reduce keys.
    #[must_use]
    pub fn should_rewrite(&self, sketch: &KeyFreqSketch) -> bool {
        match self {
            RewritePolicy::Off => false,
            RewritePolicy::Always => true,
            RewritePolicy::Auto { skew_threshold } => sketch.skew_ratio() >= *skew_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_graph() -> JobGraph {
        JobGraph::new("demo", [])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("demo-expand{}")
                    .repeat(SymExpr::rank_r())
                    .reads(["x"])
                    .writes(["t"])
                    .op("hadamard_vec_job")
                    .emits(SymExpr::nnz(), SymExpr::c(16) * SymExpr::nnz()),
            )
            .job(
                PlanJob::new("demo-merge")
                    .reads(["t"])
                    .writes(["y"])
                    .op("cross_merge_job")
                    .comm_assoc()
                    .emits(SymExpr::nnz(), SymExpr::c(16) * SymExpr::nnz()),
            )
    }

    #[test]
    fn split_replaces_the_final_merge() {
        let g = merge_graph();
        assert_eq!(heavy_key_split_target(&g), Some(1));
        let rw = heavy_key_split(&g);
        assert_eq!(rw.jobs.len(), g.jobs.len() + 1);
        let names: Vec<&str> = rw.jobs.iter().map(|j| j.name.as_str()).collect();
        assert!(names.contains(&"demo-merge-split{}"));
        assert!(names.contains(&"demo-merge-mergeparts"));
        assert!(!names.contains(&"demo-merge"));
        // Split instances write per-slice shards; mergeparts reassembles
        // the original output.
        assert_eq!(rw.jobs[1].writes, ["y__part#{}"]);
        assert!(rw.jobs[1].key_sliced);
        assert_eq!(rw.jobs[1].op, g.jobs[1].op);
        assert_eq!(rw.jobs[2].reads, ["y__part"]);
        assert_eq!(rw.jobs[2].writes, ["y"]);
        // The reassembly is no fold, so a rewritten graph has no target.
        assert_eq!(heavy_key_split_target(&rw), None);
    }

    #[test]
    fn no_single_instance_merge_means_identity() {
        let g = JobGraph::new("flat", []).big_input("x").output("y").job(
            PlanJob::new("flat-col{}")
                .repeat(SymExpr::rank_r())
                .reads(["x"])
                .writes(["y"])
                .op("collapse_job")
                .comm_assoc()
                .emits(SymExpr::nnz(), SymExpr::c(8) * SymExpr::nnz()),
        );
        assert_eq!(heavy_key_split_target(&g), None);
        assert_eq!(heavy_key_split(&g).jobs.len(), g.jobs.len());
    }

    #[test]
    fn sketch_flags_a_heavy_key_and_policy_gates_on_it() {
        let mut uniform = KeyFreqSketch::new(8);
        for k in 0..4000u64 {
            uniform.observe(&k);
        }
        assert!(uniform.skew_ratio() < 2.0, "{}", uniform.skew_ratio());

        let mut skewed = KeyFreqSketch::new(8);
        for _ in 0..3500 {
            skewed.observe(&42u64); // one heavy key
        }
        for k in 0..500u64 {
            skewed.observe(&k);
        }
        assert!(skewed.skew_ratio() > 4.0, "{}", skewed.skew_ratio());

        assert!(!RewritePolicy::Off.should_rewrite(&skewed));
        assert!(!RewritePolicy::Off.wants_sketch());
        assert!(RewritePolicy::Always.should_rewrite(&uniform));
        assert!(RewritePolicy::Always.wants_sketch());
        let auto = RewritePolicy::Auto {
            skew_threshold: 3.0,
        };
        assert!(auto.should_rewrite(&skewed));
        assert!(!auto.should_rewrite(&uniform));
    }

    #[test]
    fn sketch_buckets_agree_with_split_slices() {
        // bucket(s) must equal the record count split instance s owns,
        // i.e. the count of keys with key_slice(k, width) == s.
        let width = 4;
        let mut sketch = KeyFreqSketch::new(width);
        let keys: Vec<u64> = (0..257).collect();
        for k in &keys {
            sketch.observe(k);
        }
        for s in 0..width {
            let want = keys.iter().filter(|k| key_slice(*k, width) == s).count() as u64;
            assert_eq!(sketch.bucket(s), want, "slice {s}");
        }
        assert_eq!(sketch.total(), 257);
    }

    #[test]
    fn empty_sketch_is_unskewed() {
        let s = KeyFreqSketch::new(8);
        assert_eq!(s.skew_ratio(), 1.0);
        assert!(!RewritePolicy::Auto {
            skew_threshold: 1.5
        }
        .should_rewrite(&s));
    }
}
