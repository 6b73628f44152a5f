//! The eight HaTen2 pipelines: one table, one submitter.
//!
//! Tables III/IV of the paper are eight pipelines that differ only in
//! which of six job kinds they chain. [`pipeline_for`] is that table: each
//! (decomposition × variant) is a [`JobGraph`] whose every template is
//! declared once, next to the [`Kernel`] its instances run — the job
//! names the metered [`Cluster`] records, the datasets flowing between
//! them (per-instance shards included), the submission order, and
//! symbolic per-job intermediate-data expressions over
//! `(nnz, I, J, K, Q, R)`. [`run_pipeline`] executes the table: it expands
//! the graph for the call's `Q`/`R` and submits every instance through the
//! one `Batch::submit` site in library code, reading each instance's
//! `name`, `reads` and `writes` off the graph and resolving its inputs
//! from those declared reads and nothing else. A job therefore cannot
//! touch a dataset it did not declare: that is unrepresentable rather than
//! linted.
//!
//! The `haten2-analyze` crate consumes the same graphs ([`plan_for`]) to
//! verify the paper's tables statically; `haten2-bench` cross-checks the
//! expanded predictions against metered runs (exactly, for the DRI
//! pipelines).
//!
//! **Conventions.** Dimensions are the *canonical* orientation of
//! [`crate::canon::canonicalize`]: `I` is the target-mode dimension, `J`
//! and `K` the remaining modes in ascending original order. For PARAFAC,
//! `Q = R =` the CP rank. Byte expressions reconstruct the engine's exact
//! accounting — per-record key/value sizes come from the very
//! [`EstimateSize`] impls in [`crate::records`] plus the engine's framing
//! constant, so a change to the wire format breaks the cross-check tests
//! rather than silently invalidating the analyzer.
//!
//! **Exactness.** A job's `records`/`bytes` are *exact in generic
//! position* (no zero factor entries, no cancellation — [`PlanJob::exact`]
//! = `true`) or a worst-case upper bound (`false`). All DRI jobs are
//! exact; bounds appear only downstream of a `Collapse`, whose output
//! support (`distinct (i,k) pairs`) is data-dependent.

use crate::ops::{
    collapse_job, cross_merge_job, hadamard_vec_job, imhp_job, join_on_slots, naive_ttv_job,
    pairwise_merge_job, with_slot, MergeInput, Partitions, Shards, WrittenSide,
};
use crate::records::{HadVal, ImhpVal, Ix4, MergeLayout, MergeVal, NaiveVal};
use crate::Variant;
use haten2_linalg::Mat;
use haten2_mapreduce::{
    dataset_base, datasets_overlap, Batch, Cluster, Env, EstimateSize, JobCtx, JobGraph, JobHandle,
    JobInstance, MrError, PlanJob, SymExpr, TakeOnce, RECORD_FRAMING_BYTES,
};

/// Which decomposition a plan describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decomp {
    /// Tucker projection `Y ← X ×₂ Bᵀ ×₃ Cᵀ` ([`crate::tucker::project`]).
    Tucker,
    /// PARAFAC MTTKRP `M ← X₍ₙ₎ (C ⊙ B)` ([`crate::parafac::mttkrp`]).
    Parafac,
}

impl Decomp {
    /// Both decompositions, Tucker first (paper order).
    pub const ALL: [Decomp; 2] = [Decomp::Tucker, Decomp::Parafac];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Decomp::Tucker => "Tucker",
            Decomp::Parafac => "PARAFAC",
        }
    }
}

impl std::fmt::Display for Decomp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The [`Env`] for one concrete pipeline invocation on a tensor with
/// canonical `dims`, `nnz` nonzeros, core sizes / ranks `q`, `r`, and
/// `machines` machines.
pub fn env_for(dims: [u64; 3], nnz: usize, q: usize, r: usize, machines: usize) -> Env {
    Env {
        nnz: nnz as u64,
        dim_i: dims[0],
        dim_j: dims[1],
        dim_k: dims[2],
        rank_q: q as u64,
        rank_r: r as u64,
        machines: machines as u64,
        // Default per-reducer memory budget: 1 MiB, matching the order of
        // the spill benchmark's per-machine budgets. Comfortably above the
        // `Mr ≥ 8·max(Q, R)` regime floor the communication bounds assume;
        // callers needing a specific budget override the field directly.
        reducer_memory: 1 << 20,
    }
}

// ---- Per-record byte constants, reconstructed from the real wire sizes ----

fn frame() -> u64 {
    RECORD_FRAMING_BYTES as u64
}

fn ix4_key_bytes() -> u64 {
    (0u64, 0u64, 0u64, 0u64).est_bytes() as u64
}

/// Hadamard job, tensor-entry emission: `u64` key + `HadVal::Ent`.
pub fn had_ent_bytes() -> u64 {
    8 + HadVal::Ent((0, 0, 0, 0), 0.0).est_bytes() as u64 + frame()
}

/// Hadamard job, coefficient emission: `u64` key + `HadVal::Coef`.
pub fn had_coef_bytes() -> u64 {
    8 + HadVal::Coef(0.0).est_bytes() as u64 + frame()
}

/// Collapse job emission: `Ix4` key + `f64` value.
pub fn collapse_bytes() -> u64 {
    ix4_key_bytes() + 0.0f64.est_bytes() as u64 + frame()
}

/// Naive broadcast job emission (entry and coefficient emissions size
/// identically): `Ix4` key + `NaiveVal`.
pub fn naive_bytes() -> u64 {
    ix4_key_bytes() + NaiveVal::Ent(0, 0.0).est_bytes() as u64 + frame()
}

/// IMHP tensor-entry emission: `(u8, u64)` key + `ImhpVal::Ent`.
pub fn imhp_ent_bytes() -> u64 {
    (0u8, 0u64).est_bytes() as u64 + ImhpVal::Ent((0, 0, 0, 0), 0.0).est_bytes() as u64 + frame()
}

/// IMHP factor-row emission, excluding the per-element payload: `(u8,
/// u64)` key + empty `ImhpVal::Row`.
pub fn imhp_row_base_bytes() -> u64 {
    (0u8, 0u64).est_bytes() as u64 + ImhpVal::Row(0).est_bytes() as u64 + frame()
}

/// Per-element payload of an IMHP factor row.
pub fn imhp_row_elem_bytes() -> u64 {
    0.0f64.est_bytes() as u64
}

/// CrossMerge / PairwiseMerge emission: `u64` key + `MergeVal`.
pub fn merge_bytes() -> u64 {
    8 + MergeVal { v: 0.0, tag: 0 }.est_bytes() as u64 + frame()
}

// ---- Expression shorthands -------------------------------------------------

fn n() -> SymExpr {
    SymExpr::nnz()
}
fn di() -> SymExpr {
    SymExpr::dim_i()
}
fn dj() -> SymExpr {
    SymExpr::dim_j()
}
fn dk() -> SymExpr {
    SymExpr::dim_k()
}
fn q() -> SymExpr {
    SymExpr::rank_q()
}
fn r() -> SymExpr {
    SymExpr::rank_r()
}
fn c(v: u64) -> SymExpr {
    SymExpr::c(v)
}

// ---- Kernels: what a template's instances run ------------------------------

/// Which factor feeds a per-column template, transposed. Instance `i`
/// multiplies by row `i` of the transpose — column `i` of the factor —
/// joining on the canonical mode the factor belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `u1ᵀ ∈ ℝ^{Q×J}`, joined on slot 1.
    U1,
    /// `u2ᵀ ∈ ℝ^{R×K}`, joined on slot 2.
    U2,
}

impl Side {
    fn slot(self) -> usize {
        match self {
            Side::U1 => 1,
            Side::U2 => 2,
        }
    }

    fn row<'a>(self, bound: &Bound<'a>, instance: usize) -> &'a [f64] {
        match self {
            Side::U1 => bound.u1.row(instance),
            Side::U2 => bound.u2.row(instance),
        }
    }
}

/// How a job's output indices are rewritten before the dataset is
/// published, so that shards read together line up as one tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relabel {
    /// Publish the kernel's indices as they are.
    Keep,
    /// Write the instance's own index into this slot: the per-column
    /// results stack along it.
    ShardTo(usize),
    /// Move slot 3 (the factor-column tag of the Hadamard that fed this
    /// job) into this slot, freeing slot 3 for the next tag.
    TagTo(usize),
}

impl Relabel {
    /// Relabel one shard of a published dataset in place.
    fn apply(self, records: &mut [(Ix4, f64)], instance: usize) {
        for (ix, _) in records {
            *ix = match self {
                Relabel::Keep => return,
                Relabel::ShardTo(slot) => with_slot(*ix, slot, instance as u64),
                Relabel::TagTo(slot) => with_slot((ix.0, ix.1, ix.2, 0), slot, ix.3),
            };
        }
    }
}

/// The MapReduce job a template's instances run: one of the operations of
/// [`crate::ops`], with the few parameters that tell two uses of it apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// [`naive_ttv_job`]: contract the slot of the side against its row.
    /// Slot 1 of the tensor read is as wide as the number of instances
    /// that wrote it: the per-column results of an earlier stage stack
    /// along it, one instance's output per index. (A dataset is published
    /// in its producer's reduce partitions, each one or more chunks, so
    /// its shard count says nothing about its width.)
    NaiveTtv(Side),
    /// [`hadamard_vec_job`]: join the slot of the side with its row; `true`
    /// tags slot 3 of every output record with the instance index.
    HadamardVec(Side, bool),
    /// [`collapse_job`] over this slot.
    Collapse(usize),
    /// [`imhp_job`] at two sides, joined on slots 1 and 2: both Hadamard
    /// expansions in one pass over `x`; writes two datasets, each as the
    /// merge's map output its reduce tasks wrote, for the merge to take.
    Imhp,
    /// [`cross_merge_job`] of its two reads, side 0 first.
    CrossMerge,
    /// [`pairwise_merge_job`] of its two reads, side 0 first, at the rank
    /// of the factors joined.
    PairwiseMerge,
}

impl Kernel {
    /// Name of the operation — what the template's [`PlanJob::op`] says,
    /// and what the submitter checks before it runs the kernel.
    pub fn op(self) -> &'static str {
        match self {
            Kernel::NaiveTtv(_) => "naive_ttv_job",
            Kernel::HadamardVec(..) => "hadamard_vec_job",
            Kernel::Collapse(_) => "collapse_job",
            Kernel::Imhp => "imhp_job",
            Kernel::CrossMerge => "cross_merge_job",
            Kernel::PairwiseMerge => "pairwise_merge_job",
        }
    }

    /// Run instance `i`, named `name`, on `reads` (one per declared read,
    /// in declared order); returns one dataset per declared write.
    fn run(
        self,
        ctx: &JobCtx<'_>,
        name: &str,
        i: usize,
        reads: Vec<Read<'_>>,
        bound: &Bound<'_>,
    ) -> haten2_mapreduce::Result<Written> {
        let (mut lists, mut producers, mut taken) = (Vec::new(), Vec::new(), Vec::new());
        for read in reads {
            match read {
                Read::Shards { shards, sources } => {
                    lists.push(shards);
                    producers.push(sources);
                }
                Read::Taken(side) => taken.push(side),
            }
        }
        let shards: Vec<Shards<'_>> = lists.iter().map(Vec::as_slice).collect();
        let published = |partitions: Partitions| vec![Dataset::Shards(partitions)];
        let (widths, layout) = (bound.widths, bound.layout);
        let rank = widths[0];
        Ok(match (self, shards.as_slice(), taken.len()) {
            (Kernel::NaiveTtv(side), [entries], 0) => {
                let [d0, _, d2] = bound.dims;
                let dims = [d0, producers[0] as u64, d2, 1];
                let row = side.row(bound, i);
                published(naive_ttv_job(ctx, name, entries, dims, side.slot(), row)?)
            }
            (Kernel::HadamardVec(side, tag), [entries], 0) => {
                let (row, tag) = (side.row(bound, i), tag.then_some(i as u64));
                published(hadamard_vec_job(ctx, name, entries, side.slot(), row, tag)?)
            }
            (Kernel::Collapse(drop), [entries], 0) => {
                published(collapse_job(ctx, name, entries, drop, bound.use_combiner)?)
            }
            (Kernel::Imhp, [entries], 0) => {
                let factors = [bound.u1, bound.u2];
                let sides = imhp_job(ctx, name, entries, &factors, join_on_slots, layout)?;
                let written = sides.into_iter();
                written
                    .map(|side| Dataset::Written(TakeOnce::new(name, side)))
                    .collect()
            }
            (Kernel::CrossMerge, sides @ [_, _], 0) => {
                let input = MergeInput::Shards(sides);
                published(cross_merge_job(ctx, name, input, &widths, layout)?)
            }
            (Kernel::CrossMerge, [], 2) => {
                let input = MergeInput::Written(taken);
                published(cross_merge_job(ctx, name, input, &widths, layout)?)
            }
            (Kernel::PairwiseMerge, sides @ [_, _], 0) => {
                let input = MergeInput::Shards(sides);
                published(pairwise_merge_job(ctx, name, input, rank, layout)?)
            }
            (Kernel::PairwiseMerge, [], 2) => {
                let input = MergeInput::Written(taken);
                published(pairwise_merge_job(ctx, name, input, rank, layout)?)
            }
            (kernel, shards, taken) => {
                let detail = format!(
                    "{} cannot run on {} shard and {taken} written input(s)",
                    kernel.op(),
                    shards.len()
                );
                return Err(violation(name, detail));
            }
        })
    }
}

// ---- Templates: one constructor per kernel ---------------------------------
//
// Each declares, once, what every use of a kernel shares: its `op`, which
// the submitter matches to the kernel it runs, and its cost as a function of
// the records one instance reads (`input`).

/// A job template and the kernel its instances run.
type Template = (PlanJob, Kernel);

/// `count` instances of `kernel`, each emitting `records`.
fn template(
    name: &str,
    count: SymExpr,
    kernel: Kernel,
    reads: &[&str],
    writes: &[&str],
    (records, bytes): (SymExpr, SymExpr),
) -> Template {
    let mut job = PlanJob::new(name).repeat(count).op(kernel.op());
    job.reads = reads.iter().map(|d| d.to_string()).collect();
    job.writes = writes.iter().map(|d| d.to_string()).collect();
    (job.emits(records, bytes), kernel)
}

/// Broadcast product with each row of `side`: every coefficient of the row
/// is shuffled to all `fibers` of the tensor read — the paper's
/// `nnz + I·J·K` blowup.
fn naive_ttv(
    name: &str,
    count: SymExpr,
    side: Side,
    (reads, input): (&str, SymExpr),
    fibers: SymExpr,
    writes: &str,
) -> Template {
    let records = input + fibers;
    let cost = (records.clone(), c(naive_bytes()) * records);
    template(
        name,
        count,
        Kernel::NaiveTtv(side),
        &[reads],
        &[writes],
        cost,
    )
}

/// `*̄` with each row of `side`, optionally tagging slot 3: one record per
/// entry read plus one per coefficient of the row.
fn hadamard(
    name: &str,
    count: SymExpr,
    side: Side,
    tag: bool,
    (reads, input): (&str, SymExpr),
    writes: &str,
) -> Template {
    let row = match side {
        Side::U1 => dj(),
        Side::U2 => dk(),
    };
    let bytes = c(had_ent_bytes()) * input.clone() + c(had_coef_bytes()) * row.clone();
    let kernel = Kernel::HadamardVec(side, tag);
    template(
        name,
        count,
        kernel,
        &[reads],
        &[writes],
        (input + row, bytes),
    )
}

/// `Collapse` over slot `drop`: one record per entry read.
fn collapse(
    name: &str,
    count: SymExpr,
    drop: usize,
    (reads, input): (&str, SymExpr),
    writes: &str,
) -> Template {
    let cost = (input.clone(), c(collapse_bytes()) * input);
    template(
        name,
        count,
        Kernel::Collapse(drop),
        &[reads],
        &[writes],
        cost,
    )
}

/// IMHP: reads the tensor once, writes both expanded sides. Emits 2 records
/// per nonzero plus one row record per column of each factor;
/// `q_len`/`r_len` are the row lengths (Q and R for Tucker, R and R for
/// PARAFAC).
fn imhp(name: &str, q_len: SymExpr, r_len: SymExpr) -> Template {
    let records = c(2) * n() + dj() + dk();
    let bytes = c(2 * imhp_ent_bytes()) * n()
        + (c(imhp_row_base_bytes()) + c(imhp_row_elem_bytes()) * q_len) * dj()
        + (c(imhp_row_base_bytes()) + c(imhp_row_elem_bytes()) * r_len) * dk();
    let writes = ["t_prime", "t_dprime"];
    template(name, c(1), Kernel::Imhp, &["x"], &writes, (records, bytes))
}

/// The final merge of `T'` and `T''` on the target-mode index: CrossMerge
/// shuffles every record of both sides, PairwiseMerge `nnz·R` per side.
fn merge(name: &str, kernel: Kernel) -> Template {
    let cost = match kernel {
        Kernel::CrossMerge => (n() * (q() + r()), c(merge_bytes()) * n() * (q() + r())),
        Kernel::PairwiseMerge => (c(2) * n() * r(), c(2 * merge_bytes()) * n() * r()),
        other => unreachable!("{} merges nothing", other.op()),
    };
    template(name, c(1), kernel, &["t_prime", "t_dprime"], &["y"], cost)
}

/// One pipeline: its [`JobGraph`] — what the analyzer certifies and the
/// scheduler validates against — plus, per template, what its instances
/// run and how they publish it.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// The declarative description.
    pub graph: JobGraph,
    /// `steps[i]` runs `graph.jobs[i]`.
    steps: Vec<(Kernel, Relabel)>,
}

impl Pipeline {
    /// A pipeline over the bound datasets `inputs` — `x`, and `x_bin` for
    /// `bin(x)` — writing `y`.
    fn new(name: &str, inputs: &[&str]) -> Self {
        let graph = JobGraph::new(name, []).output("y");
        Pipeline {
            graph: inputs.iter().fold(graph, |g, input| g.big_input(input)),
            steps: Vec::new(),
        }
    }

    /// Submit one rank's whole chain before the next rank's.
    fn rank_major(mut self) -> Self {
        self.graph.rank_major = true;
        self
    }

    fn job(mut self, (job, kernel): Template, relabel: Relabel) -> Self {
        self.graph.jobs.push(job);
        self.steps.push((kernel, relabel));
        self
    }

    /// Whether the pipeline joins entries with factor rows (IMHP), rather
    /// than multiplying them by factor columns one instance per column.
    fn joins_rows(&self) -> bool {
        self.steps.iter().any(|&(kernel, _)| kernel == Kernel::Imhp)
    }

    /// The last job's costs are worst-case bounds, not generic-position
    /// exact: it reads a dataset whose support is data-dependent.
    fn upper_bound(mut self) -> Self {
        if let Some(job) = self.graph.jobs.last_mut() {
            job.exact = false;
        }
        self
    }
}

/// The registered pipeline for one (decomposition × variant): Algorithms
/// 3–10 of the paper, as data. A row is a template — name, instances,
/// kernel parameters, `(reads, records that is per instance)`, `writes` —
/// and how its output is relabelled.
#[rustfmt::skip]
pub fn pipeline_for(decomp: Decomp, variant: Variant) -> Pipeline {
    use Kernel::{CrossMerge, PairwiseMerge};
    use Relabel::{Keep, ShardTo, TagTo};
    use Side::{U1, U2};
    let ijk = || di() * dj() * dk();
    match (decomp, variant) {
        // -- Tucker (Algorithms 3, 5, 7, 9; Table III) ---------------------
        // The Q per-column results stack along slot 1 into T, the R along
        // slot 2 into Y; |T| = Q · (distinct (i,k) pairs) ≤ Q·nnz.
        (Decomp::Tucker, Variant::Naive) => Pipeline::new("tucker-naive", &["x"])
            .job(naive_ttv("tucker-naive-xv-b{}", q(), U1, ("x", n()), ijk(), "t#{}"), ShardTo(1))
            .job(naive_ttv("tucker-naive-tv-c{}", r(), U2, ("t", n() * q()), di() * q() * dk(),
                           "y#{}"), ShardTo(2))
            .upper_bound(),
        // T(i, 0, k, q): q moves into slot 1, so slot 3 is free for r. The
        // last Collapse is the nnz·Q·R blowup that makes DNN the
        // intermediate-data worst case of the decoupled variants.
        (Decomp::Tucker, Variant::Dnn) => Pipeline::new("tucker-dnn", &["x"])
            .job(hadamard("tucker-dnn-had-b{}", q(), U1, true, ("x", n()), "t_prime#{}"), Keep)
            .job(collapse("tucker-dnn-collapse-j", c(1), 1, ("t_prime", n() * q()), "t"), TagTo(1))
            .job(hadamard("tucker-dnn-had-c{}", r(), U2, true, ("t", n() * q()), "y_prime#{}"),
                 Keep)
            .upper_bound()
            .job(collapse("tucker-dnn-collapse-k", c(1), 2, ("y_prime", n() * q() * r()), "y"),
                 TagTo(2))
            .upper_bound(),
        (Decomp::Tucker, Variant::Drn) => Pipeline::new("tucker-drn", &["x", "x_bin"])
            .job(hadamard("tucker-drn-had-b{}", q(), U1, true, ("x", n()), "t_prime#{}"), Keep)
            .job(hadamard("tucker-drn-had-c{}", r(), U2, true, ("x_bin", n()), "t_dprime#{}"), Keep)
            .job(merge("tucker-drn-crossmerge", CrossMerge), Keep),
        (Decomp::Tucker, Variant::Dri) => Pipeline::new("tucker-dri", &["x"])
            .job(imhp("tucker-dri-imhp", q(), r()), Keep)
            .job(merge("tucker-dri-crossmerge", CrossMerge), Keep),

        // -- PARAFAC (Algorithms 4, 6, 8, 10; Table IV) --------------------
        // Naive and DNN run R independent per-rank chains, one rank's whole
        // chain submitted before the next rank's; the rank lands in slot 1
        // of the final shard, so every variant's `y` is `((i, r, 0, 0), v)`.
        // |T_r| = distinct (i,k) pairs ≤ nnz.
        (Decomp::Parafac, Variant::Naive) => Pipeline::new("parafac-naive", &["x"]).rank_major()
            .job(naive_ttv("parafac-naive-xb{}", r(), U1, ("x", n()), ijk(), "t#{}"), Keep)
            .job(naive_ttv("parafac-naive-tc{}", r(), U2, ("t#{}", n()), di() * dk(), "y#{}"),
                 ShardTo(1))
            .upper_bound(),
        (Decomp::Parafac, Variant::Dnn) => Pipeline::new("parafac-dnn", &["x"]).rank_major()
            .job(hadamard("parafac-dnn-had-b{}", r(), U1, false, ("x", n()), "h_b#{}"), Keep)
            .job(collapse("parafac-dnn-col-j{}", r(), 1, ("h_b#{}", n()), "t#{}"), Keep)
            .job(hadamard("parafac-dnn-had-c{}", r(), U2, false, ("t#{}", n()), "h_c#{}"), Keep)
            .upper_bound()
            .job(collapse("parafac-dnn-col-k{}", r(), 2, ("h_c#{}", n()), "y#{}"), ShardTo(1))
            .upper_bound(),
        (Decomp::Parafac, Variant::Drn) => Pipeline::new("parafac-drn", &["x", "x_bin"])
            .job(hadamard("parafac-drn-had-b{}", r(), U1, true, ("x", n()), "t_prime#{}"), Keep)
            .job(hadamard("parafac-drn-had-c{}", r(), U2, true, ("x_bin", n()), "t_dprime#{}"),
                 Keep)
            .job(merge("parafac-drn-pairwisemerge", PairwiseMerge), Keep),
        (Decomp::Parafac, Variant::Dri) => Pipeline::new("parafac-dri", &["x"])
            .job(imhp("parafac-dri-imhp", r(), r()), Keep)
            .job(merge("parafac-dri-pairwisemerge", PairwiseMerge), Keep),
    }
}

/// The registered plan for one (decomposition × variant) pipeline: the
/// graph [`run_pipeline`] executes, for the analyzer and the cross-checks.
pub fn plan_for(decomp: Decomp, variant: Variant) -> JobGraph {
    pipeline_for(decomp, variant).graph
}

// ---- The submitter -----------------------------------------------------------

/// What one call binds a pipeline's symbols to.
pub struct Bindings<'a> {
    /// Dataset `x`: the tensor's records in canonical orientation, target
    /// mode first. `bin(x)`, every value 1, is dataset `x_bin` for the
    /// graphs that read it.
    pub x: &'a [(Ix4, f64)],
    /// The canonical dims of `x`, `[I, J, K]`.
    pub dims: [u64; 3],
    /// Factor of canonical mode 1, `J × Q`.
    pub u1: &'a Mat,
    /// Factor of canonical mode 2, `K × R`.
    pub u2: &'a Mat,
    /// Map-side combiner in Collapse jobs (an ablation; the paper's cost
    /// model assumes none).
    pub use_combiner: bool,
}

/// The bindings as a pipeline's kernels read them: both factors in the
/// orientation its kernels join them in — as themselves for IMHP, which
/// reads each row where it lies, transposed for the per-column kernels,
/// which multiply by one column each.
struct Bound<'a> {
    dims: [u64; 3],
    u1: &'a Mat,
    u2: &'a Mat,
    /// `[Q, R]`.
    widths: [u64; 2],
    /// How the merge records of DRN and DRI are packed, from `dims` and
    /// `widths`.
    layout: MergeLayout,
    use_combiner: bool,
}

/// One declared write, as the job that wrote it leaves it.
enum Dataset {
    /// The shards it was written in — its job's reduce partitions, in
    /// partition order, each as one or more chunks ([`Partitions`]) —
    /// borrowed where they lie by every reader.
    Shards(Partitions),
    /// An IMHP side, written as the merge's map output: its one reader
    /// takes it.
    Written(TakeOnce<WrittenSide>),
}

/// What one job leaves behind: one dataset per declared write.
type Written = Vec<Dataset>;

/// Where some of a declared read comes from.
enum Source<'a> {
    /// A dataset bound before the first job.
    Bound(&'a [(Ix4, f64)]),
    /// Declared write `.1` of an earlier job.
    Written(JobHandle<Written>, usize),
}

/// One declared read, resolved.
enum Read<'s> {
    /// The shards of its sources, in order, borrowed where they are, and
    /// how many sources there were: one per bound dataset or producing
    /// instance.
    Shards {
        shards: Vec<&'s [(Ix4, f64)]>,
        sources: usize,
    },
    /// The one written side it reads, taken.
    Taken(WrittenSide),
}

impl Read<'_> {
    /// Resolve the read `reader` declares over `sources`. A written side
    /// is read alone and taken; a second taker is refused
    /// ([`TakeOnce::take`]).
    fn resolve<'s>(
        sources: &'s [Source<'_>],
        ctx: &'s JobCtx<'_>,
        reader: &str,
    ) -> haten2_mapreduce::Result<Read<'s>> {
        let mut shards = Vec::new();
        for source in sources {
            match source {
                Source::Bound(records) => shards.push(*records),
                Source::Written(handle, at) => match &ctx.get(handle)?[*at] {
                    Dataset::Shards(written) => shards.extend(written.iter().map(Vec::as_slice)),
                    Dataset::Written(side) if sources.len() == 1 => {
                        return Ok(Read::Taken(side.take(reader)?));
                    }
                    Dataset::Written(_) => {
                        let detail = "a written side is read alone".to_string();
                        return Err(violation(reader, detail));
                    }
                },
            }
        }
        Ok(Read::Shards {
            shards,
            sources: sources.len(),
        })
    }
}

fn violation(job: &str, detail: String) -> MrError {
    MrError::PlanViolation {
        job: job.to_string(),
        detail,
    }
}

/// Submit every instance `pipeline` expands to under `env`, in the graph's
/// submission order, through the one `submit` site library code has. An
/// instance's inputs are the shards its declared reads overlap — a dataset
/// in `datasets`, or every shard of the declared writes of jobs submitted
/// before it, in submission order — under the same overlap rule the
/// scheduler orders jobs by. Returns the jobs that write the pipeline's
/// output.
fn submit<'a>(
    batch: &mut Batch<'a>,
    pipeline: &Pipeline,
    env: &Env,
    bound: &'a Bound<'a>,
    datasets: &[(&str, &'a [(Ix4, f64)])],
) -> haten2_mapreduce::Result<Vec<(JobInstance, JobHandle<Written>)>> {
    let mut submitted: Vec<(JobInstance, JobHandle<Written>)> = Vec::new();
    for inst in pipeline.graph.expand(env) {
        let job = &pipeline.graph.jobs[inst.template];
        // A graph the kernel table does not follow stops here.
        let step = pipeline.steps.get(inst.template);
        let Some(&(kernel, relabel)) = step.filter(|(k, _)| job.op.as_deref() == Some(k.op()))
        else {
            return Err(violation(&inst.name, format!("no kernel for {:?}", job.op)));
        };
        let mut sources: Vec<Vec<Source<'a>>> = Vec::with_capacity(inst.reads.len());
        for read in &inst.reads {
            let shards: Vec<Source<'a>> = match datasets.iter().find(|(name, _)| name == read) {
                Some(&(_, records)) => vec![Source::Bound(records)],
                None => submitted
                    .iter()
                    .flat_map(|(earlier, handle)| {
                        let overlapping =
                            |(_, write): &(usize, &String)| datasets_overlap(write, read);
                        let written = earlier.writes.iter().enumerate().filter(overlapping);
                        written.map(|(at, _)| Source::Written(handle.clone(), at))
                    })
                    .collect(),
            };
            if shards.is_empty() {
                let detail = format!("reads '{read}', which nothing bound or earlier writes");
                return Err(violation(&inst.name, detail));
            }
            sources.push(shards);
        }
        let (name, index) = (inst.name.clone(), inst.index);
        let run = move |ctx: &JobCtx<'_>| {
            let mut reads = Vec::with_capacity(sources.len());
            for read in &sources {
                reads.push(Read::resolve(read, ctx, &name)?);
            }
            let mut written = kernel.run(ctx, &name, index, reads, bound)?;
            // IMHP's row relabels nothing: only shards are relabelled.
            for dataset in &mut written {
                if let Dataset::Shards(shards) = dataset {
                    for records in shards {
                        relabel.apply(records, index);
                    }
                }
            }
            Ok(written)
        };
        let handle = batch.submit(
            inst.name.clone(),
            inst.reads.clone(),
            inst.writes.clone(),
            run,
        )?;
        submitted.push((inst, handle));
    }
    // Only the output's handles leave: every intermediate is now owned by
    // the closures that read it, and goes when the last of them has run.
    let outputs = &pipeline.graph.outputs;
    let is_output = |write: &String| outputs.iter().any(|o| o == dataset_base(write));
    submitted.retain(|(inst, _)| inst.writes.iter().any(is_output));
    Ok(submitted)
}

/// Execute `pipeline` on `cluster` with its symbols bound to `bound`, and
/// return its output dataset as the shards it was written in: each
/// writing job's reduce partitions, chunk by chunk, jobs in submission
/// order. Read in that order they are the output's records; nothing is
/// copied to hand them over.
///
/// Between two jobs a dataset stays where it was written. A job publishes,
/// per declared write, what its kernel wrote, and a kernel reading the
/// dataset borrows every shard of every write its declared read overlaps
/// and maps them in place — except IMHP's sides, which its reduce tasks
/// write as the merge's map output: the merge takes each side by
/// ownership, and a second reader of a side is refused.
///
/// Extents whose merge records do not fit a [`MergeLayout`] are refused
/// with `InvalidArgument` before any job is submitted.
pub fn run_pipeline(
    cluster: &Cluster,
    pipeline: &Pipeline,
    bound: &Bindings<'_>,
) -> crate::Result<Partitions> {
    let (q, r) = (bound.u1.cols(), bound.u2.cols());
    let what = format!("{}: factor width", pipeline.graph.name);
    let layout = MergeLayout::three_way(&what, bound.dims, [q, r])?;
    let machines = cluster.config().machines.max(1);
    let x_bin: Option<Vec<(Ix4, f64)>> = pipeline
        .graph
        .is_input("x_bin")
        .then(|| bound.x.iter().map(|&(ix, _)| (ix, 1.0)).collect());
    let mut datasets = vec![("x", bound.x)];
    datasets.extend(x_bin.as_deref().map(|records| ("x_bin", records)));

    let env = env_for(bound.dims, bound.x.len(), q, r, machines);
    // IMHP reads the factors' rows where they lie; the per-column kernels
    // multiply by rows of the transposes.
    let transposed = (!pipeline.joins_rows()).then(|| [bound.u1.transpose(), bound.u2.transpose()]);
    let (u1, u2) = match &transposed {
        Some([u1, u2]) => (u1, u2),
        None => (bound.u1, bound.u2),
    };
    let kernels = Bound {
        dims: bound.dims,
        u1,
        u2,
        widths: [q as u64, r as u64],
        layout,
        use_combiner: bound.use_combiner,
    };

    let mut batch = Batch::with_graph(&pipeline.graph);
    let submitted = submit(&mut batch, pipeline, &env, &kernels, &datasets)?;
    batch.run(cluster)?;

    let outputs = &pipeline.graph.outputs;
    let mut y = Vec::new();
    for (inst, handle) in submitted {
        for (write, dataset) in inst.writes.iter().zip(handle.take()?) {
            if outputs.iter().any(|o| o == dataset_base(write)) {
                let Dataset::Shards(shards) = dataset else {
                    let detail = format!("output '{write}' written for a merge");
                    return Err(violation(&inst.name, detail).into());
                };
                y.extend(shards);
            }
        }
    }
    Ok(y)
}

/// Communication-bound metadata one pipeline registers: the parameters
/// that instantiate the Ballard–Rouse MTTKRP communication lower bounds
/// (arXiv:1708.07401) for it. The analyzer's `comm` pass combines these
/// with the graph-derived [`JobGraph::shuffle_bytes`] to certify each
/// pipeline's shuffle volume against a principled yardstick.
#[derive(Debug, Clone)]
pub struct CommSpec {
    /// Effective rank: how many factor words combine with each tensor
    /// nonzero per sweep — `Q + R` for the Tucker pipelines (both factor
    /// sides), `2·R` for PARAFAC (the B and C sides of the Khatri–Rao
    /// product). Drives the memory-dependent bound
    /// `nnz · rank_eff · 8 / Mr`.
    pub rank_eff: SymExpr,
    /// Width of the smallest wire record the engine ever shuffles (a
    /// Hadamard coefficient emission: 8-byte key + 8-byte value + record
    /// framing). Drives the memory-independent floor `nnz · w_min`: in
    /// the engine's stateless-mapper, combiner-free model every
    /// contributing nonzero crosses the shuffle at least once, as at
    /// least one record.
    pub min_record_bytes: u64,
}

/// The communication-bound registration for one pipeline. Every variant
/// of a decomposition shares the decomposition's effective rank: the
/// bound is a property of the MTTKRP computation, not of the job layout
/// a variant chooses — that is what makes it a fair yardstick across
/// variants.
pub fn comm_for(decomp: Decomp, _variant: Variant) -> CommSpec {
    let rank_eff = match decomp {
        Decomp::Tucker => q() + r(),
        Decomp::Parafac => c(2) * r(),
    };
    CommSpec {
        rank_eff,
        min_record_bytes: had_coef_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::tensor_records;
    use haten2_mapreduce::{FaultPlan, RetryPolicy};
    use haten2_tensor::CooTensor3;

    fn sample_envs() -> Vec<Env> {
        let mut envs = Vec::new();
        for s in 1..6u64 {
            envs.push(Env {
                nnz: 1000 * s,
                dim_i: 10 + s,
                dim_j: 20 + s,
                dim_k: 30 + s,
                rank_q: 1 + s,
                rank_r: 2 + s,
                machines: 4 * s,
                reducer_memory: 1 << 20,
            });
        }
        envs
    }

    #[test]
    fn job_counts_agree_with_driver_formulas() {
        // The "Total Jobs" columns of Tables III and IV, written out.
        for env in sample_envs() {
            let (qv, rv) = (env.rank_q as u128, env.rank_r as u128);
            for (variant, tucker, parafac) in [
                (Variant::Naive, qv + rv, 2 * rv),
                (Variant::Dnn, qv + rv + 2, 4 * rv),
                (Variant::Drn, qv + rv + 1, 2 * rv + 1),
                (Variant::Dri, 2, 2),
            ] {
                let g = plan_for(Decomp::Tucker, variant);
                assert_eq!(g.total_jobs().eval(&env), tucker, "tucker {variant}");
                // PARAFAC plans use R for the rank.
                let g = plan_for(Decomp::Parafac, variant);
                assert_eq!(g.total_jobs().eval(&env), parafac, "parafac {variant}");
            }
        }
    }

    #[test]
    fn expansion_matches_runtime_job_names() {
        let env = env_for([4, 5, 6], 20, 2, 3, 4);
        let g = plan_for(Decomp::Tucker, Variant::Naive);
        let names: Vec<String> = g.expand(&env).into_iter().map(|j| j.name).collect();
        assert_eq!(names[0], "tucker-naive-xv-b0");
        assert_eq!(names[1], "tucker-naive-xv-b1");
        assert_eq!(names[2], "tucker-naive-tv-c0");
        assert_eq!(names.len(), 5);
        let g = plan_for(Decomp::Parafac, Variant::Dri);
        let names: Vec<String> = g.expand(&env).into_iter().map(|j| j.name).collect();
        assert_eq!(names, ["parafac-dri-imhp", "parafac-dri-pairwisemerge"]);
    }

    #[test]
    fn dri_jobs_are_all_exact() {
        let env = env_for([4, 5, 6], 20, 2, 3, 4);
        for decomp in Decomp::ALL {
            for inst in plan_for(decomp, Variant::Dri).expand(&env) {
                assert!(inst.exact, "{decomp} DRI job {} must be exact", inst.name);
            }
        }
    }

    #[test]
    fn derived_emit_hints_match_deleted_manual_hints() {
        // The drivers used to hard-code map-emit hints (1 everywhere, 2
        // for IMHP); the hints are now derived from the plan IR's emit
        // expressions and must reproduce those values for every job of
        // every registered pipeline.
        for decomp in Decomp::ALL {
            for variant in Variant::ALL {
                let g = plan_for(decomp, variant);
                for job in &g.jobs {
                    let concrete = job.name.replace("{}", "0");
                    let hint = g.emit_hint(&concrete).unwrap_or_else(|| {
                        panic!("{decomp} {variant} {}: no derived hint", job.name)
                    });
                    let want = if job.op.as_deref() == Some("imhp_job") {
                        2
                    } else {
                        1
                    };
                    assert_eq!(hint, want, "{decomp} {variant} {}", job.name);
                }
            }
        }
    }

    #[test]
    fn critical_path_depths_are_constant_per_variant() {
        // Under the DAG scheduler the Table III/IV job counts become
        // critical-path depths: Naive/DRN/DRI collapse to 2 and DNN to 4,
        // independent of tensor size, ranks, or machine count.
        for env in sample_envs() {
            for decomp in Decomp::ALL {
                for (variant, depth) in [
                    (Variant::Naive, 2),
                    (Variant::Dnn, 4),
                    (Variant::Drn, 2),
                    (Variant::Dri, 2),
                ] {
                    assert_eq!(
                        plan_for(decomp, variant).critical_path_jobs().eval(&env),
                        depth,
                        "{decomp} {variant}"
                    );
                }
            }
        }
    }

    fn sample_tensor() -> CooTensor3 {
        use haten2_tensor::Entry3;
        let entries = (0..24u64)
            .map(|e| Entry3::new(e % 4, (e * 7) % 5, (e * 3) % 6, 1.0 + e as f64))
            .collect();
        CooTensor3::from_entries([4, 5, 6], entries).unwrap()
    }

    /// What `submit` declares to a batch for `pipeline` at Q = `q`, R = 3:
    /// one `name reads writes` line per job.
    fn declared(pipeline: &Pipeline, q: usize) -> haten2_mapreduce::Result<Vec<String>> {
        let x = sample_tensor();
        let (records, bin) = (tensor_records(&x), tensor_records(&x.bin()));
        let datasets = [("x", records.as_slice()), ("x_bin", bin.as_slice())];
        let bound = Bound {
            dims: x.dims(),
            u1: &Mat::zeros(q, 5),
            u2: &Mat::zeros(3, 6),
            widths: [q as u64, 3],
            layout: MergeLayout::three_way("test", x.dims(), [q, 3]).unwrap(),
            use_combiner: false,
        };
        let env = env_for(x.dims(), x.nnz(), q, 3, 4);
        let mut batch = Batch::with_graph(&pipeline.graph);
        let kept = submit(&mut batch, pipeline, &env, &bound, &datasets)?;
        // Holding an intermediate's handle past submission would keep it
        // alive for the whole batch (`peak_rss_mib`).
        let writes = kept.iter().flat_map(|(inst, _)| &inst.writes);
        assert!(writes.into_iter().all(|w| dataset_base(w) == "y"));
        let line = |(name, reads, writes)| format!("{name} {reads:?} {writes:?}");
        Ok(batch.declared().into_iter().map(line).collect())
    }

    #[test]
    fn submitter_declares_exactly_the_expanded_graph() {
        // For every registered pipeline: what reaches `Batch::submit` is,
        // job for job, the `(name, reads, writes)` its graph expands to.
        for decomp in Decomp::ALL {
            let q = match decomp {
                Decomp::Tucker => 2,
                Decomp::Parafac => 3,
            };
            for variant in Variant::ALL {
                let pipeline = pipeline_for(decomp, variant);
                let env = env_for([4, 5, 6], 24, q, 3, 4);
                let expanded: Vec<String> = pipeline
                    .graph
                    .expand(&env)
                    .into_iter()
                    .map(|inst| format!("{} {:?} {:?}", inst.name, inst.reads, inst.writes))
                    .collect();
                assert!(!expanded.is_empty());
                let submitted = declared(&pipeline, q).unwrap();
                assert_eq!(submitted, expanded, "{}", pipeline.graph.name);
            }
        }
    }

    #[test]
    fn a_read_nothing_declares_written_is_refused_at_submission() {
        // Inputs come from declared reads and nothing else: a template
        // whose read no bound dataset and no earlier write covers cannot
        // be given data some other way.
        let mut pipeline = pipeline_for(Decomp::Tucker, Variant::Dri);
        pipeline.graph.jobs[1].reads[0] = "t_typo".to_string();
        let err = declared(&pipeline, 2).unwrap_err();
        assert!(
            matches!(&err, MrError::PlanViolation { job, detail }
                if job == "tucker-dri-crossmerge" && detail.contains("t_typo")),
            "{err}"
        );
    }

    /// `pipeline`'s output bits for [`sample_tensor`] at rank 3 on
    /// `cluster`.
    fn parafac_y(cluster: &Cluster, pipeline: &Pipeline) -> crate::Result<Vec<(Ix4, u64)>> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = sample_tensor();
        let (records, u1, u2) = (
            tensor_records(&x),
            Mat::random(3, 5, &mut rng).transpose(),
            Mat::random(3, 6, &mut rng).transpose(),
        );
        let bound = Bindings {
            x: &records,
            dims: x.dims(),
            u1: &u1,
            u2: &u2,
            use_combiner: false,
        };
        let y = run_pipeline(cluster, pipeline, &bound)?;
        Ok(y.iter()
            .flatten()
            .map(|&(ix, v)| (ix, v.to_bits()))
            .collect())
    }

    fn sequential_cluster(machines: usize, fault_plan: Option<FaultPlan>) -> Cluster {
        let mut cfg = haten2_mapreduce::ClusterConfig::with_machines(machines);
        cfg.scheduler = haten2_mapreduce::SchedulerMode::Sequential;
        cfg.fault_plan = fault_plan;
        Cluster::new(cfg)
    }

    #[test]
    fn a_second_reader_of_a_written_side_is_refused() {
        // A second merge over IMHP's sides finds them taken by the first:
        // a plan error naming the reader, the producer and the taker.
        let pipeline = pipeline_for(Decomp::Parafac, Variant::Dri);
        let (mut again, kernel) = merge("parafac-dri-pairwisemerge-again", Kernel::PairwiseMerge);
        again.writes = vec!["z".to_string()];
        let twice = pipeline.job((again, kernel), Relabel::Keep);
        let cluster = sequential_cluster(3, None);
        let err = parafac_y(&cluster, &twice).unwrap_err();
        assert!(
            matches!(&err, crate::CoreError::MapReduce(MrError::PlanViolation { job, detail })
                if job == "parafac-dri-pairwisemerge-again"
                    && detail.contains("'parafac-dri-imhp'")
                    && detail.contains("'parafac-dri-pairwisemerge'")),
            "{err}"
        );
        // Both jobs before it committed.
        assert_eq!(cluster.jobs_run(), 2);
    }

    #[test]
    fn a_batch_failing_between_imhp_and_the_merge_leaves_the_cluster_usable() {
        // On 64 machines IMHP reads 35 records in 35 map tasks and the
        // merge 144 in 48, so failing every 40th map task with no retry
        // exhausts the merge's budget only: the batch returns that error
        // and the written sides go with it. The cluster then runs the DNN
        // pipeline, whose jobs split into fewer tasks, exactly as a fresh
        // cluster does.
        let wide_maps_fail = FaultPlan {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            ..FaultPlan::fail_every_nth(40)
        };
        let cluster = sequential_cluster(64, Some(wide_maps_fail.clone()));
        let dri = pipeline_for(Decomp::Parafac, Variant::Dri);
        let err = parafac_y(&cluster, &dri).unwrap_err();
        assert!(
            matches!(&err, crate::CoreError::MapReduce(MrError::TaskFailed { job, phase: "map", task: 39, .. })
                if job == "parafac-dri-pairwisemerge"),
            "{err}"
        );
        assert_eq!(cluster.jobs_run(), 1, "IMHP committed, the merge did not");
        let dnn = pipeline_for(Decomp::Parafac, Variant::Dnn);
        let fresh = sequential_cluster(64, Some(wide_maps_fail));
        assert_eq!(
            parafac_y(&cluster, &dnn).unwrap(),
            parafac_y(&fresh, &dnn).unwrap()
        );
        assert_eq!(cluster.jobs_run(), 1 + fresh.jobs_run());
    }

    #[test]
    fn byte_constants_match_wire_format() {
        // Pin the reconstructed constants to the EstimateSize impls; if a
        // record type changes shape, this localizes the breakage.
        assert_eq!(super::had_ent_bytes(), 57);
        assert_eq!(super::had_coef_bytes(), 25);
        assert_eq!(super::collapse_bytes(), 48);
        assert_eq!(super::naive_bytes(), 57);
        assert_eq!(super::imhp_ent_bytes(), 58);
        assert_eq!(super::imhp_row_base_bytes(), 22);
        assert_eq!(super::imhp_row_elem_bytes(), 8);
        assert_eq!(super::merge_bytes(), 49);
    }
}
