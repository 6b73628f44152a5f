//! Static plan analyzer: verify the paper's cost table before a job runs.
//!
//! HaTen2's contribution is largely *static*: Tables III/IV bound, per
//! variant, the maximum intermediate data of any MapReduce job, the total
//! number of jobs per iteration, and how often the (billion-scale) input
//! tensor is re-read. This crate checks those claims against the
//! [`JobGraph`]s `haten2_core::plan` registers — the same values its
//! submitter executes — without executing anything:
//!
//! * **Dataflow pass** ([`dataflow::check_dataflow`]) — every dataset is
//!   produced before it is consumed, never overwritten while live, and
//!   never written without a reader; big-tensor reads are counted from the
//!   graph, so a variant cannot silently take an extra pass over the
//!   input.
//! * **Cost pass** ([`cost::check_cost`]) — the graph-derived max
//!   intermediate records, job count, and tensor-read count are held to
//!   the paper's claimed expressions by extensional equivalence over the
//!   operating-regime grid ([`cost::regime_envs`]).
//! * **Durable I/O pass** ([`io::durable_io_table`]) — when the tensor
//!   lives in the durable block store and the memory budget is smaller
//!   than it, each pass over the big input is a compulsory segment read;
//!   the pass derives the symbolic bytes-per-sweep floor
//!   `passes · nnz · record_bytes` (record width measured from the real
//!   `Persist` wire format) and the read amplification over the
//!   single-pass optimum that HaTen2-DRI attains.
//! * **Communication pass** ([`comm::comm_table`]) — derives each
//!   pipeline's total shuffle volume ([`haten2_mapreduce::JobGraph::
//!   shuffle_bytes`]), holds it to a hand-reconstructed closed form over
//!   the regime grid, instantiates the Ballard–Rouse MTTKRP communication
//!   lower bounds (memory-independent and memory-dependent) from the
//!   pipeline's registered [`haten2_core::CommSpec`], and certifies the
//!   symbolic gap ratio.
//! * **Determinism pass** ([`determinism::check_determinism`]) — scans
//!   the map/reduce closures of the pipelines' kernels (via
//!   `haten2-srcscan`) for UDF impurity: unordered `HashMap`/`HashSet`
//!   iteration feeding emits, wall-clock reads, thread-id dependence, and
//!   float reductions not declared commutative-associative in plan
//!   metadata (each declaration is property-checked by a generated
//!   proptest per reducer).
//! * **Lint pass** — source-level rules (forbidden APIs, undocumented
//!   `unsafe`, `unwrap` in library code) live in the `xtask` package
//!   (`cargo xtask lint`), layered on the same `haten2-srcscan` scanner:
//!   they scan text, not plans.
//!
//! Races are not a static pass: the engine rules them out where jobs run
//! (`haten2_mapreduce::sched`), refusing any read of an undeclared
//! dependency, a second writer of a shard, or a DFS write from inside a
//! job.
//!
//! Every violation is a [`Violation`] whose `Display` names the offending
//! job, dataset, or source site. `cargo run -p haten2-analyze --
//! --verify-paper-table` renders the full verification report (committed
//! as `ANALYSIS.md`, staleness-gated by `cargo xtask analyze`);
//! `--reject-demo` proves the analyzer rejects deliberately mis-wired
//! plans ([`demo`]); `--format json` emits one stable JSON object per
//! violation for tooling.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod comm;
pub mod cost;
pub mod dataflow;
pub mod demo;
pub mod determinism;
pub mod fixture;
pub mod io;
pub mod json;
pub mod report;

pub use comm::{check_comm, comm_table, shuffle_claim, CommRow, COMM_RULES};
pub use cost::{paper_claim, regime_envs, PaperClaim};
pub use dataflow::check_dataflow;
pub use determinism::{check_determinism, check_plan_consistency, DeterminismReport};
pub use fixture::{load_plan_fixture, run_plan_fixture, PlanFixture};
pub use io::{durable_io_table, tensor_record_bytes, DurableIoRow};
pub use report::{verify_paper_table, Report, RowVerdict};

use haten2_mapreduce::{Env, JobGraph};

/// One defect found by the analyzer. `Display` always names the offending
/// job (or graph) so a rejection is actionable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A job reads a dataset that no earlier job writes and the driver
    /// does not provide.
    DanglingRead {
        /// Offending job template.
        job: String,
        /// The dataset it reads.
        dataset: String,
    },
    /// A job overwrites a dataset whose previous contents were never read
    /// — a lost update.
    LostWrite {
        /// Offending job template.
        job: String,
        /// The clobbered dataset.
        dataset: String,
        /// The writer whose output is lost.
        prior_job: String,
    },
    /// A dataset is written but neither read by a later job nor declared a
    /// pipeline output.
    UnusedDataset {
        /// The job left holding the unread write.
        job: String,
        /// The unused dataset.
        dataset: String,
    },
    /// The graph-derived max intermediate data disagrees with the paper's
    /// claim on some regime environment.
    CostMismatch {
        /// Graph whose bound failed.
        graph: String,
        /// Derived expression.
        derived: String,
        /// Claimed expression.
        claimed: String,
        /// Counterexample environment.
        env: Env,
        /// Derived value on `env`.
        derived_val: u128,
        /// Claimed value on `env`.
        claimed_val: u128,
    },
    /// The graph's total job count disagrees with the paper's claim.
    JobCountMismatch {
        /// Graph whose count failed.
        graph: String,
        /// Derived expression.
        derived: String,
        /// Claimed expression.
        claimed: String,
        /// Counterexample environment.
        env: Env,
        /// Derived value on `env`.
        derived_val: u128,
        /// Claimed value on `env`.
        claimed_val: u128,
    },
    /// The number of passes over the big input tensor disagrees with the
    /// variant's claim.
    TensorReadMismatch {
        /// Graph whose read count failed.
        graph: String,
        /// Derived expression.
        derived: String,
        /// Claimed expression.
        claimed: String,
        /// Counterexample environment.
        env: Env,
        /// Derived value on `env`.
        derived_val: u128,
        /// Claimed value on `env`.
        claimed_val: u128,
    },
    /// A map/reduce closure contains a nondeterminism source (unordered
    /// iteration feeding emits, wall clock, thread identity, or an
    /// undeclared float reduction).
    NondeterministicUdf {
        /// Source file of the closure.
        file: String,
        /// 1-based line of the offending token.
        line: usize,
        /// Purity rule id.
        rule: String,
        /// Reducer/mapper site label.
        site: String,
        /// Rule rationale.
        message: String,
    },
    /// A plan's `comm_assoc` flag disagrees with the reducer-annotation
    /// registry (in either direction).
    AnnotationMismatch {
        /// Graph the job belongs to.
        graph: String,
        /// Offending job template.
        job: String,
        /// The reducer op named by the plan.
        op: String,
        /// What disagrees.
        detail: String,
    },
    /// The graph-derived total shuffle volume disagrees with the
    /// hand-reconstructed closed form on some regime environment.
    ShuffleMismatch {
        /// Graph whose shuffle volume failed.
        graph: String,
        /// Derived expression (`JobGraph::shuffle_bytes`).
        derived: String,
        /// Claimed closed-form expression.
        claimed: String,
        /// Counterexample environment.
        env: Env,
        /// Derived value on `env`.
        derived_val: u128,
        /// Claimed value on `env`.
        claimed_val: u128,
    },
    /// The instantiated MTTKRP communication lower bound exceeds the
    /// plan's declared shuffle volume on some regime environment — the
    /// plan under-declares communication that any execution must pay.
    CommBoundExceeded {
        /// Graph whose declaration is impossible.
        graph: String,
        /// Declared shuffle-volume expression.
        shuffle: String,
        /// The lower-bound expression that exceeds it.
        bound: String,
        /// Counterexample environment.
        env: Env,
        /// Declared shuffle bytes on `env`.
        shuffle_val: u128,
        /// Lower-bound bytes on `env`.
        bound_val: u128,
    },
}

impl Violation {
    /// Stable kebab-case rule id of this violation — the name the fixture
    /// corpus and the JSON output key on.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::DanglingRead { .. } => "dangling-read",
            Violation::LostWrite { .. } => "lost-write",
            Violation::UnusedDataset { .. } => "unused-dataset",
            Violation::CostMismatch { .. } => "cost-mismatch",
            Violation::JobCountMismatch { .. } => "job-count-mismatch",
            Violation::TensorReadMismatch { .. } => "tensor-read-mismatch",
            Violation::NondeterministicUdf { .. } => "nondeterministic-udf",
            Violation::AnnotationMismatch { .. } => "annotation-mismatch",
            Violation::ShuffleMismatch { .. } => "shuffle-mismatch",
            Violation::CommBoundExceeded { .. } => "comm-bound-exceeded",
        }
    }
}

fn fmt_env(env: &Env) -> String {
    format!(
        "nnz={}, I={}, J={}, K={}, Q={}, R={}, Mr={}",
        env.nnz, env.dim_i, env.dim_j, env.dim_k, env.rank_q, env.rank_r, env.reducer_memory
    )
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DanglingRead { job, dataset } => write!(
                f,
                "dangling read: job '{job}' reads dataset '{dataset}', which no \
                 preceding job writes and the driver does not provide"
            ),
            Violation::LostWrite {
                job,
                dataset,
                prior_job,
            } => write!(
                f,
                "lost write: job '{job}' overwrites dataset '{dataset}' while the \
                 output of job '{prior_job}' is still unread"
            ),
            Violation::UnusedDataset { job, dataset } => write!(
                f,
                "unused dataset: job '{job}' writes '{dataset}', which no later job \
                 reads and the pipeline does not output"
            ),
            Violation::CostMismatch {
                graph,
                derived,
                claimed,
                env,
                derived_val,
                claimed_val,
            } => write!(
                f,
                "cost mismatch in graph '{graph}': derived max intermediate data \
                 {derived} ≠ claimed {claimed}; at {} the jobs produce {derived_val} \
                 records but the table claims {claimed_val}",
                fmt_env(env)
            ),
            Violation::JobCountMismatch {
                graph,
                derived,
                claimed,
                env,
                derived_val,
                claimed_val,
            } => write!(
                f,
                "job-count mismatch in graph '{graph}': derived {derived} ≠ claimed \
                 {claimed}; at {} the graph runs {derived_val} jobs but the table \
                 claims {claimed_val}",
                fmt_env(env)
            ),
            Violation::TensorReadMismatch {
                graph,
                derived,
                claimed,
                env,
                derived_val,
                claimed_val,
            } => write!(
                f,
                "tensor-read mismatch in graph '{graph}': derived {derived} ≠ claimed \
                 {claimed}; at {} the jobs read the big input {derived_val} times but \
                 the variant claims {claimed_val}",
                fmt_env(env)
            ),
            Violation::NondeterministicUdf {
                file,
                line,
                rule,
                site,
                message,
            } => write!(
                f,
                "nondeterministic UDF at {file}:{line} [{rule}] in site '{site}': \
                 {message}"
            ),
            Violation::AnnotationMismatch {
                graph,
                job,
                op,
                detail,
            } => write!(
                f,
                "annotation mismatch in graph '{graph}', job '{job}' (op '{op}'): \
                 {detail}"
            ),
            Violation::ShuffleMismatch {
                graph,
                derived,
                claimed,
                env,
                derived_val,
                claimed_val,
            } => write!(
                f,
                "shuffle mismatch in graph '{graph}': derived total shuffle volume \
                 {derived} ≠ claimed {claimed}; at {} the jobs shuffle {derived_val} \
                 bytes but the closed form claims {claimed_val}",
                fmt_env(env)
            ),
            Violation::CommBoundExceeded {
                graph,
                shuffle,
                bound,
                env,
                shuffle_val,
                bound_val,
            } => write!(
                f,
                "communication bound exceeded in graph '{graph}': declared shuffle \
                 volume {shuffle} falls below the MTTKRP lower bound {bound}; at {} \
                 the plan declares {shuffle_val} bytes but any execution must \
                 shuffle at least {bound_val}",
                fmt_env(env)
            ),
        }
    }
}

/// Run both static passes (dataflow, then cost) on one graph.
pub fn analyze_graph(graph: &JobGraph, claim: &PaperClaim, envs: &[Env]) -> Vec<Violation> {
    let mut v = dataflow::check_dataflow(graph);
    v.extend(cost::check_cost(graph, claim, envs));
    v
}
