//! Declarative job-plan IR: pipelines as data, costs as symbolic expressions.
//!
//! The paper's contribution is a table of *static* guarantees — per-variant
//! bounds on intermediate data and MapReduce job counts (Tables III/IV) —
//! but an executed pipeline only reveals those quantities after the fact,
//! through [`crate::metrics::JobMetrics`]. This module lets a pipeline
//! describe itself *before* running:
//!
//! * [`SymExpr`] — integer expressions over the problem-size variables
//!   `(nnz, I, J, K, Q, R, M, Mr)` ([`Var`]), closed under `+`, `·`,
//!   `max`, and floor division `/` (used by the communication pass for
//!   gap ratios and memory-dependent lower bounds).
//! * [`PlanJob`] — one job template: the DFS datasets it reads and writes,
//!   how many instances run per pipeline invocation, and symbolic
//!   per-instance map-output records/bytes (exact in generic position, or
//!   an upper bound — see [`PlanJob::exact`]).
//! * [`JobGraph`] — an ordered list of templates, the datasets that exist
//!   before the first job runs, and the order instances are submitted in
//!   ([`JobGraph::rank_major`]). `haten2-analyze` checks dataflow well-formedness
//!   and derives the graph's cost bounds; [`JobGraph::expand`]
//!   instantiates the templates for a concrete [`Env`] into exactly the
//!   `(name, reads, writes)` sequence a run submits.
//!
//! **Dataset names.** A template's reads and writes are dataset names,
//! optionally sharded per instance: a write `t#{}` means instance `i`
//! writes its own shard `t#i`; a read `t#{}` means instance `i` reads
//! only shard `t#i`, while a read of plain `t` reads every shard. Every
//! pass that asks "which template produces this dataset" compares *base*
//! names ([`dataset_base`]), as the scheduler's batch validation does.
//!
//! The IR knows nothing about mappers or reducers, but it says everything
//! else a submitter needs. The pipelines in `haten2-core` register one
//! graph per (decomposition × variant), attach a kernel to each template,
//! and execute the graph itself: the value the analyzer certifies is the
//! value that runs.

use std::fmt;
use std::ops::{Add, Div, Mul};

/// A problem-size variable of the paper's cost analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Var {
    /// Number of nonzeros of the input tensor.
    Nnz,
    /// Dimension of the (canonical) target mode.
    DimI,
    /// Dimension of canonical mode 1.
    DimJ,
    /// Dimension of canonical mode 2.
    DimK,
    /// Core size / rank along mode 1 (`Q` in Table III).
    RankQ,
    /// Core size / rank along mode 2 (`R` in Tables III/IV).
    RankR,
    /// Number of cluster machines.
    Machines,
    /// Per-reducer memory budget in bytes (`Mr`) — the fast-memory size
    /// of the Ballard–Rouse communication lower bounds.
    ReducerMemory,
}

impl Var {
    /// The symbol used by the paper (and by [`SymExpr`]'s `Display`).
    pub fn symbol(self) -> &'static str {
        match self {
            Var::Nnz => "nnz",
            Var::DimI => "I",
            Var::DimJ => "J",
            Var::DimK => "K",
            Var::RankQ => "Q",
            Var::RankR => "R",
            Var::Machines => "M",
            Var::ReducerMemory => "Mr",
        }
    }
}

/// A concrete assignment of every [`Var`], used to evaluate expressions and
/// expand graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Env {
    /// Nonzeros of the input tensor.
    pub nnz: u64,
    /// Canonical target-mode dimension.
    pub dim_i: u64,
    /// Canonical mode-1 dimension.
    pub dim_j: u64,
    /// Canonical mode-2 dimension.
    pub dim_k: u64,
    /// Rank / core size `Q`.
    pub rank_q: u64,
    /// Rank / core size `R`.
    pub rank_r: u64,
    /// Cluster machines.
    pub machines: u64,
    /// Per-reducer memory budget `Mr` in bytes.
    pub reducer_memory: u64,
}

impl Env {
    /// Value of one variable.
    pub fn get(&self, v: Var) -> u128 {
        (match v {
            Var::Nnz => self.nnz,
            Var::DimI => self.dim_i,
            Var::DimJ => self.dim_j,
            Var::DimK => self.dim_k,
            Var::RankQ => self.rank_q,
            Var::RankR => self.rank_r,
            Var::Machines => self.machines,
            Var::ReducerMemory => self.reducer_memory,
        }) as u128
    }
}

/// A symbolic integer expression over [`Var`]s: constants, variables, `+`,
/// `·`, binary `max`, and floor division `/`.
///
/// Expressions evaluate in `u128` so that paper-scale sizes (billions of
/// nonzeros times ranks times record widths) cannot overflow. Division is
/// *floor* division; a zero denominator saturates to `u128::MAX` under
/// [`SymExpr::eval`] (a vanishing memory budget makes a communication
/// bound unbounded, and saturation keeps comparisons monotone) and is
/// reported as `None` by [`SymExpr::eval_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymExpr {
    /// Integer constant.
    Const(u64),
    /// Problem-size variable.
    Var(Var),
    /// Sum.
    Add(Box<SymExpr>, Box<SymExpr>),
    /// Product.
    Mul(Box<SymExpr>, Box<SymExpr>),
    /// Binary maximum.
    Max(Box<SymExpr>, Box<SymExpr>),
    /// Floor quotient (`a / b`; `b = 0` saturates — see [`SymExpr::eval`]).
    Div(Box<SymExpr>, Box<SymExpr>),
}

impl SymExpr {
    /// Constant expression.
    pub fn c(n: u64) -> SymExpr {
        SymExpr::Const(n)
    }

    /// `nnz`.
    pub fn nnz() -> SymExpr {
        SymExpr::Var(Var::Nnz)
    }

    /// `I` (canonical target-mode dimension).
    pub fn dim_i() -> SymExpr {
        SymExpr::Var(Var::DimI)
    }

    /// `J` (canonical mode-1 dimension).
    pub fn dim_j() -> SymExpr {
        SymExpr::Var(Var::DimJ)
    }

    /// `K` (canonical mode-2 dimension).
    pub fn dim_k() -> SymExpr {
        SymExpr::Var(Var::DimK)
    }

    /// `Q`.
    pub fn rank_q() -> SymExpr {
        SymExpr::Var(Var::RankQ)
    }

    /// `R`.
    pub fn rank_r() -> SymExpr {
        SymExpr::Var(Var::RankR)
    }

    /// `M` (cluster machines).
    pub fn machines() -> SymExpr {
        SymExpr::Var(Var::Machines)
    }

    /// `Mr` (per-reducer memory budget, bytes).
    pub fn reducer_memory() -> SymExpr {
        SymExpr::Var(Var::ReducerMemory)
    }

    /// `max(a, b)`.
    pub fn max(a: SymExpr, b: SymExpr) -> SymExpr {
        SymExpr::Max(Box::new(a), Box::new(b))
    }

    /// Evaluate under `env`, saturating at `u128::MAX`.
    ///
    /// Paper-scale sizes (billions of nonzeros times ranks times record
    /// widths) fit comfortably in `u128`, but adversarial environments —
    /// every variable at `u64::MAX` under a cubic expression — can exceed
    /// it; evaluation saturates rather than wrapping so comparisons stay
    /// monotone. Use [`SymExpr::eval_checked`] when overflow must be
    /// *detected* rather than absorbed.
    pub fn eval(&self, env: &Env) -> u128 {
        match self {
            SymExpr::Const(n) => *n as u128,
            SymExpr::Var(v) => env.get(*v),
            SymExpr::Add(a, b) => a.eval(env).saturating_add(b.eval(env)),
            SymExpr::Mul(a, b) => a.eval(env).saturating_mul(b.eval(env)),
            SymExpr::Max(a, b) => a.eval(env).max(b.eval(env)),
            SymExpr::Div(a, b) => match b.eval(env) {
                0 => u128::MAX,
                d => a.eval(env) / d,
            },
        }
    }

    /// Evaluate under `env`, returning `None` when any intermediate value
    /// overflows `u128`.
    pub fn eval_checked(&self, env: &Env) -> Option<u128> {
        match self {
            SymExpr::Const(n) => Some(*n as u128),
            SymExpr::Var(v) => Some(env.get(*v)),
            SymExpr::Add(a, b) => a.eval_checked(env)?.checked_add(b.eval_checked(env)?),
            SymExpr::Mul(a, b) => a.eval_checked(env)?.checked_mul(b.eval_checked(env)?),
            SymExpr::Max(a, b) => Some(a.eval_checked(env)?.max(b.eval_checked(env)?)),
            SymExpr::Div(a, b) => a.eval_checked(env)?.checked_div(b.eval_checked(env)?),
        }
    }

    /// Extensional equivalence over a sample of environments: `true` when
    /// both expressions evaluate identically on every `env`. This is how
    /// the analyzer compares a *derived* bound against a *claimed* one
    /// without needing a canonical form for expressions.
    pub fn equiv_on(&self, other: &SymExpr, envs: &[Env]) -> bool {
        envs.iter().all(|e| self.eval(e) == other.eval(e))
    }

    fn precedence(&self) -> u8 {
        match self {
            SymExpr::Add(..) => 0,
            SymExpr::Mul(..) | SymExpr::Div(..) => 1,
            SymExpr::Const(_) | SymExpr::Var(_) | SymExpr::Max(..) => 2,
        }
    }

    /// Whether `Display` prints an unparenthesized `/` at this
    /// expression's top level: a quotient, or a product whose leftmost
    /// factor is one (right-hand quotients are always parenthesized).
    fn shows_div(&self) -> bool {
        match self {
            SymExpr::Div(..) => true,
            SymExpr::Mul(a, _) => a.shows_div(),
            _ => false,
        }
    }

    fn fmt_child(&self, child: &SymExpr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if child.precedence() < self.precedence() {
            write!(f, "({child})")
        } else {
            write!(f, "{child}")
        }
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymExpr::Const(n) => write!(f, "{n}"),
            SymExpr::Var(v) => f.write_str(v.symbol()),
            SymExpr::Add(a, b) => {
                self.fmt_child(a, f)?;
                f.write_str(" + ")?;
                self.fmt_child(b, f)
            }
            SymExpr::Mul(a, b) => {
                self.fmt_child(a, f)?;
                f.write_str("·")?;
                // `·` and `/` share a precedence level but only `·` is
                // associative: a right operand that shows a `/` must keep
                // its parens so `x·(a / b)` does not re-read as
                // `(x·a) / b`, nor `x·(a / b·c)` as `(x·a) / b·c`.
                if b.shows_div() {
                    write!(f, "({b})")
                } else {
                    self.fmt_child(b, f)
                }
            }
            SymExpr::Max(a, b) => write!(f, "max({a}, {b})"),
            SymExpr::Div(a, b) => {
                self.fmt_child(a, f)?;
                f.write_str(" / ")?;
                // Floor division is left-associative and non-associative:
                // any compound divisor needs parens.
                if b.precedence() < 2 {
                    write!(f, "({b})")
                } else {
                    write!(f, "{b}")
                }
            }
        }
    }
}

impl Add for SymExpr {
    type Output = SymExpr;
    fn add(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Add(Box::new(self), Box::new(rhs))
    }
}

impl Mul for SymExpr {
    type Output = SymExpr;
    fn mul(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Div for SymExpr {
    type Output = SymExpr;
    fn div(self, rhs: SymExpr) -> SymExpr {
        SymExpr::Div(Box::new(self), Box::new(rhs))
    }
}

/// Token of the [`SymExpr::parse`] grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Num(u64),
    Ident(String),
    Plus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
}

fn lex(s: &str) -> Option<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut it = s.chars().peekable();
    while let Some(&c) = it.peek() {
        match c {
            ' ' | '\t' => {
                it.next();
            }
            '+' => {
                it.next();
                toks.push(Tok::Plus);
            }
            '·' | '*' => {
                it.next();
                toks.push(Tok::Star);
            }
            '/' => {
                it.next();
                toks.push(Tok::Slash);
            }
            '(' => {
                it.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                it.next();
                toks.push(Tok::RParen);
            }
            ',' => {
                it.next();
                toks.push(Tok::Comma);
            }
            '0'..='9' => {
                let mut n: u64 = 0;
                while let Some(d) = it.peek().and_then(|c| c.to_digit(10)) {
                    n = n.checked_mul(10)?.checked_add(d as u64)?;
                    it.next();
                }
                toks.push(Tok::Num(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut id = String::new();
                while let Some(&c) = it.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        id.push(c);
                        it.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(id));
            }
            _ => return None,
        }
    }
    Some(toks)
}

/// Recursive-descent parser state over the token stream.
struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos)?;
        self.pos += 1;
        Some(t)
    }

    fn expect(&mut self, t: &Tok) -> Option<()> {
        if self.bump()? == t {
            Some(())
        } else {
            None
        }
    }

    fn expr(&mut self) -> Option<SymExpr> {
        let mut acc = self.term()?;
        while self.peek() == Some(&Tok::Plus) {
            self.pos += 1;
            acc = acc + self.term()?;
        }
        Some(acc)
    }

    fn term(&mut self) -> Option<SymExpr> {
        let mut acc = self.factor()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.pos += 1;
                    acc = acc * self.factor()?;
                }
                Some(Tok::Slash) => {
                    self.pos += 1;
                    acc = acc / self.factor()?;
                }
                _ => return Some(acc),
            }
        }
    }

    fn factor(&mut self) -> Option<SymExpr> {
        match self.bump()?.clone() {
            Tok::Num(n) => Some(SymExpr::Const(n)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Some(e)
            }
            Tok::Ident(id) if id == "max" => {
                self.expect(&Tok::LParen)?;
                let a = self.expr()?;
                self.expect(&Tok::Comma)?;
                let b = self.expr()?;
                self.expect(&Tok::RParen)?;
                Some(SymExpr::max(a, b))
            }
            Tok::Ident(id) => {
                let v = [
                    Var::Nnz,
                    Var::DimI,
                    Var::DimJ,
                    Var::DimK,
                    Var::RankQ,
                    Var::RankR,
                    Var::Machines,
                    Var::ReducerMemory,
                ]
                .into_iter()
                .find(|v| v.symbol() == id)?;
                Some(SymExpr::Var(v))
            }
            _ => None,
        }
    }
}

impl SymExpr {
    /// Parse the textual form produced by `Display` (plus ASCII `*` as an
    /// alternative product sign): integers, variable symbols, `+`, `·`/`*`,
    /// `/`, `max(a, b)` and parentheses. `·` and `/` share a precedence
    /// level above `+` and associate left, matching `Display`'s
    /// parenthesization, so `parse(e.to_string())` evaluates identically to
    /// `e` on every environment. Returns `None` on any malformed input.
    /// It backs the `Display` round-trip tests (`tests/symexpr.rs`), the
    /// oracle that the printed form is unambiguous; no pipeline parses.
    pub fn parse(s: &str) -> Option<SymExpr> {
        let toks = lex(s)?;
        let mut p = Parser {
            toks: &toks,
            pos: 0,
        };
        let e = p.expr()?;
        if p.pos == toks.len() {
            Some(e)
        } else {
            None
        }
    }
}

/// One job template of a pipeline: dataset wiring plus symbolic costs.
///
/// `name`, and the shard suffix of a read or write (`t#{}`), may contain a
/// `{}` placeholder; [`JobGraph::expand`] replaces it with the instance
/// index (e.g. `tucker-naive-xv-b{}` writing `t#{}` becomes
/// `tucker-naive-xv-b3` writing `t#3`).
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// Job name template (`{}` = instance index).
    pub name: String,
    /// Instances run per pipeline invocation.
    pub count: SymExpr,
    /// Datasets read by each instance: `t` is every shard of `t`, `t#{}`
    /// only the shard with the instance's own index.
    pub reads: Vec<String>,
    /// Datasets written by each instance: `t#{}` is a private shard per
    /// instance; instances that all write plain `t` are serialized.
    pub writes: Vec<String>,
    /// Per-instance map-output records (the paper's "intermediate data").
    pub records: SymExpr,
    /// Per-instance map-output bytes (equals shuffle bytes: the registered
    /// pipelines run without combiners, matching the paper's accounting).
    pub bytes: SymExpr,
    /// `true` when `records`/`bytes` are exact in generic position (no
    /// zero factor entries, no cancellation); `false` for upper bounds.
    pub exact: bool,
    /// The operation this template applies, when the pipeline names one
    /// (e.g. `collapse_job`): the submitter in `haten2_core::plan` refuses
    /// to run an instance whose op is not its kernel's.
    pub op: Option<String>,
}

impl PlanJob {
    /// New single-instance template with zero cost; chain the builder
    /// methods to fill it in.
    pub fn new(name: impl Into<String>) -> Self {
        PlanJob {
            name: name.into(),
            count: SymExpr::c(1),
            reads: Vec::new(),
            writes: Vec::new(),
            records: SymExpr::c(0),
            bytes: SymExpr::c(0),
            exact: true,
            op: None,
        }
    }

    /// Datasets each instance reads.
    pub fn reads<const N: usize>(mut self, ds: [&str; N]) -> Self {
        self.reads = ds.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Datasets each instance writes.
    pub fn writes<const N: usize>(mut self, ds: [&str; N]) -> Self {
        self.writes = ds.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Number of instances per invocation.
    pub fn repeat(mut self, count: SymExpr) -> Self {
        self.count = count;
        self
    }

    /// Per-instance intermediate records and bytes.
    pub fn emits(mut self, records: SymExpr, bytes: SymExpr) -> Self {
        self.records = records;
        self.bytes = bytes;
        self
    }

    /// Mark the cost expressions as upper bounds rather than generic-position
    /// exact values.
    pub fn upper_bound(mut self) -> Self {
        self.exact = false;
        self
    }

    /// Name the reducer operation this template applies.
    pub fn op(mut self, op: &str) -> Self {
        self.op = Some(op.to_string());
        self
    }
}

/// One expanded job instance for a concrete [`Env`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInstance {
    /// Index of the template in [`JobGraph::jobs`].
    pub template: usize,
    /// Instance index within the template (what `{}` stands for).
    pub index: usize,
    /// Instances the template expands to under the same [`Env`].
    pub count: usize,
    /// Concrete job name (placeholder substituted).
    pub name: String,
    /// Concrete datasets read (`t`, or the single shard `t#3`).
    pub reads: Vec<String>,
    /// Concrete datasets written.
    pub writes: Vec<String>,
    /// Predicted map-output records.
    pub records: u128,
    /// Predicted map-output (= shuffle) bytes.
    pub bytes: u128,
    /// Whether the prediction is exact in generic position.
    pub exact: bool,
}

/// A pipeline's declarative description: ordered job templates plus the
/// datasets that exist before the first job runs.
#[derive(Debug, Clone)]
pub struct JobGraph {
    /// Pipeline name (e.g. `tucker-dri`).
    pub name: String,
    /// Datasets present before the first job (driver-provided).
    pub inputs: Vec<String>,
    /// The subset of `inputs` that are (views of) the big input tensor;
    /// reads of these are the paper's disk-access cost.
    pub big_inputs: Vec<String>,
    /// Datasets the driver consumes after the last job.
    pub outputs: Vec<String>,
    /// Job templates in execution order.
    pub jobs: Vec<PlanJob>,
    /// Submission order of the instances: template-major (every instance
    /// of the first template, then every instance of the second, …) or,
    /// when set, rank-major (instance 0 of every template, then instance 1
    /// of every template, …: one rank's whole chain before the next
    /// rank's). Submission order is the commit order, keys the fault
    /// schedule and is what the simulated makespan list-schedules, so it is
    /// part of what a pipeline publishes.
    pub rank_major: bool,
}

impl JobGraph {
    /// New graph with the given driver-provided input datasets.
    pub fn new<const N: usize>(name: impl Into<String>, inputs: [&str; N]) -> Self {
        JobGraph {
            name: name.into(),
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
            big_inputs: Vec::new(),
            outputs: Vec::new(),
            jobs: Vec::new(),
            rank_major: false,
        }
    }

    /// Declare `ds` (already in `inputs`, or added here) as a view of the
    /// big input tensor.
    pub fn big_input(mut self, ds: &str) -> Self {
        if !self.inputs.iter().any(|d| d == ds) {
            self.inputs.push(ds.to_string());
        }
        self.big_inputs.push(ds.to_string());
        self
    }

    /// Declare a dataset the driver consumes after the pipeline.
    pub fn output(mut self, ds: &str) -> Self {
        self.outputs.push(ds.to_string());
        self
    }

    /// Append a job template.
    pub fn job(mut self, j: PlanJob) -> Self {
        self.jobs.push(j);
        self
    }

    /// Derived bound: the maximum per-job intermediate records over the
    /// whole pipeline — the "Max intermediate data" column of Tables
    /// III/IV.
    pub fn max_intermediate_records(&self) -> SymExpr {
        self.jobs
            .iter()
            .map(|j| j.records.clone())
            .reduce(SymExpr::max)
            .unwrap_or(SymExpr::Const(0))
    }

    /// Derived bound: maximum per-job intermediate bytes.
    pub fn max_intermediate_bytes(&self) -> SymExpr {
        self.jobs
            .iter()
            .map(|j| j.bytes.clone())
            .reduce(SymExpr::max)
            .unwrap_or(SymExpr::Const(0))
    }

    /// Derived count: total job instances per invocation — the "Total
    /// jobs" column of Tables III/IV.
    pub fn total_jobs(&self) -> SymExpr {
        self.jobs
            .iter()
            .map(|j| j.count.clone())
            .reduce(|a, b| a + b)
            .unwrap_or(SymExpr::Const(0))
    }

    /// Derived bound: total map-output (= shuffle) bytes per pipeline
    /// invocation, `Σ_templates count · bytes` — the communication volume
    /// the analyzer's `comm` pass holds against the MTTKRP lower bounds.
    /// Exact when every template is exact ([`JobGraph::shuffle_exact`]);
    /// an upper bound otherwise.
    pub fn shuffle_bytes(&self) -> SymExpr {
        self.jobs
            .iter()
            .map(|j| j.count.clone() * j.bytes.clone())
            .reduce(|a, b| a + b)
            .unwrap_or(SymExpr::Const(0))
    }

    /// `true` when every template's cost expressions are exact in generic
    /// position, making [`JobGraph::shuffle_bytes`] an exact prediction of
    /// metered shuffle traffic rather than an upper bound.
    pub fn shuffle_exact(&self) -> bool {
        self.jobs.iter().all(|j| j.exact)
    }

    /// Derived count: job instances that read a big-input dataset, summed
    /// per dataset read — the number of passes over the input tensor
    /// (HaTen2-DRI's §III-B4 saving is making this 1).
    pub fn big_input_reads(&self) -> SymExpr {
        self.jobs
            .iter()
            .filter_map(|j| {
                let touches = j
                    .reads
                    .iter()
                    .filter(|d| self.big_inputs.iter().any(|b| b == dataset_base(d)))
                    .count() as u64;
                if touches == 0 {
                    None
                } else {
                    Some(j.count.clone() * SymExpr::c(touches))
                }
            })
            .reduce(|a, b| a + b)
            .unwrap_or(SymExpr::Const(0))
    }

    /// The job template that writes `dataset`, whatever shard it names.
    /// Returns `None` for driver-provided inputs and unknown names.
    pub fn producer_job(&self, dataset: &str) -> Option<&PlanJob> {
        let base = dataset_base(dataset);
        self.jobs
            .iter()
            .find(|j| j.writes.iter().any(|w| dataset_base(w) == base))
    }

    /// Whether `dataset` (any shard of it) is a driver-provided input.
    pub fn is_input(&self, dataset: &str) -> bool {
        let base = dataset_base(dataset);
        self.inputs.iter().any(|d| d == base)
    }

    /// The template a concrete job name instantiates: exact match for
    /// plain names, prefix/suffix match with a non-empty digit middle for
    /// `{}` templates (so `tucker-naive-xv-b{}` matches
    /// `tucker-naive-xv-b3` but not `tucker-naive-xv-b` or
    /// `tucker-naive-xv-bX`).
    pub fn template_for(&self, name: &str) -> Option<&PlanJob> {
        self.jobs.iter().find(|j| template_matches(&j.name, name))
    }

    /// Derived `map_emit_hint` for the named job: the template's
    /// per-instance emitted records divided by its input records, both
    /// evaluated at a generic-position reference environment. Replaces the
    /// hand-maintained hints drivers used to carry (which drifted);
    /// [`crate::job::JobSpec::with_map_emit_hint`] stays as an override.
    ///
    /// Input size comes from the template's `reads`: a driver-provided
    /// dataset counts as `nnz` records (every external input in the
    /// registered graphs is a view of the tensor), an intermediate counts
    /// as its producer's total emitted records. Purely a performance hint
    /// — a misprediction cannot change results or metrics.
    pub fn emit_hint(&self, name: &str) -> Option<usize> {
        let t = self.template_for(name)?;
        let env = Env {
            nnz: 1_000_000,
            dim_i: 10,
            dim_j: 10,
            dim_k: 10,
            rank_q: 2,
            rank_r: 3,
            machines: 4,
            reducer_memory: 1 << 20,
        };
        let input_records: u128 = t
            .reads
            .iter()
            .map(|r| match self.producer_job(r) {
                Some(p) => p.count.eval(&env).saturating_mul(p.records.eval(&env)),
                None => env.nnz as u128,
            })
            .sum();
        if input_records == 0 {
            return Some(1);
        }
        let ratio = t.records.eval(&env) as f64 / input_records as f64;
        Some((ratio.round() as usize).max(1))
    }

    /// Derived depth: the longest read-after-write chain through the
    /// template list, counting one job per link — what the paper's "number
    /// of jobs" column becomes once independent jobs run concurrently.
    /// Instances of a single template never feed each other (each writes
    /// its own column/shard of the template's output datasets), so a
    /// template contributes depth 1 regardless of its `count`; the depth
    /// of every registered graph is therefore a constant expression.
    pub fn critical_path_jobs(&self) -> SymExpr {
        let mut depth = vec![0u64; self.jobs.len()];
        for i in 0..self.jobs.len() {
            let mut longest_pred = 0;
            for (k, d) in depth.iter().enumerate().take(i) {
                let feeds = self.jobs[k].writes.iter().any(|w| {
                    self.jobs[i]
                        .reads
                        .iter()
                        .any(|r| dataset_base(r) == dataset_base(w))
                });
                if feeds {
                    longest_pred = longest_pred.max(*d);
                }
            }
            depth[i] = longest_pred + 1;
        }
        SymExpr::Const(depth.into_iter().max().unwrap_or(0))
    }

    /// Instantiate every template under `env`, in submission order
    /// ([`JobGraph::rank_major`]): the concrete `(name, reads, writes)` of
    /// each job a run of this graph submits, plus its predicted costs. A
    /// template whose `count` evaluates to more than 1 must carry a `{}`
    /// placeholder in its name.
    pub fn expand(&self, env: &Env) -> Vec<JobInstance> {
        let count = |j: &PlanJob| usize::try_from(j.count.eval(env)).unwrap_or(usize::MAX);
        let counts: Vec<usize> = self.jobs.iter().map(count).collect();
        let ranks = 0..counts.iter().copied().max().unwrap_or(0);
        let templates = 0..self.jobs.len();
        let order: Vec<(usize, usize)> = if self.rank_major {
            let per_rank = |i| templates.clone().map(move |t| (t, i));
            ranks.flat_map(per_rank).collect()
        } else {
            let per_template = |t| ranks.clone().map(move |i| (t, i));
            templates.flat_map(per_template).collect()
        };
        let instance = |(template, index): (usize, usize)| {
            let j = &self.jobs[template];
            debug_assert!(
                counts[template] == 1 || j.name.contains("{}"),
                "multi-instance template '{}' needs {{}}",
                j.name
            );
            let at = index.to_string();
            let subst = |names: &[String]| names.iter().map(|d| d.replace("{}", &at)).collect();
            JobInstance {
                template,
                index,
                count: counts[template],
                name: j.name.replacen("{}", &at, 1),
                reads: subst(&j.reads),
                writes: subst(&j.writes),
                records: j.records.eval(env),
                bytes: j.bytes.eval(env),
                exact: j.exact,
            }
        };
        let exists = |&(t, i): &(usize, usize)| i < counts[t];
        order.into_iter().filter(exists).map(instance).collect()
    }
}

/// A dataset name without its `#shard` suffix.
pub fn dataset_base(name: &str) -> &str {
    name.split_once('#').map_or(name, |(base, _)| base)
}

/// Does `template` (possibly containing one `{}` placeholder) match the
/// concrete job name? The placeholder must stand for a non-empty run of
/// digits, mirroring how [`JobGraph::expand`] instantiates names.
pub fn template_matches(template: &str, name: &str) -> bool {
    match template.split_once("{}") {
        None => template == name,
        Some((prefix, suffix)) => {
            let Some(rest) = name.strip_prefix(prefix) else {
                return false;
            };
            let Some(mid) = rest.strip_suffix(suffix) else {
                return false;
            };
            !mid.is_empty() && mid.bytes().all(|b| b.is_ascii_digit())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env {
            nnz: 100,
            dim_i: 4,
            dim_j: 5,
            dim_k: 6,
            rank_q: 2,
            rank_r: 3,
            machines: 8,
            reducer_memory: 1 << 20,
        }
    }

    #[test]
    fn eval_and_display() {
        let e = SymExpr::nnz() * (SymExpr::rank_q() + SymExpr::rank_r());
        assert_eq!(e.eval(&env()), 500);
        assert_eq!(e.to_string(), "nnz·(Q + R)");
        let m = SymExpr::max(SymExpr::nnz(), SymExpr::dim_i() * SymExpr::dim_j());
        assert_eq!(m.eval(&env()), 100);
        assert_eq!(m.to_string(), "max(nnz, I·J)");
        let s = SymExpr::c(2) * SymExpr::nnz() + SymExpr::dim_k();
        assert_eq!(s.eval(&env()), 206);
        assert_eq!(s.to_string(), "2·nnz + K");
    }

    #[test]
    fn equivalence_is_extensional() {
        let a = SymExpr::nnz() * (SymExpr::rank_q() + SymExpr::rank_r());
        let b = SymExpr::nnz() * SymExpr::rank_q() + SymExpr::nnz() * SymExpr::rank_r();
        let envs: Vec<Env> = (1..10)
            .map(|s| Env {
                nnz: 17 * s,
                dim_i: 3 * s,
                dim_j: 5 * s,
                dim_k: 7 * s,
                rank_q: s,
                rank_r: 2 * s,
                machines: 4,
                reducer_memory: 100 * s,
            })
            .collect();
        assert!(a.equiv_on(&b, &envs));
        let c = SymExpr::nnz() * SymExpr::rank_q();
        assert!(!a.equiv_on(&c, &envs));
    }

    #[test]
    fn graph_derivations() {
        let g = JobGraph::new("demo", ["x"])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("stage-a{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    .emits(SymExpr::nnz(), SymExpr::c(57) * SymExpr::nnz()),
            )
            .job(PlanJob::new("stage-b").reads(["t"]).writes(["y"]).emits(
                SymExpr::nnz() * SymExpr::rank_q(),
                SymExpr::c(49) * SymExpr::nnz() * SymExpr::rank_q(),
            ));
        let e = env();
        assert_eq!(g.total_jobs().eval(&e), 3);
        assert_eq!(g.max_intermediate_records().eval(&e), 200);
        assert_eq!(g.big_input_reads().eval(&e), 2);
        let inst = g.expand(&e);
        assert_eq!(inst.len(), 3);
        assert_eq!(inst[0].name, "stage-a0");
        assert_eq!(inst[1].name, "stage-a1");
        assert_eq!(inst[2].name, "stage-b");
        assert_eq!(inst[2].records, 200);
    }

    #[test]
    fn division_evaluates_floor_and_saturates_on_zero() {
        let e = env();
        let ratio = SymExpr::nnz() / SymExpr::dim_k();
        assert_eq!(ratio.eval(&e), 16); // floor(100 / 6)
        assert_eq!(ratio.eval_checked(&e), Some(16));
        let by_zero = SymExpr::nnz() / SymExpr::c(0);
        assert_eq!(by_zero.eval(&e), u128::MAX);
        assert_eq!(by_zero.eval_checked(&e), None);
        // Mr participates like any other variable.
        let bound = SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8) / SymExpr::reducer_memory();
        assert_eq!(bound.eval(&e), (100 * 3 * 8) / (1 << 20));
    }

    #[test]
    fn division_display_keeps_precedence() {
        let d = SymExpr::nnz() * SymExpr::rank_r() / SymExpr::reducer_memory();
        assert_eq!(d.to_string(), "nnz·R / Mr");
        let nested = SymExpr::nnz() / (SymExpr::rank_q() + SymExpr::rank_r());
        assert_eq!(nested.to_string(), "nnz / (Q + R)");
        let rhs_mul = SymExpr::nnz() / (SymExpr::rank_q() * SymExpr::rank_r());
        assert_eq!(rhs_mul.to_string(), "nnz / (Q·R)");
        let mul_of_div = SymExpr::dim_i() * (SymExpr::nnz() / SymExpr::machines());
        assert_eq!(mul_of_div.to_string(), "I·(nnz / M)");
        let mul_of_div_chain =
            SymExpr::dim_i() * (SymExpr::nnz() / SymExpr::machines() * SymExpr::dim_j());
        assert_eq!(mul_of_div_chain.to_string(), "I·(nnz / M·J)");
        let sum = SymExpr::nnz() / SymExpr::machines() + SymExpr::dim_j();
        assert_eq!(sum.to_string(), "nnz / M + J");
    }

    #[test]
    fn parse_round_trips_display() {
        let exprs = [
            SymExpr::nnz() * (SymExpr::rank_q() + SymExpr::rank_r()),
            SymExpr::max(SymExpr::nnz(), SymExpr::dim_i() * SymExpr::dim_j()),
            SymExpr::c(2) * SymExpr::nnz() + SymExpr::dim_k(),
            SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8) / SymExpr::reducer_memory(),
            SymExpr::max(
                SymExpr::nnz() * SymExpr::c(25),
                SymExpr::nnz() * SymExpr::rank_r() * SymExpr::c(8) / SymExpr::reducer_memory(),
            ),
            SymExpr::dim_i() * (SymExpr::nnz() / SymExpr::machines()),
            SymExpr::nnz() / SymExpr::machines() / SymExpr::rank_q(),
            SymExpr::dim_i() * (SymExpr::nnz() / SymExpr::machines() * SymExpr::dim_j()),
        ];
        let e = env();
        for x in exprs {
            let text = x.to_string();
            let parsed = SymExpr::parse(&text).unwrap_or_else(|| panic!("parse '{text}'"));
            assert_eq!(parsed.eval(&e), x.eval(&e), "round trip of '{text}'");
            assert_eq!(parsed.to_string(), text, "re-display of '{text}'");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "nnz +",
            "(nnz",
            "max(nnz)",
            "nnz · · R",
            "2x",
            "W",
            "nnz)",
            "max(,)",
        ] {
            assert!(SymExpr::parse(bad).is_none(), "accepted '{bad}'");
        }
        // ASCII `*` is accepted as a product sign.
        let star = SymExpr::parse("2*nnz + K").expect("parse star form");
        assert_eq!(star.eval(&env()), 206);
    }

    #[test]
    fn shuffle_bytes_sums_count_times_bytes() {
        let g = JobGraph::new("demo", ["x"])
            .job(
                PlanJob::new("stage-a{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    .emits(SymExpr::nnz(), SymExpr::c(57) * SymExpr::nnz()),
            )
            .job(
                PlanJob::new("stage-b")
                    .reads(["t"])
                    .writes(["y"])
                    .emits(SymExpr::nnz(), SymExpr::c(49) * SymExpr::nnz()),
            );
        let e = env();
        // Q·57·nnz + 49·nnz = 2·5700 + 4900.
        assert_eq!(g.shuffle_bytes().eval(&e), 16_300);
        assert!(g.shuffle_exact());
        let bounded = JobGraph::new("ub", ["x"]).job(
            PlanJob::new("s")
                .reads(["x"])
                .writes(["y"])
                .emits(SymExpr::nnz(), SymExpr::nnz())
                .upper_bound(),
        );
        assert!(!bounded.shuffle_exact());
    }

    #[test]
    fn template_matching() {
        assert!(template_matches("stage-a{}", "stage-a0"));
        assert!(template_matches("stage-a{}", "stage-a17"));
        assert!(!template_matches("stage-a{}", "stage-a"));
        assert!(!template_matches("stage-a{}", "stage-aX"));
        assert!(!template_matches("stage-a{}", "stage-b0"));
        assert!(template_matches("solo", "solo"));
        assert!(!template_matches("solo", "solo1"));
        assert!(template_matches("had-{}-b", "had-3-b"));
        assert!(!template_matches("had-{}-b", "had--b"));
    }

    #[test]
    fn emit_hint_derives_from_cost_expressions() {
        let g = JobGraph::new("demo", ["x"])
            .big_input("x")
            .output("y")
            .job(
                PlanJob::new("stage-a{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    // Emits 2 records per input record.
                    .emits(
                        SymExpr::c(2) * SymExpr::nnz(),
                        SymExpr::c(20) * SymExpr::nnz(),
                    ),
            )
            .job(PlanJob::new("stage-b").reads(["t"]).writes(["y"]).emits(
                // Input is Q·2·nnz records; emits nnz → ratio well below 1,
                // clamped to the minimum useful hint.
                SymExpr::nnz(),
                SymExpr::c(10) * SymExpr::nnz(),
            ));
        assert_eq!(g.emit_hint("stage-a0"), Some(2));
        assert_eq!(g.emit_hint("stage-a1"), Some(2));
        assert_eq!(g.emit_hint("stage-b"), Some(1));
        assert_eq!(g.emit_hint("unknown"), None);
    }

    #[test]
    fn critical_path_counts_longest_chain() {
        // a{} (x→t) and c (x→u) are independent; b reads both → depth 2.
        let g = JobGraph::new("demo", ["x"])
            .job(
                PlanJob::new("a{}")
                    .repeat(SymExpr::rank_q())
                    .reads(["x"])
                    .writes(["t"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("c")
                    .reads(["x"])
                    .writes(["u"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("b")
                    .reads(["t", "u"])
                    .writes(["y"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            );
        assert_eq!(g.critical_path_jobs(), SymExpr::Const(2));
        // A 4-deep chain.
        let chain = JobGraph::new("chain", ["x"])
            .job(
                PlanJob::new("p1")
                    .reads(["x"])
                    .writes(["d1"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("p2")
                    .reads(["d1"])
                    .writes(["d2"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("p3")
                    .reads(["d2"])
                    .writes(["d3"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            )
            .job(
                PlanJob::new("p4")
                    .reads(["d3"])
                    .writes(["y"])
                    .emits(SymExpr::nnz(), SymExpr::nnz()),
            );
        assert_eq!(chain.critical_path_jobs(), SymExpr::Const(4));
        assert_eq!(
            JobGraph::new("empty", ["x"]).critical_path_jobs(),
            SymExpr::Const(0)
        );
    }

    #[test]
    fn expand_substitutes_shards_and_honours_submit_order() {
        let per_rank = |name: &str| PlanJob::new(name).repeat(SymExpr::rank_q());
        let mut g = JobGraph::new("demo", ["x"])
            .job(per_rank("a{}").reads(["x"]).writes(["t#{}"]))
            .job(per_rank("b{}").reads(["t#{}"]).writes(["y#{}"]))
            .job(PlanJob::new("c").reads(["y"]).writes(["z"]));
        let names = |g: &JobGraph| -> Vec<String> {
            g.expand(&env()).into_iter().map(|i| i.name).collect()
        };
        assert_eq!(names(&g), ["a0", "a1", "b0", "b1", "c"]);
        let b1 = &g.expand(&env())[3];
        assert_eq!((b1.template, b1.index, b1.count), (1, 1, 2));
        assert_eq!(
            (&b1.reads, &b1.writes),
            (&vec!["t#1".into()], &vec!["y#1".into()])
        );

        // Producers and depth are questions about datasets, whatever shard
        // a template names.
        let producer = |d: &str| g.producer_job(d).map(|j| j.name.as_str());
        assert_eq!(producer("t"), Some("a{}"));
        assert_eq!(producer("t#1"), Some("a{}"));
        assert_eq!(producer("x"), None);
        assert_eq!(g.critical_path_jobs(), SymExpr::Const(3));

        g.rank_major = true;
        assert_eq!(names(&g), ["a0", "b0", "c", "a1", "b1"]);
    }

    #[test]
    fn expand_substitutes_once_per_instance() {
        let g = JobGraph::new("one", ["x"]).job(
            PlanJob::new("solo")
                .reads(["x"])
                .writes(["y"])
                .emits(SymExpr::c(7), SymExpr::c(70)),
        );
        let inst = g.expand(&env());
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].name, "solo");
        assert_eq!(inst[0].records, 7);
    }
}
