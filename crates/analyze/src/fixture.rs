//! `.plan` fixtures: tiny textual job graphs for the known-bad corpus.
//!
//! The lint and purity rules have known-bad *source* fixtures under
//! `crates/xtask/tests/fixtures/`; the communication rules operate on
//! plan IR, not source text, so their corpus entries are
//! `.plan` files — a line-oriented description of a [`JobGraph`] plus the
//! check to run on it. Expressions use the [`SymExpr`] display syntax
//! (`SymExpr::parse` round-trips it), so a fixture reads like the
//! analyzer's own output.
//!
//! ```text
//! # one deliberately under-declared pipeline
//! graph under-declared
//! big-input x
//! output y
//! job tiny
//! reads x
//! writes y
//! records nnz
//! bytes nnz
//! claim-shuffle nnz
//! expect comm-bound-exceeded
//! ```
//!
//! Directives: `graph`, `input`, `big-input`, `output` introduce the
//! graph; `job` opens a template and `count`, `reads`, `writes`,
//! `records`, `bytes`, `upper-bound`, `comm-assoc` fill it in;
//! `claim-shuffle <expr>` runs the communication check
//! ([`crate::comm::check_comm`]) with that closed form; `expect <rule>`
//! records which rule ids must fire. Blank lines and `#` comments are
//! skipped.

use crate::comm::check_comm;
use crate::Violation;
use haten2_core::{comm_for, Decomp, Variant};
use haten2_mapreduce::{JobGraph, PlanJob, SymExpr};
use std::path::Path;

/// A parsed `.plan` fixture: the graph plus which checks to run on it.
#[derive(Debug, Clone)]
pub struct PlanFixture {
    /// The described graph.
    pub graph: JobGraph,
    /// Closed-form shuffle claim to check, when present.
    pub claim: Option<SymExpr>,
    /// Rule ids the fixture expects to fire.
    pub expects: Vec<String>,
}

fn parse_expr(line_no: usize, s: &str) -> Result<SymExpr, String> {
    SymExpr::parse(s).ok_or_else(|| format!("line {line_no}: unparseable expression '{s}'"))
}

/// Parse fixture text. Errors carry the offending line number.
pub fn parse_plan_fixture(text: &str) -> Result<PlanFixture, String> {
    let mut graph: Option<JobGraph> = None;
    let mut claim = None;
    let mut expects = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (dir, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        if dir == "graph" {
            if graph.is_some() {
                return Err(format!("line {line_no}: duplicate 'graph'"));
            }
            graph = Some(JobGraph::new(rest, []));
            continue;
        }
        let g = graph
            .as_mut()
            .ok_or_else(|| format!("line {line_no}: '{dir}' before 'graph'"))?;
        match dir {
            "input" => g.inputs.push(rest.to_string()),
            "big-input" => {
                if !g.inputs.iter().any(|d| d == rest) {
                    g.inputs.push(rest.to_string());
                }
                g.big_inputs.push(rest.to_string());
            }
            "output" => g.outputs.push(rest.to_string()),
            "job" => g.jobs.push(PlanJob::new(rest)),
            "claim-shuffle" => claim = Some(parse_expr(line_no, rest)?),
            "expect" => expects.push(rest.to_string()),
            "count" | "reads" | "writes" | "records" | "bytes" | "upper-bound" | "comm-assoc" => {
                let job = g
                    .jobs
                    .last_mut()
                    .ok_or_else(|| format!("line {line_no}: '{dir}' before 'job'"))?;
                match dir {
                    "count" => job.count = parse_expr(line_no, rest)?,
                    "reads" => job.reads = rest.split_whitespace().map(String::from).collect(),
                    "writes" => job.writes = rest.split_whitespace().map(String::from).collect(),
                    "records" => job.records = parse_expr(line_no, rest)?,
                    "bytes" => job.bytes = parse_expr(line_no, rest)?,
                    "upper-bound" => job.exact = false,
                    _ => job.comm_assoc = true,
                }
            }
            _ => return Err(format!("line {line_no}: unknown directive '{dir}'")),
        }
    }
    let graph = graph.ok_or_else(|| "no 'graph' directive".to_string())?;
    Ok(PlanFixture {
        graph,
        claim,
        expects,
    })
}

/// Load a `.plan` fixture from disk.
pub fn load_plan_fixture(path: &Path) -> Result<PlanFixture, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_plan_fixture(&text)
}

/// Run a fixture's declared checks over the regime grid and return every
/// violation. Fixtures are held to the Tucker-DRI [`haten2_core::CommSpec`]
/// (`rank_eff = Q + R`, minimum record width `had_coef`) — the bound the
/// real headline pipeline answers to.
pub fn run_plan_fixture(fixture: &PlanFixture) -> Vec<Violation> {
    let envs = crate::cost::regime_envs();
    let spec = comm_for(Decomp::Tucker, Variant::Dri);
    match &fixture.claim {
        Some(claim) => check_comm(&fixture.graph, claim, &spec, &envs),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# a well-formed two-job pipeline
graph demo
big-input x
output y
job expand{}
count Q
reads x
writes t
records nnz
bytes 57·nnz
job merge
reads t
writes y
comm-assoc
records nnz
bytes 49·nnz
claim-shuffle Q·57·nnz + 49·nnz
";

    #[test]
    fn well_formed_fixture_parses_and_passes() {
        let f = parse_plan_fixture(GOOD).unwrap();
        assert_eq!(f.graph.name, "demo");
        assert_eq!(f.graph.jobs.len(), 2);
        assert!(f.expects.is_empty());
        let v = run_plan_fixture(&f);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert!(parse_plan_fixture("job early\n")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_plan_fixture("graph g\nrecords nnz\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(parse_plan_fixture("graph g\njob j\nbytes )(\n")
            .unwrap_err()
            .contains("unparseable"));
        assert!(parse_plan_fixture("graph g\nfrobnicate x\n")
            .unwrap_err()
            .contains("unknown directive"));
        assert!(parse_plan_fixture("").unwrap_err().contains("no 'graph'"));
    }

    #[test]
    fn wrong_claim_fires_shuffle_mismatch() {
        let text = GOOD.replace("claim-shuffle Q·57·nnz + 49·nnz", "claim-shuffle 57·nnz");
        let f = parse_plan_fixture(&text).unwrap();
        let v = run_plan_fixture(&f);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind(), "shuffle-mismatch");
    }
}
