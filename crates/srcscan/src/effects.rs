//! Effect rules for batches of jobs with declared dataset read/write sets.
//!
//! The DAG scheduler orders the jobs of a batch only by their *declared*
//! reads and writes. These rules say when a batch program — a list of
//! [`EffectModel`]s in submission order — can race under that scheduler:
//!
//! * **undeclared-effect** — a job reads or writes a dataset its
//!   declaration does not cover; the scheduler cannot order what it cannot
//!   see.
//! * **unordered-conflict** — two jobs whose *effective* (declared ∪
//!   actual) sets conflict (write/write or read/write) while no
//!   declared-dependency path orders them; the DAG scheduler may run them
//!   concurrently.
//! * **over-declared-read** — a declared read of an intermediate dataset
//!   the job never consumes; stale declarations over-serialize the
//!   schedule and hide real wiring mistakes.
//!
//! Dataset names are compared symbolically: a `#shard` suffix that is a
//! `{}` hole is a wildcard over shard indices, mirroring the scheduler's
//! base-name overlap rule.
//!
//! The pipelines of `haten2-core` cannot break the first rule — their one
//! submitter resolves a job's inputs from its declared reads and nothing
//! else — so the analyzer feeds [`check_model`] models expanded from the
//! plan graphs themselves. The mutation proptests of `haten2-mapreduce`
//! (`tests/race_detect.rs`) feed it hand-built batch programs and hold it to
//! the dynamic race detector.

/// Split `base#shard`; `None` shard means the whole dataset.
fn split_shard_sym(name: &str) -> (&str, Option<&str>) {
    match name.split_once('#') {
        Some((b, s)) => (b, Some(s)),
        None => (name, None),
    }
}

/// Symbolic dataset overlap: bases must match; a missing shard means the
/// whole dataset, and a `{}` hole is a wildcard over shard indices.
pub fn sym_overlap(a: &str, b: &str) -> bool {
    let (ab, ash) = split_shard_sym(a);
    let (bb, bsh) = split_shard_sym(b);
    if ab != bb {
        return false;
    }
    match (ash, bsh) {
        (None, _) | (_, None) => true,
        (Some(x), Some(y)) => x == "{}" || y == "{}" || x == y,
    }
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

/// What a job declares it touches, and what it actually touches.
#[derive(Debug, Clone, Default)]
pub struct EffectModel {
    /// Job name.
    pub name: String,
    /// Declared read set.
    pub declared_reads: Vec<String>,
    /// Declared write set.
    pub declared_writes: Vec<String>,
    /// Reads the body actually performs.
    pub inferred_reads: Vec<String>,
    /// Writes the body actually performs beyond the declared ones.
    pub inferred_writes: Vec<String>,
}

/// One finding; `job_index` points into the checked slice (for pair
/// rules, the *later* job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFinding {
    /// Rule id: `undeclared-effect`, `unordered-conflict` or
    /// `over-declared-read`.
    pub rule: &'static str,
    /// Index of the offending job in the checked slice.
    pub job_index: usize,
    /// Offending job name.
    pub job: String,
    /// The other job of a pair rule.
    pub other: Option<String>,
    /// The dataset at fault.
    pub dataset: String,
}

/// Declared-dependency edge: does earlier job `a` order later job `b`
/// (RAW, WAW, or WAR on declared sets)?
fn declared_edge(a: &EffectModel, b: &EffectModel) -> bool {
    let overlap =
        |xs: &[String], ys: &[String]| xs.iter().any(|x| ys.iter().any(|y| sym_overlap(x, y)));
    overlap(&b.declared_reads, &a.declared_writes)
        || overlap(&b.declared_writes, &a.declared_writes)
        || overlap(&b.declared_writes, &a.declared_reads)
}

/// Check the three effect rules over a batch of jobs in submission order.
pub fn check_model(jobs: &[EffectModel]) -> Vec<ModelFinding> {
    let mut findings = Vec::new();

    // undeclared-effect.
    for (i, j) in jobs.iter().enumerate() {
        for ir in &j.inferred_reads {
            if !j.declared_reads.iter().any(|d| sym_overlap(d, ir)) {
                findings.push(ModelFinding {
                    rule: "undeclared-effect",
                    job_index: i,
                    job: j.name.clone(),
                    other: None,
                    dataset: ir.clone(),
                });
            }
        }
        for iw in &j.inferred_writes {
            if !j.declared_writes.iter().any(|d| sym_overlap(d, iw)) {
                findings.push(ModelFinding {
                    rule: "undeclared-effect",
                    job_index: i,
                    job: j.name.clone(),
                    other: None,
                    dataset: iw.clone(),
                });
            }
        }
    }

    // over-declared-read: a declared read of an intermediate (written by
    // another job of the batch) the body never consumes. Only judged when
    // the body's reads were resolvable at all.
    for (i, j) in jobs.iter().enumerate() {
        if j.inferred_reads.is_empty() && j.inferred_writes.is_empty() {
            continue;
        }
        for d in &j.declared_reads {
            let produced_here = jobs
                .iter()
                .enumerate()
                .any(|(k, o)| k != i && o.declared_writes.iter().any(|w| sym_overlap(w, d)));
            let covered = j.inferred_reads.iter().any(|ir| sym_overlap(ir, d));
            if produced_here && !covered {
                findings.push(ModelFinding {
                    rule: "over-declared-read",
                    job_index: i,
                    job: j.name.clone(),
                    other: None,
                    dataset: d.clone(),
                });
            }
        }
    }

    // unordered-conflict: transitive closure of declared edges, then every
    // unordered pair is checked for effective-set conflicts.
    let n = jobs.len();
    let mut reach = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if declared_edge(&jobs[i], &jobs[j]) {
                reach[i][j] = true;
            }
        }
    }
    for k in 0..n {
        let via = reach[k].clone();
        for row in &mut reach {
            if row[k] {
                for (slot, &through_k) in row.iter_mut().zip(&via) {
                    *slot |= through_k;
                }
            }
        }
    }
    let eff_reads = |j: &EffectModel| -> Vec<String> {
        let mut v = j.declared_reads.clone();
        v.extend(j.inferred_reads.iter().cloned());
        v
    };
    let eff_writes = |j: &EffectModel| -> Vec<String> {
        let mut v = j.declared_writes.clone();
        v.extend(j.inferred_writes.iter().cloned());
        v
    };
    for i in 0..n {
        for j in (i + 1)..n {
            if reach[i][j] {
                continue;
            }
            let (ri, wi) = (eff_reads(&jobs[i]), eff_writes(&jobs[i]));
            let (rj, wj) = (eff_reads(&jobs[j]), eff_writes(&jobs[j]));
            let first_overlap = |xs: &[String], ys: &[String]| -> Option<String> {
                for x in xs {
                    for y in ys {
                        if sym_overlap(x, y) {
                            return Some(if x.contains('#') {
                                x.clone()
                            } else {
                                y.clone()
                            });
                        }
                    }
                }
                None
            };
            let hit = first_overlap(&wi, &wj)
                .or_else(|| first_overlap(&wi, &rj))
                .or_else(|| first_overlap(&ri, &wj));
            if let Some(dataset) = hit {
                findings.push(ModelFinding {
                    rule: "unordered-conflict",
                    job_index: j,
                    job: jobs[i].name.clone(),
                    other: Some(jobs[j].name.clone()),
                    dataset,
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_wildcards_overlap_symbolically() {
        assert!(sym_overlap("t", "t#{}"));
        assert!(sym_overlap("t#{}", "t#3"));
        assert!(sym_overlap("t#2", "t#2"));
        assert!(!sym_overlap("t#2", "t#3"));
        assert!(!sym_overlap("t", "u"));
        assert!(sym_overlap("t", "t"));
    }

    #[test]
    fn model_checker_matches_source_semantics() {
        let jobs = vec![
            EffectModel {
                name: "a".into(),
                declared_writes: vec!["t#0".into()],
                ..Default::default()
            },
            EffectModel {
                name: "b".into(),
                declared_writes: vec!["t#1".into()],
                ..Default::default()
            },
            EffectModel {
                name: "c".into(),
                declared_reads: vec!["t".into()],
                declared_writes: vec!["y".into()],
                inferred_reads: vec!["t#{}".into()],
                ..Default::default()
            },
        ];
        assert!(check_model(&jobs).is_empty());
        // Drop c's declared read: now c races with both writers and the
        // read is undeclared.
        let mut mutated = jobs.clone();
        mutated[2].declared_reads.clear();
        let findings = check_model(&mutated);
        assert!(findings.iter().any(|f| f.rule == "undeclared-effect"));
        assert!(findings.iter().any(|f| f.rule == "unordered-conflict"));
    }
}
