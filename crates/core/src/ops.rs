//! The distributed operations of HaTen2, as MapReduce jobs.
//!
//! Every function here submits exactly one MapReduce job (the unit the
//! paper's job counts are stated in) and returns its output as `(Ix4, f64)`
//! records in the canonical orientation of [`crate::canon`]:
//!
//! * [`naive_ttv_job`] — the broadcast n-mode vector product of
//!   HaTen2-Naive (§III-B1). Intermediate data `nnz + |v|·(fibers)`.
//! * [`hadamard_vec_job`] — `X *̄ₙ v` (Definition 1), the multiply half of
//!   Hadamard-and-Merge (§III-B2). Intermediate data `nnz + |v|`.
//! * [`collapse_job`] — `Collapse(·)ₙ` (Definition 2), the add half.
//! * [`imhp_job`] — the integrated n-mode **matrix** Hadamard products
//!   `IMHP(X, B, C)` of HaTen2-DRI (§III-B4): computes `T' = X *₁ Bᵀ` and
//!   `T'' = bin(X) *₂ Cᵀ` in a single job, reading `X` once.
//! * [`cross_merge_job`] — `CrossMerge(T', T'')₍₀₎` (Definition 3/Lemma 1).
//! * [`pairwise_merge_job`] — `PairwiseMerge(T', T'')₍₀₎` (Definition
//!   4/Lemma 2).
//!
//! Mode positions refer to slots of [`Ix4`]; 3-way tensors keep slot 3 = 0,
//! and the Hadamard expansions write the factor-column index into slot 3.
//!
//! These are the kernels [`crate::plan`] attaches to the templates of the
//! eight pipeline graphs; its one submitter is the only caller outside
//! tests. Every function takes a [`JobSite`] — a
//! [`haten2_mapreduce::JobCtx`] when the submitter runs it inside a
//! scheduled [`haten2_mapreduce::Batch`], or a [`Cluster`] directly (unit
//! tests, ad hoc runs). Inside a batch the scheduler derives map-emit
//! hints from the plan IR's symbolic emit expressions
//! ([`haten2_mapreduce::JobGraph::emit_hint`]), so the sizing cannot drift
//! from the cost model; a [`JobSpec::with_map_emit_hint`] call overrides
//! the derivation — see [`crate::nway`], whose jobs have no graph.
//!
//! A tensor-valued input is a [`Shards`] list: the slices a dataset was
//! written in, in shard order, borrowed from whoever produced them. A
//! kernel reads them in that order as if concatenated, without the copy.
//!
//! [`JobSite`]: haten2_mapreduce::JobSite
//! [`Cluster`]: haten2_mapreduce::Cluster

use crate::records::{shards_len, HadVal, ImhpRec, ImhpVal, Ix4, MergeVal, NaiveVal, TvRec};
use haten2_linalg::Mat;
use haten2_mapreduce::{
    key_slice, run_job, run_job_streaming, EstimateSize, JobSite, JobSpec, MrError, Result,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// Tensor records in the canonical `(Ix4, f64)` form.
pub type TensorRecords = Vec<(Ix4, f64)>;

/// One dataset as a job reads it: its shards, in shard order.
pub type Shards<'a> = &'a [&'a [(Ix4, f64)]];

/// `shards` as one slice, for the kernels whose map input *is* the
/// dataset: borrowed when there is a single shard, concatenated otherwise.
fn flat<'a>(shards: Shards<'a>) -> Cow<'a, [(Ix4, f64)]> {
    match shards {
        [one] => Cow::Borrowed(one),
        many => Cow::Owned(many.concat()),
    }
}

#[inline]
fn slot(ix: &Ix4, pos: usize) -> u64 {
    match pos {
        0 => ix.0,
        1 => ix.1,
        2 => ix.2,
        3 => ix.3,
        _ => panic!("slot {pos} out of range"),
    }
}

#[inline]
pub(crate) fn with_slot(mut ix: Ix4, pos: usize, v: u64) -> Ix4 {
    match pos {
        0 => ix.0 = v,
        1 => ix.1 = v,
        2 => ix.2 = v,
        3 => ix.3 = v,
        _ => panic!("slot {pos} out of range"),
    }
    ix
}

/// n-mode vector Hadamard product `X *̄ₚₒₛ v` (Definition 1) as one job.
///
/// Joins tensor entries with vector elements on slot `join_pos`; each entry
/// is multiplied by its coefficient. When `tag_slot3` is set, the output
/// entries carry that value in slot 3 — this is how the per-column jobs of
/// DNN/DRN assemble the 4-way tensors `T'`/`T''` of Lemmas 1–2.
pub fn hadamard_vec_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    join_pos: usize,
    v: &[f64],
    tag_slot3: Option<u64>,
) -> Result<Vec<(Ix4, f64)>> {
    let input = crate::records::tv_input(entries, v);
    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        move |_, rec: &TvRec, emit| match rec {
            TvRec::Ent(ix, val) => emit(slot(ix, join_pos), HadVal::Ent(*ix, *val)),
            TvRec::Coef(i, c) => emit(*i, HadVal::Coef(*c)),
        },
        move |_, vals, emit| {
            let mut coef = None;
            for v in &vals {
                if let HadVal::Coef(c) = v {
                    coef = Some(*c);
                }
            }
            let Some(c) = coef else { return };
            for v in vals {
                if let HadVal::Ent(ix, val) = v {
                    let out_ix = match tag_slot3 {
                        Some(t) => with_slot(ix, 3, t),
                        None => ix,
                    };
                    let prod = val * c;
                    if prod != 0.0 {
                        emit(out_ix, prod);
                    }
                }
            }
        },
    )?;
    Ok(out)
}

/// `Collapse(X)ₚₒₛ` (Definition 2) as one job: zero out slot `drop_pos` and
/// sum coinciding entries. `use_combiner` enables map-side pre-aggregation
/// (an ablation knob — the paper's accounting assumes no combiner).
///
/// The reducer streams: summing a key group needs one pass and no state
/// beyond the accumulator, so the engine's merge never materializes the
/// group's values — the collapse of a dense fiber costs O(1) reducer
/// memory on the host regardless of fiber length.
pub fn collapse_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    drop_pos: usize,
    use_combiner: bool,
) -> Result<Vec<(Ix4, f64)>> {
    let entries = flat(entries);
    let combiner = |_: &Ix4, vals: Vec<f64>| vec![vals.iter().sum::<f64>()];
    let spec = if use_combiner {
        JobSpec::named(name.to_string()).with_combiner(&combiner)
    } else {
        JobSpec::named(name.to_string())
    };
    let out = run_job_streaming(
        site,
        spec,
        &entries,
        move |ix: &Ix4, val: &f64, emit| emit(with_slot(*ix, drop_pos, 0), *val),
        |ix, vals, emit| {
            let s: f64 = vals.sum::<f64>();
            if s != 0.0 {
                emit(*ix, s);
            }
        },
    )?;
    Ok(out)
}

/// The naive broadcast n-mode vector product (§III-B1): contract slot
/// `contract_pos` against `v`, shuffling the **entire vector to every
/// fiber** of the remaining modes, exactly as HaTen2-Naive does. `dims`
/// are the 4-slot dimensions of `entries` (slot 3 = 1 for 3-way tensors).
///
/// Intermediate data is `nnz + |v| · Π(other dims)` — `nnz(X) + IJK` in the
/// paper's Table III/IV — so before running, the cost is estimated against
/// the cluster capacity and the job aborts with
/// [`MrError::ClusterCapacityExceeded`] when it cannot fit (the paper's
/// "o.o.m."). This pre-check is what lets the simulation *report* the
/// failure the paper observed without materializing petabytes.
pub fn naive_ttv_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    dims: [u64; 4],
    contract_pos: usize,
    v: &[f64],
) -> Result<Vec<(Ix4, f64)>> {
    // Feasibility pre-check against cluster capacity.
    let fibers: u128 = (0..4)
        .filter(|&p| p != contract_pos)
        .map(|p| dims[p].max(1) as u128)
        .product();
    let broadcast_records = fibers.saturating_mul(v.len() as u128);
    let est_record_bytes = (NaiveVal::Coef(0, 0.0).est_bytes() + 24 + 8) as u128;
    let est_bytes = broadcast_records
        .saturating_add(shards_len(entries) as u128)
        .saturating_mul(est_record_bytes);
    if let Some(cap) = site.cluster().config().cluster_capacity_bytes {
        if est_bytes > cap as u128 {
            return Err(MrError::ClusterCapacityExceeded {
                job: name.to_string(),
                intermediate_bytes: est_bytes.min(usize::MAX as u128) as usize,
                capacity_bytes: cap,
            });
        }
    }

    let input = crate::records::tv_input(entries, v);
    // Enumerate the cross product of the non-contracted dims for broadcast.
    let other_pos: Vec<usize> = (0..4).filter(|&p| p != contract_pos).collect();
    let other_dims: Vec<u64> = other_pos.iter().map(|&p| dims[p].max(1)).collect();

    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &TvRec, emit| match rec {
            TvRec::Ent(ix, val) => {
                let key = with_slot(*ix, contract_pos, 0);
                emit(key, NaiveVal::Ent(slot(ix, contract_pos), *val));
            }
            TvRec::Coef(i, c) => {
                // Broadcast this vector element to every fiber.
                for a in 0..other_dims[0] {
                    for b in 0..other_dims[1] {
                        for d in 0..other_dims[2] {
                            let mut key = (0, 0, 0, 0);
                            key = with_slot(key, other_pos[0], a);
                            key = with_slot(key, other_pos[1], b);
                            key = with_slot(key, other_pos[2], d);
                            emit(key, NaiveVal::Coef(*i, *c));
                        }
                    }
                }
            }
        },
        |key, vals, emit| {
            let mut coefs: HashMap<u64, f64> = HashMap::new();
            for v in &vals {
                if let NaiveVal::Coef(i, c) = v {
                    coefs.insert(*i, *c);
                }
            }
            let mut dot = 0.0;
            let mut any = false;
            for v in &vals {
                if let NaiveVal::Ent(i, val) = v {
                    any = true;
                    if let Some(c) = coefs.get(i) {
                        dot += val * c;
                    }
                }
            }
            if any && dot != 0.0 {
                emit(*key, dot);
            }
        },
    )?;
    Ok(out)
}

/// The integrated n-mode matrix Hadamard products `IMHP(X, B, C)`
/// (§III-B4) as **one** job: returns `(T', T'')` where
/// `T'[i,j,k,q] = X[i,j,k]·Bᵀ[q,j]` and `T''[i,j,k,r] = Cᵀ[r,k]` on the
/// support of `X` (the `bin(X)` side of Lemmas 1–2). `bt ∈ ℝ^{Q×d₁}`,
/// `ct ∈ ℝ^{R×d₂}` in canonical orientation.
pub fn imhp_job(
    site: &impl JobSite,
    name: &str,
    entries: Shards<'_>,
    bt: &Mat,
    ct: &Mat,
) -> Result<(TensorRecords, TensorRecords)> {
    let mut input: Vec<((), ImhpRec)> =
        Vec::with_capacity(shards_len(entries) + bt.cols() + ct.cols());
    input.extend(
        entries
            .iter()
            .flat_map(|shard| shard.iter())
            .map(|&(ix, v)| ((), ImhpRec::Ent(ix, v))),
    );
    for j in 0..bt.cols() {
        let col: Vec<f64> = (0..bt.rows()).map(|q| bt.get(q, j)).collect();
        input.push(((), ImhpRec::Row(0, j as u64, col)));
    }
    for k in 0..ct.cols() {
        let col: Vec<f64> = (0..ct.rows()).map(|r| ct.get(r, k)).collect();
        input.push(((), ImhpRec::Row(1, k as u64, col)));
    }

    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &ImhpRec, emit| match rec {
            ImhpRec::Ent(ix, v) => {
                emit((0u8, ix.1), ImhpVal::Ent(*ix, *v));
                emit((1u8, ix.2), ImhpVal::Ent(*ix, *v));
            }
            ImhpRec::Row(side, idx, row) => emit((*side, *idx), ImhpVal::Row(row.clone())),
        },
        |key, vals, emit| {
            let (side, _) = *key;
            let mut row: Option<&Vec<f64>> = None;
            for v in &vals {
                if let ImhpVal::Row(r) = v {
                    row = Some(r);
                }
            }
            let Some(row) = row else { return };
            for v in &vals {
                if let ImhpVal::Ent(ix, val) = v {
                    for (d, &coef) in row.iter().enumerate() {
                        if coef == 0.0 {
                            continue;
                        }
                        let out_ix = with_slot(*ix, 3, d as u64);
                        // T' carries X·B; T'' carries only C (bin(X) side).
                        let out_v = if side == 0 { val * coef } else { coef };
                        emit((side, out_ix), out_v);
                    }
                }
            }
        },
    )?;

    let mut t_prime = Vec::new();
    let mut t_dprime = Vec::new();
    for ((side, ix), v) in out {
        if side == 0 {
            t_prime.push((ix, v));
        } else {
            t_dprime.push((ix, v));
        }
    }
    Ok((t_prime, t_dprime))
}

/// Which reduce keys a merge job takes: `(slice, slices)` keeps the
/// target-mode indices whose [`key_slice`] of `slices` equals `slice`, and
/// `None` keeps all. A sliced job is one split instance of the
/// `heavy-key-split` rewrite: it maps the **full** merge input and runs the
/// unmodified reduce on its slice's whole key groups, which is what lets
/// [`merge_parts_job`] reassemble the unsliced output bit for bit.
pub type KeySlice = Option<(usize, usize)>;

#[inline]
fn in_slice(key: u64, slice: KeySlice) -> bool {
    slice.is_none_or(|(s, slices)| key_slice(&key, slices) == s)
}

/// `CrossMerge(T', T'')₍₀₎` (Definition 3) as one job: produces
/// `Y(i, q, r) = Σ_{j,k} T'(i,j,k,q)·T''(i,j,k,r)` as records
/// `((i, q, r, 0), y)`.
///
/// Keys on the target-mode index `i`, so the shuffle volume is
/// `nnz·(Q+R)` — the Table III cost of HaTen2-DRN/DRI.
pub fn cross_merge_job(
    site: &impl JobSite,
    name: &str,
    t_prime: Shards<'_>,
    t_dprime: Shards<'_>,
    slice: KeySlice,
) -> Result<Vec<(Ix4, f64)>> {
    let input = merge_input(t_prime, t_dprime);
    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        move |_, rec: &MergeVal, emit| {
            if in_slice(rec.i, slice) {
                emit(rec.i, rec.clone());
            }
        },
        |i, vals, emit| {
            // Group T'' by (j, k) -> [(r, v)].
            let mut by_jk: HashMap<(u64, u64), Vec<(u64, f64)>> = HashMap::new();
            for v in &vals {
                if v.side == 1 {
                    by_jk.entry((v.j, v.k)).or_default().push((v.d, v.v));
                }
            }
            // BTreeMap, not HashMap: the accumulator is *iterated* into
            // emits, so its order must not depend on hasher state (the
            // determinism pass rejects unordered iteration feeding emits).
            let mut acc: BTreeMap<(u64, u64), f64> = BTreeMap::new();
            for v in &vals {
                if v.side == 0 {
                    if let Some(rs) = by_jk.get(&(v.j, v.k)) {
                        for &(r, w) in rs {
                            *acc.entry((v.d, r)).or_insert(0.0) += v.v * w;
                        }
                    }
                }
            }
            for ((q, r), y) in acc {
                if y != 0.0 {
                    emit((*i, q, r, 0u64), y);
                }
            }
        },
    )?;
    Ok(out)
}

/// `PairwiseMerge(T', T'')₍₀₎` (Definition 4) as one job: produces
/// `Y(i, r) = Σ_{j,k} T'(i,j,k,r)·T''(i,j,k,r)` as records
/// `((i, r, 0, 0), y)`. Shuffle volume `2·nnz·R` — the Table IV cost of
/// HaTen2-PARAFAC-DRN/DRI.
pub fn pairwise_merge_job(
    site: &impl JobSite,
    name: &str,
    t_prime: Shards<'_>,
    t_dprime: Shards<'_>,
    slice: KeySlice,
) -> Result<Vec<(Ix4, f64)>> {
    let input = merge_input(t_prime, t_dprime);
    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        move |_, rec: &MergeVal, emit| {
            if in_slice(rec.i, slice) {
                emit(rec.i, rec.clone());
            }
        },
        |i, vals, emit| {
            // Lookup-only join map (accumulation order follows `vals`),
            // pre-sized for a group that is half T'' rows: a heavy
            // power-law group otherwise rehashes ~17 times while it grows.
            let mut by_jkr: HashMap<(u64, u64, u64), f64> = HashMap::with_capacity(vals.len() / 2);
            for v in &vals {
                if v.side == 1 {
                    *by_jkr.entry((v.j, v.k, v.d)).or_insert(0.0) += v.v;
                }
            }
            // BTreeMap: iterated into emits below (see cross_merge_job).
            let mut acc: BTreeMap<u64, f64> = BTreeMap::new();
            for v in &vals {
                if v.side == 0 {
                    if let Some(&w) = by_jkr.get(&(v.j, v.k, v.d)) {
                        *acc.entry(v.d).or_insert(0.0) += v.v * w;
                    }
                }
            }
            for (r, y) in acc {
                if y != 0.0 {
                    emit((*i, r, 0u64, 0u64), y);
                }
            }
        },
    )?;
    Ok(out)
}

/// The `mergeparts` reassembly pass of the `heavy-key-split` rewrite:
/// re-keys the per-slice partials, read in slice order, on the target-mode
/// index and re-emits every record **in arrival order**. All records of
/// one reduce key live in exactly one slice (the hash assigns whole
/// groups), arrive contiguous in that slice's emission order, and leave
/// the same way; with the same partitioner and key ordering as the
/// original merge, the reassembled dataset is byte-for-byte the
/// unrewritten job's output.
pub fn merge_parts_job(
    site: &impl JobSite,
    name: &str,
    parts: Shards<'_>,
) -> Result<Vec<(Ix4, f64)>> {
    let parts = flat(parts);
    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &parts,
        |ix: &Ix4, v: &f64, emit| emit(ix.0, (*ix, *v)),
        |_, vals, emit| {
            for (ix, v) in vals {
                emit(ix, v);
            }
        },
    )?;
    Ok(out)
}

/// Distributed model inner product `⟨X, X̂⟩` for a PARAFAC model
/// `X̂ = Σ_r λ_r a_r ∘ b_r ∘ c_r`, as one MapReduce job.
///
/// The Hadoop implementation evaluates the fit on the cluster; mirroring
/// that, the tensor slices and the factor-A rows are joined reduce-side on
/// the mode-0 index (shuffle `nnz + I` records), while the B/C factors ride
/// along as the job's broadcast small side (captured state, the map-side
/// join idiom). Returns the scalar `Σ X(i,j,k)·X̂(i,j,k)`.
pub fn model_inner_product_job(
    site: &impl JobSite,
    name: &str,
    x: &TensorRecords,
    factors: [&Mat; 3],
    lambda: &[f64],
) -> Result<f64> {
    let (a, b, c) = (factors[0], factors[1], factors[2]);
    let rank = a.cols();
    let mut input: Vec<((), ImhpRec)> =
        x.iter().map(|&(ix, v)| ((), ImhpRec::Ent(ix, v))).collect();
    for i in 0..a.rows() {
        input.push(((), ImhpRec::Row(0, i as u64, a.row(i).to_vec())));
    }
    let out = run_job(
        site,
        JobSpec::named(name.to_string()),
        &input,
        |_, rec: &ImhpRec, emit| match rec {
            ImhpRec::Ent(ix, v) => emit(ix.0, ImhpVal::Ent(*ix, *v)),
            ImhpRec::Row(_, i, row) => emit(*i, ImhpVal::Row(row.clone())),
        },
        move |_, vals, emit| {
            let mut a_row: Option<&Vec<f64>> = None;
            for v in &vals {
                if let ImhpVal::Row(r) = v {
                    a_row = Some(r);
                }
            }
            let Some(a_row) = a_row else { return };
            let mut partial = 0.0;
            for v in &vals {
                if let ImhpVal::Ent(ix, val) = v {
                    let mut model = 0.0;
                    for r in 0..rank {
                        model += lambda[r]
                            * a_row[r]
                            * b.get(ix.1 as usize, r)
                            * c.get(ix.2 as usize, r);
                    }
                    partial += val * model;
                }
            }
            if partial != 0.0 {
                emit(0u8, partial);
            }
        },
    )?;
    Ok(out.into_iter().map(|(_, v)| v).sum())
}

fn merge_input(t_prime: Shards<'_>, t_dprime: Shards<'_>) -> Vec<((), MergeVal)> {
    let mut input = Vec::with_capacity(shards_len(t_prime) + shards_len(t_dprime));
    for (side, shards) in [(0, t_prime), (1, t_dprime)] {
        for &(ix, v) in shards.iter().flat_map(|shard| shard.iter()) {
            input.push((
                (),
                MergeVal {
                    side,
                    i: ix.0,
                    j: ix.1,
                    k: ix.2,
                    d: ix.3,
                    v,
                },
            ));
        }
    }
    input
}
