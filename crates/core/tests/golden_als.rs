//! Golden bit-identity of the ALS drivers.
//!
//! `golden_pipelines.rs` pins one kernel call per pipeline; this table
//! pins what a driver builds around them over two sweeps: the canonical
//! records of every target mode, the factor orientation each kernel is
//! handed, the Gram matrices of the ALS update, the fit. One row per
//! driver holds an FNV-1a digest of its fits, `λ` (or the Tucker core and
//! its norms) and every factor's bits.
//!
//! The input tensor keeps what the drivers must fold or skip: repeated
//! coordinates (stored unsorted, summed where a target mode other than 0
//! canonicalises them), a repeated pair that cancels to zero, an index of
//! mode 0 that no entry uses, and a starting factor with an all-zero row.
//!
//! After an *intended* change to what a driver computes, re-record: the
//! failure message prints the table.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

use haten2_core::nway::nway_parafac_als;
use haten2_core::{parafac_als_with_init, tucker_als_with_init, AlsOptions, Variant};
use haten2_linalg::Mat;
use haten2_mapreduce::{Cluster, ClusterConfig};
use haten2_tensor::{CooTensor3, DynTensor, Entry3};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// `(row label, digest)`.
const GOLDEN: &[(&str, u64)] = &[
    ("parafac-naive", 0xedf946ed9c4c43a6),
    ("parafac-dnn", 0xffe963a5c4698d29),
    ("parafac-drn", 0x90ddc5dc7871321c),
    ("parafac-dri", 0xd0a9385e2a0a1679),
    ("parafac-dri+distributed-fit", 0x61865f8f55389465),
    ("nway-parafac/N=3", 0xb48c68a8e2455739),
    ("tucker-dri", 0xd73b6879a7312c30),
];

const DIMS: [u64; 3] = [7, 6, 5];
const RANK: usize = 3;
const SWEEPS: usize = 2;

/// FNV-1a, 64-bit, over little-endian words.
fn fnv(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        for b in word.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

fn mat_bits(m: &Mat) -> impl Iterator<Item = u64> + '_ {
    (0..m.rows()).flat_map(move |i| bits(m.row(i)))
}

/// The entries, in the order they are stored: random coordinates (mode-0
/// index 6 never drawn), many of them repeated, then a pair at one
/// coordinate that cancels.
fn entries() -> Vec<Entry3> {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut entries: Vec<Entry3> = (0..70)
        .map(|_| {
            Entry3::new(
                rng.gen_range(0..DIMS[0] - 1),
                rng.gen_range(0..DIMS[1]),
                rng.gen_range(0..DIMS[2]),
                rng.gen_range(0.5..2.0),
            )
        })
        .collect();
    entries.push(Entry3::new(2, 3, 4, 1.25));
    entries.push(Entry3::new(2, 3, 4, -1.25));
    entries
}

/// [`entries`] stored as they come: unsorted, repeats kept.
fn tensor() -> CooTensor3 {
    let mut x = CooTensor3::new(DIMS);
    for e in entries() {
        x.push_unchecked(e);
    }
    assert_eq!(x.nnz(), 72, "every entry is stored");
    x
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        // Fixed, so task counts do not follow the host.
        threads: 3,
        ..ClusterConfig::with_machines(4)
    })
}

fn opts(variant: Variant, distributed_fit: bool) -> AlsOptions {
    AlsOptions {
        max_iters: SWEEPS,
        tol: 0.0,
        distributed_fit,
        ..AlsOptions::with_variant(variant)
    }
}

/// Random `rows × cols` with row `zero` all zeros.
fn with_zero_row(rows: u64, cols: usize, zero: usize, rng: &mut StdRng) -> Mat {
    let mut m = Mat::random(rows as usize, cols, rng);
    m.row_mut(zero).fill(0.0);
    m
}

fn parafac(variant: Variant, distributed_fit: bool) -> u64 {
    let mut rng = StdRng::seed_from_u64(41);
    let init = [
        Mat::random(DIMS[0] as usize, RANK, &mut rng),
        with_zero_row(DIMS[1], RANK, 2, &mut rng),
        Mat::random(DIMS[2] as usize, RANK, &mut rng),
    ];
    let x = tensor();
    let res = parafac_als_with_init(
        &cluster(),
        &x,
        RANK,
        &opts(variant, distributed_fit),
        Some(init),
    )
    .unwrap();
    assert_eq!(res.iterations, SWEEPS);
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, bits(&res.fits));
    fnv(&mut h, bits(&res.lambda));
    for f in &res.factors {
        fnv(&mut h, mat_bits(f));
    }
    h
}

fn nway_parafac() -> u64 {
    let mut x = DynTensor::new(DIMS.to_vec());
    for e in entries() {
        x.push(&[e.i, e.j, e.k], e.v).unwrap();
    }
    let res = nway_parafac_als(&cluster(), &x, RANK, SWEEPS, 0.0, 43).unwrap();
    assert_eq!(res.iterations, SWEEPS);
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, bits(&res.fits));
    fnv(&mut h, bits(&res.lambda));
    for f in &res.factors {
        fnv(&mut h, mat_bits(f));
    }
    h
}

fn tucker() -> u64 {
    let mut rng = StdRng::seed_from_u64(47);
    let init = [
        with_zero_row(DIMS[1], 2, 4, &mut rng),
        Mat::random(DIMS[2] as usize, 2, &mut rng),
    ];
    let x = tensor();
    let opts = opts(Variant::Dri, false);
    let res = tucker_als_with_init(&cluster(), &x, [2, 2, 2], &opts, Some(init)).unwrap();
    assert_eq!(res.iterations, SWEEPS);
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, bits(&res.core_norms));
    fnv(&mut h, [res.fit.to_bits()]);
    fnv(&mut h, bits(res.core.data()));
    for f in &res.factors {
        fnv(&mut h, mat_bits(f));
    }
    h
}

#[test]
fn every_als_driver_reproduces_its_recorded_digest() {
    let computed: Vec<(String, u64)> = vec![
        ("parafac-naive".into(), parafac(Variant::Naive, false)),
        ("parafac-dnn".into(), parafac(Variant::Dnn, false)),
        ("parafac-drn".into(), parafac(Variant::Drn, false)),
        ("parafac-dri".into(), parafac(Variant::Dri, false)),
        (
            "parafac-dri+distributed-fit".into(),
            parafac(Variant::Dri, true),
        ),
        ("nway-parafac/N=3".into(), nway_parafac()),
        ("tucker-dri".into(), tucker()),
    ];
    let recorded: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    let table: String = computed
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert!(
        computed == recorded,
        "digests moved; computed table:\n{table}"
    );
}
