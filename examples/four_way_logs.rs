//! The paper's opening example, verbatim: "network intrusion logs, where we
//! record data of the form (source-ip, target-ip, port-number, timestamp)"
//! — a **4-way** tensor, decomposed with the N-way PARAFAC and N-way Tucker
//! generalizations of the HaTen2 framework (two MapReduce jobs per mode,
//! like 3-way DRI).
//!
//! Run with: `cargo run --release --example four_way_logs`. The integration
//! test `tests/four_way_logs.rs` runs the same functions and asserts what
//! this prints.

use haten2::core::nway::{NwayParafacResult, NwayTuckerResult};
use haten2::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SRC: u64 = 60;
const N_DST: u64 = 60;
const N_PORT: u64 = 32;
const N_HOUR: u64 = 24;

/// The PARAFAC rank: one concept per kind of traffic, and one spare.
pub const RANK: usize = 3;

/// The connection logs: daytime web traffic from many sources, and one
/// nightly backup job.
pub fn connection_logs() -> DynTensor {
    let mut rng = StdRng::seed_from_u64(4);
    let mut logs = DynTensor::new(vec![N_SRC, N_DST, N_PORT, N_HOUR]);

    // Daytime web traffic: many sources, ports 80/443, hours 8..18.
    for _ in 0..1500 {
        let idx = [
            rng.gen_range(0..N_SRC),
            rng.gen_range(0..N_DST),
            if rng.gen_bool(0.5) {
                80 % N_PORT
            } else {
                443 % N_PORT
            },
            rng.gen_range(8..18),
        ];
        logs.push(&idx, rng.gen_range(1.0..3.0))
            .expect("index within dims");
    }
    // Nightly backup job: one source, one target, one port, hours 1..4.
    for _ in 0..600 {
        let idx = [7, 13, 22 % N_PORT, rng.gen_range(1..4)];
        logs.push(&idx, rng.gen_range(4.0..6.0))
            .expect("index within dims");
    }
    logs.coalesce()
}

/// N-way PARAFAC of the logs: rank [`RANK`], at most 15 sweeps.
pub fn parafac(cluster: &Cluster, logs: &DynTensor) -> NwayParafacResult {
    nway_parafac_als(cluster, logs, RANK, 15, 1e-6, 11).expect("nway parafac")
}

/// N-way Tucker of the logs: core (3, 3, 3, 3), at most 6 sweeps.
pub fn tucker(cluster: &Cluster, logs: &DynTensor) -> NwayTuckerResult {
    nway_tucker_als(cluster, logs, &[3, 3, 3, 3], 6, 1e-6, 12).expect("nway tucker")
}

/// The share of concept `r`'s hour profile that falls at night (hours
/// 1..4): the backup-job concept concentrates there.
pub fn night_share(hour_factor: &Mat, r: usize) -> f64 {
    let night: f64 = (1..4).map(|h| hour_factor.get(h, r).abs()).sum();
    let total: f64 = (0..N_HOUR as usize)
        .map(|h| hour_factor.get(h, r).abs())
        .sum();
    night / total.max(1e-12)
}

/// Whether every factor has orthonormal columns.
pub fn orthonormal(factors: &[Mat]) -> bool {
    factors
        .iter()
        .all(|f| f.gram().approx_eq(&Mat::identity(f.cols()), 1e-6))
}

fn main() {
    let logs = connection_logs();
    println!(
        "4-way connection log tensor {:?}: {} nonzeros\n",
        logs.dims(),
        logs.nnz()
    );

    let cluster = Cluster::new(ClusterConfig::with_machines(8));

    // ---- N-way PARAFAC --------------------------------------------------
    let cp = parafac(&cluster, &logs);
    println!(
        "N-way PARAFAC rank {RANK}: fit = {:.3}",
        cp.fits.last().expect("ALS records at least one fit")
    );
    println!(
        "  {} MapReduce jobs (2 per mode per sweep — the DRI framework generalizes)",
        cp.metrics.total_jobs()
    );

    // Identify the backup-job concept: the factor column whose hour profile
    // concentrates at night.
    for r in 0..RANK {
        let share = night_share(&cp.factors[3], r);
        let label = if share > 0.8 {
            "  <- the nightly backup job"
        } else {
            ""
        };
        println!("  concept {}: night-hour share {:.2}{label}", r + 1, share);
    }

    // ---- N-way Tucker ----------------------------------------------------
    let tk = tucker(&cluster, &logs);
    println!("\nN-way Tucker core (3,3,3,3): fit = {:.3}", tk.fit);
    println!("  core nonzeros: {}", tk.core.nnz());
    println!("  factors orthonormal: {}", orthonormal(&tk.factors));
}
