//! The order-4 end-to-end run: `examples/four_way_logs.rs`, the paper's
//! opening example, through N-way PARAFAC and N-way Tucker — the one run
//! above N = 3 of the `als` loops and the `ops` kernels outside
//! `crates/core/tests/nway_properties.rs`. Asserts what the example prints.

#![allow(clippy::unwrap_used, reason = "test code: unwrap is the assertion")]

#[path = "../examples/four_way_logs.rs"]
#[allow(
    dead_code,
    reason = "the example's `main` prints what this test asserts"
)]
mod four_way_logs;

use four_way_logs::{connection_logs, night_share, orthonormal, parafac, tucker, RANK};
use haten2::prelude::*;

#[test]
fn four_way_logs_finds_the_nightly_backup_job() {
    let logs = connection_logs();
    assert_eq!(logs.dims(), [60, 60, 32, 24]);
    assert_eq!(logs.nnz(), 1490);
    let cluster = Cluster::new(ClusterConfig::with_machines(8));

    let cp = parafac(&cluster, &logs);
    // Two jobs per mode per sweep: 4 modes, 6 sweeps.
    assert_eq!(cp.iterations, 6);
    assert_eq!(cp.metrics.total_jobs(), 2 * 4 * 6);
    assert_eq!(format!("{:.3}", cp.fits.last().unwrap()), "0.954");
    let shares: Vec<f64> = (0..RANK).map(|r| night_share(&cp.factors[3], r)).collect();
    let night = shares.iter().filter(|&&share| share > 0.8).count();
    assert_eq!(night, 2, "night-hour shares {shares:?}");

    let tk = tucker(&cluster, &logs);
    assert_eq!(format!("{:.3}", tk.fit), "0.954");
    assert_eq!(tk.core.nnz(), 81);
    assert!(orthonormal(&tk.factors));
}
