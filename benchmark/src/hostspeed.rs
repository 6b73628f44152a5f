//! The host-speed yardstick: a fixed piece of work timed next to every
//! sample, so that a run can say how fast the host was while it measured.
//!
//! The reference host's speed moves in phases of minutes without any CPU
//! being stolen: 36 back-to-back identical runs of `parafac-dnn-smalljobs`
//! read mean sweeps from 0.176 s to 0.261 s, and a ten-run series that
//! straddles such a change has a spread as wide as the change. The
//! yardstick moves with the host: over twelve runs across a phase change
//! the raw sweep medians of three workloads spread (interquartile ÷
//! median) 0.18 / 0.07 / 0.07, and divided by the yardstick 0.06 / 0.04 /
//! 0.04.

use crate::procstat::timed_with_steal;
use crate::stats::at_zero;
use std::hint::black_box;

/// What one yardstick run takes on the reference host in its fast phase.
/// It fixes the unit of the host-time metrics — seconds *at this host
/// speed* — and may never change: every committed number depends on it.
pub const NOMINAL_S: f64 = 0.008;

const ELEMENTS: usize = 200_000;
const PASSES: usize = 20;

/// One run of the fixed work: fill a buffer with fixed pseudo-random keys
/// (xorshift64), sort it, then [`PASSES`] passes of multiply-adds over the
/// keys as floats. Both buffers (1.6 MB each) are allocated here and freed
/// on return, so the page faults the workloads' own buffers pay are part
/// of the yardstick and none of it stays in the process's peak RSS.
/// Returns a checksum so that the work cannot be optimised away.
pub fn yardstick() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut keys: Vec<u64> = (0..ELEMENTS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let values: Vec<f64> = keys
        .iter()
        .map(|k| (k >> 11) as f64 / (1u64 << 53) as f64)
        .collect();
    let mut acc = 0.0;
    for _ in 0..PASSES {
        for pair in black_box(&values).windows(2) {
            acc += pair[0] * pair[1] + 0.5;
        }
    }
    black_box(acc)
}

/// The host's speed over a stretch of a run, from yardstick runs taken
/// between its samples.
#[derive(Debug, Default)]
pub struct HostSpeed {
    walls: Vec<f64>,
    steals: Vec<f64>,
}

impl HostSpeed {
    /// Time one yardstick run.
    pub fn sample(&mut self) {
        let (_, wall, steal) = timed_with_steal(yardstick);
        self.walls.push(wall);
        self.steals.push(steal);
    }

    /// How much slower than nominal the host ran: the typical yardstick
    /// time, the hypervisor's theft taken out, over [`NOMINAL_S`]. A
    /// host-time sample divided by this is in seconds at nominal speed.
    pub fn slowdown(&self) -> f64 {
        at_zero(&self.steals, &self.walls) / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_yardstick_run_does_the_same_work() {
        let first = yardstick();
        assert_eq!(yardstick().to_bits(), first.to_bits());
        // Values are in [0, 1): each pass adds between 0.5 and 1.5 a pair.
        let pairs = ((ELEMENTS - 1) * PASSES) as f64;
        assert!(first > 0.5 * pairs && first < 1.5 * pairs);
    }

    #[test]
    fn slowdown_is_typical_time_over_nominal() {
        let host = HostSpeed {
            walls: vec![0.016, 0.017, 0.015, 0.9],
            steals: vec![0.0; 4],
        };
        assert!((host.slowdown() - 0.0165 / NOMINAL_S).abs() < 1e-12);
        let mut live = HostSpeed::default();
        live.sample();
        live.sample();
        assert!(live.slowdown() > 0.0);
    }
}
