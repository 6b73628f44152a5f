//! FNV-1a 64-bit checksums.
//!
//! Every manifest entry, every block directory and every stored block
//! carries an FNV-1a digest. FNV is not cryptographic — the threat model
//! is torn writes and bit rot, not an adversary — and it is the same hash
//! family the engine's shuffle partitioner already standardizes on, so the
//! workspace has exactly one hash story. Frames and directories are small
//! and use the textbook serial form ([`fnv1a64`]); blocks are the bulk of
//! every byte read and use the same step on eight interleaved lanes
//! ([`fnv1a64_lanes`]).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit digest of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Independent FNV-1a chains in [`fnv1a64_lanes`].
const LANES: usize = 8;

/// FNV-1a of `bytes` on eight interleaved lanes: byte `i` goes through the
/// FNV-1a step of lane `i % 8`, and the eight lane states (seeded apart, so
/// equal lanes cannot cancel) plus the ragged tail are folded by one more
/// FNV-1a chain.
///
/// Serial FNV-1a is one multiply *latency* per byte; eight chains that do
/// not depend on each other are one multiply *issue* per byte, ~4× the
/// throughput on the same core, which is what a reload — every stored byte
/// checksummed before it is decoded — is bounded by. The guarantee that
/// matters is kept: every step is a bijection of its chain's state, so any
/// change confined to one byte changes the digest.
#[must_use]
pub fn fnv1a64_lanes(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; LANES];
    for (seed, lane) in lanes.iter_mut().enumerate() {
        *lane = (FNV_OFFSET ^ seed as u64).wrapping_mul(FNV_PRIME);
    }
    let mut stripes = bytes.chunks_exact(LANES);
    for stripe in &mut stripes {
        for (lane, &b) in lanes.iter_mut().zip(stripe) {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = FNV_OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in stripes.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn sensitive_to_single_bit() {
        let a = fnv1a64(&[0u8; 64]);
        let mut flipped = [0u8; 64];
        flipped[63] = 1;
        assert_ne!(a, fnv1a64(&flipped));
    }

    #[test]
    fn lanes_see_every_byte_position_and_length() {
        // 0..=70 bytes covers empty, tail-only, whole stripes and both.
        let data: Vec<u8> = (0..70u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=data.len() {
            assert!(seen.insert(fnv1a64_lanes(&data[..len])), "length {len}");
        }
        let whole = fnv1a64_lanes(&data);
        for at in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(fnv1a64_lanes(&flipped), whole, "byte {at} bit {bit}");
            }
        }
        // Swapping two bytes within a lane, or across lanes, is seen too.
        for (a, b) in [(0, 8), (3, 4), (8, 64)] {
            let mut swapped = data.clone();
            swapped.swap(a, b);
            assert_ne!(fnv1a64_lanes(&swapped), whole, "swap {a}<->{b}");
        }
        // A fixed value, so the on-disk meaning cannot drift unnoticed.
        assert_eq!(fnv1a64_lanes(b""), 0xb66b_843a_23c9_b1d5);
    }
}
