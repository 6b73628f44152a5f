//! Per-block payload compression.
//!
//! Sparse tensor records are index-heavy: four `u64` slots per entry whose
//! high bytes are overwhelmingly zero at any realistic dimensionality, plus
//! `f64` values. A byte-level zero-run codec therefore removes most of the
//! stored volume for a few cycles per byte — the same observation that
//! makes the CANDELINC-style compression path in `haten2-core` pay off at
//! the algebra level: tensors in this workload are *compressible*, and the
//! cheap exploit is usually the right one.
//!
//! The encoded stream is a sequence of chunks, each
//!
//! ```text
//! [varint literal_len] [literal bytes…] [varint zero_run]
//! ```
//!
//! and decoding is a strict inverse: the decoder consumes chunks until the
//! input is exhausted and fails loudly on any truncation or overrun. The
//! codec is chosen per block and recorded in the dataset's block directory
//! (see [`crate::block`]), so stores with different settings interoperate
//! and a block that does not shrink is stored `Raw` (see [`encode_auto`]).

use std::borrow::Cow;
use std::io;

/// How a stored payload is encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Bytes stored verbatim.
    #[default]
    Raw,
    /// Zero-run-length encoding (chunked literals + zero runs).
    ZeroRle,
}

impl Codec {
    /// Stable on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::ZeroRle => 1,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> io::Result<Codec> {
        match tag {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::ZeroRle),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown codec tag {other}"),
            )),
        }
    }
}

/// Minimum zero-run length worth breaking a literal for: a chunk boundary
/// costs about two varint bytes, so runs shorter than this are cheaper
/// left inside the literal.
const MIN_ZERO_RUN: usize = 4;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated varint in compressed block",
            ));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64 in compressed block",
            ));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zero-run-length encode `raw`.
#[must_use]
pub fn zero_rle_encode(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    let mut i = 0usize;
    while i < raw.len() {
        // Extend the literal until a zero run of at least MIN_ZERO_RUN (or
        // the end of input).
        let lit_start = i;
        let mut lit_end = i;
        while lit_end < raw.len() {
            if raw[lit_end] == 0 {
                let mut z = lit_end;
                while z < raw.len() && raw[z] == 0 {
                    z += 1;
                }
                if z - lit_end >= MIN_ZERO_RUN || z == raw.len() {
                    break;
                }
                lit_end = z;
            } else {
                lit_end += 1;
            }
        }
        let mut zero_end = lit_end;
        while zero_end < raw.len() && raw[zero_end] == 0 {
            zero_end += 1;
        }
        push_varint(&mut out, (lit_end - lit_start) as u64);
        out.extend_from_slice(&raw[lit_start..lit_end]);
        push_varint(&mut out, (zero_end - lit_end) as u64);
        i = zero_end;
    }
    out
}

/// Decode a zero-run-length stream; `raw_len` is the expected decoded
/// length (known from the block directory) and any mismatch is an error.
pub fn zero_rle_decode(encoded: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    zero_rle_decode_into(encoded, raw_len, &mut out)?;
    Ok(out)
}

/// Widest literal or zero run the decoder writes as one fixed-width store.
const WIDE: usize = 16;

/// [`zero_rle_decode`] into a caller-owned buffer, so a reader decoding
/// block after block reuses one allocation. `out` is overwritten and left
/// exactly `raw_len` long on success.
pub fn zero_rle_decode_into(encoded: &[u8], raw_len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    // Every byte below `raw_len` is written by the loop, so what a reused
    // buffer still holds from the last block need not be cleared.
    out.truncate(raw_len);
    out.resize(raw_len, 0);
    let overrun = || {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "compressed block decodes past its declared length",
        )
    };
    let mut pos = 0usize;
    let mut at = 0usize;
    while pos < encoded.len() {
        // Index-heavy records decode to millions of literals and runs a
        // few bytes long. One that fits in `WIDE` is written as a whole
        // `WIDE`-byte store when source and target have the room: the
        // bytes past its end belong to later chunks, which overwrite them
        // (the stream must cover `raw_len` exactly, checked below).
        let lit = usize::try_from(read_varint(encoded, &mut pos)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "literal length overflow"))?;
        if lit <= WIDE && at + WIDE <= raw_len && pos + WIDE <= encoded.len() {
            out[at..at + WIDE].copy_from_slice(&encoded[pos..pos + WIDE]);
        } else {
            let literal = pos
                .checked_add(lit)
                .and_then(|end| encoded.get(pos..end))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated literal in compressed block",
                    )
                })?;
            out.get_mut(at..at + lit)
                .ok_or_else(overrun)?
                .copy_from_slice(literal);
        }
        pos += lit;
        at += lit;
        let zeros = usize::try_from(read_varint(encoded, &mut pos)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "zero run overflow"))?;
        let end = at
            .checked_add(zeros)
            .filter(|&end| end <= raw_len)
            .ok_or_else(overrun)?;
        if zeros <= WIDE && at + WIDE <= raw_len {
            out[at..at + WIDE].fill(0);
        } else {
            out[at..end].fill(0);
        }
        at = end;
    }
    if at != raw_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("compressed block decoded to {at} bytes, directory declares {raw_len}"),
        ));
    }
    Ok(())
}

/// Encode `raw` with `preferred`, falling back to [`Codec::Raw`] when the
/// encoding does not shrink the payload. Returns the codec actually used
/// (recorded in the block directory) and the stored bytes — the caller's
/// own bytes, borrowed, when the block is stored raw.
#[must_use]
pub fn encode_auto(preferred: Codec, raw: &[u8]) -> (Codec, Cow<'_, [u8]>) {
    if preferred == Codec::ZeroRle {
        let enc = zero_rle_encode(raw);
        if enc.len() < raw.len() {
            return (Codec::ZeroRle, Cow::Owned(enc));
        }
    }
    (Codec::Raw, Cow::Borrowed(raw))
}

/// Decode stored bytes with the directory-recorded codec. A raw block is
/// returned as is (no copy); a compressed one is decoded into `scratch`.
pub fn decode<'a>(
    codec: Codec,
    stored: &'a [u8],
    raw_len: usize,
    scratch: &'a mut Vec<u8>,
) -> io::Result<&'a [u8]> {
    match codec {
        Codec::Raw => {
            if stored.len() != raw_len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "raw block is {} bytes, directory declares {raw_len}",
                        stored.len()
                    ),
                ));
            }
            Ok(stored)
        }
        Codec::ZeroRle => {
            zero_rle_decode_into(stored, raw_len, scratch)?;
            Ok(scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(raw: &[u8]) {
        let enc = zero_rle_encode(raw);
        let dec = zero_rle_decode(&enc, raw.len()).unwrap();
        assert_eq!(dec, raw);
        // A reused buffer, longer or shorter than the block and full of
        // another block's bytes, decodes to the same thing.
        for stale in [raw.len() + 40, raw.len() / 2] {
            let mut out = vec![0xA5u8; stale];
            zero_rle_decode_into(&enc, raw.len(), &mut out).unwrap();
            assert_eq!(out, raw);
        }
    }

    #[test]
    fn roundtrip_edges() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[1]);
        roundtrip(&[0; 1000]);
        roundtrip(&[7; 1000]);
        roundtrip(&[0, 0, 0, 1]);
        roundtrip(&[1, 0, 0, 0]);
        roundtrip(&[0, 1, 0, 2, 0, 3]);
    }

    #[test]
    fn roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for _ in 0..200 {
            let len = rng.gen_range(0..512);
            let raw: Vec<u8> = (0..len)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        rng.gen_range(1..=255u8)
                    } else {
                        0
                    }
                })
                .collect();
            roundtrip(&raw);
        }
    }

    #[test]
    fn roundtrip_around_the_wide_store_width() {
        // Literals and runs of every length near `WIDE`, at the start, in
        // the middle and flush against the end of the block.
        for lit in [1, WIDE - 1, WIDE, WIDE + 1, 3 * WIDE] {
            for run in [MIN_ZERO_RUN, WIDE - 1, WIDE, WIDE + 1, 3 * WIDE] {
                let mut raw = Vec::new();
                for rep in 0..4 {
                    raw.extend(std::iter::repeat_n(0x11 * (rep + 1) as u8, lit));
                    raw.extend(std::iter::repeat_n(0u8, run));
                }
                roundtrip(&raw);
                raw.push(7); // ends on a one-byte literal
                roundtrip(&raw);
            }
        }
    }

    #[test]
    fn index_heavy_payloads_shrink() {
        // A stand-in for ((u64,u64,u64,u64), f64) tensor records with small
        // indices: most bytes are zero.
        let mut raw = Vec::new();
        for i in 0..1000u64 {
            raw.extend_from_slice(&i.to_le_bytes());
            raw.extend_from_slice(&(i % 37).to_le_bytes());
            raw.extend_from_slice(&(i % 11).to_le_bytes());
            raw.extend_from_slice(&0u64.to_le_bytes());
            raw.extend_from_slice(&1.5f64.to_le_bytes());
        }
        let enc = zero_rle_encode(&raw);
        assert!(
            enc.len() * 2 < raw.len(),
            "expected >2x shrink, got {} -> {}",
            raw.len(),
            enc.len()
        );
        assert_eq!(zero_rle_decode(&enc, raw.len()).unwrap(), raw);
    }

    #[test]
    fn incompressible_payload_falls_back_to_raw() {
        let raw: Vec<u8> = (0..256).map(|i| (i % 255 + 1) as u8).collect();
        let (codec, stored) = encode_auto(Codec::ZeroRle, &raw);
        assert_eq!(codec, Codec::Raw);
        assert!(matches!(stored, Cow::Borrowed(b) if b == raw));
    }

    #[test]
    fn truncated_stream_is_detected() {
        let raw = vec![1u8, 2, 3, 0, 0, 0, 0, 0, 9];
        let enc = zero_rle_encode(&raw);
        for cut in 0..enc.len() {
            assert!(
                zero_rle_decode(&enc[..cut], raw.len()).is_err(),
                "cut at {cut} silently decoded"
            );
        }
    }

    #[test]
    fn wrong_declared_length_is_detected() {
        let raw = vec![5u8; 32];
        let enc = zero_rle_encode(&raw);
        assert!(zero_rle_decode(&enc, 31).is_err());
        assert!(zero_rle_decode(&enc, 33).is_err());
        assert!(decode(Codec::Raw, &raw, 31, &mut Vec::new()).is_err());
    }

    #[test]
    fn codec_tags_roundtrip() {
        for c in [Codec::Raw, Codec::ZeroRle] {
            assert_eq!(Codec::from_tag(c.tag()).unwrap(), c);
        }
        assert!(Codec::from_tag(9).is_err());
    }
}
