//! Per-block payload compression.
//!
//! Sparse tensor records are index-heavy: four `u64` slots per entry whose
//! high bytes are overwhelmingly zero at any realistic dimensionality, plus
//! `f64` values. Suppressing those zero bytes removes most of the stored
//! volume for a few cycles per byte — the same observation that makes the
//! CANDELINC-style compression path in `haten2-core` pay off at the algebra
//! level: tensors in this workload are *compressible*, and the cheap
//! exploit is usually the right one.
//!
//! [`Codec::Words`], the default, suppresses zeros a little-endian 8-byte
//! word at a time. After a varint of the decoded length, each pair of words
//! gets one tag byte whose low and high nibbles count the first and the
//! second word's significant low bytes (0–8), and those bytes follow:
//!
//! ```text
//! [varint raw_len] ([tag] [n0 bytes of word 0] [n1 bytes of word 1])… [tail < 16 bytes, verbatim]
//! ```
//!
//! The length prefix makes a stream decode only at the length it was
//! written for: without it, a 32-byte block whose second pair happens to
//! take 15 bytes would also decode, wrongly, as 31 bytes with that pair
//! read as the tail.
//!
//! A record field is a whole word, so a small index costs its one or two
//! significant bytes, a zero slot costs nothing and an `f64` costs its
//! eight, plus half a tag byte each. On the benchmark's power-law tensor
//! records (`((u64,u64,u64,u64),f64)`, 40 bytes; `examples/reload_stages.rs`
//! of `haten2-mapreduce`) that stores 14.4 MB per 40 MB where the byte
//! zero-run codec stored 17.6 MB, and the decoder writes two whole words
//! per tag instead of a literal and a zero run per gap: 8 ms against
//! 20–30 ms for the 40 MB on one core (≈ 4.9 against ≈ 1.4 GB/s).
//!
//! [`Codec::ZeroRle`], the codec stores were written with before it, is a
//! sequence of chunks `[varint literal_len] [literal bytes…] [varint
//! zero_run]`. Nothing in the store writes it any more; it stays so that
//! existing stores read back (a block's codec is recorded in its directory
//! row), and because the benchmark's per-layer codec timer still measures
//! [`zero_rle_encode`] and [`zero_rle_decode`].
//!
//! Decoding is a strict inverse in both: a truncated stream, trailing
//! bytes, a malformed tag or varint, or a length other than the directory
//! declares is an error. The codec is chosen per block and recorded in the
//! dataset's block directory (see [`crate::block`]), so stores with
//! different settings interoperate and a block that does not shrink is
//! stored `Raw` (see [`encode_auto`]).

use std::borrow::Cow;
use std::io;

/// How a stored payload is encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Bytes stored verbatim.
    #[default]
    Raw,
    /// Zero-run-length encoding (chunked literals + zero runs); read, no
    /// longer written by the store.
    ZeroRle,
    /// Word-granular zero suppression: significant low bytes of each
    /// 8-byte word, one nibble-pair tag per two words.
    Words,
}

impl Codec {
    /// Stable on-disk tag.
    #[must_use]
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::ZeroRle => 1,
            Codec::Words => 2,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> io::Result<Codec> {
        match tag {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::ZeroRle),
            2 => Ok(Codec::Words),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown codec tag {other}"),
            )),
        }
    }

    /// The most bytes a block of `stored_len` bytes in this codec can
    /// decode to, or `None` when the codec puts no bound on it (a zero-run
    /// varint of ten bytes stands for up to 2⁶⁴ zeros). A directory row
    /// that declares more cannot be a block this codec wrote.
    #[must_use]
    pub fn max_raw_len(self, stored_len: u64) -> Option<u64> {
        match self {
            Codec::Raw => Some(stored_len),
            Codec::ZeroRle => None,
            // One tag byte stands for at most two zero words.
            Codec::Words => Some(stored_len.saturating_mul(PAIR as u64)),
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

/// Bytes of the two words one [`Codec::Words`] tag byte covers.
const PAIR: usize = 16;

/// `MASKS[n]` keeps the low `n` bytes of a word.
const MASKS: [u64; 9] = {
    let mut masks = [u64::MAX; 9];
    let mut n = 0;
    while n < 8 {
        masks[n] = (1u64 << (8 * n)) - 1;
        n += 1;
    }
    masks
};

/// Count of significant low bytes of `word`: 0 for zero, 8 for a word
/// whose top byte is set.
fn significant_bytes(word: u64) -> usize {
    (71 - word.leading_zeros() as usize) / 8
}

fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte window"))
}

/// Word-granular zero-suppression encode of `raw` (see the module doc).
#[must_use]
pub fn words_encode(raw: &[u8]) -> Vec<u8> {
    let body = raw.len() - raw.len() % PAIR;
    // Every pair is written as a tag and two whole words and the next
    // pair starts where the significant bytes end, so the buffer holds
    // the longest stream and is cut to the written length at the end.
    let mut out = Vec::with_capacity(10 + body / PAIR * (PAIR + 1) + (raw.len() - body));
    push_varint(&mut out, raw.len() as u64);
    let mut at = out.len();
    out.resize(at + body / PAIR * (PAIR + 1), 0);
    for pair in raw[..body].chunks_exact(PAIR) {
        let (w0, w1) = (word_at(pair, 0), word_at(pair, 8));
        let (n0, n1) = (significant_bytes(w0), significant_bytes(w1));
        out[at] = (n0 | (n1 << 4)) as u8;
        out[at + 1..at + 9].copy_from_slice(&w0.to_le_bytes());
        out[at + 1 + n0..at + 9 + n0].copy_from_slice(&w1.to_le_bytes());
        at += 1 + n0 + n1;
    }
    out.truncate(at);
    out.extend_from_slice(&raw[body..]);
    out
}

/// Decode a [`Codec::Words`] stream; `raw_len` is the expected decoded
/// length (known from the block directory) and any mismatch is an error.
pub fn words_decode(encoded: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    words_decode_into(encoded, raw_len, &mut out)?;
    Ok(out)
}

/// [`words_decode`] into a caller-owned buffer, so a reader decoding block
/// after block reuses one allocation. `out` is overwritten and left
/// exactly `raw_len` long on success.
pub fn words_decode_into(encoded: &[u8], raw_len: usize, out: &mut Vec<u8>) -> io::Result<()> {
    let truncated = || {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated word stream in compressed block",
        )
    };
    let mut pos = 0usize;
    let declared = read_varint(encoded, &mut pos)?;
    if declared != raw_len as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("compressed block holds {declared} bytes, directory declares {raw_len}"),
        ));
    }
    // A pair takes at least its tag byte and the tail is verbatim; checked
    // before `out` grows, so a forged length cannot make the buffer huge.
    let body = raw_len - raw_len % PAIR;
    if body / PAIR + (raw_len - body) > encoded.len() - pos {
        return Err(truncated());
    }
    // Every byte below `raw_len` is written below, so what a reused
    // buffer still holds from the last block need not be cleared.
    out.truncate(raw_len);
    out.resize(raw_len, 0);
    let (pairs, tail) = out.split_at_mut(body);
    for pair in pairs.chunks_exact_mut(PAIR) {
        let tag = *encoded.get(pos).ok_or_else(truncated)?;
        let (n0, n1) = (usize::from(tag & 0xf), usize::from(tag >> 4));
        if n0 > 8 || n1 > 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("word tag {tag:#04x} at byte {pos} counts more than 8 bytes"),
            ));
        }
        let (w0, w1) = match encoded.get(pos + 1..pos + 1 + PAIR) {
            // The common case: both words are loaded whole and masked to
            // their significant bytes (the rest belong to later pairs).
            Some(window) => (
                word_at(window, 0) & MASKS[n0],
                word_at(window, n0) & MASKS[n1],
            ),
            // Within 16 bytes of the end: load exactly what is there.
            None => {
                let mut words = [0u8; PAIR];
                let w0 = encoded.get(pos + 1..pos + 1 + n0).ok_or_else(truncated)?;
                let w1 = (encoded.get(pos + 1 + n0..pos + 1 + n0 + n1)).ok_or_else(truncated)?;
                words[..n0].copy_from_slice(w0);
                words[8..8 + n1].copy_from_slice(w1);
                (word_at(&words, 0), word_at(&words, 8))
            }
        };
        pair[..8].copy_from_slice(&w0.to_le_bytes());
        pair[8..].copy_from_slice(&w1.to_le_bytes());
        pos += 1 + n0 + n1;
    }
    let rest = encoded.get(pos..).ok_or_else(truncated)?;
    if rest.len() < tail.len() {
        return Err(truncated());
    }
    if rest.len() > tail.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "compressed block holds {} bytes past its {raw_len}",
                rest.len() - tail.len()
            ),
        ));
    }
    tail.copy_from_slice(rest);
    Ok(())
}

/// Encode `raw` with `preferred`, falling back to [`Codec::Raw`] when the
/// encoding does not shrink the payload. Returns the codec actually used
/// (recorded in the block directory) and the stored bytes — the caller's
/// own bytes, borrowed, when the block is stored raw.
#[must_use]
pub fn encode_auto(preferred: Codec, raw: &[u8]) -> (Codec, Cow<'_, [u8]>) {
    let enc = match preferred {
        Codec::Raw => None,
        Codec::ZeroRle => Some(zero_rle_encode(raw)),
        Codec::Words => Some(words_encode(raw)),
    };
    match enc {
        Some(enc) if enc.len() < raw.len() => (preferred, Cow::Owned(enc)),
        _ => (Codec::Raw, Cow::Borrowed(raw)),
    }
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
        Codec::Words => {
            words_decode_into(stored, raw_len, scratch)?;
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

    /// `len` bytes of little-endian words with 0 to 8 significant bytes
    /// each, the last word cut short when `len` is not a multiple of 8.
    fn mixed_words(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut raw = Vec::with_capacity(len + 8);
        while raw.len() < len {
            let n = rng.gen_range(0..=8usize);
            let word = if n == 0 {
                0
            } else {
                rng.gen::<u64>() & MASKS[n]
            };
            raw.extend_from_slice(&word.to_le_bytes());
        }
        raw.truncate(len);
        raw
    }

    fn words_roundtrip(raw: &[u8]) {
        let enc = words_encode(raw);
        assert_eq!(words_decode(&enc, raw.len()).unwrap(), raw);
        for stale in [raw.len() + 40, raw.len() / 2] {
            let mut out = vec![0xA5u8; stale];
            words_decode_into(&enc, raw.len(), &mut out).unwrap();
            assert_eq!(out, raw);
        }
    }

    #[test]
    fn words_roundtrip_at_every_length_to_4096() {
        let mut rng = StdRng::seed_from_u64(0x30D5);
        let raw = mixed_words(&mut rng, 4096);
        for len in 0..=4096 {
            words_roundtrip(&raw[..len]);
        }
        words_roundtrip(&[0; 4096]);
        words_roundtrip(&[0xff; 4096]);
    }

    #[test]
    fn significant_bytes_are_counted_per_word() {
        for (word, n) in [
            (0u64, 0),
            (1, 1),
            (0xff, 1),
            (0x100, 2),
            (1 << 56, 8),
            (u64::MAX, 8),
        ] {
            assert_eq!(significant_bytes(word), n, "{word:#x}");
        }
        // One tag byte, then word 0's one byte and word 1's two.
        let mut raw = 7u64.to_le_bytes().to_vec();
        raw.extend_from_slice(&0x0302u64.to_le_bytes());
        assert_eq!(words_encode(&raw), [16, 0x21, 7, 2, 3]);
    }

    #[test]
    fn tensor_records_shrink_further_as_words_than_as_zero_runs() {
        // ((i, j, k, 0), v) records with a few thousand distinct indices.
        let mut rng = StdRng::seed_from_u64(0x7E45);
        let mut raw = Vec::new();
        for _ in 0..1000 {
            for bound in [5000u64, 3000, 700, 1] {
                raw.extend_from_slice(&rng.gen_range(0..bound).to_le_bytes());
            }
            raw.extend_from_slice(&rng.gen::<f64>().to_le_bytes());
        }
        let words = words_encode(&raw);
        let zero_runs = zero_rle_encode(&raw);
        assert!(
            words.len() < zero_runs.len() && 2 * words.len() < raw.len(),
            "{} raw bytes: {} as words, {} as zero runs",
            raw.len(),
            words.len(),
            zero_runs.len()
        );
        assert_eq!(words_decode(&words, raw.len()).unwrap(), raw);
    }

    #[test]
    fn every_cut_of_a_word_stream_fails() {
        let mut rng = StdRng::seed_from_u64(0xC07);
        for len in [0, 1, 15, 16, 17, 100, 257] {
            let raw = mixed_words(&mut rng, len);
            let enc = words_encode(&raw);
            for cut in 0..enc.len() {
                assert!(
                    words_decode(&enc[..cut], raw.len()).is_err(),
                    "len {len}: cut at {cut} silently decoded"
                );
            }
        }
    }

    #[test]
    fn a_trailing_byte_after_a_word_stream_fails() {
        let mut rng = StdRng::seed_from_u64(0x7A11);
        for len in [0, 5, 16, 40, 333] {
            let mut enc = words_encode(&mixed_words(&mut rng, len));
            enc.push(0);
            assert!(words_decode(&enc, len).is_err(), "len {len}");
        }
    }

    #[test]
    fn a_nibble_above_eight_fails() {
        let raw = vec![0u8; 64];
        let enc = words_encode(&raw);
        // One length byte, then four zero tags.
        assert_eq!(enc, [64, 0, 0, 0, 0]);
        for nibble in 9..=15u8 {
            for tag in [nibble, nibble << 4] {
                let mut bad = enc.clone();
                bad[2] = tag;
                // Enough bytes follow that only the nibble can be at fault.
                bad.extend_from_slice(&[1; 32]);
                let err = words_decode(&bad, raw.len()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag:#x}");
            }
        }
    }

    #[test]
    fn a_word_stream_checks_its_declared_length() {
        let mut rng = StdRng::seed_from_u64(0x1E9);
        for len in [1, 15, 16, 17, 31, 32, 33, 4095, 4096] {
            let raw = mixed_words(&mut rng, len);
            let enc = words_encode(&raw);
            assert!(words_decode(&enc, len - 1).is_err(), "len {len} - 1");
            assert!(words_decode(&enc, len + 1).is_err(), "len {len} + 1");
        }
        assert!(words_decode(&words_encode(&[]), 1).is_err());
        // A forged length fails before the buffer grows to it.
        assert!(words_decode(&[0xff, 0xff, 0xff, 0xff, 0x0f], 0xffff_ffff).is_err());
    }

    #[test]
    fn incompressible_words_fall_back_to_raw() {
        let raw: Vec<u8> = (0..256).map(|i| (i % 255 + 1) as u8).collect();
        let (codec, stored) = encode_auto(Codec::Words, &raw);
        assert_eq!(codec, Codec::Raw);
        assert!(matches!(stored, Cow::Borrowed(b) if b == raw));
        let (codec, _) = encode_auto(Codec::Words, &[0; 256]);
        assert_eq!(codec, Codec::Words);
    }

    #[test]
    fn the_expansion_bound_holds_for_the_densest_word_stream() {
        let raw = vec![0u8; 4096];
        let enc = words_encode(&raw);
        let max = Codec::Words.max_raw_len(enc.len() as u64).unwrap();
        assert!(raw.len() as u64 <= max);
        assert_eq!(Codec::Raw.max_raw_len(7), Some(7));
        assert_eq!(Codec::ZeroRle.max_raw_len(7), None);
    }

    #[test]
    fn codec_tags_roundtrip() {
        for c in [Codec::Raw, Codec::ZeroRle, Codec::Words] {
            assert_eq!(Codec::from_tag(c.tag()).unwrap(), c);
        }
        assert!(Codec::from_tag(9).is_err());
    }
}
