//! Typed record serialization for the durable DFS backend.
//!
//! The block store speaks bytes; the engine speaks typed record vectors.
//! [`Persist`] bridges them: a stable little-endian wire encoding per
//! record type plus a *type tag* — a human-readable name recorded in the
//! store's manifest and checked on every read, so a dataset written before
//! a process restart can never be silently decoded as the wrong type
//! (the durable analogue of the in-memory `Any::downcast` guard).
//!
//! Encodings follow the same Hadoop-writable conventions as
//! [`crate::size::EstimateSize`]: fixed-width little-endian for numeric
//! scalars, `u32` length prefixes for strings and vectors, one presence
//! byte for options. A `get::<T>` call site always knows `T`, so decoding
//! needs no registry — the manifest's tag is compared against
//! `T::type_tag()` and the bytes are replayed through `T::read_record`.
//!
//! Numeric scalars and tuples of them have one wire width
//! ([`Persist::WIDTH`]); a payload of those is parsed in one pass
//! ([`parse_records`]): its length is checked against the record count
//! once, and each `WIDTH`-byte chunk is read by [`Persist::read_fixed`]
//! without a cursor.

/// A record type that can round-trip through the durable block store.
pub trait Persist: Sized {
    /// Stable, human-readable name of the wire encoding (e.g.
    /// `"((u64,u64,u64,u64),f64)"`). Recorded in the manifest at write
    /// time; a mismatch on read is treated exactly like a wrong-type
    /// downcast in memory mode.
    fn type_tag() -> String;

    /// Append this record's wire encoding to `out`.
    fn write_record(&self, out: &mut Vec<u8>);

    /// Decode one record starting at `*pos`, advancing `*pos` past it.
    /// `None` on truncated or malformed input.
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self>;

    /// Wire bytes of every record of this type, when that is one nonzero
    /// constant (`None` for variable-width encodings, for `bool`, whose
    /// byte has invalid values, and for zero-width types).
    const WIDTH: Option<usize> = None;

    /// Decode one record from exactly its [`Persist::WIDTH`] bytes. `None`
    /// on malformed input or a slice of any other length. Types with a
    /// `WIDTH` override this; the default replays [`Persist::read_record`].
    fn read_fixed(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0;
        let record = Self::read_record(bytes, &mut pos)?;
        (pos == bytes.len()).then_some(record)
    }
}

/// The sum of `widths` when every one is known, for tuple widths.
const fn sum_widths(widths: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < widths.len() {
        match widths[i] {
            Some(width) => total += width,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

/// Encode a record slice into one contiguous byte payload.
#[must_use]
pub fn encode_records<T: Persist>(records: &[T]) -> Vec<u8> {
    // Exact for the fixed-width numeric tuples this workload is made of
    // (their wire form is as wide as they are in memory, padding aside).
    let mut out = Vec::with_capacity(std::mem::size_of_val(records));
    for r in records {
        r.write_record(&mut out);
    }
    out
}

/// Decode a payload produced by [`encode_records`]. Fails on truncation,
/// malformed records, or trailing bytes.
pub fn decode_records<T: Persist>(bytes: &[u8]) -> Result<Vec<T>, String> {
    // Exact for fixed-width tuples, and never a reservation larger than
    // the payload itself, so a corrupt payload cannot inflate it.
    let width = T::WIDTH.unwrap_or(std::mem::size_of::<T>());
    let mut out = Vec::with_capacity(bytes.len() / width.max(1));
    parse_records(bytes, None, |record| out.push(record))?;
    Ok(out)
}

/// Parse `raw` into records handed to `push` in order: exactly `records`
/// of them when the count is known (a dataset block's directory row),
/// otherwise as many as the payload holds. Fails on a malformed record,
/// on bytes left over, and — before any record is parsed — on a
/// fixed-width payload whose length is not its count times
/// [`Persist::WIDTH`].
pub fn parse_records<T: Persist>(
    raw: &[u8],
    records: Option<u64>,
    mut push: impl FnMut(T),
) -> Result<(), String> {
    if let Some(width) = T::WIDTH.filter(|&w| w > 0) {
        let whole = raw.len().is_multiple_of(width);
        if !whole || records.is_some_and(|n| n != (raw.len() / width) as u64) {
            return Err(format!(
                "{} bytes are not {} {} records of {width} bytes",
                raw.len(),
                records.map_or_else(|| "whole".to_string(), |n| n.to_string()),
                T::type_tag()
            ));
        }
        for (i, chunk) in raw.chunks_exact(width).enumerate() {
            let record = T::read_fixed(chunk).ok_or_else(|| {
                format!("malformed {} record at byte {}", T::type_tag(), i * width)
            })?;
            push(record);
        }
        return Ok(());
    }
    let mut pos = 0usize;
    let mut parsed = 0u64;
    while records.map_or(pos < raw.len(), |n| parsed < n) {
        let before = pos;
        let record = T::read_record(raw, &mut pos)
            .ok_or_else(|| format!("malformed {} record at byte {before}", T::type_tag()))?;
        push(record);
        parsed += 1;
        if pos == before && records.is_none() {
            // Zero-width records ((), nested units) carry no bytes; a
            // payload for them must be empty or we would loop forever.
            return Err(format!(
                "zero-width record type {} with non-empty payload",
                T::type_tag()
            ));
        }
    }
    if pos != raw.len() {
        return Err(format!(
            "{} bytes past {parsed} {} records",
            raw.len() - pos,
            T::type_tag()
        ));
    }
    Ok(())
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let out = bytes.get(*pos..pos.checked_add(n)?)?;
    *pos += n;
    Some(out)
}

macro_rules! persist_numeric {
    ($($t:ty),* $(,)?) => {
        $(impl Persist for $t {
            fn type_tag() -> String {
                stringify!($t).to_string()
            }
            fn write_record(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
                Self::read_fixed(take(bytes, pos, std::mem::size_of::<$t>())?)
            }
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$t>());
            #[inline]
            fn read_fixed(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        })*
    };
}

persist_numeric!(u8, i8, u16, i16, u32, i32, f32, u64, i64, f64);

// usize/isize travel as 8-byte values so payloads are portable across
// host widths (the store may be reopened by a differently built binary).
impl Persist for usize {
    fn type_tag() -> String {
        "usize".to_string()
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        Self::read_fixed(take(bytes, pos, 8)?)
    }
    const WIDTH: Option<usize> = Some(8);
    fn read_fixed(bytes: &[u8]) -> Option<Self> {
        usize::try_from(u64::from_le_bytes(bytes.try_into().ok()?)).ok()
    }
}

impl Persist for isize {
    fn type_tag() -> String {
        "isize".to_string()
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        Self::read_fixed(take(bytes, pos, 8)?)
    }
    const WIDTH: Option<usize> = Some(8);
    fn read_fixed(bytes: &[u8]) -> Option<Self> {
        isize::try_from(i64::from_le_bytes(bytes.try_into().ok()?)).ok()
    }
}

impl Persist for bool {
    fn type_tag() -> String {
        "bool".to_string()
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        match take(bytes, pos, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Persist for () {
    fn type_tag() -> String {
        "()".to_string()
    }
    fn write_record(&self, _out: &mut Vec<u8>) {}
    fn read_record(_bytes: &[u8], _pos: &mut usize) -> Option<Self> {
        Some(())
    }
}

impl Persist for String {
    fn type_tag() -> String {
        "string".to_string()
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::try_from(self.len()).unwrap_or(u32::MAX).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u32::read_record(bytes, pos)? as usize;
        let raw = take(bytes, pos, len)?;
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn type_tag() -> String {
        format!("option<{}>", T::type_tag())
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write_record(out);
            }
        }
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        match take(bytes, pos, 1)?[0] {
            0 => Some(None),
            1 => Some(Some(T::read_record(bytes, pos)?)),
            _ => None,
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn type_tag() -> String {
        format!("vec<{}>", T::type_tag())
    }
    fn write_record(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&u32::try_from(self.len()).unwrap_or(u32::MAX).to_le_bytes());
        for v in self {
            v.write_record(out);
        }
    }
    fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u32::read_record(bytes, pos)? as usize;
        // Guard against a corrupt length claiming more records than bytes
        // remain (each non-unit record is at least one byte wide).
        if len > bytes.len().saturating_sub(*pos) && std::mem::size_of::<T>() > 0 {
            return None;
        }
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::read_record(bytes, pos)?);
        }
        Some(out)
    }
}

macro_rules! persist_tuple {
    ($($name:ident),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn type_tag() -> String {
                let parts = [$($name::type_tag()),+];
                format!("({})", parts.join(","))
            }
            #[allow(non_snake_case)]
            fn write_record(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.write_record(out);)+
            }
            #[allow(non_snake_case)]
            fn read_record(bytes: &[u8], pos: &mut usize) -> Option<Self> {
                $(let $name = $name::read_record(bytes, pos)?;)+
                Some(($($name,)+))
            }
            const WIDTH: Option<usize> = sum_widths(&[$($name::WIDTH),+]);
            #[allow(non_snake_case)]
            fn read_fixed(bytes: &[u8]) -> Option<Self> {
                let mut at = 0;
                $(let $name = {
                    let width = $name::WIDTH?;
                    at += width;
                    $name::read_fixed(bytes.get(at - width..at)?)?
                };)+
                (at == bytes.len()).then_some(($($name,)+))
            }
        }
    };
}

persist_tuple!(A);
persist_tuple!(A, B);
persist_tuple!(A, B, C);
persist_tuple!(A, B, C, D);
persist_tuple!(A, B, C, D, E);
persist_tuple!(A, B, C, D, E, F);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug + Clone>(records: Vec<T>) {
        let bytes = encode_records(&records);
        assert_eq!(decode_records::<T>(&bytes).unwrap(), records);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(vec![0u8, 1, 255]);
        roundtrip(vec![-5i64, 0, i64::MAX]);
        roundtrip(vec![1.5f64, -0.0, f64::INFINITY]);
        roundtrip(vec![3usize, 0, 1 << 40]);
        roundtrip(vec![true, false]);
        roundtrip::<()>(vec![]);
    }

    #[test]
    fn tensor_record_shape_roundtrips() {
        // The canonical HaTen2 record: ((i,j,k,q), value).
        roundtrip(vec![
            ((1u64, 2u64, 3u64, 0u64), 1.5f64),
            ((9, 8, 7, 6), -2.25),
        ]);
        roundtrip(vec![(0u64, (1u64, 2.0f64)), (1, (3, 4.0))]);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec!["".to_string(), "héllo".to_string()]);
        roundtrip(vec![Some(1u64), None, Some(2)]);
        roundtrip(vec![vec![1u64, 2], vec![], vec![3]]);
    }

    #[test]
    fn bit_exact_floats() {
        // NaN payloads and signed zeros survive byte-exactly.
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let bytes = encode_records(&[nan, -0.0f64]);
        let back = decode_records::<f64>(&bytes).unwrap();
        assert_eq!(back[0].to_bits(), nan.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn type_tags_compose() {
        assert_eq!(
            <((u64, u64, u64, u64), f64)>::type_tag(),
            "((u64,u64,u64,u64),f64)"
        );
        assert_eq!(<Option<(u32, bool)>>::type_tag(), "option<(u32,bool)>");
        assert_eq!(<Vec<f64>>::type_tag(), "vec<f64>");
    }

    #[test]
    fn truncation_and_trailing_bytes_fail() {
        let bytes = encode_records(&[(1u64, 2.0f64)]);
        assert!(decode_records::<(u64, f64)>(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0xff);
        assert!(decode_records::<(u64, f64)>(&extra).is_err());
    }

    #[test]
    fn zero_width_records_reject_nonempty_payloads() {
        assert!(decode_records::<()>(&[]).unwrap().is_empty());
        assert!(decode_records::<()>(&[0u8]).is_err());
    }

    /// `WIDTH` is each record's encoded length, `read_fixed` of those
    /// bytes agrees with `read_record`, and a slice one byte short or long
    /// is refused.
    fn fixed<T: Persist + PartialEq + std::fmt::Debug>(records: &[T], width: usize) {
        assert_eq!(T::WIDTH, Some(width), "{}", T::type_tag());
        for r in records {
            let mut bytes = Vec::new();
            r.write_record(&mut bytes);
            assert_eq!(bytes.len(), width, "{r:?}");
            let mut pos = 0;
            let replayed = T::read_record(&bytes, &mut pos).unwrap();
            assert_eq!(T::read_fixed(&bytes).as_ref(), Some(&replayed));
            assert_eq!(&replayed, r);
            assert!(T::read_fixed(&bytes[..width - 1]).is_none());
            bytes.push(0);
            assert!(T::read_fixed(&bytes).is_none());
        }
        let bytes = encode_records(records);
        assert_eq!(decode_records::<T>(&bytes).unwrap(), records);
    }

    #[test]
    fn fixed_width_records_read_whole() {
        fixed(&[0u8, 7, 255], 1);
        fixed(&[-3i8], 1);
        fixed(&[0u16, 513], 2);
        fixed(&[-2i16], 2);
        fixed(&[u32::MAX], 4);
        fixed(&[i32::MIN], 4);
        fixed(&[1.5f32, -0.0], 4);
        fixed(&[u64::MAX, 0], 8);
        fixed(&[i64::MIN], 8);
        fixed(&[f64::NEG_INFINITY, 2.5], 8);
        fixed(&[usize::MAX, 3], 8);
        fixed(&[isize::MIN, -1], 8);
        fixed(&[(3u64,)], 8);
        fixed(&[(1u8, 2u16, 3u32)], 7);
        fixed(&[((1u64, 2u64, 3u64, 4u64), 0.5f64)], 40);
        fixed(&[(9u64, (8u64, -1.0f64))], 24);
        fixed(&[(1u8, 2i8, 3u16, 4i16, 5u32, 6.0f64)], 18);
        fixed(&[((1u32, (2u8,)), ((3u64, 4.0f32),))], 17);
    }

    #[test]
    fn variable_width_records_keep_the_cursor_loop() {
        assert_eq!(String::WIDTH, None);
        assert_eq!(<Vec<u64>>::WIDTH, None);
        assert_eq!(<Option<u64>>::WIDTH, None);
        assert_eq!(bool::WIDTH, None);
        assert_eq!(<()>::WIDTH, None);
        // One variable-width field makes the whole tuple variable.
        assert_eq!(<(u64, bool)>::WIDTH, None);
        assert_eq!(<((u64, u64), Option<f64>)>::WIDTH, None);
        assert_eq!(<(u64, ())>::WIDTH, None);
        roundtrip(vec![(1u64, true), (2, false)]);
        // A bool's byte has invalid values; the loop refuses them.
        assert!(decode_records::<bool>(&[2]).is_err());
    }

    #[test]
    fn parse_records_checks_the_declared_count() {
        let bytes = encode_records(&[(1u64, 2.0f64), (3, 4.0)]);
        let mut out = Vec::new();
        parse_records::<(u64, f64)>(&bytes, Some(2), |r| out.push(r)).unwrap();
        assert_eq!(out, [(1, 2.0), (3, 4.0)]);
        // Fixed width: a wrong count fails before any record is parsed.
        for n in [1, 3] {
            let mut pushed = 0;
            assert!(parse_records::<(u64, f64)>(&bytes, Some(n), |_| pushed += 1).is_err());
            assert_eq!(pushed, 0);
        }
        // Variable width: exactly the count is parsed, then the rest is
        // trailing bytes, or the payload runs out.
        let strings = encode_records(&["a".to_string(), "bc".to_string()]);
        let mut pushed = 0;
        assert!(parse_records::<String>(&strings, Some(1), |_| pushed += 1).is_err());
        assert_eq!(pushed, 1);
        assert!(parse_records::<String>(&strings, Some(3), |_| ()).is_err());
        assert!(parse_records::<()>(&[], Some(4), |()| ()).is_ok());
    }

    #[test]
    fn corrupt_vec_length_fails_cleanly() {
        let mut bytes = encode_records(&[vec![1u64, 2]]);
        // Claim 2^31 elements.
        bytes[0..4].copy_from_slice(&(1u32 << 31).to_le_bytes());
        assert!(decode_records::<Vec<u64>>(&bytes).is_err());
    }
}
