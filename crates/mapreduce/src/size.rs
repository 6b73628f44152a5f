//! Record size estimation.
//!
//! The paper's cost analysis (Tables III/IV) is stated in records and bytes
//! of intermediate data. Rather than serializing every record (pure
//! overhead in a simulation), each record type reports an estimated wire
//! size through [`EstimateSize`]. Estimates follow Hadoop's writable
//! encodings: 8 bytes per long/double, length-prefixed byte strings.
//!
//! Types whose wire size does not depend on the value (primitives, tuples
//! of primitives — the dominant record shapes in this workload) advertise
//! it through [`EstimateSize::FIXED_BYTES`], which lets the engine size a
//! whole batch of records in O(1) via [`slice_est_bytes`] instead of
//! walking every record.
//!
//! The same trait carries the one other type-level fact the shuffle uses
//! about a key: [`EstimateSize::ORDER_IMAGE`], an order-preserving map
//! into `u64` that lets a map task sort its bucket by counting instead of
//! by comparison ([`crate::arena`]). The unsigned integers have
//! one; every other type keeps the "no image" default.

/// Estimated serialized size of a record component, in bytes.
pub trait EstimateSize {
    /// `Some(n)` when every value of this type estimates to exactly `n`
    /// bytes, enabling O(1) batch sizing; `None` when the size is
    /// value-dependent. Implementations must keep this consistent with
    /// [`EstimateSize::est_bytes`].
    const FIXED_BYTES: Option<usize> = None;

    /// `Some(image)` when `image` maps this type into `u64` strictly
    /// order-preservingly — `a < b` exactly when `image(a) < image(b)`, and
    /// `a == b` exactly when the images are equal — so a bucket of such
    /// keys sorts by its integer images; `None` (the default) when the
    /// type has no such image and sorts by comparison. Implementations must
    /// keep this consistent with the type's `Ord`.
    const ORDER_IMAGE: Option<fn(&Self) -> u64> = None;

    /// Estimated wire size in bytes.
    fn est_bytes(&self) -> usize;
}

/// Sum of `est_bytes` over a slice: O(1) for fixed-size record types,
/// one pass otherwise.
#[inline]
pub fn slice_est_bytes<T: EstimateSize>(items: &[T]) -> usize {
    match T::FIXED_BYTES {
        Some(n) => n * items.len(),
        None => items.iter().map(EstimateSize::est_bytes).sum(),
    }
}

macro_rules! fixed_size {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl EstimateSize for $t {
            const FIXED_BYTES: Option<usize> = Some($n);
            #[inline]
            fn est_bytes(&self) -> usize { $n }
        })*
    };
}

fixed_size! {
    i8 => 1,
    i16 => 2,
    i32 => 4, f32 => 4,
    i64 => 8, f64 => 8,
    isize => 8,
    bool => 1,
    () => 0,
}

/// The unsigned integers: fixed-size, and their own order image.
macro_rules! unsigned {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl EstimateSize for $t {
            const FIXED_BYTES: Option<usize> = Some($n);
            const ORDER_IMAGE: Option<fn(&Self) -> u64> = Some(|&x| x as u64);
            #[inline]
            fn est_bytes(&self) -> usize { $n }
        })*
    };
}

unsigned! {
    u8 => 1,
    u16 => 2,
    u32 => 4,
    u64 => 8,
    usize => 8,
}

impl EstimateSize for String {
    #[inline]
    fn est_bytes(&self) -> usize {
        4 + self.len()
    }
}

impl<T: EstimateSize> EstimateSize for Option<T> {
    #[inline]
    fn est_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, EstimateSize::est_bytes)
    }
}

impl<T: EstimateSize> EstimateSize for Vec<T> {
    #[inline]
    fn est_bytes(&self) -> usize {
        4 + slice_est_bytes(self)
    }
}

/// `Some(a + b)` when both sides are fixed-size, else `None`.
const fn sum_fixed(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x + y),
        _ => None,
    }
}

macro_rules! tuple_size {
    ($($name:ident),+) => {
        impl<$($name: EstimateSize),+> EstimateSize for ($($name,)+) {
            const FIXED_BYTES: Option<usize> = {
                let mut acc = Some(0);
                $(acc = sum_fixed(acc, $name::FIXED_BYTES);)+
                acc
            };
            #[inline]
            #[allow(non_snake_case, reason = "the tuple's type parameters name its fields")]
            fn est_bytes(&self) -> usize {
                let ($($name,)+) = self;
                0 $(+ $name.est_bytes())+
            }
        }
    };
}

tuple_size!(A);
tuple_size!(A, B);
tuple_size!(A, B, C);
tuple_size!(A, B, C, D);
tuple_size!(A, B, C, D, E);
tuple_size!(A, B, C, D, E, F);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(5u64.est_bytes(), 8);
        assert_eq!(1.5f64.est_bytes(), 8);
        assert_eq!(3u32.est_bytes(), 4);
        assert_eq!(true.est_bytes(), 1);
        assert_eq!(().est_bytes(), 0);
    }

    #[test]
    fn tuples_sum_components() {
        assert_eq!((1u64, 2u64, 3.0f64).est_bytes(), 24);
        assert_eq!(((1u64, 2u64), 3.0f64).est_bytes(), 24);
    }

    #[test]
    fn containers() {
        assert_eq!(vec![1u64, 2u64].est_bytes(), 4 + 16);
        assert_eq!("abc".to_string().est_bytes(), 7);
        assert_eq!(Some(1u64).est_bytes(), 9);
        assert_eq!(Option::<u64>::None.est_bytes(), 1);
    }

    #[test]
    fn fixed_bytes_matches_est_bytes() {
        // Every type advertising FIXED_BYTES must agree with est_bytes —
        // the engine's batch accounting depends on it.
        assert_eq!(u64::FIXED_BYTES, Some(8));
        assert_eq!(<(u64, f64)>::FIXED_BYTES, Some(16));
        assert_eq!(<((u64, u64), f64)>::FIXED_BYTES, Some(24));
        assert_eq!(<(u64, u64, u64, f64)>::FIXED_BYTES, Some(32));
        assert_eq!((7u64, 1.0f64).est_bytes(), 16);
        assert_eq!(((7u64, 9u64), 1.0f64).est_bytes(), 24);
    }

    #[test]
    fn variable_types_have_no_fixed_size() {
        assert_eq!(String::FIXED_BYTES, None);
        assert_eq!(Vec::<u64>::FIXED_BYTES, None);
        assert_eq!(Option::<u64>::FIXED_BYTES, None);
        assert_eq!(<(u64, String)>::FIXED_BYTES, None);
    }

    #[test]
    fn only_the_unsigned_integers_have_an_order_image() {
        let image = |f: Option<fn(&u64) -> u64>, x: u64| f.map(|f| f(&x));
        assert_eq!(image(u64::ORDER_IMAGE, u64::MAX), Some(u64::MAX));
        assert_eq!(u8::ORDER_IMAGE.map(|f| f(&200)), Some(200));
        assert_eq!(u32::ORDER_IMAGE.map(|f| f(&7)), Some(7));
        assert_eq!(usize::ORDER_IMAGE.map(|f| f(&9)), Some(9));
        assert!(i64::ORDER_IMAGE.is_none());
        assert!(f64::ORDER_IMAGE.is_none());
        assert!(String::ORDER_IMAGE.is_none());
        assert!(<(u8, u64)>::ORDER_IMAGE.is_none());
        assert!(<(u64, u64, u64, u64)>::ORDER_IMAGE.is_none());
    }

    #[test]
    fn slice_sizing_matches_per_record_sum() {
        let fixed = vec![(1u64, 2.0f64), (3, 4.0), (5, 6.0)];
        assert_eq!(
            slice_est_bytes(&fixed),
            fixed.iter().map(EstimateSize::est_bytes).sum::<usize>()
        );
        let var = vec!["a".to_string(), "bcd".to_string()];
        assert_eq!(
            slice_est_bytes(&var),
            var.iter().map(EstimateSize::est_bytes).sum::<usize>()
        );
        assert_eq!(slice_est_bytes::<u64>(&[]), 0);
    }
}
