//! Value-generation strategies.
//!
//! A [`Strategy`] produces one random value per call from a [`TestRng`].
//! Unlike upstream proptest there is no value tree and no shrinking — a
//! strategy is just a deterministic function of the RNG state.

use crate::TestRng;
use rand::Rng;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// A recipe for generating random values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform every generated value with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from the strategy `f` derives from
    /// it (dependent generation).
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy over a type's full value range; see [`any`].
#[derive(Debug, Clone)]
pub struct Any<T> {
    _marker: PhantomData<T>,
}

/// The canonical strategy for `T`: uniform over the whole type.
pub fn any<T>() -> Any<T> {
    Any {
        _marker: PhantomData,
    }
}

macro_rules! any_via_standard {
    ($($t:ty),*) => {
        $(impl Strategy for Any<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen()
            }
        })*
    };
}
any_via_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

macro_rules! range_strategies {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*
    };
}
range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategies {
    ($($t:ty),*) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        })*
    };
}
float_range_strategies!(f32, f64);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case, reason = "the tuple's type parameters name its fields")]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);
tuple_strategy!(A, B, C, D, E, F, G);
tuple_strategy!(A, B, C, D, E, F, G, H);
tuple_strategy!(A, B, C, D, E, F, G, H, I);
tuple_strategy!(A, B, C, D, E, F, G, H, I, J);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::__case_rng;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = __case_rng("ranges_and_tuples", 0);
        let s = (1usize..5, -1.0f64..1.0, any::<u64>());
        for _ in 0..200 {
            let (a, b, _c) = s.generate(&mut rng);
            assert!((1..5).contains(&a));
            assert!((-1.0..1.0).contains(&b));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = __case_rng("map_flat_map", 0);
        let s = (1usize..4, 1usize..4).prop_flat_map(|(m, n)| {
            crate::collection::vec(0u64..10, m * n).prop_map(move |v| (m, n, v))
        });
        for _ in 0..100 {
            let (m, n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), m * n);
        }
    }

    #[test]
    fn just_clones() {
        let mut rng = __case_rng("just", 0);
        assert_eq!(Just(41u8).generate(&mut rng), 41);
    }
}
