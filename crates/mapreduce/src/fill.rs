//! One `Vec` filled in place by disjoint parts.
//!
//! A spilled reload parses each contiguous range of a dataset's blocks on
//! its own executor. [`fill_parts`] lets every range parse straight into
//! its final stretch of the one exactly-sized `Vec` the [`crate::Dfs`]
//! returns, so no record is copied after it is parsed: the allocation is
//! reserved once, its spare capacity is cut (by `split_at_mut`) into one
//! [`Part`] per range, and the `Vec` claims its length only once every
//! part is back and full. A part that is dropped instead — its range
//! failed or panicked — drops the records it holds, so on every path each
//! record written is dropped exactly once.
//!
//! This is the workspace's second `unsafe` site (the first is
//! [`crate::WorkerPool::broadcast`]); its tests run under Miri in
//! `scripts/check.sh --sanitize`.

use std::mem::MaybeUninit;

/// The next `len` slots of the `Vec` [`fill_parts`] is building, written
/// front to back. Only `fill_parts` makes one.
///
/// Invariant: `slots[..filled]` are initialized, and this part is their
/// only owner.
pub(crate) struct Part<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    filled: usize,
}

impl<T> Part<'_, T> {
    /// Write the next record. Panics if the part is already full.
    pub(crate) fn push(&mut self, record: T) {
        self.slots[self.filled].write(record);
        self.filled += 1;
    }

    fn is_full(&self) -> bool {
        self.filled == self.slots.len()
    }
}

impl<T> Drop for Part<'_, T> {
    #[allow(unsafe_code, reason = "drops the records a part wrote; SAFETY below")]
    fn drop(&mut self) {
        let written: *mut [MaybeUninit<T>] = &mut self.slots[..self.filled];
        // SAFETY: by the invariant, `slots[..filled]` hold initialized
        // records owned by this part alone: `push` bumps `filled` only
        // after writing a slot, and the slots of two parts never overlap
        // (`fill_parts` cuts them with `split_at_mut`). `fill_parts`
        // forgets a part instead of dropping it once its records belong
        // to the `Vec`, so they are dropped here, once, or never by a
        // part. `MaybeUninit<T>` has the layout of `T`, so the cast views
        // the same slice as `[T]`.
        unsafe { std::ptr::drop_in_place(written as *mut [T]) }
    }
}

/// A `Vec` of `lens.iter().sum()` records assembled in place from
/// `lens.len()` parts, part `p` being the next `lens[p]` slots.
///
/// `fill` receives the parts in order, writes each one full through
/// [`Part::push`] — on any executors, in any order — and hands all of them
/// back; an error it returns is passed on. A part that comes back short, or
/// not at all, is a bug of `fill`'s and panics. On an error or a panic the
/// `Vec` is never claimed: each part drops the records it holds, once, and
/// the allocation is freed.
#[allow(unsafe_code, reason = "claims the filled `Vec`; SAFETY below")]
pub(crate) fn fill_parts<T, E>(
    lens: &[usize],
    fill: impl for<'a> FnOnce(Vec<Part<'a, T>>) -> Result<Vec<Part<'a, T>>, E>,
) -> Result<Vec<T>, E> {
    let total: usize = lens.iter().sum();
    let mut records = Vec::with_capacity(total);
    let mut rest = &mut records.spare_capacity_mut()[..total];
    let mut parts = Vec::with_capacity(lens.len());
    for &len in lens {
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
        parts.push(Part { slots, filled: 0 });
        rest = tail;
    }
    let parts = fill(parts)?;
    assert!(
        parts.len() == lens.len() && parts.iter().all(Part::is_full),
        "every part comes back full"
    );
    // The records now belong to `records`; their parts must not drop them.
    parts.into_iter().for_each(std::mem::forget);
    // SAFETY: `total <= capacity`: slicing the spare capacity to `total`
    // above would have panicked otherwise. Slots `0..total` are
    // initialized: the parts tile them in order (each bounds-checked
    // `split_at_mut` takes the next `lens[p]`, so they fit in `..total`,
    // and they cover all of it because `total` is their sum — had the sum
    // wrapped, a split would have panicked). A `Part` is made only above,
    // none is `Clone`, and the `for<'a>` bound keeps `fill` from handing
    // back a part of any other call as one of this call's, so `lens.len()`
    // full parts back are all of them, every slot written. Forgetting
    // them made `records` the records' only owner.
    unsafe { records.set_len(total) };
    Ok(records)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests write each part on its own raw thread, as a pool worker would"
)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A record with drop glue that counts its drops in `drops`.
    struct Counted<'c> {
        value: String,
        drops: &'c AtomicUsize,
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Write the first `take` records of each part, part `p`'s `i`-th
    /// record named `"{p}.{i}"`, one thread per part.
    fn write<'a, 'c>(
        parts: Vec<Part<'a, Counted<'c>>>,
        take: &[usize],
        drops: &'c AtomicUsize,
    ) -> Vec<Part<'a, Counted<'c>>> {
        std::thread::scope(|s| {
            let writers: Vec<_> = (parts.into_iter().zip(take).enumerate())
                .map(|(p, (mut part, &take))| {
                    s.spawn(move || {
                        for i in 0..take {
                            let value = format!("{p}.{i}");
                            part.push(Counted { value, drops });
                        }
                        part
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_parts_full_is_one_vec_in_part_order() {
        let drops = AtomicUsize::new(0);
        let lens = [2, 0, 3, 1];
        let records = fill_parts(&lens, |parts| Ok::<_, ()>(write(parts, &lens, &drops))).unwrap();
        let values: Vec<&str> = records.iter().map(|r| r.value.as_str()).collect();
        assert_eq!(values, ["0.0", "0.1", "2.0", "2.1", "2.2", "3.0"]);
        assert_eq!(drops.load(Ordering::Relaxed), 0, "claimed, not dropped");
        drop(records);
        assert_eq!(drops.load(Ordering::Relaxed), 6);

        let units = fill_parts(&[3, 2], |mut parts| {
            for part in &mut parts {
                (0..part.slots.len()).for_each(|_| part.push(()));
            }
            Ok::<_, ()>(parts)
        });
        assert_eq!(units.unwrap().len(), 5);
        let empty = fill_parts::<u8, ()>(&[], |parts| Ok(parts));
        assert!(empty.unwrap().is_empty());
    }

    #[test]
    fn a_part_that_comes_up_short_panics_claims_nothing_and_drops_what_it_wrote() {
        let drops = AtomicUsize::new(0);
        let lens = [2, 3, 2];
        let fill_short = |take: [usize; 3], keep: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                fill_parts(&lens, |parts| {
                    let mut parts = write(parts, &take, &drops);
                    parts.truncate(keep);
                    Ok::<_, ()>(parts)
                })
            }))
        };
        assert!(fill_short([2, 1, 2], 3).is_err());
        assert_eq!(drops.load(Ordering::Relaxed), 5, "every record written");
        // A part that never comes back is short too; it dropped its own.
        assert!(fill_short(lens, 2).is_err());
        assert_eq!(drops.load(Ordering::Relaxed), 5 + 7);
        // So is one written past its end: the push panics, nothing is claimed.
        let overfull = catch_unwind(AssertUnwindSafe(|| {
            fill_parts(&[1], |mut parts| {
                for i in 0..2 {
                    let value = i.to_string();
                    parts[0].push(Counted {
                        value,
                        drops: &drops,
                    });
                }
                Ok::<_, ()>(parts)
            })
        }));
        assert!(overfull.is_err());
        assert_eq!(drops.load(Ordering::Relaxed), 5 + 7 + 2);
    }

    #[test]
    fn a_part_that_fails_drops_every_record_written_exactly_once() {
        let drops = AtomicUsize::new(0);
        let lens = [3, 3, 3];
        // The last part fails part-way, after the others are full: the
        // error is passed on and all eight records are dropped once.
        let failed = fill_parts(&lens, |parts| {
            let parts = write(parts, &[3, 3, 2], &drops);
            let results: Vec<Result<_, &str>> = (parts.into_iter().enumerate())
                .map(|(p, part)| if p == 2 { Err("part 2") } else { Ok(part) })
                .collect();
            results.into_iter().collect()
        });
        assert_eq!(failed.err(), Some("part 2"));
        assert_eq!(drops.load(Ordering::Relaxed), 8);
    }
}
