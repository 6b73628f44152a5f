//! `Vec`s filled in place: by disjoint parts, or by records moved out of
//! another column pair.
//!
//! A spilled reload parses each contiguous range of a dataset's blocks on
//! its own executor. [`fill_parts`] lets every range parse straight into
//! its final stretch of the one `Vec` the [`crate::Dfs`] returns, so no
//! record is copied after it is parsed: the caller's `Vec` (the allocation
//! an earlier spill left behind, or a new one) is cleared and reserved to
//! fit, its spare capacity is cut (by `split_at_mut`) into one [`Part`]
//! per range, and the `Vec` claims its length only once every part is
//! back and full. A part that is dropped instead — its range failed or
//! panicked — drops the records it holds, so on every path each record
//! written is dropped exactly once.
//!
//! Sealing a shuffle bucket sorts its key and value columns out of place,
//! into an empty pair, in one pass ([`crate::arena`]). [`scatter`] moves
//! the records in index order, each to the slot a counting sort names;
//! [`gather`] fills the slots in order, each from the record a sort
//! permutation names. Neither needs `Clone`: a record is moved, never
//! copied. Each marks the slots (or records) it has used in a bit set and
//! panics on one out of range or named twice, so what it claims is
//! checked where it claims it. A panic part-way leaks the records in
//! flight rather than dropping any twice.
//!
//! This is the workspace's second `unsafe` site (the first is
//! [`crate::WorkerPool::broadcast`]); its tests, and the arena's that sort
//! through it, run under Miri in `scripts/check.sh --sanitize`.

use crate::recycle;
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

/// `records` refilled with `lens.iter().sum()` records assembled in place
/// from `lens.len()` parts, part `p` being the next `lens[p]` slots.
///
/// `records` is cleared first, dropping what it held once, and keeps its
/// allocation when that holds the new records; a shorter one grows
/// (`reserve_exact`). `fill` receives the parts in order, writes each one
/// full through [`Part::push`] — on any executors, in any order — and
/// hands all of them back; an error it returns is passed on. A part that
/// comes back short, or not at all, is a bug of `fill`'s and panics. On an
/// error or a panic the `Vec` is never claimed: each part drops the
/// records it holds, once, and the allocation is freed.
#[allow(unsafe_code, reason = "claims the filled `Vec`; SAFETY below")]
pub(crate) fn fill_parts<T, E>(
    mut records: Vec<T>,
    lens: &[usize],
    fill: impl for<'a> FnOnce(Vec<Part<'a, T>>) -> Result<Vec<Part<'a, T>>, E>,
) -> Result<Vec<T>, E> {
    let total: usize = lens.iter().sum();
    records.clear();
    records.reserve_exact(total);
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
    // SAFETY: `total <= capacity`: slicing the spare capacity of the
    // cleared `records` to `total` above would have panicked otherwise.
    // Slots `0..total` are initialized: the parts tile them in order (each
    // bounds-checked `split_at_mut` takes the next `lens[p]`, so they fit
    // in `..total`, and they cover all of it because `total` is their sum
    // — had the sum wrapped, a split would have panicked). A `Part` is made only above,
    // none is `Clone`, and the `for<'a>` bound keeps `fill` from handing
    // back a part of any other call as one of this call's, so `lens.len()`
    // full parts back are all of them, every slot written. Forgetting
    // them made `records` the records' only owner.
    unsafe { records.set_len(total) };
    Ok(records)
}

/// A key column and a value column, borrowed to move records out of or
/// into.
pub(crate) type Columns<'a, K, V> = (&'a mut Vec<K>, &'a mut Vec<V>);

/// The indices `0..len` a move has used, one bit each.
struct Used {
    words: Vec<u32>,
    len: usize,
}

impl Used {
    fn new(len: usize) -> Self {
        Used {
            words: recycle::zeroed(len.div_ceil(32)),
            len,
        }
    }

    /// Mark `i` used. Panics if it is out of range or already used.
    #[inline]
    fn mark(&mut self, i: usize) {
        assert!(
            i < self.len,
            "index {i} out of range for {} records",
            self.len
        );
        let (word, bit) = (&mut self.words[i / 32], 1 << (i % 32));
        assert!(*word & bit == 0, "index {i} named twice");
        *word |= bit;
    }
}

impl Drop for Used {
    fn drop(&mut self) {
        recycle::give(std::mem::take(&mut self.words));
    }
}

/// Check that `from` is a column pair of equal lengths and `into` an
/// empty one, make room in `into` for every record, and return how many
/// there are.
fn begin<K, V>(from: &Columns<'_, K, V>, into: &mut Columns<'_, K, V>) -> usize {
    let len = from.0.len();
    assert!(
        from.1.len() == len && into.0.is_empty() && into.1.is_empty(),
        "moves a full column pair into an empty one"
    );
    into.0.reserve_exact(len);
    into.1.reserve_exact(len);
    len
}

/// Move every record of the column pair `from` into the empty pair
/// `into`: record `i`, in index order, to the slot `to(&key)` names. Panics
/// if a slot is out of range or named twice; then the records already
/// moved are leaked and the rest dropped, none twice. `from` is left
/// empty, its capacity kept.
#[allow(unsafe_code, reason = "claims the filled columns; SAFETY below")]
pub(crate) fn scatter<K, V>(
    from: Columns<'_, K, V>,
    mut into: Columns<'_, K, V>,
    mut to: impl FnMut(&K) -> usize,
) {
    let len = begin(&from, &mut into);
    let mut written = Used::new(len);
    let slots = (into.0.spare_capacity_mut(), into.1.spare_capacity_mut());
    for (key, val) in from.0.drain(..).zip(from.1.drain(..)) {
        let slot = to(&key);
        written.mark(slot);
        slots.0[slot].write(key);
        slots.1[slot].write(val);
    }
    // SAFETY: both drains yielded `len` records (`begin` checked the
    // lengths), and each was written to a slot `written` had not marked
    // before and that is below `len`, which `begin` reserved. So `len`
    // distinct slots of `0..len` — all of them — hold initialized records
    // that nothing else owns: the drains gave them up.
    unsafe {
        into.0.set_len(len);
        into.1.set_len(len);
    }
}

/// Move every record of the column pair `from` into the empty pair
/// `into`: slot `r` gets record `order[r]`. Panics before moving any if
/// `order` is not as long as the columns; panics if it names a record out
/// of range or twice, and then the records already moved stay in `into`
/// and the rest are leaked, none dropped twice. `from` is left empty, its
/// capacity kept.
#[allow(unsafe_code, reason = "moves records out of a column; SAFETY below")]
pub(crate) fn gather<K, V>(from: Columns<'_, K, V>, mut into: Columns<'_, K, V>, order: &[u32]) {
    let len = begin(&from, &mut into);
    assert_eq!(order.len(), len, "an order names every record");
    let mut taken = Used::new(len);
    // SAFETY: a shorter length is always valid. From here the columns'
    // records belong to this move, which reads each out at most once.
    unsafe {
        from.0.set_len(0);
        from.1.set_len(0);
    }
    let records = (from.0.as_ptr(), from.1.as_ptr());
    for &i in order {
        let i = i as usize;
        taken.mark(i);
        // SAFETY: `i < len`, so both reads stay within the columns'
        // first `len` slots, which held initialized records when their
        // lengths were cut. `taken` had not marked `i` before, so this
        // record has not been read out yet, and is read out only now.
        let record = unsafe { (records.0.add(i).read(), records.1.add(i).read()) };
        into.0.push(record.0);
        into.1.push(record.1);
    }
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
        let records = fill_parts(Vec::new(), &lens, |parts| {
            Ok::<_, ()>(write(parts, &lens, &drops))
        })
        .unwrap();
        let values: Vec<&str> = records.iter().map(|r| r.value.as_str()).collect();
        assert_eq!(values, ["0.0", "0.1", "2.0", "2.1", "2.2", "3.0"]);
        assert_eq!(drops.load(Ordering::Relaxed), 0, "claimed, not dropped");
        drop(records);
        assert_eq!(drops.load(Ordering::Relaxed), 6);

        let units = fill_parts(Vec::new(), &[3, 2], |mut parts| {
            for part in &mut parts {
                (0..part.slots.len()).for_each(|_| part.push(()));
            }
            Ok::<_, ()>(parts)
        });
        assert_eq!(units.unwrap().len(), 5);
        let empty = fill_parts::<u8, ()>(Vec::new(), &[], |parts| Ok(parts));
        assert!(empty.unwrap().is_empty());
    }

    #[test]
    fn a_part_that_comes_up_short_panics_claims_nothing_and_drops_what_it_wrote() {
        let drops = AtomicUsize::new(0);
        let lens = [2, 3, 2];
        let fill_short = |take: [usize; 3], keep: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                fill_parts(Vec::new(), &lens, |parts| {
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
            fill_parts(Vec::new(), &[1], |mut parts| {
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
        let failed = fill_parts(Vec::new(), &lens, |parts| {
            let parts = write(parts, &[3, 3, 2], &drops);
            let results: Vec<Result<_, &str>> = (parts.into_iter().enumerate())
                .map(|(p, part)| if p == 2 { Err("part 2") } else { Ok(part) })
                .collect();
            results.into_iter().collect()
        });
        assert_eq!(failed.err(), Some("part 2"));
        assert_eq!(drops.load(Ordering::Relaxed), 8);
    }

    /// `n` records named `"old{i}"` whose drops count in `drops`.
    fn olds(n: usize, capacity: usize, drops: &AtomicUsize) -> Vec<Counted<'_>> {
        let mut old = Vec::with_capacity(capacity);
        old.extend((0..n).map(|i| Counted {
            value: format!("old{i}"),
            drops,
        }));
        old
    }

    /// Filling a given `Vec` drops its old records once, keeps its
    /// allocation when that holds the new records, and grows a short one.
    /// A fill that fails or panics drops the records it parsed and the
    /// old ones once each, and frees the destination.
    #[test]
    fn filling_a_given_vec_reuses_its_allocation_and_drops_its_old_records_once() {
        let (old, parsed) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let lens = [2, 3];
        let roomy = olds(3, 8, &old);
        let at = roomy.as_ptr();
        let refilled = fill_parts(roomy, &lens, |parts| {
            Ok::<_, ()>(write(parts, &lens, &parsed))
        })
        .unwrap();
        assert_eq!(refilled.as_ptr(), at, "the allocation is kept");
        let values: Vec<&str> = refilled.iter().map(|r| r.value.as_str()).collect();
        assert_eq!(values, ["0.0", "0.1", "1.0", "1.1", "1.2"]);
        assert_eq!(old.load(Ordering::Relaxed), 3, "old records dropped once");
        assert_eq!(parsed.load(Ordering::Relaxed), 0);
        // Refilled again, shorter, into the same allocation.
        let refilled = fill_parts(refilled, &[1], |parts| {
            Ok::<_, ()>(write(parts, &[1], &parsed))
        })
        .unwrap();
        assert_eq!((refilled.as_ptr(), refilled.len()), (at, 1));
        assert_eq!(parsed.swap(0, Ordering::Relaxed), 5);
        drop(refilled);
        assert_eq!(parsed.swap(0, Ordering::Relaxed), 1);

        let short = olds(1, 1, &old);
        let grown = fill_parts(short, &lens, |parts| {
            Ok::<_, ()>(write(parts, &lens, &parsed))
        })
        .unwrap();
        assert!(grown.len() == 5 && grown.capacity() >= 5);
        assert_eq!(old.swap(0, Ordering::Relaxed), 3 + 1);
        drop(grown);
        assert_eq!(parsed.swap(0, Ordering::Relaxed), 5);

        // An error: the second part fails after one record of three.
        let failed = fill_parts(olds(4, 4, &old), &lens, |parts| {
            drop(write(parts, &[2, 1], &parsed));
            Err("part 1")
        });
        assert_eq!(failed.err(), Some("part 1"));
        assert_eq!(old.swap(0, Ordering::Relaxed), 4);
        assert_eq!(parsed.swap(0, Ordering::Relaxed), 3);
        // A panic: the fill panics with both parts written in full.
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            fill_parts::<_, ()>(olds(2, 6, &old), &lens, |parts| {
                let _written = write(parts, &lens, &parsed);
                panic!("fill fails")
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(old.load(Ordering::Relaxed), 2);
        assert_eq!(parsed.load(Ordering::Relaxed), 5);
    }

    /// A record with no heap data that counts its drops, so that one
    /// leaked by a failed move leaks no allocation.
    struct Slot<'c> {
        at: usize,
        drops: &'c AtomicUsize,
    }

    impl Drop for Slot<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A key column `0..len` and a value column of `Slot`s.
    fn slots(len: usize, drops: &AtomicUsize) -> (Vec<usize>, Vec<Slot<'_>>) {
        (
            (0..len).collect(),
            (0..len).map(|at| Slot { at, drops }).collect(),
        )
    }

    /// Scattering record `i` to slot `perm⁻¹[i]`, and gathering slot `r`
    /// from record `perm[r]`, both lay the records out in `perm`'s order —
    /// the identity, a reversal, rotations and a derangement — moving each
    /// once and leaving the source empty with its capacity.
    #[test]
    fn scatter_and_gather_move_every_record_once_and_empty_the_source() {
        let drops = AtomicUsize::new(0);
        let perms: [[u32; 4]; 5] = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 2, 3, 0],
            [3, 0, 1, 2],
            [2, 0, 3, 1],
        ];
        for perm in perms {
            let want = perm.map(|p| p as usize);
            let slot_of = |&k: &usize| want.iter().position(|&p| p == k).expect("a permutation");
            let (mut keys, mut vals) = slots(4, &drops);
            let (mut into_keys, mut into_vals) = (Vec::new(), Vec::new());
            scatter(
                (&mut keys, &mut vals),
                (&mut into_keys, &mut into_vals),
                slot_of,
            );
            assert_eq!(into_keys, want, "scatter by {perm:?}");
            assert!(into_vals.iter().map(|v| v.at).eq(want));
            assert!(keys.is_empty() && vals.is_empty() && keys.capacity() >= 4);
            // And by gathering, from a fresh source into the emptied one.
            let mut source = slots(4, &drops);
            gather(
                (&mut source.0, &mut source.1),
                (&mut keys, &mut vals),
                &perm,
            );
            assert_eq!(keys, want, "gather by {perm:?}");
            assert!(vals.iter().map(|v| v.at).eq(want));
            assert!(source.0.is_empty() && source.1.is_empty());
            assert_eq!(drops.load(Ordering::Relaxed), 0, "moved, not dropped");
            drop((vals, into_vals));
            assert_eq!(drops.swap(0, Ordering::Relaxed), 8);
        }
        let (mut none, mut into) = (slots(0, &drops), slots(0, &drops));
        scatter(
            (&mut none.0, &mut none.1),
            (&mut into.0, &mut into.1),
            |_| unreachable!(),
        );
        gather((&mut none.0, &mut none.1), (&mut into.0, &mut into.1), &[]);
        assert!(into.0.is_empty());
    }

    /// A scatter whose destination panics part-way — on its own, or by
    /// naming a slot twice or past the end — claims nothing: the records
    /// moved are leaked, the one in hand and the rest dropped, none twice.
    #[test]
    fn scatter_that_panics_part_way_leaks_what_it_moved_and_never_drops_twice() {
        let fail: [&dyn Fn(usize) -> usize; 3] = [
            &|k| {
                if k == 3 {
                    panic!("destination fails")
                } else {
                    k
                }
            },
            &|k| k.min(2),
            &|k| k * 2,
        ];
        for (n, to) in fail.into_iter().enumerate() {
            let drops = AtomicUsize::new(0);
            let (mut keys, mut vals) = slots(6, &drops);
            let (mut into_keys, mut into_vals) = (Vec::new(), Vec::new());
            let failed = catch_unwind(AssertUnwindSafe(|| {
                scatter(
                    (&mut keys, &mut vals),
                    (&mut into_keys, &mut into_vals),
                    |&k| to(k),
                );
            }));
            assert!(failed.is_err(), "destination {n}");
            assert!(into_keys.is_empty() && into_vals.is_empty());
            // Records 0..3 were moved (and leaked); 3..6 are dropped.
            assert_eq!(drops.load(Ordering::Relaxed), 3, "destination {n}");
            drop((keys, vals, into_keys, into_vals));
            assert_eq!(drops.load(Ordering::Relaxed), 3, "destination {n}");
        }
    }

    /// A gather whose order names a record twice or past the end panics:
    /// the records moved stay in the target and are dropped with it, the
    /// rest are leaked, none dropped twice. One of the wrong length panics
    /// before it moves any, and the source keeps them all.
    #[test]
    fn gather_of_a_bad_order_panics_and_never_drops_twice() {
        let orders = [
            (&[2u32, 0, 2, 1][..], 2, 2),
            (&[1, 9, 0, 2], 1, 1),
            (&[0, 1], 0, 4),
        ];
        for (order, moved, dropped) in orders {
            let drops = AtomicUsize::new(0);
            let (mut keys, mut vals) = slots(4, &drops);
            let (mut into_keys, mut into_vals) = (Vec::new(), Vec::new());
            let failed = catch_unwind(AssertUnwindSafe(|| {
                gather(
                    (&mut keys, &mut vals),
                    (&mut into_keys, &mut into_vals),
                    order,
                );
            }));
            assert!(failed.is_err(), "order {order:?}");
            assert_eq!(into_vals.len(), moved, "order {order:?}");
            assert_eq!(drops.load(Ordering::Relaxed), 0);
            drop((keys, vals, into_keys, into_vals));
            assert_eq!(drops.load(Ordering::Relaxed), dropped, "order {order:?}");
        }
    }
}
