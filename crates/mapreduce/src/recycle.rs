//! Shuffle columns recycled from one job to the next.
//!
//! A job's intermediate data lives in key and value columns: the map
//! output buckets, the sort scratch that ranks them, and the sealed runs
//! the shuffle hands to reducers. Columns of [`MIN_BYTES`] or more come
//! from `mmap` under glibc's default threshold, so a job that allocated
//! them fresh paid a page fault for every page it first touched, and
//! unmapped them all after its reduce. Each [`crate::Cluster`] instead
//! owns one [`Recycler`]: reduce tasks hand back the columns of every run
//! they drained, sealing hands back its sort scratch, and the next job
//! takes both instead of calling the allocator.
//!
//! Three rules bound the memory this holds on to:
//!
//! * only columns of at least [`MIN_BYTES`] take part. Smaller ones come
//!   back from malloc's heap without a fault, and a job that touches no
//!   large column never takes the recycler's lock. A collector that
//!   stays out writes columns of at most [`below_threshold`] elements
//!   (`arena::Chunks`, a reduce task's output);
//! * a sealed bucket is trimmed to its length before it is shuffled
//!   ([`crate::arena`]), so spare capacity does not travel;
//! * a column no job has taken by the end of the job after the one that
//!   returned it is freed ([`Recycler::end_job`]).
//!
//! Which column a task gets depends on timing, but a column is always
//! empty when taken and its capacity never shows in a result or a metric.
//! What shows is host-side only: [`crate::JobMetrics::recycled_column_bytes`]
//! and [`crate::JobMetrics::fresh_column_bytes`].
//!
//! The engine reaches the recycler through a thread-local scope that each
//! of a job's task executors enters ([`JobColumns::enter`]). That is what
//! lets a [`crate::Collect`] writer that fills the next job's
//! [`crate::MapOutput`] (IMHP's `MergeWriter`) take recycled columns
//! without the collector API knowing about them. Outside a scope every
//! function here is the plain allocator.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Smallest column, in bytes of capacity, that is recycled: glibc's
/// default mmap threshold, which the benchmark pins.
const MIN_BYTES: usize = 128 * 1024;

/// Bytes of `capacity` elements of `T`.
fn bytes_of<T>(capacity: usize) -> usize {
    capacity.saturating_mul(std::mem::size_of::<T>())
}

/// Whether a column of `capacity` elements of `T` takes part.
pub(crate) fn takes_part<T>(capacity: usize) -> bool {
    bytes_of::<T>(capacity) >= MIN_BYTES
}

/// The most elements of `T` a column can hold and still come from
/// malloc's heap: its bytes plus the allocator's block overhead (a size
/// word, then rounding up to two-word alignment) stay under
/// [`MIN_BYTES`]. A column that never grows past this never takes part
/// and is never mapped; at least one element.
pub(crate) fn below_threshold<T>() -> usize {
    let overhead = 3 * std::mem::size_of::<usize>();
    ((MIN_BYTES - overhead) / std::mem::size_of::<T>().max(1)).max(1)
}

/// An empty column on the shelf.
struct Spare {
    /// A `Vec<T>` of some `T`, empty.
    column: Box<dyn Any + Send>,
    /// Its capacity in elements.
    capacity: usize,
    /// [`Recycler::end_job`] calls before it was returned.
    returned: u64,
}

/// A cluster's shelf of empty columns, shared by every job and task.
#[derive(Default)]
pub(crate) struct Recycler {
    /// Jobs ended so far.
    ended: AtomicU64,
    /// Columns on the shelf, so an empty shelf is seen without the lock.
    shelved: AtomicUsize,
    shelf: Mutex<Vec<Spare>>,
}

impl fmt::Debug for Recycler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recycler")
            .field("ended", &self.ended.load(Ordering::Relaxed))
            .field("shelved", &self.shelved.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Recycler {
    /// The best fit for `capacity` elements among the shelved `Vec<T>`s,
    /// taken off the shelf: the smallest holding at least that many, else,
    /// when `or_shorter`, the largest.
    fn take<T: Send + 'static>(&self, capacity: usize, or_shorter: bool) -> Option<Vec<T>> {
        if self.shelved.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut shelf = self.shelf.lock().expect("recycler shelf poisoned");
        let best = shelf
            .iter()
            .enumerate()
            .filter(|(_, s)| (or_shorter || s.capacity >= capacity) && s.column.is::<Vec<T>>())
            .min_by_key(|(_, s)| match s.capacity.checked_sub(capacity) {
                Some(over) => (false, over),
                None => (true, capacity - s.capacity),
            })
            .map(|(i, _)| i)?;
        let spare = shelf.swap_remove(best);
        self.shelved.store(shelf.len(), Ordering::Relaxed);
        drop(shelf);
        let column = spare.column.downcast::<Vec<T>>();
        Some(*column.expect("a spare matched by type downcasts"))
    }

    /// Shelve `column`, emptied.
    fn give<T: Send + 'static>(&self, mut column: Vec<T>) {
        column.clear();
        let spare = Spare {
            capacity: column.capacity(),
            column: Box::new(column),
            returned: self.ended.load(Ordering::Relaxed),
        };
        let mut shelf = self.shelf.lock().expect("recycler shelf poisoned");
        shelf.push(spare);
        self.shelved.store(shelf.len(), Ordering::Relaxed);
    }

    /// Count one job's end, and free every column returned before the
    /// previous job's end that no job has taken since.
    pub(crate) fn end_job(&self) {
        let ended = self.ended.fetch_add(1, Ordering::Relaxed) + 1;
        if self.shelved.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut shelf = self.shelf.lock().expect("recycler shelf poisoned");
        let (kept, expired): (Vec<Spare>, Vec<Spare>) = std::mem::take(&mut *shelf)
            .into_iter()
            .partition(|s| s.returned + 2 > ended);
        *shelf = kept;
        self.shelved.store(shelf.len(), Ordering::Relaxed);
        drop(shelf);
        // Unmapped outside the lock.
        drop(expired);
    }

    /// Columns on the shelf.
    #[cfg(test)]
    fn shelved(&self) -> usize {
        self.shelved.load(Ordering::Relaxed)
    }
}

/// One job's access to its cluster's recycler, with the column bytes it
/// took from it and allocated fresh. The job ends, for the recycler's
/// retention rule, when the last handle drops.
pub(crate) struct JobColumns {
    recycler: Arc<Recycler>,
    recycled_bytes: AtomicUsize,
    fresh_bytes: AtomicUsize,
}

impl JobColumns {
    /// A job's handle on `recycler`.
    pub(crate) fn new(recycler: &Arc<Recycler>) -> Arc<Self> {
        Arc::new(JobColumns {
            recycler: Arc::clone(recycler),
            recycled_bytes: AtomicUsize::new(0),
            fresh_bytes: AtomicUsize::new(0),
        })
    }

    /// Make this job's columns the current thread's until the guard drops.
    pub(crate) fn enter(self: &Arc<Self>) -> Scope {
        Scope(CURRENT.with(|c| c.replace(Some(Arc::clone(self)))))
    }

    /// `(recycled, fresh)` column bytes so far.
    pub(crate) fn bytes(&self) -> (usize, usize) {
        (
            self.recycled_bytes.load(Ordering::Relaxed),
            self.fresh_bytes.load(Ordering::Relaxed),
        )
    }

    /// The best fit for `capacity` elements, extended to it, or
    /// `fresh(capacity)`.
    fn take<T: Send + 'static>(&self, capacity: usize, fresh: fn(usize) -> Vec<T>) -> Vec<T> {
        let Some(mut column) = self.take_recycled(capacity, true) else {
            self.count_fresh::<T>(capacity);
            return fresh(capacity);
        };
        let shorter = column.capacity();
        if shorter < capacity {
            column.reserve_exact(capacity);
            self.count_fresh::<T>(column.capacity() - shorter);
        }
        column
    }

    /// A recycled column, counted ([`Recycler::take`]).
    fn take_recycled<T: Send + 'static>(
        &self,
        capacity: usize,
        or_shorter: bool,
    ) -> Option<Vec<T>> {
        let column = self.recycler.take::<T>(capacity, or_shorter)?;
        let bytes = bytes_of::<T>(column.capacity());
        self.recycled_bytes.fetch_add(bytes, Ordering::Relaxed);
        Some(column)
    }

    fn count_fresh<T>(&self, capacity: usize) {
        let bytes = bytes_of::<T>(capacity);
        self.fresh_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl Drop for JobColumns {
    fn drop(&mut self) {
        self.recycler.end_job();
    }
}

thread_local! {
    /// The job whose task this thread is executing, if any.
    static CURRENT: RefCell<Option<Arc<JobColumns>>> = const { RefCell::new(None) };
}

/// Restores the thread's previous job on drop: a pool thread waiting on
/// one job's tasks may execute another job's tasks nested inside.
pub(crate) struct Scope(Option<Arc<JobColumns>>);

impl Drop for Scope {
    fn drop(&mut self) {
        let previous = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// Run `f` on the current job's columns, if this thread executes a task.
fn with_job<R>(f: impl FnOnce(&JobColumns) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// An empty column with room for `capacity` elements. One that takes part
/// is the best fit on the shelf: the smallest recycled column that holds
/// `capacity`, else the largest shorter one, extended in place (a large
/// block grows by `mremap`, keeping its pages). Only with no column of
/// the type on the shelf is it fresh.
pub(crate) fn with_capacity<T: Send + 'static>(capacity: usize) -> Vec<T> {
    if !takes_part::<T>(capacity) {
        return Vec::with_capacity(capacity);
    }
    with_job(|job| job.take(capacity, Vec::with_capacity))
        .unwrap_or_else(|| Vec::with_capacity(capacity))
}

/// `len` zeros: a recycled column ([`with_capacity`]'s best fit)
/// overwritten, else fresh zeroed pages.
pub(crate) fn zeroed(len: usize) -> Vec<u32> {
    if !takes_part::<u32>(len) {
        return vec![0; len];
    }
    let mut column =
        with_job(|job| job.take(len, |len| vec![0; len])).unwrap_or_else(|| vec![0; len]);
    column.resize(len, 0);
    column
}

/// Make room for one more element in a full `column`, doubling it the way
/// `Vec` does. A doubled column that takes part is a recycled one when one
/// fits, the outgrown one going back to the shelf for a smaller bucket's
/// growth. Else the allocator grows it, and only the added capacity
/// counts as fresh (a large block grows by `mremap`, keeping its pages).
#[cold]
pub(crate) fn grow<T: Send + 'static>(column: &mut Vec<T>) {
    let wanted = (column.capacity() * 2).max(8);
    if takes_part::<T>(wanted) {
        if let Some(Some(mut spare)) = with_job(|job| job.take_recycled::<T>(wanted, false)) {
            spare.append(column);
            give(std::mem::replace(column, spare));
            return;
        }
    }
    let outgrown = column.capacity();
    column.reserve(1);
    if takes_part::<T>(column.capacity()) {
        with_job(|job| job.count_fresh::<T>(column.capacity() - outgrown));
    }
}

/// Trim a column that takes part to its length, so no spare capacity is
/// held while the column waits for its reducer, nor carried into the
/// next job's use of it.
pub(crate) fn trim<T>(column: &mut Vec<T>) {
    if takes_part::<T>(column.capacity()) {
        column.shrink_to_fit();
    }
}

/// Hand back a column that is no longer needed: shelved when it takes part
/// and a job is current, else freed.
pub(crate) fn give<T: Send + 'static>(column: Vec<T>) {
    if takes_part::<T>(column.capacity()) {
        with_job(|job| job.recycler.give(column));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Elements of `T` in a column of exactly [`MIN_BYTES`].
    fn at_threshold<T>() -> usize {
        MIN_BYTES / std::mem::size_of::<T>()
    }

    #[test]
    fn recycle_columns_under_the_threshold_never_enter() {
        let recycler = Arc::new(Recycler::default());
        let job = JobColumns::new(&recycler);
        let _scope = job.enter();
        give(Vec::<u64>::with_capacity(at_threshold::<u64>() - 1));
        give(Vec::<u8>::with_capacity(MIN_BYTES - 1));
        give(Vec::<()>::with_capacity(usize::MAX));
        assert_eq!(recycler.shelved(), 0);
        give(Vec::<u64>::with_capacity(at_threshold::<u64>()));
        assert_eq!(recycler.shelved(), 1);
        // Small requests never take, even when a large column would fit.
        let small: Vec<u64> = with_capacity(16);
        assert_eq!(small.capacity(), 16);
        assert_eq!(recycler.shelved(), 1);
        assert_eq!(job.bytes(), (0, 0));
    }

    #[test]
    fn recycle_takes_the_best_fit_of_the_right_type() {
        let recycler = Arc::new(Recycler::default());
        let job = JobColumns::new(&recycler);
        let _scope = job.enter();
        let n = at_threshold::<u64>();
        for capacity in [4 * n, n, 2 * n] {
            give(Vec::<u64>::with_capacity(capacity));
        }
        give(Vec::<f64>::with_capacity(n));
        let taken: Vec<u64> = with_capacity(n + 1);
        assert_eq!(taken.capacity(), 2 * n);
        let taken: Vec<f64> = with_capacity(n);
        assert_eq!(taken.capacity(), n);
        // No f64 column is left, so this one is fresh.
        let fresh: Vec<f64> = with_capacity(n);
        assert_eq!(job.bytes(), (2 * n * 8 + n * 8, n * 8));
        drop(fresh);
        assert_eq!(recycler.shelved(), 2);
        // Nothing holds 8n: the largest shorter column is extended.
        let extended: Vec<u64> = with_capacity(8 * n);
        assert!(extended.capacity() >= 8 * n);
        let added = (extended.capacity() - 4 * n) * 8;
        assert_eq!(job.bytes(), (2 * n * 8 + n * 8 + 4 * n * 8, n * 8 + added));
        assert_eq!(recycler.shelved(), 1);
    }

    #[test]
    fn recycle_no_column_survives_two_jobs_untaken() {
        let recycler = Arc::new(Recycler::default());
        let n = at_threshold::<u32>();
        let first = JobColumns::new(&recycler);
        {
            let _scope = first.enter();
            give(Vec::<u32>::with_capacity(n));
            give(Vec::<u32>::with_capacity(2 * n));
        }
        drop(first);
        // Returned by the job that just ended: kept through the next.
        assert_eq!(recycler.shelved(), 2);
        let second = JobColumns::new(&recycler);
        {
            let _scope = second.enter();
            let taken = zeroed(2 * n);
            assert!(taken.iter().all(|&x| x == 0));
            give(taken);
        }
        drop(second);
        // The untaken column of the first job is freed; the one the second
        // job took and returned stays for one more job.
        assert_eq!(recycler.shelved(), 1);
        drop(JobColumns::new(&recycler));
        assert_eq!(recycler.shelved(), 0);
    }

    #[test]
    fn recycle_growth_takes_a_spare_and_shelves_the_outgrown_column() {
        let recycler = Arc::new(Recycler::default());
        let job = JobColumns::new(&recycler);
        let _scope = job.enter();
        let n = at_threshold::<u64>();
        give(Vec::<u64>::with_capacity(8 * n));
        let mut column: Vec<u64> = (0..n as u64).collect();
        column.shrink_to_fit();
        grow(&mut column);
        assert_eq!(column.capacity(), 8 * n);
        assert!(column.iter().copied().eq(0..n as u64));
        // The outgrown column is on the shelf.
        assert_eq!(recycler.shelved(), 1);
        // Nothing fits the next doubling: the allocator grows it.
        let mut other: Vec<u64> = Vec::with_capacity(n);
        other.extend(0..n as u64);
        grow(&mut other);
        assert!(other.capacity() > n);
        let (recycled, fresh) = job.bytes();
        assert_eq!(recycled, 8 * n * 8);
        assert_eq!(fresh, (other.capacity() - n) * 8);
    }

    #[test]
    fn recycle_below_threshold_stays_out() {
        fn check<T>() {
            let most = below_threshold::<T>();
            assert!(!takes_part::<T>(most));
            // A block of that many bytes plus a size word, rounded up to
            // two words, is still under the threshold.
            let word = std::mem::size_of::<usize>();
            let block = (bytes_of::<T>(most) + word).div_ceil(2 * word) * 2 * word;
            assert!(block < MIN_BYTES, "{block} bytes");
        }
        check::<u8>();
        check::<u64>();
        check::<(u64, u64)>();
        check::<((u64, u64, u64, u64), f64)>();
        check::<[u8; 3]>();
        assert_eq!(below_threshold::<[u8; MIN_BYTES]>(), 1);
        assert_eq!(
            below_threshold::<()>(),
            MIN_BYTES - 3 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn recycle_is_the_allocator_outside_a_job() {
        let n = at_threshold::<u64>();
        give(Vec::<u64>::with_capacity(n));
        let column: Vec<u64> = with_capacity(n);
        assert_eq!(column.capacity(), n);
        let mut full: Vec<u64> = vec![1; n];
        full.shrink_to_fit();
        grow(&mut full);
        assert!(full.capacity() > n);
    }
}
