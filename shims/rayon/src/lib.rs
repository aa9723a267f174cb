//! Offline stand-in for `rayon`.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the subset of the rayon 1.x API that DR-BW's batch engine uses —
//! `par_iter()` / `into_par_iter()` / `map` / `collect`, plus
//! [`current_num_threads`] and a [`ThreadPoolBuilder`] whose pools scope a
//! thread-count override. It is a *real* data-parallel implementation:
//! items are dispatched to `std::thread::scope` workers (the calling
//! thread among them) through an atomic work index (dynamic scheduling,
//! so uneven simulation runs balance), and results are returned **in
//! input order**, which is what the
//! deterministic-training contract in `drbw-core::training` relies on.
//! Swap the path dependency back to crates.io rayon on a networked machine
//! and the workspace compiles unchanged.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel iterators on this thread will
/// use: an installed pool's size, else `RAYON_NUM_THREADS`, else the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
    if let Some(n) = POOL_THREADS.with(|t| t.get()) {
        return n.max(1);
    }
    if let Some(n) = std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Error building a thread pool (kept for API compatibility; the shim
/// cannot actually fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a scoped thread pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fix the pool's worker count (0 means "automatic", like rayon).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = (n > 0).then_some(n);
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { num_threads: self.num_threads })
    }
}

/// A handle scoping parallel work to a fixed worker count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: Option<usize>,
}

impl ThreadPool {
    /// Run `op` with this pool's thread count governing any parallel
    /// iterators it executes.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let prev = POOL_THREADS.with(|t| t.replace(self.num_threads));
        // Restore on unwind too, so a panicking op doesn't leak the override.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|t| t.set(self.0));
            }
        }
        let _restore = Restore(prev);
        op()
    }

    /// The worker count parallel iterators will use under this pool.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads.unwrap_or_else(current_num_threads)
    }
}

/// Apply `f` to every item on a scoped worker crew, returning results in
/// input order. Dynamic scheduling: workers pull the next unclaimed index.
/// The calling thread is one of the workers, so a crew of *n* spawns
/// *n* − 1 threads and the caller never idles while they work.
fn par_apply<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = current_num_threads().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i].lock().unwrap().take().expect("each index claimed once");
        let r = f(item);
        *out[i].lock().unwrap() = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    out.into_iter().map(|m| m.into_inner().unwrap().expect("worker filled its slot")).collect()
}

/// A parallel iterator: a source of items plus a fused mapping stage.
pub trait ParallelIterator: Sized {
    /// The item type this iterator yields.
    type Item: Send;

    /// Materialize all items, in input order, running the mapped stages
    /// in parallel.
    fn exec(self) -> Vec<Self::Item>;

    /// Transform every item with `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, f }
    }

    /// Collect the results (order-preserving).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_vec(self.exec())
    }
}

/// Conversion from an ordered result vector, the collect target.
pub trait FromParallelIterator<T> {
    /// Build the collection from items in input order.
    fn from_par_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(items: Vec<T>) -> Self {
        items
    }
}

/// A mapped parallel iterator.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn exec(self) -> Vec<R> {
        par_apply(self.base.exec(), &self.f)
    }
}

/// Borrowing source over a slice.
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn exec(self) -> Vec<&'a T> {
        self.slice.iter().collect()
    }
}

/// Owning source over a vector.
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;

    fn exec(self) -> Vec<T> {
        self.items
    }
}

/// Types convertible into an owning parallel iterator.
pub trait IntoParallelIterator {
    /// Yielded item type.
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = VecIter<usize>;
    fn into_par_iter(self) -> VecIter<usize> {
        VecIter { items: self.collect() }
    }
}

/// Types whose references iterate in parallel (`.par_iter()`).
pub trait IntoParallelRefIterator<'data> {
    /// Yielded item type (a reference).
    type Item: Send;
    /// The iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing conversion.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = SliceIter<'data, T>;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Iter = SliceIter<'data, T>;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { slice: self }
    }
}

/// The customary glob import.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_owns_items() {
        let input: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let out: Vec<usize> = input.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 2);
        let r: Vec<usize> = (0..10usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(r, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        if current_num_threads() < 2 {
            return; // single-core runner: nothing to assert
        }
        let ids = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64usize)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                ids.lock().unwrap().insert(std::thread::current().id());
            })
            .collect();
        assert!(ids.lock().unwrap().len() > 1, "expected more than one worker thread");
    }

    #[test]
    fn pool_install_scopes_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.current_num_threads(), 1);
        pool.install(|| {
            assert_eq!(current_num_threads(), 1);
            let ids = Mutex::new(HashSet::new());
            let _: Vec<()> = (0..16usize)
                .into_par_iter()
                .map(|_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                })
                .collect();
            assert_eq!(ids.lock().unwrap().len(), 1, "pool of one must not spawn workers");
        });
        assert_eq!(POOL_THREADS.with(|t| t.get()), None, "override restored");
    }

    #[test]
    fn calling_thread_is_one_of_the_workers() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let caller = std::thread::current().id();
        // Both items wait for each other, so two workers must hold one
        // each at the same time.
        let barrier = std::sync::Barrier::new(2);
        let ids: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    barrier.wait();
                    std::thread::current().id()
                })
                .collect()
        });
        assert!(ids.contains(&caller), "the calling thread ran no item: {ids:?}");
        assert_ne!(ids[0], ids[1], "two workers ran the two items");
    }

    #[test]
    fn nested_maps_fuse_correctly() {
        let out: Vec<usize> = (0..50usize).into_par_iter().map(|i| i + 1).map(|i| i * 10).collect();
        assert_eq!(out[0], 10);
        assert_eq!(out[49], 500);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let count = AtomicUsize::new(0);
        let out: Vec<usize> = (0..777usize)
            .into_par_iter()
            .map(|i| {
                count.fetch_add(1, Ordering::Relaxed);
                i
            })
            .collect();
        assert_eq!(count.load(Ordering::Relaxed), 777);
        assert_eq!(out, (0..777).collect::<Vec<_>>());
    }
}
