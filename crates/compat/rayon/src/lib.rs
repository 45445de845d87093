//! Offline shim for `rayon`: data parallelism over `std::thread::scope`.
//!
//! Supports the pipeline the repository uses — `into_par_iter()` on
//! `Vec<T>` and `usize` ranges, chained `.map(..)` stages, and
//! `.collect::<Vec<_>>()` — preserving input order. Work is split into
//! one contiguous chunk per available core; the calling thread processes
//! the first chunk itself and each other chunk runs on its own scoped
//! thread, so a `k`-chunk call spawns `k − 1` threads. There is no work
//! stealing, so heavily skewed per-item costs parallelize less evenly
//! than under real rayon, but the workloads this repo fans out are close
//! to uniform.

#![forbid(unsafe_code)]

use std::ops::Range;

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Number of worker threads configured: the `SWS_RAYON_THREADS`
/// environment variable when set (the shim's stand-in for rayon's
/// `RAYON_NUM_THREADS`, read per call so benchmarks can vary it), else
/// the number of available cores.
fn configured_threads() -> usize {
    std::env::var("SWS_RAYON_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Number of worker threads to use for `len` items.
fn worker_count(len: usize) -> usize {
    configured_threads().min(len.max(1))
}

/// Order-preserving parallel map used by every adapter. The first chunk
/// runs on the calling thread while scoped threads run the others; a
/// panic on any of them propagates to the caller once all have finished.
fn par_map_vec<T, U, F>(items: Vec<T>, f: &F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut results: Vec<Vec<U>> = Vec::with_capacity(chunks.len());
    let mut chunks = chunks.into_iter();
    let first = chunks.next().unwrap_or_default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        results.push(first.into_iter().map(f).collect());
        for handle in handles {
            results.push(handle.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// A (fully materialized) parallel iterator.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Runs the pipeline and returns the items in order.
    fn drive(self) -> Vec<Self::Item>;

    /// Parallel map stage.
    fn map<U, F>(self, f: F) -> MapPar<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Sync,
    {
        MapPar { inner: self, f }
    }

    /// Collects into a container.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_vec(self.drive())
    }
}

/// Containers a parallel iterator can collect into.
pub trait FromParallelIterator<T: Send> {
    fn from_par_vec(items: Vec<T>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Base iterator over an owned vector.
pub struct VecPar<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecPar<T> {
    type Item = T;

    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// Map stage; the closure runs on worker threads when `drive`n.
pub struct MapPar<P, F> {
    inner: P,
    f: F,
}

impl<P, U, F> ParallelIterator for MapPar<P, F>
where
    P: ParallelIterator,
    U: Send,
    F: Fn(P::Item) -> U + Sync,
{
    type Item = U;

    fn drive(self) -> Vec<U> {
        par_map_vec(self.inner.drive(), &self.f)
    }
}

/// Types convertible into a parallel iterator by value.
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;

    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecPar<T>;

    fn into_par_iter(self) -> VecPar<T> {
        VecPar { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = VecPar<usize>;

    fn into_par_iter(self) -> VecPar<usize> {
        VecPar {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for Range<u64> {
    type Item = u64;
    type Iter = VecPar<u64>;

    fn into_par_iter(self) -> VecPar<u64> {
        VecPar {
            items: self.collect(),
        }
    }
}

/// `par_iter()` over a borrowed slice of clonable items (the shim clones;
/// acceptable for the small parameter structs fanned out here).
pub trait IntoParallelRefIterator {
    type Item: Send;

    fn par_iter(&self) -> VecPar<Self::Item>;
}

impl<T: Clone + Send> IntoParallelRefIterator for [T] {
    type Item = T;

    fn par_iter(&self) -> VecPar<T> {
        VecPar {
            items: self.to_vec(),
        }
    }
}

impl<T: Clone + Send> IntoParallelRefIterator for Vec<T> {
    type Item = T;

    fn par_iter(&self) -> VecPar<T> {
        VecPar {
            items: self.clone(),
        }
    }
}

/// The global thread-pool size real rayon exposes; used by callers to
/// report measured scaling.
pub fn current_num_threads() -> usize {
    configured_threads()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chained_maps_compose() {
        let out: Vec<String> = vec![1, 2, 3]
            .into_par_iter()
            .map(|x| x + 1)
            .map(|x| x.to_string())
            .collect();
        assert_eq!(out, vec!["2", "3", "4"]);
    }

    #[test]
    fn result_collection_short_circuits_on_error() {
        let ok: Result<Vec<usize>, String> = (0..10usize).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<usize>, String> = (0..10usize)
            .into_par_iter()
            .map(|x| {
                if x == 5 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn actually_uses_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64usize)
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            })
            .collect();
        let threads = seen.lock().unwrap().len();
        if super::current_num_threads() > 1 {
            assert!(
                threads > 1,
                "expected parallel execution, saw {threads} thread(s)"
            );
        }
    }
}
