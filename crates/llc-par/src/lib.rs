//! Deterministic scoped-thread fan-out for the offline learning pipeline
//! and the plant's lane sweep.
//!
//! The registry-less build environment cannot pull `rayon`, so this crate
//! provides the small slice of it the workspace needs: [`par_map`], an
//! order-preserving parallel map over a slice. Three properties matter to
//! the controllers built on top:
//!
//! 1. **Determinism** — each item's result is written into its own
//!    pre-sized slot, so the output is bit-identical to the serial map
//!    regardless of thread count or scheduling (no atomic accumulation,
//!    no float reassociation).
//! 2. **No nesting explosion** — a `par_map` issued from inside a worker
//!    runs serially inline (thread-local guard), so outer-level
//!    parallelism (e.g. one task per abstraction map) composes with
//!    inner-level parallelism (one task per grid point) without spawning
//!    `threads²` workers.
//! 3. **Graceful single-core degradation** — with one available core (or
//!    [`set_threads`]`(1)`) the map runs inline with zero overhead, which
//!    also serves as the serial baseline for benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread-count override: 0 = auto (`available_parallelism`).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set inside `par_map` workers to force nested calls inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Override the worker count used by [`par_map`]; `0` restores the
/// default (one worker per available core, or the `LLC_THREADS`
/// environment variable when set). Benchmarks use `set_threads(1)` to
/// time the serial baseline.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] would use right now.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(env) = std::env::var_os("LLC_THREADS") {
        if let Some(n) = env.to_str().and_then(|s| s.parse::<usize>().ok()) {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `true` when called from inside a [`par_map`] worker (nested calls run
/// inline).
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Run `f` with the worker count forced to `n`, restoring the previous
/// override afterwards (including on panic). The shard-count knob for
/// benchmark arms and determinism tests that compare the same sweep at
/// several thread counts — note the override is process-global, so
/// concurrent callers of `with_threads` race; keep such comparisons
/// inside one sequential test.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.swap(n, Ordering::Relaxed));
    f()
}

/// Map `f` over `items` in parallel, preserving order.
///
/// Equivalent to `items.iter().map(f).collect()` for any pure `f`; the
/// parallel path chunks the slice contiguously over scoped threads and
/// writes each result into its own slot.
pub fn par_map<T: Sync, U: Send, F>(items: &[T], f: F) -> Vec<U>
where
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n);
    if threads <= 1 || in_worker() {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

/// Apply `f` to every element of `items` in place, in parallel.
///
/// The mutable sibling of [`par_map`], for sweeps that update large flat
/// buffers without producing a new allocation — the plant's per-machine
/// lane sweep. Each worker owns a contiguous disjoint chunk, so the
/// result is identical to the serial loop for any pure per-element `f`
/// and there is no synchronization beyond the scope join.
pub fn par_for_each_mut<T: Send, F>(items: &mut [T], f: F)
where
    F: Fn(&mut T) + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n);
    if threads <= 1 || in_worker() {
        for item in items.iter_mut() {
            f(item);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for part in items.chunks_mut(chunk) {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                for item in part.iter_mut() {
                    f(item);
                }
            });
        }
    });
}

/// Map `f` over the index range `0..n` in parallel, preserving order.
///
/// The indexed sibling of [`par_map`], for producers that generate their
/// input from an index (e.g. grid points reconstructed from a flat grid
/// offset) instead of borrowing a slice.
pub fn par_map_range<U: Send, F>(n: usize, f: F) -> Vec<U>
where
    F: Fn(usize) -> U + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = par_map(&items, |&x| x * x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert!(par_map(&empty, |&x: &u64| x).is_empty());
        assert_eq!(par_map(&[42u64], |&x| x + 1), vec![43]);
    }

    #[test]
    fn for_each_mut_matches_serial_sweep() {
        let mut parallel: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mut serial = parallel.clone();
        par_for_each_mut(&mut parallel, |x| *x = *x * 0.5 + 1.0);
        for x in serial.iter_mut() {
            *x = *x * 0.5 + 1.0;
        }
        assert_eq!(parallel, serial);
        let mut empty: Vec<u32> = vec![];
        par_for_each_mut(&mut empty, |x| *x += 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn range_variant_matches() {
        assert_eq!(par_map_range(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn nested_calls_run_inline() {
        let outer: Vec<usize> = (0..8).collect();
        let result = par_map(&outer, |&i| {
            // A nested par_map must not deadlock or explode; it runs
            // serially inside the worker.
            let inner = par_map_range(4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| 4 * i * 10 + 6).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn float_results_bit_identical_to_serial() {
        let items: Vec<f64> = (0..4096).map(|i| i as f64 * 0.37).collect();
        let f = |x: &f64| (x.sin() * 1e6).sqrt().max(0.0) + x / 3.0;
        let serial: Vec<u64> = items.iter().map(|x| f(x).to_bits()).collect();
        let parallel: Vec<u64> = par_map(&items, |x| f(x).to_bits());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn thread_override_roundtrip() {
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
        let inside = with_threads(5, num_threads);
        assert_eq!(inside, 5);
        assert!(num_threads() >= 1, "override restored after the closure");
    }
}
