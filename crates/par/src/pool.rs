//! The deterministic thread pool.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::region::{cores, run_region};

/// Process-wide thread-count override; 0 means "not yet resolved".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread thread-count override; 0 means "not set". Consulted
    /// before the process-global value so a service can partition its
    /// worker threads without touching the process-wide setting.
    static LOCAL_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs `f` with the calling thread's pool width pinned to `threads`
/// (clamped to ≥ 1). The override applies to every [`Pool::global()`]
/// created on this thread inside `f` — including transitively, deep in
/// kernel code — and is restored on exit, even on panic. Results are
/// unaffected by construction: the determinism contract makes them
/// bit-identical at any width; only the parallelism changes.
pub fn with_local_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = LOCAL_THREADS.with(|c| {
        let prev = c.get();
        c.set(threads.max(1));
        prev
    });
    let _restore = Restore(prev);
    f()
}

/// Resolves the global thread count: a [`with_local_threads`] scope on
/// the calling thread wins, then an explicit [`set_global_threads`]
/// override, then the `RDP_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. A value of 1 selects the
/// exact serial fallback.
pub fn global_threads() -> usize {
    let local = LOCAL_THREADS.with(|c| c.get());
    if local != 0 {
        return local;
    }
    let t = GLOBAL_THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let resolved = threads_from_env();
    // Racing initializers resolve to the same value, so a plain store
    // is fine; `set_global_threads` may overwrite it later.
    GLOBAL_THREADS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the global thread count (clamped to ≥ 1) for the whole
/// process. Intended for benchmarks that fix one width per process;
/// production callers should prefer `RDP_THREADS`, and code that
/// compares widths within one process pins each with
/// [`with_local_threads`].
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads.max(1), Ordering::Relaxed);
}

fn threads_from_env() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("RDP_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => {
                eprintln!("warning: ignoring unparsable RDP_THREADS={v:?}");
                cores()
            }
        },
        Err(_) => cores(),
    })
}

/// Deterministic chunk length for `n` items: large enough that at most
/// `max_chunks` chunks exist (bounding per-chunk scratch memory), never
/// below `min_len` (bounding scheduling overhead). Depends only on the
/// item count — **never** on the thread count — so chunk boundaries,
/// and with them every floating-point grouping, are reproducible.
pub fn chunk_len(n: usize, max_chunks: usize, min_len: usize) -> usize {
    n.div_ceil(max_chunks.max(1)).max(min_len).max(1)
}

/// A deterministic thread pool of a fixed logical width.
///
/// `Pool` is a plain value (`Copy`): it carries the worker count, and
/// each parallel region runs on the calling thread plus that thread's
/// own persistent helpers. See the crate docs for the determinism
/// contract and the helper lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::global()
    }
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The exact serial fallback: one worker, inline execution.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The process-global pool, sized by [`global_threads`].
    pub fn global() -> Self {
        Pool::new(global_threads())
    }

    /// Logical worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n` into fixed chunks of `chunk` items (the last chunk
    /// may be short) and maps every chunk, returning the per-chunk
    /// results **in chunk order**. `f` receives the chunk index and the
    /// item range.
    pub fn map_chunks<R, F>(&self, n: usize, chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.map_chunks_scratch(n, chunk, || (), |(), ci, range| f(ci, range))
    }

    /// [`map_chunks`](Pool::map_chunks) with per-worker scratch: every
    /// worker creates one scratch value with `make_scratch` and reuses
    /// it across the chunks it processes. Scratch state must not
    /// influence results (workers pick up chunks dynamically).
    pub fn map_chunks_scratch<S, R, FS, F>(
        &self,
        n: usize,
        chunk: usize,
        make_scratch: FS,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, Range<usize>) -> R + Sync,
    {
        let chunk = chunk.max(1);
        let nchunks = n.div_ceil(chunk);
        if nchunks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(nchunks);
        if workers <= 1 {
            let mut scratch = make_scratch();
            return (0..nchunks)
                .map(|ci| f(&mut scratch, ci, chunk_range(ci, chunk, n)))
                .collect();
        }

        let cursor = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(nchunks));
        run_region(workers, &|| {
            let mut scratch = make_scratch();
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let ci = cursor.fetch_add(1, Ordering::Relaxed);
                if ci >= nchunks {
                    break;
                }
                local.push((ci, f(&mut scratch, ci, chunk_range(ci, chunk, n))));
            }
            done.lock().expect("results lock poisoned").extend(local);
        });

        let mut slots: Vec<Option<R>> = (0..nchunks).map(|_| None).collect();
        for (ci, r) in done.into_inner().expect("results lock poisoned") {
            slots[ci] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every chunk was processed"))
            .collect()
    }

    /// Parallel mutation of `out` in fixed chunks of `chunk` elements:
    /// `f(scratch, chunk_index, offset, slice)` receives a disjoint
    /// `&mut` window starting at element `offset`. Writes are disjoint
    /// by construction, so results are deterministic for any thread
    /// count.
    pub fn for_chunks_mut<O, S, FS, F>(&self, out: &mut [O], chunk: usize, make_scratch: FS, f: F)
    where
        O: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, usize, &mut [O]) + Sync,
    {
        let chunk = chunk.max(1);
        let bounds: Vec<usize> = (0..out.len().div_ceil(chunk))
            .map(|ci| ci * chunk)
            .chain(std::iter::once(out.len()))
            .collect();
        self.for_uneven_chunks_mut(out, &bounds, make_scratch, f);
    }

    /// Like [`for_chunks_mut`](Pool::for_chunks_mut) with explicit
    /// chunk boundaries: chunk `i` is `out[bounds[i]..bounds[i + 1]]`.
    /// Used when chunk edges must align with a structure of the data
    /// (e.g. nets with a variable pin count).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not an ascending sequence starting at 0 and
    /// ending at `out.len()`.
    pub fn for_uneven_chunks_mut<O, S, FS, F>(
        &self,
        out: &mut [O],
        bounds: &[usize],
        make_scratch: FS,
        f: F,
    ) where
        O: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, usize, &mut [O]) + Sync,
    {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&out.len()),
            "bounds must start at 0 and end at out.len()"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be ascending"
        );
        let nchunks = bounds.len() - 1;
        if nchunks == 0 {
            return;
        }
        let workers = self.threads.min(nchunks);
        if workers <= 1 {
            let mut scratch = make_scratch();
            let mut rest = out;
            for ci in 0..nchunks {
                let len = bounds[ci + 1] - bounds[ci];
                let (head, tail) = rest.split_at_mut(len);
                f(&mut scratch, ci, bounds[ci], head);
                rest = tail;
            }
            return;
        }

        // Split `out` into disjoint windows up front; workers drain the
        // queue dynamically. Which worker runs a chunk cannot influence
        // results — each window is written by exactly one worker.
        let mut items: Vec<(usize, usize, &mut [O])> = Vec::with_capacity(nchunks);
        let mut rest = out;
        for ci in 0..nchunks {
            let len = bounds[ci + 1] - bounds[ci];
            let (head, tail) = rest.split_at_mut(len);
            items.push((ci, bounds[ci], head));
            rest = tail;
        }
        items.reverse(); // pop() drains in ascending chunk order
        let queue = Mutex::new(items);

        run_region(workers, &|| {
            let mut scratch = make_scratch();
            loop {
                let item = queue.lock().expect("queue poisoned").pop();
                match item {
                    Some((ci, offset, slice)) => f(&mut scratch, ci, offset, slice),
                    None => break,
                }
            }
        });
    }
}

fn chunk_range(ci: usize, chunk: usize, n: usize) -> Range<usize> {
    ci * chunk..((ci + 1) * chunk).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_orders_results_by_chunk() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let out = pool.map_chunks(103, 10, |ci, range| (ci, range.start, range.end));
            assert_eq!(out.len(), 11);
            for (ci, item) in out.iter().enumerate() {
                assert_eq!(*item, (ci, ci * 10, (ci * 10 + 10).min(103)));
            }
        }
    }

    #[test]
    fn chunked_sum_is_thread_count_invariant() {
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64 * 0.1).collect();
        let sum_with = |threads: usize| -> f64 {
            Pool::new(threads)
                .map_chunks(data.len(), 64, |_, r| data[r].iter().sum::<f64>())
                .into_iter()
                .sum()
        };
        let s1 = sum_with(1);
        for threads in [2, 3, 4, 16] {
            assert_eq!(s1.to_bits(), sum_with(threads).to_bits());
        }
    }

    #[test]
    fn for_chunks_mut_writes_every_element_once() {
        for threads in [1, 3, 8] {
            let mut out = vec![0u32; 1001];
            Pool::new(threads).for_chunks_mut(
                &mut out,
                37,
                || (),
                |(), _ci, offset, slice| {
                    for (k, v) in slice.iter_mut().enumerate() {
                        *v += (offset + k) as u32 + 1;
                    }
                },
            );
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u32 + 1, "element {i}");
            }
        }
    }

    #[test]
    fn uneven_bounds_respected() {
        let bounds = [0usize, 3, 3, 10, 16];
        for threads in [1, 4] {
            let mut out = vec![usize::MAX; 16];
            Pool::new(threads).for_uneven_chunks_mut(
                &mut out,
                &bounds,
                || (),
                |(), ci, offset, slice| {
                    assert_eq!(offset, bounds[ci]);
                    assert_eq!(slice.len(), bounds[ci + 1] - bounds[ci]);
                    for v in slice.iter_mut() {
                        *v = ci;
                    }
                },
            );
            for (i, v) in out.iter().enumerate() {
                let expect = match i {
                    0..=2 => 0,
                    3..=9 => 2,
                    _ => 3,
                };
                assert_eq!(*v, expect, "element {i}");
            }
        }
    }

    #[test]
    fn scratch_is_reused_not_shared() {
        // Each worker's scratch counts the chunks it processed; totals
        // must add up to the chunk count.
        let counted = std::sync::atomic::AtomicUsize::new(0);
        Pool::new(4).map_chunks_scratch(
            1000,
            10,
            || 0usize,
            |seen, _ci, _r| {
                *seen += 1;
                counted.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(counted.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let out = Pool::new(4).map_chunks(0, 8, |ci, _| ci);
        assert!(out.is_empty());
        let mut buf: [u8; 0] = [];
        Pool::new(4).for_chunks_mut(&mut buf, 8, || (), |(), _, _, _| panic!("no chunks"));
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map_chunks(100, 5, |ci, _| {
                if ci == 7 {
                    panic!("boom in chunk 7");
                }
                ci
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn nested_regions_work() {
        let pool = Pool::new(2);
        let outer = pool.map_chunks(8, 2, |_, range| {
            let inner: usize = Pool::new(2)
                .map_chunks(4, 1, |_, r| r.start + 1)
                .into_iter()
                .sum();
            range.len() * inner
        });
        assert_eq!(outer, vec![20, 20, 20, 20]);
    }

    #[test]
    fn chunk_len_policy() {
        assert_eq!(chunk_len(0, 16, 8), 8);
        assert_eq!(chunk_len(100, 16, 1), 7);
        assert_eq!(chunk_len(100, 16, 32), 32);
        assert_eq!(chunk_len(1, 16, 1), 1);
        // Thread count does not appear anywhere in the policy.
    }

    #[test]
    fn global_pool_is_at_least_one() {
        assert!(Pool::global().threads() >= 1);
    }

    #[test]
    fn local_thread_override_scopes_and_restores() {
        let outside = Pool::global().threads();
        let inside = with_local_threads(3, || Pool::global().threads());
        assert_eq!(inside, 3);
        assert_eq!(Pool::global().threads(), outside);

        // Nested scopes stack; zero clamps to one.
        with_local_threads(2, || {
            assert_eq!(Pool::global().threads(), 2);
            with_local_threads(0, || assert_eq!(Pool::global().threads(), 1));
            assert_eq!(Pool::global().threads(), 2);
        });

        // The override is per-thread: a spawned thread sees the default.
        with_local_threads(5, || {
            let other = std::thread::spawn(move || Pool::global().threads())
                .join()
                .unwrap();
            assert_eq!(other, outside);
        });

        // Restored even when the scope panics.
        let _ = std::panic::catch_unwind(|| with_local_threads(7, || panic!("boom")));
        assert_eq!(Pool::global().threads(), outside);
    }
}
