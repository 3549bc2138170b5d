//! # rdp-par — deterministic data parallelism for the placement stack
//!
//! A zero-dependency thread pool with a **deterministic**
//! parallel-map/reduce API. The workspace's hermetic-build policy rules
//! out `rayon`; more importantly, rayon's reductions associate partial
//! results in scheduling order, which breaks the workspace contract that
//! every kernel is bit-reproducible. This crate makes determinism
//! structural instead of accidental:
//!
//! * **Fixed chunking** — work is split into chunks whose boundaries
//!   depend only on the item count (never on the thread count or on
//!   runtime timing), so the floating-point grouping of every partial
//!   result is invariant.
//! * **Per-chunk / per-worker scratch** — each worker owns its scratch
//!   buffers; nothing scratch-dependent leaks into results.
//! * **Ordered reduction** — per-chunk results are returned (and must be
//!   folded) in chunk order, regardless of which thread computed them or
//!   when it finished.
//!
//! Under this contract `RDP_THREADS=1` and `RDP_THREADS=64` produce
//! bit-identical outputs; the single-thread path is a plain inline loop
//! over the same chunks (an exact serial fallback with zero spawn cost).
//!
//! A parallel region runs on the calling thread plus helper threads
//! that the calling thread keeps between regions: each thread that
//! opens regions gets its own helpers, spawned on first use and joined
//! when it exits, so independent callers never share or wait on each
//! other's helpers. Dispatching a region to warm helpers costs well
//! under a microsecond when they are spinning, against tens of
//! microseconds to spawn a thread (the `pool_region_t2` row of the
//! kernels bench), which matters for the thousands of
//! sub-millisecond regions (DCT passes, density binning) in one
//! placement. A waiting thread spins for at most 50 µs, and only while
//! the widths of all open regions fit within the host's cores;
//! otherwise it parks. A region opened inside another region's job
//! runs inline on that thread. Helpers reach the job, which borrows the
//! caller's data, through a lifetime-erased reference: that one module
//! is the crate's only `unsafe`, and a region neither returns nor
//! unwinds until every helper it posted to has given the job back.
//!
//! ```
//! use rdp_par::Pool;
//!
//! let pool = Pool::new(4);
//! // Ordered chunked sum: bit-identical for any thread count.
//! let parts = pool.map_chunks(1000, 64, |_chunk, range| {
//!     range.map(|i| i as f64).sum::<f64>()
//! });
//! let total: f64 = parts.into_iter().sum();
//! assert_eq!(total, 499_500.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fastexp;
mod pool;
#[allow(unsafe_code)]
mod region;

pub use fastexp::fast_exp;
pub use pool::{chunk_len, global_threads, set_global_threads, with_local_threads, Pool};
