//! # rdp-testkit — hermetic verification substrate
//!
//! In-repo, dependency-free replacements for the three external dev
//! dependencies the workspace used to pull from crates-io, so the full
//! tier-1 gate (`cargo build --release --offline && cargo test -q
//! --offline`) runs with **no network access**:
//!
//! | module | replaces | contents |
//! |---|---|---|
//! | [`rng`] | `rand` | [`Rng`]: SplitMix64-seeded xoshiro256++ with `gen_range` / `gen_bool` / `shuffle` / `normal` |
//! | [`prop`] | `proptest` | [`prop_check!`](crate::prop_check) harness: generator combinators, shrinking, seed replay |
//! | [`mod@bench`] | `criterion` | [`BenchHarness`]: warmup + timed samples, median/p95, `BENCH_*.json` output |
//!
//! ## Determinism contract
//!
//! Everything in this crate is deterministic given its seed. The same
//! seed produces the same `u64` stream on every platform (xoshiro256++
//! is defined purely over wrapping 64-bit integer ops), which is the
//! foundation of the workspace-wide contract *same seed → same design →
//! same placement metrics* that the end-to-end determinism test
//! enforces.
//!
//! ## Replaying a property-test failure
//!
//! When a [`prop_check!`](crate::prop_check) property fails, the
//! harness shrinks the input (halving scalars toward their lower bound,
//! truncating vectors) and prints the per-case seed of the failure:
//!
//! ```text
//! [crates/gen/tests/properties.rs:35] property falsified after 7 cases (12 shrink steps)
//!   minimal input: (50, 0, 0.25, ...)
//!   error: assertion failed: ...
//!   replay: RDP_PROP_SEED=0x9e3779b97f4a7c15 cargo test -q <test_name>
//! ```
//!
//! Re-running the named test with that `RDP_PROP_SEED` environment
//! variable executes exactly the failing case (plus its shrink), which
//! makes failures reproducible across machines and CI runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod fault;
pub mod prop;
pub mod rng;

pub use bench::{BenchHarness, BenchResult, Bencher};
pub use fault::{FaultExpectation, FaultKind, FaultPlan};
pub use prop::{range, range_inclusive, select, vecs, Gen, PropConfig};
pub use rng::Rng;
