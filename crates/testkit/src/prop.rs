//! Minimal property-based testing harness (in-repo `proptest`
//! replacement).
//!
//! A property is a [`Gen`] (value generator with in-domain shrinking)
//! plus a test closure returning `Result<(), String>`. The
//! [`prop_check!`](crate::prop_check) macro runs the closure over many
//! generated cases; on failure it shrinks the input — halving scalars
//! toward their lower bound and truncating vectors — and panics with
//! the minimal counterexample **and the per-case seed**, so the failure
//! can be replayed exactly by re-running the test with
//! `RDP_PROP_SEED=<seed>`.
//!
//! ```
//! use rdp_testkit::{prop_check, prop_assert, range, vecs, PropConfig};
//!
//! prop_check!(
//!     PropConfig::cases(64),
//!     (range(0.0..100.0), vecs(range(0usize..10), 1..20)),
//!     |(scale, v): (f64, Vec<usize>)| {
//!         prop_assert!(v.iter().sum::<usize>() as f64 * scale >= 0.0);
//!         Ok(())
//!     }
//! );
//! ```

use crate::rng::{splitmix64, Rng};
use std::fmt::Debug;
use std::ops::Range;

/// Configuration of one property check.
#[derive(Debug, Clone)]
pub struct PropConfig {
    /// Number of generated cases to run.
    pub cases: u32,
    /// Base seed; per-case seeds are derived from it via SplitMix64.
    pub seed: u64,
    /// Upper bound on shrink-candidate evaluations after a failure.
    pub max_shrink_iters: u32,
}

impl PropConfig {
    /// `cases` runs from the default base seed.
    pub fn cases(cases: u32) -> Self {
        PropConfig {
            cases,
            seed: 0x5EED_0000_0000_0001,
            max_shrink_iters: 1024,
        }
    }
}

impl Default for PropConfig {
    fn default() -> Self {
        PropConfig::cases(256)
    }
}

/// A value generator with in-domain shrinking.
///
/// `shrink` returns *simpler* candidate values derived from a failing
/// value; every candidate must lie in the generator's domain, so the
/// harness only ever reports counterexamples the generator could have
/// produced. An empty vec ends shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;
    /// Draws one value.
    fn generate(&self, rng: &mut Rng) -> Self::Value;
    /// Proposes simpler in-domain candidates (tried in order).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Scalar range generators
// ---------------------------------------------------------------------

/// Uniform generator over a half-open range; shrinks by halving the
/// distance to the lower bound. Built by [`range`].
#[derive(Debug, Clone)]
pub struct RangeGen<T> {
    lo: T,
    hi: T,
    inclusive: bool,
}

/// Uniform values in `lo..hi`, shrinking toward `lo`.
pub fn range<T: Copy>(r: Range<T>) -> RangeGen<T> {
    RangeGen {
        lo: r.start,
        hi: r.end,
        inclusive: false,
    }
}

/// Uniform values in `lo..=hi`, shrinking toward `lo`.
pub fn range_inclusive<T: Copy>(lo: T, hi: T) -> RangeGen<T> {
    RangeGen {
        lo,
        hi,
        inclusive: true,
    }
}

macro_rules! impl_int_range_gen {
    ($($t:ty),*) => {$(
        impl Gen for RangeGen<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut Rng) -> $t {
                if self.inclusive {
                    rng.gen_range(self.lo..=self.hi)
                } else {
                    rng.gen_range(self.lo..self.hi)
                }
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let v = *value;
                let mut out = Vec::new();
                if v != self.lo {
                    out.push(self.lo);
                    let half = self.lo + (v - self.lo) / 2;
                    if half != self.lo && half != v {
                        out.push(half);
                    }
                }
                out
            }
        }
    )*};
}
impl_int_range_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Gen for RangeGen<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut Rng) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        let mut out = Vec::new();
        if v != self.lo {
            out.push(self.lo);
            let half = self.lo + (v - self.lo) / 2.0;
            if half != self.lo && half != v {
                out.push(half);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Choice generator
// ---------------------------------------------------------------------

/// Uniform choice from a fixed list; shrinks toward earlier entries.
/// Built by [`select`].
#[derive(Debug, Clone)]
pub struct SelectGen<T> {
    choices: Vec<T>,
}

/// Uniformly selects one of `choices` (must be non-empty); shrinking
/// proposes entries listed *before* the failing one, so put the
/// simplest choice first.
pub fn select<T: Clone + Debug + PartialEq>(choices: Vec<T>) -> SelectGen<T> {
    assert!(!choices.is_empty(), "select() needs at least one choice");
    SelectGen { choices }
}

impl<T: Clone + Debug + PartialEq> Gen for SelectGen<T> {
    type Value = T;
    fn generate(&self, rng: &mut Rng) -> T {
        rng.choose(&self.choices).expect("non-empty").clone()
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        let idx = self
            .choices
            .iter()
            .position(|c| c == value)
            .unwrap_or(self.choices.len());
        self.choices[..idx].to_vec()
    }
}

// ---------------------------------------------------------------------
// Vec generator
// ---------------------------------------------------------------------

/// Vector of generated elements with a random length; shrinks by
/// truncation, then element-wise. Built by [`vecs`].
#[derive(Debug, Clone)]
pub struct VecGen<G> {
    elem: G,
    len: Range<usize>,
}

/// A vector of `elem`-generated values with length drawn from `len`
/// (half-open). Shrinking first truncates (half length, then one
/// shorter), then shrinks individual elements.
pub fn vecs<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen { elem, len }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn generate(&self, rng: &mut Rng) -> Vec<G::Value> {
        let n = rng.gen_range(self.len.start..self.len.end);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // Truncations (always stay within the length domain).
        for target in [self.len.start, n / 2, n.saturating_sub(1)] {
            if target >= self.len.start && target < n {
                out.push(value[..target].to_vec());
            }
        }
        // Element-wise shrinks: first candidate per element, bounded.
        for i in 0..n.min(16) {
            if let Some(simpler) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = simpler;
                out.push(v);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Tuple generators
// ---------------------------------------------------------------------

macro_rules! impl_tuple_gen {
    ($($g:ident / $v:ident / $i:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$i.shrink(&value.$i) {
                        let mut v = value.clone();
                        v.$i = cand;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}
impl_tuple_gen!(G0 / V0 / 0, G1 / V1 / 1);
impl_tuple_gen!(G0 / V0 / 0, G1 / V1 / 1, G2 / V2 / 2);
impl_tuple_gen!(G0 / V0 / 0, G1 / V1 / 1, G2 / V2 / 2, G3 / V3 / 3);
impl_tuple_gen!(
    G0 / V0 / 0,
    G1 / V1 / 1,
    G2 / V2 / 2,
    G3 / V3 / 3,
    G4 / V4 / 4
);
impl_tuple_gen!(
    G0 / V0 / 0,
    G1 / V1 / 1,
    G2 / V2 / 2,
    G3 / V3 / 3,
    G4 / V4 / 4,
    G5 / V5 / 5
);
impl_tuple_gen!(
    G0 / V0 / 0,
    G1 / V1 / 1,
    G2 / V2 / 2,
    G3 / V3 / 3,
    G4 / V4 / 4,
    G5 / V5 / 5,
    G6 / V6 / 6
);

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Environment variable replaying a single failing case: set it to the
/// seed printed in a failure report.
pub const REPLAY_ENV: &str = "RDP_PROP_SEED";

/// Runs a property over `config.cases` generated inputs; called via
/// [`prop_check!`](crate::prop_check).
///
/// # Panics
///
/// Panics with the shrunk counterexample, failure message, and replay
/// seed when the property is falsified.
pub fn run_prop<G, F>(file: &str, line: u32, config: &PropConfig, gen: &G, test: F)
where
    G: Gen,
    F: Fn(G::Value) -> Result<(), String>,
{
    if let Ok(replay) = std::env::var(REPLAY_ENV) {
        let raw = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(raw, 16)
            .or_else(|_| replay.trim().parse::<u64>())
            .unwrap_or_else(|_| panic!("unparseable {REPLAY_ENV}={replay}"));
        run_case(file, line, config, gen, &test, seed, 0);
        return;
    }
    let mut seed_state = config.seed;
    for case in 0..config.cases {
        let case_seed = splitmix64(&mut seed_state);
        run_case(file, line, config, gen, &test, case_seed, case);
    }
}

fn run_case<G, F>(
    file: &str,
    line: u32,
    config: &PropConfig,
    gen: &G,
    test: &F,
    case_seed: u64,
    case: u32,
) where
    G: Gen,
    F: Fn(G::Value) -> Result<(), String>,
{
    let mut rng = Rng::new(case_seed);
    let value = gen.generate(&mut rng);
    if let Err(err) = test(value.clone()) {
        let (min_value, min_err, steps) = shrink_failure(gen, test, value, err, config);
        panic!(
            "[{file}:{line}] property falsified after {} case(s) ({steps} shrink step(s))\n  \
             minimal input: {min_value:?}\n  \
             error: {min_err}\n  \
             replay: {REPLAY_ENV}={case_seed:#x} cargo test -q",
            case + 1,
        );
    }
}

/// Greedy shrink: repeatedly adopt the first candidate that still fails,
/// until no candidate fails or the iteration budget is exhausted.
fn shrink_failure<G, F>(
    gen: &G,
    test: &F,
    mut value: G::Value,
    mut err: String,
    config: &PropConfig,
) -> (G::Value, String, u32)
where
    G: Gen,
    F: Fn(G::Value) -> Result<(), String>,
{
    let mut iters = 0u32;
    let mut steps = 0u32;
    'outer: while iters < config.max_shrink_iters {
        for cand in gen.shrink(&value) {
            iters += 1;
            if let Err(e) = test(cand.clone()) {
                value = cand;
                err = e;
                steps += 1;
                continue 'outer;
            }
            if iters >= config.max_shrink_iters {
                break 'outer;
            }
        }
        break;
    }
    (value, err, steps)
}

/// Runs a property: `prop_check!(config, generator, |value| { ... Ok(()) })`.
///
/// * `config` — a [`PropConfig`] (case count, seed, shrink budget).
/// * `generator` — any [`Gen`]; tuples of generators are generators.
/// * the closure takes the generated value **by value** and returns
///   `Result<(), String>`; use [`prop_assert!`](crate::prop_assert) /
///   [`prop_assert_eq!`](crate::prop_assert_eq) inside it.
#[macro_export]
macro_rules! prop_check {
    ($config:expr, $gen:expr, $test:expr $(,)?) => {
        $crate::prop::run_prop(file!(), line!(), &$config, &$gen, $test)
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args…)`: returns
/// `Err` from the property closure instead of panicking, so the harness
/// can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    };
}

/// Equality counterpart of [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) ({}:{})",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                file!(),
                line!()
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if va != vb {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) — {} ({}:{})",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                format!($($fmt)+),
                file!(),
                line!()
            ));
        }
    }};
}

/// Inequality counterpart of [`prop_assert!`](crate::prop_assert).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err(format!(
                "assertion failed: {} != {} (both {:?}) ({}:{})",
                stringify!($a),
                stringify!($b),
                va,
                file!(),
                line!()
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        prop_check!(PropConfig::cases(33), range(0u64..100), |_v: u64| {
            counter.set(counter.get() + 1);
            Ok(())
        });
        count += counter.get();
        assert_eq!(count, 33);
    }

    #[test]
    fn failing_property_panics_with_replay_seed() {
        let result = std::panic::catch_unwind(|| {
            prop_check!(PropConfig::cases(50), range(0u64..1000), |v: u64| {
                prop_assert!(v < 10, "v was {v}");
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("RDP_PROP_SEED="), "{msg}");
        assert!(msg.contains("minimal input"), "{msg}");
    }

    #[test]
    fn shrinking_halves_scalars_to_boundary() {
        // Property fails for v >= 100: minimal failing input must shrink
        // to within one halving step of the boundary.
        let result = std::panic::catch_unwind(|| {
            prop_check!(PropConfig::cases(100), range(0u64..10_000), |v: u64| {
                prop_assert!(v < 100);
                Ok(())
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        let min: u64 = msg
            .split("minimal input: ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((100..200).contains(&min), "shrunk to {min}");
    }

    #[test]
    fn shrinking_truncates_vecs() {
        let result = std::panic::catch_unwind(|| {
            prop_check!(
                PropConfig::cases(100),
                vecs(range(0u64..10), 0..50),
                |v: Vec<u64>| {
                    prop_assert!(v.len() < 5);
                    Ok(())
                }
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        // Minimal failing vec has exactly 5 elements.
        let list = msg
            .split("minimal input: ")
            .nth(1)
            .unwrap()
            .lines()
            .next()
            .unwrap();
        let n = list.matches(',').count() + 1;
        assert_eq!(n, 5, "minimal vec {list}");
    }

    #[test]
    fn tuple_generators_compose() {
        prop_check!(
            PropConfig::cases(64),
            (range(1usize..10), range(0.0..1.0), select(vec![2u32, 4, 8])),
            |(n, f, p): (usize, f64, u32)| {
                prop_assert!(n >= 1 && n < 10);
                prop_assert!((0.0..1.0).contains(&f));
                prop_assert!([2u32, 4, 8].contains(&p));
                Ok(())
            }
        );
    }

    #[test]
    fn select_shrinks_toward_earlier_choices() {
        let g = select(vec![1u32, 2, 3]);
        assert_eq!(g.shrink(&3), vec![1, 2]);
        assert!(g.shrink(&1).is_empty());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = (range(0u64..1_000_000), vecs(range(0.0..1.0), 1..10));
        let a = g.generate(&mut Rng::new(99));
        let b = g.generate(&mut Rng::new(99));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
