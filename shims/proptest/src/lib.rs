//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset of the proptest API this workspace's property tests
//! use: the [`proptest!`] macro (with an optional
//! `#![proptest_config(...)]` header), `prop_assert!`/`prop_assert_eq!`,
//! range/tuple/`Just`/`prop_oneof!`/`prop_map`/`prop::collection::vec`
//! strategies, `prop::bool::ANY` and `any::<T>()`.
//!
//! Differences from real proptest, on purpose:
//!
//! * inputs are drawn from a seeded deterministic generator (seeded from the
//!   test name), so runs are reproducible without a persistence file;
//! * shrinking is minimal and greedy: a failing input is replaced by the
//!   first simpler candidate that still fails ([`Strategy::shrink`]: `Vec`s
//!   are halved and lose single elements, integers bisect toward their
//!   range's lower bound, `true` becomes `false`, tuples shrink one
//!   component at a time), until no candidate fails. `prop_map`,
//!   `prop_oneof!`, `Just` and `any::<T>()` values do not shrink. The
//!   panic reports the smallest failing input and the case's seed;
//!   [`TestRng::from_seed`] regenerates the original;
//! * `prop_assert*` is plain `assert*` (no rejection bookkeeping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator seeded from an arbitrary byte string (we use the
    /// test function name), so every test gets a distinct but stable stream.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Recreates the generator a case started from, given the seed a
    /// failure report printed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Produces the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "cannot sample an empty range");
        self.next_u64() % bound
    }
}

/// Execution configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases generated per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Simpler values to try in place of a failing `value`, most
    /// aggressive first; empty when it cannot shrink. Every candidate is
    /// one this strategy could have generated.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strategy: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy, as produced by [`Strategy::boxed`].
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

/// Strategy always yielding a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// Bisection toward `lo`: `v - d` for `d = v - lo, (v - lo) / 2, …, 1`,
/// so the first candidate is `lo` itself and the last `v - 1`.
fn bisect_toward(lo: i128, v: i128) -> Vec<i128> {
    let mut out = Vec::new();
    let mut d = v - lo;
    while d > 0 {
        out.push(v - d);
        d /= 2;
    }
    out
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                bisect_toward(self.start as i128, *value as i128)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                bisect_toward(*self.start() as i128, *value as i128)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone,)+
        {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
            /// One component at a time, in order, the others held.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = candidate;
                        out.push(v);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A 0);
tuple_strategy!(A 0, B 1);
tuple_strategy!(A 0, B 1, C 2);
tuple_strategy!(A 0, B 1, C 2, D 3);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6);
tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

/// Weighted union of type-erased strategies; built by [`prop_oneof!`].
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total_weight: u64,
}

impl<T> Union<T> {
    /// Builds a union from `(weight, strategy)` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total_weight: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
        assert!(total_weight > 0, "union needs at least one weighted arm");
        Union { arms, total_weight }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total_weight);
        for (weight, strategy) in &self.arms {
            let weight = u64::from(*weight);
            if pick < weight {
                return strategy.generate(rng);
            }
            pick -= weight;
        }
        unreachable!("weights sum to total_weight");
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over every value of `T`; see [`any`].
pub struct AnyStrategy<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from a range; see [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Generates vectors whose length is uniform in `len` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
        /// The front and back halves (never below the minimum length),
        /// then each single-element removal, then each element shrunk in
        /// place.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let (len, min) = (value.len(), self.len.start);
            let mut out = Vec::new();
            let half = (len / 2).max(min);
            if half < len {
                out.push(value[..half].to_vec());
                if half > 0 {
                    out.push(value[len - half..].to_vec());
                }
            }
            if len > min && len > 1 {
                for i in 0..len {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
            for (i, element) in value.iter().enumerate() {
                for candidate in self.element.shrink(element) {
                    let mut v = value.clone();
                    v[i] = candidate;
                    out.push(v);
                }
            }
            out
        }
    }
}

/// Boolean strategies (`prop::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy yielding either boolean with equal probability.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The uniform boolean strategy (`prop::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

/// Test runs one shrink may spend before it reports what it has.
const MAX_SHRINK_RUNS: u32 = 4096;

/// The smallest failing input a run of [`find_failure`] found.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The failing case, counted from 1.
    pub case: u32,
    /// The generator state the case started from:
    /// `strategy.generate(&mut TestRng::from_seed(seed))` regenerates the
    /// original input.
    pub seed: u64,
    /// The smallest input that still fails.
    pub minimal: T,
    /// The panic message of `minimal`'s run.
    pub message: String,
    /// Shrink steps taken from the original input to `minimal`.
    pub steps: u32,
}

/// Runs `test` once, returning its panic message if it panicked.
fn failure_of<T>(test: &impl Fn(T), value: T) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(|| test(value))).err()?;
    Some(match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("(non-string panic payload)".to_owned(), |s| (*s).to_owned()),
    })
}

/// Runs `config.cases` cases of `test` over inputs drawn from `strategy`
/// (the stream seeded from `name`). On the first failing case, shrinks
/// its input greedily — the first candidate of [`Strategy::shrink`] that
/// still fails replaces it — until no candidate fails, and returns it.
pub fn find_failure<S>(
    name: &str,
    config: &ProptestConfig,
    strategy: &S,
    test: &impl Fn(S::Value),
) -> Option<Failure<S::Value>>
where
    S: Strategy,
    S::Value: Clone,
{
    let mut rng = TestRng::from_name(name);
    for case in 1..=config.cases {
        let seed = rng.state;
        let value = strategy.generate(&mut rng);
        let Some(mut message) = failure_of(test, value.clone()) else {
            continue;
        };
        let (mut minimal, mut steps, mut runs) = (value, 0, 0);
        'shrink: loop {
            for candidate in strategy.shrink(&minimal) {
                if runs == MAX_SHRINK_RUNS {
                    break 'shrink;
                }
                runs += 1;
                if let Some(m) = failure_of(test, candidate.clone()) {
                    (minimal, message, steps) = (candidate, m, steps + 1);
                    continue 'shrink;
                }
            }
            break;
        }
        return Some(Failure {
            case,
            seed,
            minimal,
            message,
            steps,
        });
    }
    None
}

/// The body of every [`proptest!`] test: [`find_failure`], then a panic
/// naming the smallest failing input and its case's seed.
///
/// # Panics
///
/// Panics if any case fails.
pub fn run<S>(name: &str, config: &ProptestConfig, strategy: &S, test: impl Fn(S::Value))
where
    S: Strategy,
    S::Value: Clone + Debug,
{
    if let Some(f) = find_failure(name, config, strategy, &test) {
        panic!(
            "proptest {name}: case {}/{} failed (seed {:#x}); minimal input after {} \
             shrink steps: {:?}\n{}",
            f.case, config.cases, f.seed, f.steps, f.minimal, f.message
        );
    }
}

/// Everything a property test file needs, mirroring
/// `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property test (plain `assert!` here).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (plain `assert_eq!` here).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Builds a [`Union`] strategy from weighted (`w => strategy`) or
/// unweighted arms.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(((($weight) as u32), $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `body` over random strategy draws.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (config = ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            $crate::run(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                &($($strategy,)+),
                |($($arg,)+)| {
                    $body;
                },
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_unions_sample_lawfully() {
        let mut rng = crate::TestRng::from_name("sampling");
        let union = prop_oneof![2 => 0u32..10, 1 => 90u32..100];
        let mut low = 0;
        let mut high = 0;
        for _ in 0..300 {
            let v = union.generate(&mut rng);
            assert!(v < 10 || (90..100).contains(&v));
            if v < 10 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(low > high, "weighted arm should dominate: {low} vs {high}");
    }

    #[test]
    fn vec_strategy_respects_length_bounds() {
        let mut rng = crate::TestRng::from_name("lengths");
        let s = prop::collection::vec(any::<u8>(), 3..7);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    #[test]
    fn integers_bisect_toward_their_lower_bound() {
        assert_eq!((3u32..100).shrink(&40), vec![3, 22, 31, 36, 38, 39]);
        assert_eq!((-5i64..=5).shrink(&-5), Vec::<i64>::new());
    }

    /// A planted bug: the "checked" sum mishandles an element of 100 or
    /// more, but only once the tolerance `k` reaches 7. Random cases find
    /// it with long vectors and large values; shrinking must walk it down
    /// to exactly `([100], 7)`, and the reported seed must replay the
    /// original failing case.
    #[test]
    fn shrinking_reaches_the_minimal_planted_bug() {
        let planted = |(xs, k): (Vec<u32>, u8)| {
            let broken = xs.iter().any(|&x| x >= 100) && k >= 7;
            assert!(!broken, "planted bug: {xs:?} with k = {k}");
        };
        let strategy = (prop::collection::vec(0u32..1_000, 0..40), 0u8..50);
        let config = ProptestConfig::with_cases(64);
        let failure = crate::find_failure("planted", &config, &strategy, &planted)
            .expect("64 cases find the planted bug");
        assert_eq!(failure.minimal, (vec![100], 7));
        assert!(failure.steps > 0);
        assert!(failure.message.contains("planted bug: [100] with k = 7"));
        let original = strategy.generate(&mut crate::TestRng::from_seed(failure.seed));
        let replayed = std::panic::catch_unwind(|| planted(original));
        assert!(replayed.is_err(), "the seed regenerates a failing input");
    }

    #[test]
    fn a_failing_property_panics_with_the_minimal_input_and_seed() {
        let outcome = std::panic::catch_unwind(|| {
            crate::run(
                "report",
                &ProptestConfig::with_cases(32),
                &(0u64..1_000,),
                |(x,)| assert!(x < 10),
            )
        });
        let payload = outcome.expect_err("x < 10 fails on some case");
        let text = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(text.contains("minimal input after"), "{text}");
        assert!(text.contains("(10,)"), "{text}");
        assert!(text.contains("seed 0x"), "{text}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(
            x in 0u64..100,
            (a, b) in (0u8..4, prop::bool::ANY),
            v in prop::collection::vec(0i32..3, 0..5),
        ) {
            prop_assert!(x < 100);
            prop_assert!(a < 4);
            let _ = b;
            prop_assert!(v.len() < 5);
            prop_assert_eq!(v.iter().filter(|&&e| e > 2).count(), 0);
        }
    }
}
