//! A small, dependency-free property-test harness.
//!
//! The workspace's property tests are written against the `proptest`
//! macro surface, and the workspace dependency table maps the name
//! `proptest` onto this crate, so every test builds from the checkout
//! alone. The supported subset is what the tests use:
//!
//! - `proptest!` (with an optional `#![proptest_config(..)]`),
//!   `prop_assert!`, `prop_assert_eq!` and `prop_oneof!`;
//! - integer and float ranges, tuples, [`Just`](strategy::Just),
//!   [`prop_map`](strategy::Strategy::prop_map),
//!   [`collection::vec`], [`sample::select`], `any::<bool>()`, and
//!   `"[a-z]{1,8}"`-style string patterns.
//!
//! Every case draws its input from a seed of its own, derived from the
//! test's name and the case index, so a run is the same on every
//! machine. When a case fails, by a `prop_assert*!` or by a panic, the
//! runner prints the input and its seed. Setting [`SEED_ENV`] to that
//! seed reruns only that case:
//!
//! ```text
//! OVERLAP_CHECK_SEED=0x5d2f0c9e1b7a4433 cargo test --test prop_decompose ag_windows
//! ```
//!
//! There is no shrinking: the reported input is the first that failed.

use std::panic::{self, AssertUnwindSafe};

/// Environment variable that replays one case: its value is a seed the
/// runner printed (`0x`-prefixed hex or decimal).
pub const SEED_ENV: &str = "OVERLAP_CHECK_SEED";

pub mod test_runner {
    use std::fmt;

    /// A failed property, carrying the message of the assertion that
    /// failed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestCaseError(String);

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError(message.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Run configuration: how many cases each property draws.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// SplitMix64 generator: one per case, seeded from the case seed.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        #[must_use]
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            crate::mix(self.state)
        }

        /// Uniform in `0..n`; `0` when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform in `[0, 1)` from the top 53 bits.
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for drawing values from a generator.
    pub trait Strategy {
        type Value: Debug;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Always the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// One of several strategies, picked uniformly; built by
    /// `prop_oneof!`.
    pub struct Union<T>(Vec<Box<dyn Strategy<Value = T>>>);

    impl<T> Union<T> {
        #[doc(hidden)]
        #[must_use]
        pub fn empty() -> Self {
            Union(Vec::new())
        }

        #[doc(hidden)]
        #[must_use]
        pub fn or<S: Strategy<Value = T> + 'static>(mut self, option: S) -> Self {
            self.0.push(Box::new(option));
            self
        }
    }

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range {:?}", self);
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range {:?}", self);
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    if span > u128::from(u64::MAX) {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + rng.below(span as u64) as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let v = self.start + (self.end - self.start) * rng.unit() as $t;
                    // Rounding can land on the excluded end.
                    if v >= self.end { self.start } else { v }
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    *self.start() + (*self.end() - *self.start()) * rng.unit() as $t
                }
            }
        )*};
    }
    float_ranges!(f32, f64);

    macro_rules! tuples {
        ($(($($s:ident $i:tt),*)),*) => {$(
            impl<$($s: Strategy),*> Strategy for ($($s,)*) {
                type Value = ($($s::Value,)*);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)*)
                }
            }
        )*};
    }
    tuples!(
        (A 0),
        (A 0, B 1),
        (A 0, B 1, C 2),
        (A 0, B 1, C 2, D 3),
        (A 0, B 1, C 2, D 3, E 4),
        (A 0, B 1, C 2, D 3, E 4, F 5),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9, K 10, L 11)
    );

    /// String patterns: a sequence of atoms, each a literal character or
    /// a bracketed class of characters and `a-z` ranges, optionally
    /// followed by `{n}` or `{m,n}`.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let chars: Vec<char> = self.chars().collect();
            let mut out = String::new();
            let mut i = 0;
            while i < chars.len() {
                let mut class = Vec::new();
                if chars[i] == '[' {
                    let end = i + chars[i..].iter().position(|&c| c == ']').expect("unclosed `[`");
                    let mut j = i + 1;
                    while j < end {
                        if j + 2 < end && chars[j + 1] == '-' {
                            class.extend(chars[j]..=chars[j + 2]);
                            j += 3;
                        } else {
                            class.push(chars[j]);
                            j += 1;
                        }
                    }
                    i = end + 1;
                } else {
                    class.push(chars[i]);
                    i += 1;
                }
                let (mut lo, mut hi) = (1usize, 1usize);
                if chars.get(i) == Some(&'{') {
                    let end = i + chars[i..].iter().position(|&c| c == '}').expect("unclosed `{`");
                    let body: String = chars[i + 1..end].iter().collect();
                    let mut bounds = body.split(',').map(|b| b.trim().parse::<usize>().expect("repeat count"));
                    lo = bounds.next().expect("repeat count");
                    hi = bounds.next().unwrap_or(lo);
                    i = end + 1;
                }
                let n = lo + rng.below((hi - lo + 1) as u64) as usize;
                for _ in 0..n {
                    out.push(class[rng.below(class.len() as u64) as usize]);
                }
            }
            out
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy, reached through [`any`].
    pub trait Arbitrary: Sized {
        type Strategy: Strategy<Value = Self>;
        fn arbitrary() -> Self::Strategy;
    }

    /// A fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyBool;
        fn arbitrary() -> AnyBool {
            AnyBool
        }
    }

    #[must_use]
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range {r:?}");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range {r:?}");
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` draws whose length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;

    pub struct Select<T>(Vec<T>);

    impl<T: Clone + Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// One of `values`, picked uniformly.
    pub fn select<T: Clone + Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select from no values");
        Select(values)
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    pub mod prop {
        pub use crate::{collection, sample, strategy};
    }
}

use strategy::Strategy;
use test_runner::{Config, TestCaseError, TestRng};

/// SplitMix64 finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of case `case` of the property named `name`: FNV-1a of the
/// name, mixed with the case index.
#[must_use]
pub fn case_seed(name: &str, case: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    mix(h ^ mix(u64::from(case).wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

fn replay_seed() -> Option<u64> {
    let raw = std::env::var(SEED_ENV).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("{SEED_ENV}={raw:?} is not a u64 seed")))
}

fn describe_failure<S: Strategy>(name: &str, seed: u64, strategy: &S) -> String {
    // Generation is a pure function of the seed, so the input the test
    // consumed can be drawn again for the report.
    let input = strategy.generate(&mut TestRng::new(seed));
    format!("property `{name}` failed on input {input:?}\nreplay with {SEED_ENV}={seed:#018x}")
}

/// Checks `test` on `config.cases` inputs drawn from `strategy`, or on
/// the one input of the seed in [`SEED_ENV`] when that is set. The first
/// failing case panics with its input and seed.
pub fn run<S, F>(name: &str, config: &Config, strategy: &S, test: F)
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    let seeds: Vec<u64> = match replay_seed() {
        Some(seed) => vec![seed],
        None => (0..config.cases).map(|case| case_seed(name, case)).collect(),
    };
    for seed in seeds {
        let input = strategy.generate(&mut TestRng::new(seed));
        match panic::catch_unwind(AssertUnwindSafe(|| test(input))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => panic!("{}\n{e}", describe_failure(name, seed, strategy)),
            Err(payload) => {
                eprintln!("{}\n(the test panicked)", describe_failure(name, seed, strategy));
                panic::resume_unwind(payload);
            }
        }
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?} == {:?}`", a, b),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: `{:?} == {:?}`: {}", a, b, format!($($fmt)+)),
            ));
        }
    }};
}

/// A strategy that picks one of its arguments uniformly per draw.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::empty()$(.or($s))+
    };
}

/// Declares property tests: `fn name(pattern in strategy, ..) { body }`,
/// each function carrying its own attributes (`#[test]` included).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            $crate::run(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                &($($strat,)+),
                |($($arg,)+)| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_fns! { ($config) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{case_seed, run, test_runner::TestRng, SEED_ENV};
    use std::cell::Cell;

    #[test]
    fn draws_are_a_function_of_the_seed() {
        let strategy = (0u32..1000, prop::collection::vec(-1.0f64..1.0, 0..5), "[a-c]{2,4}");
        let a = strategy.generate(&mut TestRng::new(7));
        let b = strategy.generate(&mut TestRng::new(7));
        assert_eq!(a, b);
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn draws_stay_inside_their_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..2000 {
            let (i, f, v, s) = (-3i64..=3, 0.5f64..2.0, prop::collection::vec(Just(1u8), 2..=3), "x[0-9]{3}")
                .generate(&mut rng);
            assert!((-3..=3).contains(&i));
            assert!((0.5..2.0).contains(&f));
            assert!(v.len() == 2 || v.len() == 3);
            assert!(s.len() == 4 && s.starts_with('x') && s[1..].bytes().all(|b| b.is_ascii_digit()));
            let picked = prop_oneof![Just(2usize), Just(4)].generate(&mut rng);
            assert!(picked == 2 || picked == 4);
        }
    }

    #[test]
    fn runs_the_configured_number_of_cases() {
        if std::env::var_os(SEED_ENV).is_some() {
            return;
        }
        let calls = Cell::new(0u32);
        run("count", &ProptestConfig::with_cases(17), &(any::<bool>(),), |_| {
            calls.set(calls.get() + 1);
            Ok(())
        });
        assert_eq!(calls.get(), 17);
    }

    #[test]
    fn a_failing_case_reports_a_seed_that_replays_it() {
        if std::env::var_os(SEED_ENV).is_some() {
            return;
        }
        let strategy = (0u32..1_000_000,);
        let failure = std::panic::catch_unwind(|| {
            run("odd", &ProptestConfig::default(), &strategy, |(n,)| {
                prop_assert!(n % 2 == 0, "{n} is odd");
                Ok(())
            });
        })
        .expect_err("some draw is odd");
        let message = failure.downcast_ref::<String>().expect("formatted panic message");
        let seed_text = message.split(&format!("{SEED_ENV}=0x")).nth(1).expect("seed in report");
        let seed = u64::from_str_radix(&seed_text[..16], 16).expect("hex seed");
        let (n,) = strategy.generate(&mut TestRng::new(seed));
        assert_eq!(n % 2, 1, "{message}");
        assert!(message.contains(&format!("{n} is odd")), "{message}");
    }
}
