//! A vendored, dependency-free subset of the `proptest` crate.
//!
//! The workspace must build and test on machines with no access to
//! crates.io (see README "Offline & reproducible builds"). This shim
//! implements exactly the surface the repository's property tests use:
//!
//! * [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map`
//! * strategies for numeric ranges, tuples, [`collection::vec`],
//!   [`arbitrary::any`], and [`strategy::Just`]
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   [`prop_assert!`], and [`prop_assert_eq!`]
//!
//! Semantic differences from upstream: failing inputs are reported but not
//! shrunk, and `*.proptest-regressions` files are ignored. Generation is
//! deterministic per test (fixed base seed mixed with the case index), so
//! failures reproduce across runs.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A generator of random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value: Debug;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T: Debug, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Debug, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone + Debug>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, usize, i32, i64);

    impl Strategy for Range<u64> {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_u64() % (self.end - self.start)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() as f32 * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);

    /// Strategy reference passthrough, so `&strategy` also works.
    impl<S: Strategy> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (*self).generate(rng)
        }
    }

    pub use crate::arbitrary::any;
    pub(crate) struct _Seal(PhantomData<()>);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized + Debug {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.next_f64()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A size specification for [`vec()`]: a fixed length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for vectors of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property assertion (carried out of the case body).
    #[derive(Debug)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Creates a failure with a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError { msg: msg.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.msg)
        }
    }

    /// The deterministic RNG behind every strategy (xorshift64*).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the RNG (zero is mapped to a fixed non-zero constant).
        pub fn seed_from(seed: u64) -> Self {
            TestRng {
                state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                // Fixed base seed mixed with the test name: deterministic,
                // but different tests explore different sequences.
                let mut seed: u64 = 0xC0FFEE_5EED;
                for b in stringify!($name).bytes() {
                    seed = seed.wrapping_mul(31).wrapping_add(b as u64);
                }
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::seed_from(
                        seed ^ (0x9E3779B97F4A7C15u64.wrapping_mul(case as u64 + 1)),
                    );
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = result {
                        panic!(
                            "proptest '{}' failed at case {}/{}: {}\ninputs:\n{:#?}",
                            stringify!($name), case, config.cases, e, ($(&$arg,)+)
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (with
/// its inputs echoed) instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa == *__pb,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), __pa, __pb
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(*__pa == *__pb, $($fmt)*);
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__pa, __pb) = (&$a, &$b);
        $crate::prop_assert!(
            *__pa != *__pb,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            __pa
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seed_from(1);
        for _ in 0..1000 {
            let x = (3usize..7).generate(&mut rng);
            assert!((3..7).contains(&x));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_sizes_respect_spec() {
        let mut rng = TestRng::seed_from(2);
        for _ in 0..200 {
            let v = crate::collection::vec(0u8..3, 4).generate(&mut rng);
            assert_eq!(v.len(), 4);
            let w = crate::collection::vec(0.0f64..1.0, 1..5).generate(&mut rng);
            assert!((1..5).contains(&w.len()));
        }
    }

    #[test]
    fn flat_map_threads_values() {
        let mut rng = TestRng::seed_from(3);
        let strat = (1usize..4).prop_flat_map(|n| crate::collection::vec(0u8..2, n));
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_runs_cases(x in 0u64..100, ys in crate::collection::vec(0.0f64..1.0, 2)) {
            prop_assert!(x < 100);
            prop_assert_eq!(ys.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "proptest 'always_fails' failed")]
    fn failing_case_reports_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(unused)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(false, "forced failure with x = {}", x);
            }
        }
        always_fails();
    }
}
