//! Offline `proptest` shim.
//!
//! The build container has no access to crates.io, so this workspace
//! vendors the subset of the proptest API its property tests use:
//!
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, plus
//!   strategies for numeric ranges, tuples, [`strategy::Just`],
//!   [`collection::vec`], and [`array::uniform9`];
//! * the [`proptest!`] macro (with `#![proptest_config(..)]`), and
//!   [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`].
//!
//! It is a straight random-input runner: each `#[test]` draws
//! `config.cases` inputs from a generator seeded deterministically by
//! the test's module path, so failures are reproducible run-to-run.
//! There is **no shrinking** — a failing case reports the case number
//! and the assertion message only. That trades debuggability for zero
//! dependencies; the deterministic seed means a failure can still be
//! replayed under a debugger.
//!
//! # Regression seed corpora
//!
//! Like real proptest, the runner replays committed failure seeds
//! before generating fresh cases. For an integration-test file
//! `tests/foo.rs` it reads `tests/foo.proptest-regressions` (resolved
//! against the crate's `CARGO_MANIFEST_DIR`); every line of the form
//!
//! ```text
//! cc <16 hex digits>   # optional note
//! ```
//!
//! is a saved [`test_runner::TestRng`] state, replayed by **every**
//! `proptest!` test in that file (a seed that triggers nothing in a
//! sibling test is harmless — it just adds one passing case). When a
//! fresh case fails, the panic message prints the `cc <hex>` line to
//! append to the corpus, which is this shim's substitute for
//! shrinking: check the seed in, and from then on every run — local or
//! CI — re-executes that exact case first. See DESIGN.md §11 for the
//! workflow.

pub mod test_runner {
    /// Deterministic generator driving input generation (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name so every test has its own
        /// reproducible stream.
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Restores a generator from a state captured by
        /// [`TestRng::state`] — the replay half of the regression-seed
        /// corpus machinery.
        pub fn from_state(state: u64) -> Self {
            TestRng { state }
        }

        /// The current generator state. Captured at the start of each
        /// case so a failure can be reported as a replayable
        /// `cc <hex>` corpus line.
        pub fn state(&self) -> u64 {
            self.state
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n` must be positive.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// How a single generated case ended, when it did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` rejected the inputs; draw a fresh case.
        Reject,
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// Runner knobs. Only `cases` is modelled.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod regressions {
    //! Loading of committed `*.proptest-regressions` seed corpora.

    use std::path::{Path, PathBuf};

    /// The corpus path for a test source file: next to the file, same
    /// stem, `.proptest-regressions` extension. `source_file` is the
    /// `file!()` of the macro call site (a path relative to the
    /// workspace root), `manifest_dir` the crate's
    /// `CARGO_MANIFEST_DIR`; only the file stem of `source_file` is
    /// used, and the corpus is looked up in the crate's `tests/`
    /// directory (where every `proptest!` suite in this workspace
    /// lives).
    pub fn corpus_path(manifest_dir: &str, source_file: &str) -> PathBuf {
        let stem = Path::new(source_file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        Path::new(manifest_dir)
            .join("tests")
            .join(format!("{stem}.proptest-regressions"))
    }

    /// Reads the seed corpus for `source_file`. A missing file is an
    /// empty corpus; lines that are blank, comments, or not of the
    /// form `cc <16 hex digits>` are skipped (so historical files in
    /// real-proptest format do not break the runner).
    pub fn load(manifest_dir: &str, source_file: &str) -> Vec<u64> {
        let path = corpus_path(manifest_dir, source_file);
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Vec::new();
        };
        let mut seeds = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("cc ") else {
                continue;
            };
            let token = rest.split_whitespace().next().unwrap_or("");
            if token.len() == 16 {
                if let Ok(seed) = u64::from_str_radix(token, 16) {
                    seeds.push(seed);
                }
            }
        }
        seeds
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no value tree / shrinking — a
    /// strategy is just a deterministic function of the runner RNG.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<B, F> {
        base: B,
        f: F,
    }

    impl<B, O, F> Strategy for Map<B, F>
    where
        B: Strategy,
        F: Fn(B::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    pub struct FlatMap<B, F> {
        base: B,
        f: F,
    }

    impl<B, S, F> Strategy for FlatMap<B, F>
    where
        B: Strategy,
        S: Strategy,
        F: Fn(B::Value) -> S,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    impl Strategy for core::ops::Range<usize> {
        type Value = usize;
        fn generate(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty usize range strategy");
            self.start + rng.below(self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<usize> {
        type Value = usize;
        fn generate(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty usize range strategy");
            lo + rng.below(hi - lo + 1)
        }
    }

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty f64 range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
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
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact size or a range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec-length range");
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(
        element: S,
        size: impl Into<SizeRange>,
    ) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_exclusive - self.size.lo;
            let len = self.size.lo + if span > 1 { rng.below(span) } else { 0 };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod array {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct UniformArray<S, const N: usize> {
        element: S,
    }

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> [S::Value; N] {
            core::array::from_fn(|_| self.element.generate(rng))
        }
    }

    /// `[T; 9]` with every element drawn from `element` — the 3×3 block
    /// shape used throughout the workspace tests.
    pub fn uniform9<S: Strategy>(element: S) -> UniformArray<S, 9> {
        UniformArray { element }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Defines `#[test]` functions that run their body over many generated
/// inputs. Supports the `#![proptest_config(..)]` inner attribute and
/// `pattern in strategy` argument lists.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        #[test]
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let __case = |__rng: &mut $crate::test_runner::TestRng|
                    -> ::core::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(
                            &($strat),
                            __rng,
                        );
                    )+
                    $body
                    ::core::result::Result::Ok(())
                };
                // Committed regression seeds replay before any fresh
                // case; a seed rejected by prop_assume! is skipped.
                let __corpus = $crate::regressions::corpus_path(
                    env!("CARGO_MANIFEST_DIR"),
                    file!(),
                );
                for __seed in $crate::regressions::load(
                    env!("CARGO_MANIFEST_DIR"),
                    file!(),
                ) {
                    let mut __rng =
                        $crate::test_runner::TestRng::from_state(__seed);
                    match __case(&mut __rng) {
                        ::core::result::Result::Ok(())
                        | ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject,
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => panic!(
                            "proptest regression seed `cc {__seed:016x}` \
                             (from {}) failed: {}",
                            __corpus.display(),
                            msg,
                        ),
                    }
                }
                let mut __rng = $crate::test_runner::TestRng::from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut passed: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = config.cases.saturating_mul(16).max(256);
                while passed < config.cases {
                    attempts += 1;
                    assert!(
                        attempts <= max_attempts,
                        "proptest: too many prop_assume! rejections \
                         ({passed}/{} cases after {attempts} attempts)",
                        config.cases,
                    );
                    let __case_seed = __rng.state();
                    match __case(&mut __rng) {
                        ::core::result::Result::Ok(()) => passed += 1,
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject,
                        ) => {}
                        ::core::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => panic!(
                            "proptest case {} of {} failed: {}\n\
                             replay: append `cc {__case_seed:016x}` to {}",
                            passed + 1,
                            config.cases,
                            msg,
                            __corpus.display(),
                        ),
                    }
                }
            }
        )*
    };
}

/// Like `assert!`, but fails only the current generated case (with its
/// message) instead of unwinding from arbitrary depth.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(
                    format!("assertion failed: {}", stringify!($cond)),
                ),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "assertion failed: {} — {}",
                    stringify!($cond),
                    format!($($fmt)+),
                )),
            );
        }
    };
}

/// Equality assertion for generated cases. Does not require `Debug` on
/// the operands (the message quotes the expressions instead).
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let __l = $lhs;
        let __r = $rhs;
        if !(__l == __r) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "assertion failed: {} == {}",
                    stringify!($lhs),
                    stringify!($rhs),
                )),
            );
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let __l = $lhs;
        let __r = $rhs;
        if !(__l == __r) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!(
                    "assertion failed: {} == {} — {}",
                    stringify!($lhs),
                    stringify!($rhs),
                    format!($($fmt)+),
                )),
            );
        }
    }};
}

/// Discards the current case when the precondition does not hold; the
/// runner draws a replacement (bounded by a rejection cap).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Reject,
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let u = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&u));
            let v = (2usize..=5).generate(&mut rng);
            assert!((2..=5).contains(&v));
            let x = (-1.5f64..2.5).generate(&mut rng);
            assert!((-1.5..2.5).contains(&x));
        }
    }

    #[test]
    fn vec_strategy_lengths() {
        let mut rng = TestRng::from_name("vecs");
        for _ in 0..200 {
            let v = crate::collection::vec(0usize..4, 2..7).generate(&mut rng);
            assert!((2..7).contains(&v.len()));
            let w = crate::collection::vec(0.0f64..1.0, 5).generate(&mut rng);
            assert_eq!(w.len(), 5);
        }
    }

    #[test]
    fn flat_map_sees_upstream_value() {
        let mut rng = TestRng::from_name("flat");
        let s = (1usize..=6)
            .prop_flat_map(|n| (Just(n), crate::collection::vec(0usize..10, n)));
        for _ in 0..200 {
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn rng_state_round_trips() {
        let mut a = TestRng::from_name("state-round-trip");
        for _ in 0..5 {
            a.next_u64();
        }
        let snap = a.state();
        let mut b = TestRng::from_state(snap);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn regression_corpus_parses_cc_lines_only() {
        let dir = std::env::temp_dir().join("proptest-shim-corpus-test");
        std::fs::create_dir_all(dir.join("tests")).unwrap();
        std::fs::write(
            dir.join("tests/sample.proptest-regressions"),
            "# header comment\n\
             cc 00000000000000ff # note\n\
             cc deadbeefdeadbeef\n\
             cc 9e347e2bb8940fc5cc580414cd975bec # old 256-bit hash: skip\n\
             not a seed line\n\
             cc zzzzzzzzzzzzzzzz\n",
        )
        .unwrap();
        let seeds = crate::regressions::load(
            dir.to_str().unwrap(),
            "crates/whatever/tests/sample.rs",
        );
        assert_eq!(seeds, vec![0xff, 0xdead_beef_dead_beef]);
        assert!(crate::regressions::load(dir.to_str().unwrap(), "no_file.rs")
            .is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(n in 1usize..20, x in 0.0f64..1.0) {
            prop_assume!(n != 13);
            prop_assert!(x < 1.0 && n >= 1);
            prop_assert_eq!(n * 2, n + n, "arith on {n}");
        }

        #[test]
        fn tuple_patterns_bind((a, b) in (0usize..5, (Just(7usize), 0usize..3))) {
            let (seven, c) = b;
            prop_assert_eq!(seven, 7);
            prop_assert!(a < 5 && c < 3);
        }
    }
}
