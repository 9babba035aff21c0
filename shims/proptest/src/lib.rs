//! Offline shim for `proptest`.
//!
//! Implements the subset of the proptest API this workspace's property tests
//! use: the `proptest!` macro with an optional `#![proptest_config(..)]`
//! attribute, `Strategy` with `prop_map`/`prop_flat_map`, `any::<T>()`,
//! range strategies, `proptest::collection::vec`, and the `prop_assert*`
//! macros. Cases are generated from a seed derived deterministically from
//! the test path, so runs are reproducible; there is **no shrinking** — a
//! failing case (a `prop_assert*` failure or a panic in the body) reports
//! its case number and message only.

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    pub use crate::strategy::{any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// `proptest! { ... }`: expands each `fn name(pat in strategy, ...) { body }`
/// item into a deterministic multi-case test function.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_items! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( config = ($cfg:expr); ) => {};
    (
        config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                // A plain `assert!` / `expect` in the body unwinds instead
                // of returning `Err`: catch it so it reports its case too.
                let __result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(move || {
                        $body
                        ::std::result::Result::Ok(())
                    }))
                    .unwrap_or_else(|__panic| {
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::panicked(
                            __panic,
                        ))
                    });
                if let ::std::result::Result::Err(__e) = __result {
                    panic!("proptest {} case {}/{}: {}",
                        stringify!($name), __case + 1, __config.cases, __e);
                }
            }
        }
        $crate::__proptest_items! { config = ($cfg); $($rest)* }
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, "fmt", args...)`
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` / `prop_assert_eq!(a, b, "fmt", args...)`
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{}` == `{}` ({:?} vs {:?})",
            stringify!($a), stringify!($b), __a, __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} ({:?} vs {:?})", format!($($fmt)+), __a, __b),
            ));
        }
    }};
}

/// `prop_assert_ne!(a, b)`
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{}` != `{}` (both {:?})",
            stringify!($a),
            stringify!($b),
            __a
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn generation_is_deterministic_per_case() {
        let s = (0usize..100, any::<u32>());
        let mut a = TestRng::deterministic("x", 3);
        let mut b = TestRng::deterministic("x", 3);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn map_and_flat_map_compose() {
        let s = (1usize..4).prop_flat_map(|n| {
            crate::collection::vec(0usize..10, n..n + 1).prop_map(move |v| (n, v))
        });
        let mut rng = TestRng::deterministic("y", 0);
        for case in 0..50 {
            let _ = case;
            let (n, v) = s.generate(&mut rng);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(a in 0usize..50, b in 1usize..50) {
            prop_assert!(a < 50, "a = {}", a);
            prop_assert_eq!(a + b, b + a);
        }

        /// A plain `assert!` failing in the body is reported with its case
        /// number, like a `prop_assert!` failure.
        #[test]
        #[should_panic(expected = "proptest a_panicking_body_names_its_case case")]
        fn a_panicking_body_names_its_case(a in 0usize..50) {
            assert!(a >= 50, "a = {}", a);
        }
    }
}
