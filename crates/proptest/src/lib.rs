//! Vendored subset of the `proptest` crate that draws its cases from
//! `pcsi-sim`.
//!
//! The build environment has no network access to crates.io, so the
//! workspace ships the slice of the proptest API its test suites use:
//! the [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_recursive`, [`Just`], [`any`], range and tuple strategies,
//! string strategies from a small regex subset (`"[a-z]{1,8}"`-style
//! patterns), `collection::{vec, btree_map}`, and the `proptest!`,
//! `prop_oneof!`, `prop_assert*!` and `prop_assume!` macros.
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! seed and case number instead of a minimized input), and generation is
//! seeded deterministically from the test name so failures reproduce
//! across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

pub use strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};

/// The glob-import module: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) { .. } }`.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        $vis fn $name() {
            let strat = ($($strat,)+);
            $crate::test_runner::run(stringify!($name), &strat, |($($pat,)+)| {
                $body
                Ok(())
            });
        }
        $crate::proptest!($($rest)*);
    };
}

/// Chooses uniformly among several strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::Strategy::boxed($arm)),+])
    };
}

/// Like `assert!`, but fails the current proptest case instead of
/// panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Like `assert_eq!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// Like `assert_ne!` for proptest cases.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if left == right {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Discards the current case (not a failure) when `cond` is false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(concat!(
                "assumption failed: ",
                stringify!($cond)
            )));
        }
    };
}
