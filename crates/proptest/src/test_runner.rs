//! Case generation and execution for the `proptest!` macro.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::strategy::Strategy;

/// The RNG handed to strategies while sampling a case.
///
/// Seeded deterministically from the test name and case number, so a
/// failing case reproduces on every run.
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates a generator for one sampling attempt.
    pub fn new(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, low: usize, high: usize) -> usize {
        assert!(low < high, "empty range {low}..{high}");
        low + (self.next_u64() % (high - low) as u64) as usize
    }
}

impl RngCore for TestRng {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest);
    }
}

/// Why a test-case closure did not succeed.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the whole test fails.
    Fail(String),
    /// A `prop_assume!` did not hold; the case is discarded and resampled.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection (discarded case) with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64 cases unless `PROPTEST_CASES` says otherwise; a value that is set
/// but is not a count panics, so a typo cannot shrink a sweep silently.
fn case_count() -> u32 {
    match std::env::var("PROPTEST_CASES") {
        Err(_) => 64,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES={v:?} is not a case count")),
    }
}

/// Runs `body` against `cases` sampled inputs; panics on the first
/// failing case with its case number (inputs reproduce from the test
/// name, so no explicit seed needs reporting).
pub fn run<S, F>(name: &str, strategy: &S, mut body: F)
where
    S: Strategy,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    let cases = case_count();
    let base = fnv1a(name.as_bytes());
    let mut rejects: u64 = 0;
    let mut case: u32 = 0;
    while case < cases {
        let seed = splitmix64(base ^ u64::from(case) ^ (rejects << 32));
        let mut rng = TestRng::new(seed);
        let value = match strategy.sample(&mut rng) {
            Some(v) => v,
            None => {
                rejects += 1;
                assert!(
                    rejects < 4096,
                    "{name}: too many rejected samples ({rejects}); \
                     strategy filters are too strict"
                );
                continue;
            }
        };
        match body(value) {
            Ok(()) => case += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                assert!(
                    rejects < 4096,
                    "{name}: too many rejected cases ({rejects}); \
                     prop_assume! conditions are too strict"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed at case {case}:\n{msg}")
            }
        }
    }
}
