//! Case generation and execution for the `proptest!` macro.

use pcsi_sim::{DetRng, RngStreams};

use crate::strategy::Strategy;

/// The RNG handed to strategies while sampling a case.
///
/// A [`DetRng`] stream named after the test and seeded by the case
/// number, so a failing case reproduces on every run.
pub struct TestRng(pub(crate) DetRng);

impl TestRng {
    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0.u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.0.f64()
    }

    /// Uniform `usize` in `[low, high)`: one draw reduced modulo the
    /// width, not [`DetRng::gen_range`]'s two, since every collection
    /// size of every case rests on it.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, low: usize, high: usize) -> usize {
        assert!(low < high, "empty range {low}..{high}");
        low + (self.next_u64() % (high - low) as u64) as usize
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

/// Runs `body` against `cases` sampled inputs; panics on the first
/// failing case with its case number (inputs reproduce from the test
/// name, so no explicit seed needs reporting).
pub fn run<S, F>(name: &str, strategy: &S, mut body: F)
where
    S: Strategy,
    F: FnMut(S::Value) -> Result<(), TestCaseError>,
{
    // 64 cases unless `PROPTEST_CASES` says otherwise.
    let cases = pcsi_sim::rng::sweep_width("PROPTEST_CASES", 64);
    let mut rejects: u64 = 0;
    let mut case = 0;
    while case < cases {
        let seed = case as u64 ^ (rejects << 32);
        let mut rng = TestRng(RngStreams::new(seed).stream(name));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    /// A case's inputs are a pure function of the test's name, the case
    /// number and the rejections so far: pinning the first draw of
    /// cases 0 and 1 pins the seeding of every proptest in the workspace.
    #[test]
    fn case_streams_are_pinned() {
        let mut firsts = Vec::new();
        run("demo_name", &(any::<u64>(),), |(v,)| {
            firsts.push(v);
            Ok(())
        });
        assert_eq!(firsts[..2], [7316478667447041701, 2328780387915633360]);
    }
}
