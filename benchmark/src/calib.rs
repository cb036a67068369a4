//! The host-time calibration kernel.
//!
//! Host time on a small shared machine drifts with what the neighbours
//! do to the caches and the memory system: over twelve minutes the same
//! deterministic pass got 37 % faster while a dependent integer chain
//! timed beside it stayed within 2 % — it is not clock frequency, and a
//! pure-CPU reference does not see it. Every timed pass is therefore
//! bracketed by a fixed reference kernel that suffers the way the
//! simulator does, and a pass's cost is expressed relative to it: the
//! pass's host time divided by the mean of its two bracketing kernel
//! times, times [`NOMINAL_S`] so the unit stays seconds.
//!
//! The kernel is what tracked the four workloads best among seven
//! candidates timed around 280 passes (README, "Calibration"): churn in
//! a hash map of small growing vectors (hashing, probing, allocator
//! traffic, pointer-rich misses — the simulator's own diet) followed by
//! a pointer chase through 4 MiB. It uses nothing from the crates under
//! test, so a change to them cannot move it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one kernel run took on the machine the benchmark was first
/// recorded on. A calibrated figure equals the raw one on a machine
/// whose kernel time is exactly this.
pub const NOMINAL_S: f64 = 0.075;

const CHASE_SLOTS: usize = 1 << 20; // × 4 B = 4 MiB
const CHASE_STEPS: usize = 600_000;
const CHURN_STEPS: u64 = 2_400_000;
const CHURN_KEYS: u64 = 4_096;
const CHURN_MAX_LEN: usize = 64;

/// The reference kernel with its chase table built.
pub struct Calibrator {
    next: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Builds the 4 MiB single-cycle permutation (Sattolo's algorithm
    /// from a fixed seed: the kernel never depends on the workload seed).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_SLOTS).rev() {
            state = splitmix(state);
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Calibrator { next }
    }

    /// Runs the kernel once and returns its host time.
    pub fn run(&self) -> Duration {
        let t0 = Instant::now();
        // A fixed-key hasher: the same probe sequence in every process.
        let mut map: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut state = black_box(0x1234_5678_9ABC_DEF1u64);
        for i in 0..CHURN_STEPS {
            state = splitmix(state);
            let key = state % CHURN_KEYS;
            match map.get_mut(&key) {
                Some(v) if v.len() >= CHURN_MAX_LEN => {
                    map.remove(&key);
                }
                Some(v) => v.push(i as u8),
                None => {
                    map.insert(key, vec![1, 2, 3]);
                }
            }
        }
        let mut at = (black_box(map.len()) + state as usize) % CHASE_SLOTS;
        for _ in 0..CHASE_STEPS {
            at = self.next[at] as usize;
        }
        black_box(at);
        t0.elapsed()
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host seconds of `host`, expressed on the nominal machine: divided by
/// the mean of the two bracketing kernel times, times [`NOMINAL_S`].
pub fn calibrated_s(host: Duration, before: Duration, after: Duration) -> f64 {
    let reference = (before.as_secs_f64() + after.as_secs_f64()) / 2.0;
    host.as_secs_f64() / reference * NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_cost_arithmetic() {
        let ms = Duration::from_millis;
        // A machine exactly at nominal speed reports raw time.
        let at_nominal = calibrated_s(ms(800), ms(75), ms(75));
        assert!((at_nominal - 0.8).abs() < 1e-12);
        // A machine running everything 20 % slower reports the same cost.
        let slowed = calibrated_s(ms(960), ms(90), ms(90));
        assert!((slowed - 0.8).abs() < 1e-12);
        // The reference is the mean of the two brackets.
        let drifting = calibrated_s(ms(800), ms(70), ms(90));
        assert!((drifting - 0.8 * 75.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn chase_table_is_one_cycle() {
        let c = Calibrator::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = c.next[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
    }
}
