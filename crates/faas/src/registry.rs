//! Host function bodies and the variant optimizer.
//!
//! §3.1: "Multiple implementations of the same function can even be
//! provided simultaneously, allowing an optimizer to choose dynamically
//! among them to meet performance and cost goals" (the INFaaS idea the
//! paper cites). [`choose_variant`] is that optimizer: given a goal, the
//! request size, warm-pool state and a price sheet, it ranks the image's
//! variants.

use fxhash::FxHashMap;
use std::time::Duration;

use pcsi_core::PcsiError;
use pcsi_net::node::Resources;

use crate::function::{FunctionBody, FunctionImage, Variant};

/// Optimization goal for variant selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Goal {
    /// Minimize expected end-to-end latency.
    MinLatency,
    /// Minimize expected dollar cost.
    MinCost,
    /// Minimize the latency × cost product.
    #[default]
    Balanced,
}

// The price sheet, USD per resource-second: 2021 public-cloud on-demand
// prices (us-west), ~$0.048/vCPU-h, ~$1.10/GPU-h, ~$2.40/TPU-h and
// ~$0.0065/GiB-h.
const CPU_CORE_S: f64 = 0.048 / 3600.0;
const GPU_S: f64 = 1.10 / 3600.0;
const TPU_S: f64 = 2.40 / 3600.0;
const MEM_GIB_S: f64 = 0.0065 / 3600.0;

/// USD per second of holding `demand`.
pub fn rate(demand: &Resources) -> f64 {
    f64::from(demand.cpu) * CPU_CORE_S
        + f64::from(demand.gpu) * GPU_S
        + f64::from(demand.tpu) * TPU_S
        + f64::from(demand.mem_gib) * MEM_GIB_S
}

/// USD for holding `demand` for `d`: what the optimizer estimates and
/// the provider's meter bills.
pub fn usd(demand: &Resources, d: Duration) -> f64 {
    rate(demand) * d.as_secs_f64()
}

/// Expected latency and cost of running one invocation on a variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantEstimate {
    /// Expected wall-clock latency (cold start included if no warm
    /// instance exists).
    pub latency: Duration,
    /// Expected USD.
    pub cost: f64,
}

/// Estimates one variant.
pub fn estimate(
    image: &FunctionImage,
    variant: &Variant,
    payload_len: usize,
    warm: bool,
) -> VariantEstimate {
    let exec = variant.exec_time(image.work.work(payload_len));
    let cold = if warm {
        Duration::ZERO
    } else {
        variant.backend.cold_start()
    };
    let latency = exec + cold + variant.backend.call_overhead();
    VariantEstimate {
        latency,
        cost: usd(&variant.demand, exec + cold),
    }
}

/// Picks the best variant of `image` for `goal`.
///
/// `warm` reports whether a warm instance of the named variant exists
/// somewhere. Deterministic: ties break by variant name.
///
/// # Examples
///
/// ```
/// use pcsi_faas::{FunctionImage, Goal, WorkModel};
/// use pcsi_faas::function::Variant;
/// use pcsi_faas::isolation::Backend;
/// use pcsi_faas::registry::choose_variant;
/// use pcsi_net::node::Resources;
/// use std::time::Duration;
///
/// let mut image = FunctionImage::simple("f", WorkModel::fixed(Duration::from_millis(400)), 4);
/// image.variants.push(Variant {
///     name: "gpu".into(),
///     backend: Backend::MicroVm,
///     demand: Resources { cpu: 2, gpu: 1, tpu: 0, mem_gib: 16 },
///     speedup: 20.0,
/// });
/// // With everything warm, the GPU wins on latency.
/// let v = choose_variant(&image, 0, Goal::MinLatency, |_| true).unwrap();
/// assert_eq!(v.name, "gpu");
/// // And, at a 20x speedup, it even wins on cost: it holds the expensive
/// // hardware for 1/20th of the time.
/// let v = choose_variant(&image, 0, Goal::MinCost, |_| true).unwrap();
/// assert_eq!(v.name, "gpu");
/// ```
pub fn choose_variant(
    image: &FunctionImage,
    payload_len: usize,
    goal: Goal,
    warm: impl Fn(&str) -> bool,
) -> Result<&Variant, PcsiError> {
    if image.variants.is_empty() {
        return Err(PcsiError::NoViableVariant(format!(
            "function {:?} has no variants",
            image.name
        )));
    }
    let estimates: Vec<(&Variant, VariantEstimate)> = image
        .variants
        .iter()
        .map(|v| (v, estimate(image, v, payload_len, warm(&v.name))))
        .collect();

    let best = match goal {
        Goal::MinLatency => estimates.iter().min_by(|a, b| {
            (a.1.latency, ordered(a.1.cost), a.0.name.as_str()).cmp(&(
                b.1.latency,
                ordered(b.1.cost),
                b.0.name.as_str(),
            ))
        }),
        Goal::MinCost => estimates.iter().min_by(|a, b| {
            (ordered(a.1.cost), a.1.latency, a.0.name.as_str()).cmp(&(
                ordered(b.1.cost),
                b.1.latency,
                b.0.name.as_str(),
            ))
        }),
        Goal::Balanced => estimates.iter().min_by(|a, b| {
            let pa = ordered(a.1.latency.as_secs_f64() * a.1.cost);
            let pb = ordered(b.1.latency.as_secs_f64() * b.1.cost);
            (pa, a.0.name.as_str()).cmp(&(pb, b.0.name.as_str()))
        }),
    };
    Ok(best.expect("non-empty variants").0)
}

/// Total-orders a non-NaN float (estimates never produce NaN).
fn ordered(v: f64) -> u64 {
    debug_assert!(!v.is_nan());
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// The host-side body table: image name → executable closure.
#[derive(Clone, Default)]
pub(crate) struct FunctionRegistry {
    bodies: FxHashMap<String, FunctionBody>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the body for `name`.
    pub(crate) fn register(&mut self, name: &str, body: FunctionBody) {
        self.bodies.insert(name.to_owned(), body);
    }

    /// Looks a body up.
    pub(crate) fn body(&self, name: &str) -> Result<FunctionBody, PcsiError> {
        self.bodies
            .get(name)
            .cloned()
            .ok_or_else(|| PcsiError::FunctionFailed(format!("no body registered for {name:?}")))
    }

    /// Registered names, sorted.
    pub(crate) fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.bodies.keys().cloned().collect();
        v.sort_unstable();
        v
    }
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::WorkModel;
    use crate::isolation::Backend;

    fn image_with_gpu(work_ms: u64) -> FunctionImage {
        let mut image =
            FunctionImage::simple("f", WorkModel::fixed(Duration::from_millis(work_ms)), 4);
        image.variants.push(Variant {
            name: "gpu".into(),
            backend: Backend::MicroVm,
            demand: Resources {
                cpu: 2,
                gpu: 1,
                tpu: 0,
                mem_gib: 16,
            },
            speedup: 20.0,
        });
        image
    }

    #[test]
    fn cost_model_rates() {
        let cpu_only = Resources::cpu(4, 8);
        let with_gpu = Resources {
            cpu: 4,
            gpu: 1,
            tpu: 0,
            mem_gib: 8,
        };
        assert!(rate(&with_gpu) > rate(&cpu_only) * 4.0);
        let hour = usd(&Resources::cpu(1, 0), Duration::from_secs(3600));
        assert!((hour - 0.048).abs() < 1e-9);
    }

    #[test]
    fn latency_goal_prefers_fast_hardware_for_heavy_work() {
        let image = image_with_gpu(400);
        let v = choose_variant(&image, 0, Goal::MinLatency, |_| true).unwrap();
        assert_eq!(v.name, "gpu");
    }

    #[test]
    fn cost_goal_weighs_rate_against_speedup() {
        // At 20x speedup the GPU holds its expensive hardware so briefly
        // that it is the cheaper choice.
        let image = image_with_gpu(400);
        let v = choose_variant(&image, 0, Goal::MinCost, |_| true).unwrap();
        assert_eq!(v.name, "gpu");
        // A modest 3x speedup does not amortize the ~5x price premium:
        // the CPU variant wins on cost while the GPU still wins latency.
        let mut modest = image_with_gpu(400);
        modest.variants[1].speedup = 3.0;
        let v = choose_variant(&modest, 0, Goal::MinCost, |_| true).unwrap();
        assert_eq!(v.name, "cpu");
        let v = choose_variant(&modest, 0, Goal::MinLatency, |_| true).unwrap();
        assert_eq!(v.name, "gpu");
    }

    #[test]
    fn cold_start_flips_latency_choice_for_light_work() {
        // 2 ms of work: a warm container (2 ms) beats a cold microVM GPU
        // (125 ms boot + 0.1 ms exec).
        let image = image_with_gpu(2);
        let v = choose_variant(&image, 0, Goal::MinLatency, |name| name == "cpu").unwrap();
        assert_eq!(v.name, "cpu");
        // Warm GPU available: GPU wins again.
        let v = choose_variant(&image, 0, Goal::MinLatency, |_| true).unwrap();
        assert_eq!(v.name, "gpu");
    }

    #[test]
    fn balanced_goal_is_between() {
        let image = image_with_gpu(400);
        // Balanced on heavy work: GPU's 20x latency win outweighs its
        // ~13x cost premium, so product favours the GPU.
        let v = choose_variant(&image, 0, Goal::Balanced, |_| true).unwrap();
        assert_eq!(v.name, "gpu");
        // On trivial work the GPU saves nothing: CPU wins the product.
        let light = image_with_gpu(0);
        let v = choose_variant(&light, 0, Goal::Balanced, |_| true).unwrap();
        assert_eq!(v.name, "cpu");
    }

    #[test]
    fn registry_register_and_lookup() {
        let mut reg = FunctionRegistry::new();
        reg.register(
            "echo",
            std::rc::Rc::new(|ctx| Box::pin(async move { Ok(ctx.body) })),
        );
        assert!(reg.body("echo").is_ok());
        assert!(matches!(
            reg.body("ghost"),
            Err(PcsiError::FunctionFailed(_))
        ));
        assert_eq!(reg.names(), vec!["echo"]);
    }

    #[test]
    fn ordered_is_monotone() {
        let xs = [-5.0, -0.0, 0.0, 1e-9, 1.0, 1e9];
        for w in xs.windows(2) {
            assert!(ordered(w[0]) <= ordered(w[1]), "{} vs {}", w[0], w[1]);
        }
    }
}
