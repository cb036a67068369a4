//! Function images, variants, and the body execution contract.
//!
//! A [`FunctionImage`] is what gets stored in the data layer: a name, a
//! work model, and one or more implementation [`Variant`]s. The actual
//! executable logic — since a simulator cannot run guest machine code —
//! is a host closure registered under the image name in
//! `crate::registry::FunctionRegistry`; the image object carries
//! everything the scheduler and optimizer need.
//!
//! Bodies receive a [`FnCtx`]: the pass-by-value request body, the
//! explicit input/output references, and a [`DataPlane`] capability. That
//! is the *entire* ambient environment — the "no implicit state" rule is
//! structural, not advisory.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use pcsi_core::api::{InvokeRequest, InvokeResponse};
use pcsi_core::{PcsiError, Reference};
use pcsi_net::node::Resources;
use pcsi_proto::binary::{DecodeError, Prefix, Reader, Writer};
use pcsi_sim::executor::LocalBoxFuture;
use pcsi_sim::SimHandle;

use crate::isolation::Backend;

/// Abstract compute demand of one invocation: `fixed + per_byte × bytes`
/// of single-reference-CPU work. Variants divide this by their speedup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkModel {
    /// Work independent of payload size.
    pub(crate) fixed: Duration,
    /// Work per payload byte.
    pub(crate) per_byte: Duration,
}

impl WorkModel {
    /// A constant-work model.
    pub fn fixed(d: Duration) -> Self {
        WorkModel {
            fixed: d,
            per_byte: Duration::ZERO,
        }
    }

    /// Total abstract work for a payload of `bytes`.
    pub(crate) fn work(&self, bytes: usize) -> Duration {
        self.fixed
            + self
                .per_byte
                .saturating_mul(u32::try_from(bytes).unwrap_or(u32::MAX))
    }
}

/// One implementation of a function (§3.1's heterogeneous platforms).
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// Variant name (`"cpu"`, `"gpu"`, `"tpu-v4"`, ...).
    pub name: String,
    /// Isolation platform.
    pub backend: Backend,
    /// Resources one instance pins while running.
    pub demand: Resources,
    /// Speedup over the reference CPU implementation for this function's
    /// work (a GPU variant of a neural network might be 10–40×).
    pub speedup: f64,
}

impl Variant {
    /// A plain CPU container variant using `cores` cores.
    pub fn cpu(cores: u32) -> Self {
        Variant {
            name: "cpu".into(),
            backend: Backend::Container,
            demand: Resources::cpu(cores, 2 * cores),
            speedup: 1.0,
        }
    }

    /// A Firecracker-style microVM variant using `cores` cores: stronger
    /// isolation than a container, half the boot time.
    pub fn microvm(cores: u32) -> Self {
        Variant {
            name: "microvm".into(),
            backend: Backend::MicroVm,
            demand: Resources::cpu(cores, 2 * cores),
            speedup: 1.0,
        }
    }

    /// An in-process WebAssembly sandbox variant using `cores` cores:
    /// near-instant boot, so predictive warm pools for it stay shallow.
    pub fn wasm(cores: u32) -> Self {
        Variant {
            name: "wasm".into(),
            backend: Backend::Wasm,
            demand: Resources::cpu(cores, cores),
            speedup: 1.0,
        }
    }

    /// Wall-clock execution time for `work` on this variant.
    pub(crate) fn exec_time(&self, work: Duration) -> Duration {
        work.div_f64(self.speedup.max(1e-9))
    }
}

/// A function stored in the data layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionImage {
    /// Unique function name; also the host-body registry key.
    pub name: String,
    /// Abstract work per invocation.
    pub work: WorkModel,
    /// Available implementations. Must be non-empty.
    pub variants: Vec<Variant>,
}

impl FunctionImage {
    /// An image with a single CPU variant.
    pub fn simple(name: &str, work: WorkModel, cores: u32) -> Self {
        FunctionImage {
            name: name.to_owned(),
            work,
            variants: vec![Variant::cpu(cores)],
        }
    }

    /// Looks a variant up by name.
    pub fn variant(&self, name: &str) -> Option<&Variant> {
        self.variants.iter().find(|v| v.name == name)
    }

    /// Serializes the image metadata (stored as the function object's
    /// contents, making functions data-layer objects).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_capacity(128);
        w.str(Prefix::U16, &self.name);
        w.u64(self.work.fixed.as_nanos() as u64);
        w.u64(self.work.per_byte.as_nanos() as u64);
        w.count(Prefix::U32, self.variants.len());
        for v in &self.variants {
            w.str(Prefix::U16, &v.name);
            w.u8(match v.backend {
                Backend::Container => 0,
                Backend::MicroVm => 1,
                Backend::Wasm => 2,
                Backend::Unikernel => 3,
            });
            for r in [v.demand.cpu, v.demand.gpu, v.demand.tpu, v.demand.mem_gib] {
                w.u32(r);
            }
            w.f64(v.speedup);
        }
        w.finish()
    }

    /// Decodes image metadata written by [`FunctionImage::encode`].
    pub fn decode(bytes: &[u8]) -> Result<FunctionImage, PcsiError> {
        let image =
            Self::read(bytes).map_err(|e| PcsiError::BadPayload(format!("function image: {e}")))?;
        if image.variants.is_empty() {
            return Err(PcsiError::BadPayload(
                "function image has no variants".into(),
            ));
        }
        Ok(image)
    }

    fn read(bytes: &[u8]) -> Result<FunctionImage, DecodeError> {
        let mut r = Reader::over(bytes);
        let name = r.str(Prefix::U16)?;
        let fixed = Duration::from_nanos(r.u64()?);
        let per_byte = Duration::from_nanos(r.u64()?);
        // A variant is at least an empty name, a backend byte, four
        // `u32` resources and an `f64`.
        let n = r.count(Prefix::U32, 2 + 1 + 16 + 8)?;
        let mut variants = Vec::with_capacity(n);
        for _ in 0..n {
            variants.push(Variant {
                name: r.str(Prefix::U16)?,
                backend: match r.u8()? {
                    0 => Backend::Container,
                    1 => Backend::MicroVm,
                    2 => Backend::Wasm,
                    3 => Backend::Unikernel,
                    b => return Err(DecodeError::BadTag(b)),
                },
                demand: Resources {
                    cpu: r.u32()?,
                    gpu: r.u32()?,
                    tpu: r.u32()?,
                    mem_gib: r.u32()?,
                },
                speedup: r.f64()?,
            });
        }
        r.finish()?;
        Ok(FunctionImage {
            name,
            work: WorkModel { fixed, per_byte },
            variants,
        })
    }
}

/// The state-layer capability handed to running function bodies.
///
/// Dyn-safe mirror of the data-plane subset of
/// [`pcsi_core::CloudInterface`]; implemented by the kernel.
pub trait DataPlane {
    /// Reads from an object through a reference.
    fn read(
        &self,
        r: &Reference,
        offset: u64,
        len: u64,
    ) -> LocalBoxFuture<Result<Bytes, PcsiError>>;
    /// Writes to an object through a reference.
    fn write(
        &self,
        r: &Reference,
        offset: u64,
        data: Bytes,
    ) -> LocalBoxFuture<Result<(), PcsiError>>;
    /// Appends to an object (or pushes to a FIFO).
    fn append(&self, r: &Reference, data: Bytes) -> LocalBoxFuture<Result<u64, PcsiError>>;
    /// Pops from a FIFO.
    fn pop(&self, r: &Reference) -> LocalBoxFuture<Result<Bytes, PcsiError>>;
    /// Invokes another function (dynamic task graphs, Ciel-style).
    fn invoke(
        &self,
        f: &Reference,
        req: InvokeRequest,
    ) -> LocalBoxFuture<Result<InvokeResponse, PcsiError>>;
}

/// Everything a function body may touch.
pub struct FnCtx {
    /// Small pass-by-value request body.
    pub body: Bytes,
    /// Explicit data-layer inputs.
    pub inputs: Vec<Reference>,
    /// Explicit data-layer outputs.
    pub outputs: Vec<Reference>,
    /// The state-layer capability.
    pub data: Rc<dyn DataPlane>,
    /// Simulation handle (clock/sleep for modeled compute).
    pub handle: SimHandle,
    /// Speedup of the variant this body runs on.
    pub(crate) speedup: f64,
}

impl FnCtx {
    /// Charges `work` of abstract compute, scaled by the variant speedup.
    ///
    /// Bodies call this instead of sleeping directly so the same body
    /// runs faster on a GPU/TPU variant — the §4.3 flexibility story.
    pub async fn compute(&self, work: Duration) {
        self.handle
            .sleep(work.div_f64(self.speedup.max(1e-9)))
            .await;
    }
}

/// A host function body.
pub type FunctionBody = Rc<dyn Fn(FnCtx) -> LocalBoxFuture<Result<Bytes, PcsiError>>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_model_math() {
        let w = WorkModel {
            fixed: Duration::from_micros(100),
            per_byte: Duration::from_nanos(2),
        };
        assert_eq!(w.work(0), Duration::from_micros(100));
        assert_eq!(w.work(1000), Duration::from_micros(102));
        assert_eq!(
            WorkModel::fixed(Duration::from_millis(1)).work(1 << 20),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn variant_exec_time_scales_with_speedup() {
        let mut v = Variant::cpu(2);
        let work = Duration::from_millis(40);
        assert_eq!(v.exec_time(work), work);
        v.speedup = 10.0;
        assert_eq!(v.exec_time(work), Duration::from_millis(4));
    }

    proptest::proptest! {
        /// A function object's `initial` bytes are whatever the creating
        /// client sent. Arbitrary bytes, and a valid image with any one
        /// byte changed, decode or are refused — never panic — and what
        /// decodes is the whole input: it encodes back to the same bytes.
        #[test]
        fn image_decode_never_panics(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..256),
            at in proptest::prelude::any::<u64>(),
            to in proptest::prelude::any::<u8>(),
        ) {
            let mut image = FunctionImage::simple("nn-serve", WorkModel::fixed(Duration::from_millis(3)), 4);
            image.variants.push(Variant::wasm(1));
            let mut corrupted = image.encode().to_vec();
            let at = (at % corrupted.len() as u64) as usize;
            corrupted[at] = to;
            for bytes in [raw, corrupted] {
                if let Ok(decoded) = FunctionImage::decode(&bytes) {
                    proptest::prop_assert_eq!(&decoded.encode()[..], &bytes[..]);
                }
            }
        }
    }

    #[test]
    fn image_encode_decode_roundtrip() {
        let img = FunctionImage {
            name: "nn-serve".into(),
            work: WorkModel {
                fixed: Duration::from_millis(80),
                per_byte: Duration::from_nanos(3),
            },
            variants: vec![
                Variant::cpu(8),
                Variant {
                    name: "gpu".into(),
                    backend: Backend::MicroVm,
                    demand: Resources {
                        cpu: 2,
                        gpu: 1,
                        tpu: 0,
                        mem_gib: 16,
                    },
                    speedup: 12.0,
                },
                Variant {
                    name: "wasm-edge".into(),
                    backend: Backend::Wasm,
                    demand: Resources::cpu(1, 1),
                    speedup: 0.7,
                },
            ],
        };
        let decoded = FunctionImage::decode(&img.encode()).unwrap();
        assert_eq!(decoded, img);
        assert_eq!(decoded.variant("gpu").unwrap().speedup, 12.0);
        assert!(decoded.variant("none").is_none());
    }

    /// The stored bytes of a two-variant image as the parent of the
    /// shared cursor wrote them, and the same bytes claiming 2^32 - 1
    /// variants.
    #[test]
    fn an_image_encodes_to_the_pinned_bytes_and_a_forged_count_is_refused() {
        let mut image =
            FunctionImage::simple("nn-serve", WorkModel::fixed(Duration::from_millis(3)), 4);
        image.variants.push(Variant::wasm(1));
        let wire = image.encode();
        assert_eq!(
            pcsi_proto::hash::hex(&wire),
            "08006e6e2d7365727665c0c62d00000000000000000000000000020000000300637075000400000000\
             0000000000000008000000000000000000f03f04007761736d02010000000000000000000000010000\
             00000000000000f03f"
        );
        let mut forged = wire.to_vec();
        forged[26..30].fill(0xFF);
        assert!(FunctionImage::decode(&forged).is_err());
    }

    #[test]
    fn image_decode_rejects_corruption() {
        let img = FunctionImage::simple("f", WorkModel::fixed(Duration::from_millis(1)), 1);
        let wire = img.encode();
        for cut in 0..wire.len() {
            assert!(FunctionImage::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        let mut extra = wire.to_vec();
        extra.push(0);
        assert!(FunctionImage::decode(&extra).is_err());
    }

    #[test]
    fn empty_variants_rejected() {
        let img = FunctionImage {
            name: "broken".into(),
            work: WorkModel::fixed(Duration::ZERO),
            variants: vec![],
        };
        assert!(FunctionImage::decode(&img.encode()).is_err());
    }
}
