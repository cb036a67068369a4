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
        let mut out = Vec::with_capacity(128);
        push_str(&mut out, &self.name);
        out.extend_from_slice(&(self.work.fixed.as_nanos() as u64).to_le_bytes());
        out.extend_from_slice(&(self.work.per_byte.as_nanos() as u64).to_le_bytes());
        out.extend_from_slice(&(self.variants.len() as u32).to_le_bytes());
        for v in &self.variants {
            push_str(&mut out, &v.name);
            out.push(match v.backend {
                Backend::Container => 0,
                Backend::MicroVm => 1,
                Backend::Wasm => 2,
                Backend::Unikernel => 3,
            });
            for r in [v.demand.cpu, v.demand.gpu, v.demand.tpu, v.demand.mem_gib] {
                out.extend_from_slice(&r.to_le_bytes());
            }
            out.extend_from_slice(&v.speedup.to_le_bytes());
        }
        Bytes::from(out)
    }

    /// Decodes image metadata written by [`FunctionImage::encode`].
    pub fn decode(bytes: &[u8]) -> Result<FunctionImage, PcsiError> {
        let mut pos = 0usize;
        let name = read_str(bytes, &mut pos)?;
        let fixed = Duration::from_nanos(read_u64(bytes, &mut pos)?);
        let per_byte = Duration::from_nanos(read_u64(bytes, &mut pos)?);
        let n = read_u32(bytes, &mut pos)? as usize;
        let mut variants = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let vname = read_str(bytes, &mut pos)?;
            let backend = match read_u8(bytes, &mut pos)? {
                0 => Backend::Container,
                1 => Backend::MicroVm,
                2 => Backend::Wasm,
                3 => Backend::Unikernel,
                b => {
                    return Err(PcsiError::BadPayload(format!(
                        "bad backend byte {b} in function image"
                    )))
                }
            };
            let cpu = read_u32(bytes, &mut pos)?;
            let gpu = read_u32(bytes, &mut pos)?;
            let tpu = read_u32(bytes, &mut pos)?;
            let mem_gib = read_u32(bytes, &mut pos)?;
            let speedup =
                f64::from_le_bytes(take(bytes, &mut pos, 8)?.try_into().expect("8-byte slice"));
            variants.push(Variant {
                name: vname,
                backend,
                demand: Resources {
                    cpu,
                    gpu,
                    tpu,
                    mem_gib,
                },
                speedup,
            });
        }
        if pos != bytes.len() {
            return Err(PcsiError::BadPayload(
                "trailing bytes in function image".into(),
            ));
        }
        if variants.is_empty() {
            return Err(PcsiError::BadPayload(
                "function image has no variants".into(),
            ));
        }
        Ok(FunctionImage {
            name,
            work: WorkModel { fixed, per_byte },
            variants,
        })
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], PcsiError> {
    if bytes.len() - *pos < n {
        return Err(PcsiError::BadPayload("truncated function image".into()));
    }
    let s = &bytes[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn read_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, PcsiError> {
    Ok(take(bytes, pos, 1)?[0])
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, PcsiError> {
    Ok(u32::from_le_bytes(take(bytes, pos, 4)?.try_into().unwrap()))
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, PcsiError> {
    Ok(u64::from_le_bytes(take(bytes, pos, 8)?.try_into().unwrap()))
}

fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String, PcsiError> {
    let len = u16::from_le_bytes(take(bytes, pos, 2)?.try_into().unwrap()) as usize;
    String::from_utf8(take(bytes, pos, len)?.to_vec())
        .map_err(|_| PcsiError::BadPayload("bad UTF-8 in function image".into()))
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
