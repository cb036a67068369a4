//! Device interfaces to system services (§3.2).
//!
//! "While some objects may represent persistent data, others may
//! represent network connections or interfaces to system services." A
//! device object routes reads/writes to a registered service handler —
//! the PCSI analogue of `/dev` nodes and Plan 9 service files. The kernel
//! creates device objects (e.g. `clock`, `metrics`, `random`, `log`) in
//! function namespaces; functions use plain object I/O on them.

use fxhash::FxHashMap;
use std::rc::Rc;

use bytes::Bytes;
use pcsi_core::PcsiError;

/// The object operation a device handler serves.
#[derive(Debug)]
pub enum DeviceOp {
    /// A read at `offset`; each class says what its offsets mean.
    Read {
        /// The read's offset.
        offset: u64,
    },
    /// A write of these bytes.
    Write(Bytes),
}

/// A device service handler: the operation in, the read's bytes out (a
/// write's output is discarded).
pub type DeviceHandler = Rc<dyn Fn(DeviceOp) -> Result<Bytes, PcsiError>>;

/// The registry mapping device class names to handlers.
#[derive(Clone, Default)]
pub struct DeviceRegistry {
    handlers: FxHashMap<String, DeviceHandler>,
}

impl DeviceRegistry {
    /// Registers (or replaces) the handler for a device class.
    pub fn register(&mut self, class: &str, handler: DeviceHandler) {
        self.handlers.insert(class.to_owned(), handler);
    }

    /// True if a class is registered.
    pub fn has(&self, class: &str) -> bool {
        self.handlers.contains_key(class)
    }

    /// Registered class names, sorted.
    pub(crate) fn classes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.handlers.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Invokes the handler for `class` on `op`.
    pub fn dispatch(&self, class: &str, op: DeviceOp) -> Result<Bytes, PcsiError> {
        match self.handlers.get(class) {
            Some(h) => h(op),
            None => Err(PcsiError::NameNotFound(format!("device class {class:?}"))),
        }
    }
}

impl std::fmt::Debug for DeviceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceRegistry")
            .field("classes", &self.classes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_dispatch() {
        let mut reg = DeviceRegistry::default();
        reg.register(
            "upper",
            Rc::new(|op| match op {
                DeviceOp::Write(input) => Ok(Bytes::from(
                    String::from_utf8_lossy(&input).to_uppercase().into_bytes(),
                )),
                DeviceOp::Read { offset } => Ok(Bytes::from(offset.to_string())),
            }),
        );
        assert!(reg.has("upper"));
        assert_eq!(
            reg.dispatch("upper", DeviceOp::Write(Bytes::from_static(b"abc")))
                .unwrap(),
            Bytes::from_static(b"ABC")
        );
        assert_eq!(
            reg.dispatch("upper", DeviceOp::Read { offset: 7 }).unwrap(),
            Bytes::from_static(b"7")
        );
    }

    #[test]
    fn unknown_class_errors() {
        let reg = DeviceRegistry::default();
        assert!(matches!(
            reg.dispatch("ghost", DeviceOp::Read { offset: 0 }),
            Err(PcsiError::NameNotFound(_))
        ));
    }

    #[test]
    fn handler_errors_propagate() {
        let mut reg = DeviceRegistry::default();
        reg.register(
            "fails",
            Rc::new(|_| Err(PcsiError::Fault("device offline".into()))),
        );
        assert!(matches!(
            reg.dispatch("fails", DeviceOp::Read { offset: 0 }),
            Err(PcsiError::Fault(_))
        ));
    }

    #[test]
    fn classes_sorted_and_replace_works() {
        let mut reg = DeviceRegistry::default();
        reg.register("zeta", Rc::new(|_| Ok(Bytes::new())));
        reg.register("alpha", Rc::new(|_| Ok(Bytes::new())));
        assert_eq!(reg.classes(), vec!["alpha", "zeta"]);
        reg.register("zeta", Rc::new(|_| Ok(Bytes::from_static(b"v2"))));
        assert_eq!(
            reg.dispatch("zeta", DeviceOp::Read { offset: 0 }).unwrap(),
            Bytes::from_static(b"v2")
        );
    }
}
