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

/// A device service handler: input bytes in, output bytes out.
pub type DeviceHandler = Rc<dyn Fn(Bytes) -> Result<Bytes, PcsiError>>;

/// The registry mapping device class names to handlers.
#[derive(Clone, Default)]
pub struct DeviceRegistry {
    handlers: FxHashMap<String, DeviceHandler>,
}

impl DeviceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// Invokes the handler for `class`.
    pub fn dispatch(&self, class: &str, input: Bytes) -> Result<Bytes, PcsiError> {
        match self.handlers.get(class) {
            Some(h) => h(input),
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
        let mut reg = DeviceRegistry::new();
        reg.register(
            "upper",
            Rc::new(|input: Bytes| {
                Ok(Bytes::from(
                    String::from_utf8_lossy(&input).to_uppercase().into_bytes(),
                ))
            }),
        );
        assert!(reg.has("upper"));
        assert_eq!(
            reg.dispatch("upper", Bytes::from_static(b"abc")).unwrap(),
            Bytes::from_static(b"ABC")
        );
    }

    #[test]
    fn unknown_class_errors() {
        let reg = DeviceRegistry::new();
        assert!(matches!(
            reg.dispatch("ghost", Bytes::new()),
            Err(PcsiError::NameNotFound(_))
        ));
    }

    #[test]
    fn handler_errors_propagate() {
        let mut reg = DeviceRegistry::new();
        reg.register(
            "fails",
            Rc::new(|_| Err(PcsiError::Fault("device offline".into()))),
        );
        assert!(matches!(
            reg.dispatch("fails", Bytes::new()),
            Err(PcsiError::Fault(_))
        ));
    }

    #[test]
    fn classes_sorted_and_replace_works() {
        let mut reg = DeviceRegistry::new();
        reg.register("zeta", Rc::new(Ok));
        reg.register("alpha", Rc::new(Ok));
        assert_eq!(reg.classes(), vec!["alpha", "zeta"]);
        reg.register("zeta", Rc::new(|_| Ok(Bytes::from_static(b"v2"))));
        assert_eq!(
            reg.dispatch("zeta", Bytes::new()).unwrap(),
            Bytes::from_static(b"v2")
        );
    }
}
