//! Pay-per-use billing.
//!
//! §2.1 observes that a 1 KB fetch costs 0.003 USD/M via NFS but
//! 0.18 USD/M via DynamoDB, and speculates "that a part of the cost
//! difference comes from the cloud provider passing the cost of providing
//! a RESTful web service interface on to the customer." The ledger here
//! makes that mechanism explicit: a web-service request is charged the
//! *provider CPU it spent* (gateway parsing, marshaling, signature
//! checks, routing) at resource rates, through one `Meter` that both
//! sleeps that CPU and bills it, and a signed front door adds a flat
//! per-request fee. Media time is latency, not a charge. The REST path
//! simply burns more provider CPU per operation — the 60× emerges rather
//! than being hard-coded.
//!
//! Prices are 2021-era public-cloud approximations, all in one place so
//! calibration is auditable.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use pcsi_faas::registry;
use pcsi_net::node::Resources;
use pcsi_sim::SimHandle;

/// Flat request-routing fee per million API requests (front-door load
/// balancer + metering), USD. Resource-seconds are priced by
/// [`registry::usd`].
const USD_PER_MILLION_REQUESTS: f64 = 0.20;

/// One request's provider CPU. Every CPU sleep a baseline server charges
/// goes through [`Meter::spend`], and [`Meter::bill`] charges their sum,
/// so what a request is billed is the CPU virtual time saw it spend.
pub(crate) struct Meter {
    h: SimHandle,
    spent: Duration,
}

impl Meter {
    /// A meter that starts with `carried`: CPU a hop in front of this
    /// server already spent on the request.
    pub(crate) fn new(h: &SimHandle, carried: Duration) -> Meter {
        Meter {
            h: h.clone(),
            spent: carried,
        }
    }

    /// Spends `d` of CPU: sleeps it and adds it to the bill.
    pub(crate) async fn spend(&mut self, d: Duration) {
        self.h.sleep(d).await;
        self.spent += d;
    }

    /// Charges `account` for everything spent, at one core.
    pub(crate) fn bill(self, billing: &Billing, account: &str) {
        billing.charge_compute(account, &Resources::cpu(1, 0), self.spent);
    }
}

/// One tenant's accumulated charges, by category (USD).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Invoice {
    /// Compute time (all resource kinds).
    pub compute: f64,
    /// Flat request fees.
    pub requests: f64,
}

impl Invoice {
    /// Grand total.
    pub fn total(&self) -> f64 {
        self.compute + self.requests
    }
}

/// The provider's metering service. Cheap to clone; clones share ledgers.
#[derive(Clone, Default)]
pub struct Billing {
    inner: Rc<RefCell<Inner>>,
}

#[derive(Default)]
struct Inner {
    ledgers: BTreeMap<String, Invoice>,
    request_counts: BTreeMap<String, u64>,
}

impl Billing {
    /// A meter with default prices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `account` for holding `demand` for `d`.
    pub(crate) fn charge_compute(&self, account: &str, demand: &Resources, d: Duration) {
        let usd = registry::usd(demand, d);
        self.entry(account, |inv| inv.compute += usd);
    }

    /// Charges one flat-rate API request.
    pub(crate) fn charge_request(&self, account: &str) {
        let usd = USD_PER_MILLION_REQUESTS / 1e6;
        self.entry(account, |inv| inv.requests += usd);
        *self
            .inner
            .borrow_mut()
            .request_counts
            .entry(account.to_owned())
            .or_insert(0) += 1;
    }

    fn entry(&self, account: &str, f: impl FnOnce(&mut Invoice)) {
        let mut inner = self.inner.borrow_mut();
        f(inner.ledgers.entry(account.to_owned()).or_default());
    }

    /// The invoice for an account (zero if never charged).
    pub fn invoice(&self, account: &str) -> Invoice {
        self.inner
            .borrow()
            .ledgers
            .get(account)
            .cloned()
            .unwrap_or_default()
    }

    /// Requests metered for an account.
    pub fn request_count(&self, account: &str) -> u64 {
        self.inner
            .borrow()
            .request_counts
            .get(account)
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_charges_scale_with_time_and_demand() {
        let b = Billing::new();
        b.charge_compute("t1", &Resources::cpu(2, 0), Duration::from_secs(3600));
        let inv = b.invoice("t1");
        assert!((inv.compute - 2.0 * 0.048).abs() < 1e-9, "{inv:?}");
        assert_eq!(b.invoice("other"), Invoice::default());
    }

    #[test]
    fn per_million_math() {
        let b = Billing::new();
        for _ in 0..1000 {
            b.charge_request("t1");
        }
        assert_eq!(b.request_count("t1"), 1000);
        // Flat component alone: 0.20 USD/M.
        let per_m = b.invoice("t1").total() / 1000.0 * 1e6;
        assert!((per_m - 0.20).abs() < 1e-9, "{per_m}");
    }

    #[test]
    fn accounts_are_separate_and_shared_across_clones() {
        let b = Billing::new();
        let b2 = b.clone();
        b.charge_request("a");
        b2.charge_request("b");
        assert_eq!(b.request_count("a"), 1);
        assert_eq!(b.request_count("b"), 1);
    }
}
