//! Signing and verification run on every REST request, on both sides.
//! With the date-scoped key remembered they may touch the heap a small,
//! fixed number of times, none of them for key derivation, and a
//! derivation adds exactly what the memo stores. A counting global
//! allocator (per thread, so the harness's own threads do not leak into
//! the count) holds them to it.

use pcsi_proto::http::{Method, Request};
use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocs_during;

/// What one signed round costs with the key remembered: the three auth
/// headers' names and values and the header list growing past four;
/// per side one list of borrowed headers (grown once, past four) and
/// one hex string; the clone the verifier's key store hands out — 15
/// when this was written.
const WARM_BUDGET: u64 = 16;
/// What a derivation stores: the date, the region and the service.
const MEMO_STORES: u64 = 3;

/// A four-header request signed by `creds` and verified against a clone
/// of it (as a gateway's key store does); returns the allocations of
/// the two calls alone.
fn signed_round(creds: &Credentials, scope: &Scope, now: u64) -> u64 {
    let mut req = Request::new(Method::Put, "/kv/bench/k0001")
        .with_header("host", "api.sim-west-1.pcsi.cloud")
        .with_header("content-type", "application/json")
        .with_header("x-request-id", "r-0001")
        .with_header("user-agent", "sign-alloc")
        .with_body(vec![0xC3u8; 1400]);
    allocs_during(|| {
        sign_request(&mut req, creds, scope, now);
        verify_request(&req, |_| Some(creds.clone()), scope, now, 300)
            .expect("own signature verifies");
    })
}

#[test]
fn a_remembered_key_costs_no_allocation_and_a_derivation_only_its_stores() {
    let creds = Credentials::new("AK1", b"bench-secret".to_vec());
    let (kv, objects) = (Scope::new("r", "kv"), Scope::new("r", "objects"));
    let first = signed_round(&creds, &kv, 1_700_000_000);
    let warm = signed_round(&creds, &kv, 1_700_000_000);
    assert!(warm <= WARM_BUDGET, "{warm} allocations with the key warm");
    assert_eq!(first, warm + MEMO_STORES, "the first derivation");
    // Still warm; then a new date and a new scope each derive once, on
    // the signing side, and the verifier's clone finds that key.
    assert_eq!(signed_round(&creds, &kv, 1_700_000_000), warm);
    assert_eq!(signed_round(&creds, &kv, 1_700_000_001), warm + MEMO_STORES);
    assert_eq!(signed_round(&creds, &kv, 1_700_000_001), warm);
    assert_eq!(
        signed_round(&creds, &objects, 1_700_000_001),
        warm + MEMO_STORES
    );
    assert_eq!(signed_round(&creds, &objects, 1_700_000_001), warm);
    // The counter does see an allocation when there is one.
    assert_eq!(allocs_during(|| drop(creds.key_id.clone())), 1);
}
