//! SigV4-style request signing — the stateless access-control check.
//!
//! A RESTful service cannot remember that it already authenticated a
//! caller: every request carries a signature over a canonical form of the
//! request, and the service re-derives and re-verifies it each time. The
//! paper (§2.1) identifies this repeated per-request work as a fundamental
//! cost of statelessness; `benchmark/`'s `proto.sign` probe and Table 1's
//! host-measured row time [`sign_request`] + [`verify_request`], for
//! comparison with the PCSI capability model, which checks rights once
//! at bind time.
//!
//! The scheme mirrors AWS Signature Version 4:
//!
//! 1. canonical request = method, target, signed headers, SHA-256(body)
//! 2. string-to-sign   = scope, date, SHA-256(canonical request)
//! 3. signing key      = chained HMACs over date/region/service
//! 4. signature        = HMAC(signing key, string-to-sign)
//!
//! What is remembered between requests is step 3's key and nothing else:
//! it depends on the secret, the date and the scope, not on the request,
//! so — as SigV4 clients and verifiers do — [`Credentials`] keeps the key
//! it derived last and derives again only when the date or scope differs.
//! The caller's authentication is never remembered: steps 1, 2 and 4 and
//! the constant-time comparison run in full on every request.

use std::sync::{Arc, Mutex};

use crate::hash::{ct_eq, hex, Digest, HmacKey, Sha256};
use crate::http::Request;

/// Name of the header carrying the signature.
pub(crate) const SIGNATURE_HEADER: &str = "x-pcsi-signature";
/// Name of the header carrying the access key id.
pub const KEY_ID_HEADER: &str = "x-pcsi-key-id";
/// Name of the header carrying the request date (epoch seconds).
pub(crate) const DATE_HEADER: &str = "x-pcsi-date";

/// A caller's long-lived secret credential.
///
/// `Debug` prints the key id only, never the secret; equality compares
/// key id and secret.
#[derive(Clone)]
pub struct Credentials {
    /// Public key identifier sent with each request.
    pub key_id: String,
    /// Secret used to derive signing keys; never sent on the wire, and
    /// never changed once set: the memo below is derived from it.
    secret: Vec<u8>,
    /// The signing key derived last, shared with every clone (a
    /// verifier's key store hands out a clone per request). One entry:
    /// a peer that varies `x-pcsi-date` forces a derivation per
    /// request, which is what every request cost without the memo, and
    /// can never make it grow.
    memo: Arc<Mutex<Option<DerivedKey>>>,
}

/// A signing key and the `(date, scope)` it was derived for.
struct DerivedKey {
    date: String,
    scope: Scope,
    key: HmacKey,
}

impl Credentials {
    /// Creates credentials.
    pub fn new(key_id: impl Into<String>, secret: impl Into<Vec<u8>>) -> Self {
        Credentials {
            key_id: key_id.into(),
            secret: secret.into(),
            memo: Arc::default(),
        }
    }

    /// The per-date, per-scope signing key (step 3): four chained HMACs
    /// when `(date, scope)` differs from the remembered one, a copy of
    /// the remembered key otherwise.
    fn signing_key(&self, date: &str, scope: &Scope) -> HmacKey {
        let mut memo = self
            .memo
            .lock()
            .expect("nothing that holds the memo lock can panic");
        match &*memo {
            Some(m) if m.date == date && m.scope == *scope => m.key.clone(),
            _ => {
                let k_date = HmacKey::new(&self.secret).mac(date.as_bytes());
                let k_region = HmacKey::new(&k_date).mac(scope.region.as_bytes());
                let k_service = HmacKey::new(&k_region).mac(scope.service.as_bytes());
                let key = HmacKey::new(&HmacKey::new(&k_service).mac(b"pcsi_request"));
                *memo = Some(DerivedKey {
                    date: date.to_owned(),
                    scope: scope.clone(),
                    key: key.clone(),
                });
                key
            }
        }
    }
}

impl std::fmt::Debug for Credentials {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Credentials")
            .field("key_id", &self.key_id)
            .finish_non_exhaustive()
    }
}

impl PartialEq for Credentials {
    fn eq(&self, other: &Self) -> bool {
        self.key_id == other.key_id && self.secret == other.secret
    }
}

impl Eq for Credentials {}

/// Scope of a signature (region/service pinning, as in SigV4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Deployment region (e.g. `us-west-2`).
    pub(crate) region: String,
    /// Service name (e.g. `kv`, `objects`).
    pub(crate) service: String,
}

impl Scope {
    /// Creates a scope.
    pub fn new(region: impl Into<String>, service: impl Into<String>) -> Self {
        Scope {
            region: region.into(),
            service: service.into(),
        }
    }
}

/// Reasons signature verification can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Request lacks one of the authentication headers.
    MissingAuthHeaders,
    /// The key id is unknown to the verifier.
    UnknownKey(String),
    /// The signature did not match.
    SignatureMismatch,
    /// The request date is outside the acceptance window.
    Expired,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingAuthHeaders => f.write_str("missing authentication headers"),
            VerifyError::UnknownKey(k) => write!(f, "unknown access key {k:?}"),
            VerifyError::SignatureMismatch => f.write_str("signature mismatch"),
            VerifyError::Expired => f.write_str("request outside acceptance window"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The bytes of a header's canonical line, `lowercased-name:value`.
fn canonical_line<'a>(&(name, value): &(&'a str, &'a str)) -> impl Iterator<Item = u8> + 'a {
    let name = name.bytes().map(|b| b.to_ascii_lowercase());
    name.chain(std::iter::once(b':')).chain(value.bytes())
}

/// Builds the canonical request hash (step 1).
fn canonical_request_hash(req: &Request) -> Digest {
    let mut h = Sha256::new();
    h.update(req.method.as_str().as_bytes());
    h.update(b"\n");
    h.update(req.target.as_bytes());
    h.update(b"\n");
    // Headers participate in canonical order (lowercased name, trimmed
    // value), excluding the signature header itself and transport framing
    // headers the HTTP layer may add after signing (`content-length` is
    // implied by the body hash). The order is that of the whole lines,
    // not of the names: `x-a-b:` sorts before `x-a:`.
    let mut signed: Vec<(&str, &str)> = req
        .headers
        .iter()
        .filter(|(n, _)| {
            !n.eq_ignore_ascii_case(SIGNATURE_HEADER) && !n.eq_ignore_ascii_case("content-length")
        })
        .map(|(n, v)| (n, v.trim()))
        .collect();
    signed.sort_unstable_by(|a, b| canonical_line(a).cmp(canonical_line(b)));
    let mut buf = [0u8; 64];
    for (name, value) in signed {
        for chunk in name.as_bytes().chunks(buf.len()) {
            let lower = &mut buf[..chunk.len()];
            lower.copy_from_slice(chunk);
            lower.make_ascii_lowercase();
            h.update(lower);
        }
        h.update(b":");
        h.update(value.as_bytes());
        h.update(b"\n");
    }
    h.update(b"\n");
    h.update(&Sha256::digest(&req.body));
    h.finalize()
}

/// Computes the signature for a request whose auth headers are in place.
fn compute_signature(req: &Request, creds: &Credentials, scope: &Scope, date: &str) -> String {
    let mut sts = Sha256::new();
    sts.update(b"PCSI-HMAC-SHA256\n");
    sts.update(date.as_bytes());
    sts.update(b"\n");
    sts.update(scope.region.as_bytes());
    sts.update(b"/");
    sts.update(scope.service.as_bytes());
    sts.update(b"\n");
    sts.update(&canonical_request_hash(req));
    let string_to_sign = sts.finalize();
    hex(&creds.signing_key(date, scope).mac(&string_to_sign))
}

/// Signs `req` in place: stamps key-id/date headers and the signature.
///
/// # Examples
///
/// ```
/// use pcsi_proto::http::{Method, Request};
/// use pcsi_proto::sign::{sign_request, verify_request, Credentials, Scope};
///
/// let creds = Credentials::new("AK1", b"top-secret".to_vec());
/// let scope = Scope::new("us-west-2", "kv");
/// let mut req = Request::new(Method::Get, "/tables/t/items/k");
/// sign_request(&mut req, &creds, &scope, 1_700_000_000);
///
/// let lookup = |id: &str| (id == "AK1").then(|| creds.clone());
/// assert!(verify_request(&req, lookup, &scope, 1_700_000_010, 300).is_ok());
/// ```
pub fn sign_request(req: &mut Request, creds: &Credentials, scope: &Scope, now_epoch_s: u64) {
    let date = now_epoch_s.to_string();
    req.headers.insert(KEY_ID_HEADER, creds.key_id.clone());
    req.headers.insert(DATE_HEADER, date.clone());
    let sig = compute_signature(req, creds, scope, &date);
    req.headers.insert(SIGNATURE_HEADER, sig);
}

/// Verifies a signed request.
///
/// `lookup` resolves a key id to credentials (the verifier's key store);
/// `max_skew_s` bounds the request-date acceptance window.
pub fn verify_request(
    req: &Request,
    lookup: impl Fn(&str) -> Option<Credentials>,
    scope: &Scope,
    now_epoch_s: u64,
    max_skew_s: u64,
) -> Result<(), VerifyError> {
    let key_id = req
        .headers
        .get(KEY_ID_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;
    let date = req
        .headers
        .get(DATE_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;
    let presented = req
        .headers
        .get(SIGNATURE_HEADER)
        .ok_or(VerifyError::MissingAuthHeaders)?;

    let req_time: u64 = date.parse().map_err(|_| VerifyError::Expired)?;
    if now_epoch_s.abs_diff(req_time) > max_skew_s {
        return Err(VerifyError::Expired);
    }

    let creds = lookup(key_id).ok_or_else(|| VerifyError::UnknownKey(key_id.to_owned()))?;
    let expected = compute_signature(req, &creds, scope, date);
    if ct_eq(expected.as_bytes(), presented.as_bytes()) {
        Ok(())
    } else {
        Err(VerifyError::SignatureMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hmac_sha256_from_scratch;
    use crate::http::Method;

    fn creds() -> Credentials {
        Credentials::new("AKID", b"s3cr3t".to_vec())
    }

    fn scope() -> Scope {
        Scope::new("us-west-2", "kv")
    }

    fn signed_request() -> Request {
        let mut req = Request::new(Method::Put, "/tables/t/items/key1")
            .with_header("host", "kv.pcsi.cloud")
            .with_body(&b"{\"v\":1}"[..]);
        sign_request(&mut req, &creds(), &scope(), 1_000_000);
        req
    }

    fn lookup_ok(id: &str) -> Option<Credentials> {
        (id == "AKID").then(creds)
    }

    #[test]
    fn sign_then_verify_succeeds() {
        let req = signed_request();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Ok(())
        );
    }

    #[test]
    fn tampered_body_rejected() {
        let mut req = signed_request();
        req.body = bytes::Bytes::from_static(b"{\"v\":2}");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn tampered_target_rejected() {
        let mut req = signed_request();
        req.target = "/tables/t/items/key2".into();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn tampered_header_rejected() {
        let mut req = signed_request();
        req.headers.insert("host", "evil.example");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn wrong_scope_rejected() {
        let req = signed_request();
        let other = Scope::new("eu-central-1", "kv");
        assert_eq!(
            verify_request(&req, lookup_ok, &other, 1_000_030, 300),
            Err(VerifyError::SignatureMismatch)
        );
    }

    #[test]
    fn expired_request_rejected() {
        let req = signed_request();
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_000 + 1_000, 300),
            Err(VerifyError::Expired)
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let req = signed_request();
        assert!(matches!(
            verify_request(&req, |_| None, &scope(), 1_000_030, 300),
            Err(VerifyError::UnknownKey(_))
        ));
    }

    #[test]
    fn unsigned_request_rejected() {
        let req = Request::new(Method::Get, "/x");
        assert_eq!(
            verify_request(&req, lookup_ok, &scope(), 1_000_030, 300),
            Err(VerifyError::MissingAuthHeaders)
        );
    }

    #[test]
    fn header_order_does_not_affect_signature() {
        // Sign a request, then present the same headers in different order.
        let req = signed_request();
        let mut reordered =
            Request::new(req.method, req.target.clone()).with_body(req.body.clone());
        let mut entries: Vec<(String, String)> = req
            .headers
            .iter()
            .map(|(n, v)| (n.into(), v.into()))
            .collect();
        entries.reverse();
        for (n, v) in entries {
            reordered.headers.insert(n, v);
        }
        assert_eq!(
            verify_request(&reordered, lookup_ok, &scope(), 1_000_030, 300),
            Ok(())
        );
    }

    #[test]
    fn debug_prints_the_key_id_only_and_equality_ignores_the_memo() {
        let warm = Credentials::new("AKID", b"s3cr3t".to_vec());
        let mut req = Request::new(Method::Get, "/x");
        sign_request(&mut req, &warm, &scope(), 1_000_000);
        assert!(warm.memo.lock().unwrap().is_some());
        // Neither the secret nor the key derived from it is rendered.
        assert_eq!(format!("{warm:?}"), r#"Credentials { key_id: "AKID", .. }"#);

        let cold = creds();
        assert!(cold.memo.lock().unwrap().is_none());
        assert_eq!(warm, cold);
        assert_ne!(warm, Credentials::new("AKID", b"other".to_vec()));
        assert_ne!(warm, Credentials::new("OTHER", b"s3cr3t".to_vec()));
    }

    /// The key derivation this module ran on every request before it
    /// kept the last key, on the textbook HMAC: the memo's oracle.
    fn signing_key_from_scratch(secret: &[u8], date: &str, scope: &Scope) -> Digest {
        let k_date = hmac_sha256_from_scratch(secret, date.as_bytes());
        let k_region = hmac_sha256_from_scratch(&k_date, scope.region.as_bytes());
        let k_service = hmac_sha256_from_scratch(&k_region, scope.service.as_bytes());
        hmac_sha256_from_scratch(&k_service, b"pcsi_request")
    }

    /// The canonicaliser `canonical_request_hash` replaced, kept as its
    /// oracle: one lowercased `name:value` `String` per header, sorted.
    fn canonical_request_hash_by_strings(req: &Request) -> Digest {
        let mut h = Sha256::new();
        h.update(req.method.as_str().as_bytes());
        h.update(b"\n");
        h.update(req.target.as_bytes());
        h.update(b"\n");
        let mut lines: Vec<String> = req
            .headers
            .iter()
            .filter(|(n, _)| {
                !n.eq_ignore_ascii_case(SIGNATURE_HEADER)
                    && !n.eq_ignore_ascii_case("content-length")
            })
            .map(|(n, v)| format!("{}:{}", n.to_ascii_lowercase(), v.trim()))
            .collect();
        lines.sort_unstable();
        for line in &lines {
            h.update(line.as_bytes());
            h.update(b"\n");
        }
        h.update(b"\n");
        h.update(&Sha256::digest(&req.body));
        h.finalize()
    }

    /// `compute_signature` with nothing remembered and nothing streamed.
    fn signature_from_scratch(req: &Request, secret: &[u8], scope: &Scope, date: &str) -> String {
        let string_to_sign = [
            b"PCSI-HMAC-SHA256\n",
            date.as_bytes(),
            b"\n",
            scope.region.as_bytes(),
            b"/",
            scope.service.as_bytes(),
            b"\n",
            &canonical_request_hash_by_strings(req),
        ]
        .concat();
        hex(&hmac_sha256_from_scratch(
            &signing_key_from_scratch(secret, date, scope),
            &Sha256::digest(&string_to_sign),
        ))
    }

    /// A bodyless GET, a PUT with a 1.4 KB body, and a request whose
    /// headers have mixed-case names, padded values and names that
    /// prefix one another (`x-a-b:` sorts before `x-a:`).
    fn known_answer_requests() -> [Request; 3] {
        let body: Vec<u8> = (0..1400u32).map(|i| (i % 251) as u8).collect();
        [
            Request::new(Method::Get, "/kv/bench/k0001")
                .with_header("host", "api.sim-west-1.pcsi.cloud"),
            Request::new(Method::Put, "/kv/bench/k0001")
                .with_header("host", "api.sim-west-1.pcsi.cloud")
                .with_body(body),
            Request::new(Method::Post, "/tables/t/items?limit=2")
                .with_header("X-A-B", "two")
                .with_header("x-a", " one ")
                .with_header("Host", "  kv.pcsi.cloud ")
                .with_header("Content-Length", "7")
                .with_body(&b"{\"v\":1}"[..]),
        ]
    }

    /// Signatures captured at commit 0219e88, before the signing key was
    /// remembered and the canonical form streamed. Sign and verify are
    /// otherwise only tested against each other, so a drift of the
    /// canonical form on both sides would pass everything but this.
    #[test]
    fn signatures_match_the_pinned_known_answers() {
        const PINNED: [&str; 3] = [
            "6e842501468bc69c71adc8cb3e4a2a3dc945dd0f5f9e759264af9d61c000b3b0",
            "18a197c22385e699bacd295f2fa8de387175655bf69bf3ac37bbd3b874a41e9c",
            "c129086fd57487130bbc1f3bfd2dc9ee952cc731e59bf4778bd40aac63f723d0",
        ];
        let creds = creds();
        for (mut req, pinned) in known_answer_requests().into_iter().zip(PINNED) {
            sign_request(&mut req, &creds, &scope(), 1_700_000_000);
            assert_eq!(req.headers.get(SIGNATURE_HEADER), Some(pinned));
            assert_eq!(
                signature_from_scratch(&req, b"s3cr3t", &scope(), "1700000000"),
                pinned
            );
            assert_eq!(
                verify_request(&req, lookup_ok, &scope(), 1_700_000_000, 300),
                Ok(())
            );
        }
    }

    /// A header name longer than the canonicaliser's lowercasing buffer,
    /// with upper case on both sides of every 64-byte boundary.
    #[test]
    fn long_header_names_are_lowercased_whole() {
        let req = Request::new(Method::Get, "/x")
            .with_header(&"X-Long-É-".repeat(20), "v")
            .with_header(&"x-long-É-".repeat(19), "w");
        assert_eq!(
            canonical_request_hash(&req),
            canonical_request_hash_by_strings(&req)
        );
    }

    /// One date evicts another and then comes back: each derivation
    /// replaces the single entry, and a clone reads and writes the same
    /// entry as its original.
    #[test]
    fn a_date_repeated_after_its_eviction_derives_the_same_key() {
        let creds = creds();
        let clone = creds.clone();
        let req = known_answer_requests()[0].clone();
        let remembered = |c: &Credentials| c.memo.lock().unwrap().as_ref().unwrap().date.clone();
        for (signer, date) in [
            (&creds, "1000"),
            (&clone, "1000"),
            (&creds, "1001"),
            (&clone, "1000"),
            (&clone, "01000"),
            (&creds, "1000"),
        ] {
            assert_eq!(
                compute_signature(&req, signer, &scope(), date),
                signature_from_scratch(&req, b"s3cr3t", &scope(), date),
                "date {date}"
            );
            assert_eq!(remembered(&creds), date);
            assert_eq!(remembered(&clone), date);
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever order dates, scopes and credentials arrive in,
            /// the remembered key signs exactly as a fresh derivation
            /// does. Credentials 0 and 1 share a memo (1 is a clone),
            /// 2 has 0's fields and a memo of its own, 3 differs.
            #[test]
            fn memoised_signatures_equal_from_scratch_signatures(
                steps in proptest::collection::vec((0usize..4, 0usize..3, 0usize..3, 0usize..3), 1..48),
            ) {
                let secrets: [&[u8]; 4] = [b"s3cr3t", b"s3cr3t", b"s3cr3t", b"another"];
                let first = Credentials::new("AKID", secrets[0]);
                let pool = [
                    first.clone(),
                    first,
                    Credentials::new("AKID", secrets[2]),
                    Credentials::new("AK2", secrets[3]),
                ];
                let dates = ["1700000000", "1700000001", "86400"];
                let scopes = [scope(), Scope::new("us-west-2", "objects"), Scope::new("eu", "kv")];
                let requests = known_answer_requests();
                for (who, date, scope, req) in steps {
                    let (date, scope, req) = (dates[date], &scopes[scope], &requests[req]);
                    prop_assert_eq!(
                        compute_signature(req, &pool[who], scope, date),
                        signature_from_scratch(req, secrets[who], scope, date)
                    );
                }
            }

            /// Names over a five-letter alphabet prefix one another and
            /// differ by case all the time; `:` and `-` sit on either
            /// side of the separator in byte order; values carry ASCII
            /// and non-ASCII padding.
            #[test]
            fn streamed_canonical_form_equals_the_sorted_strings(
                headers in proptest::collection::vec(("[aAbÉ:-]{1,4}", "[ \u{a0}a:-]{0,4}"), 0..8),
                body in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let mut req = Request::new(Method::Put, "/t").with_body(body);
                for (name, value) in &headers {
                    req.headers.insert(name.as_str(), value.as_str());
                }
                req.headers.insert("X-PCSI-Signature", "skipped");
                prop_assert_eq!(
                    canonical_request_hash(&req),
                    canonical_request_hash_by_strings(&req)
                );
            }
        }
    }
}
