//! SHA-256, HMAC-SHA256 and hex encoding.
//!
//! The REST baseline authenticates every request with an HMAC signature
//! over a canonical request (the way AWS SigV4 does); that per-request
//! hashing is part of the statelessness cost the paper calls out. The
//! implementation follows FIPS 180-4 / RFC 2104 and is verified against
//! published test vectors in the unit tests.

/// Output size of SHA-256 in bytes.
pub(crate) const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub(crate) type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pcsi_proto::hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize()[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len += data.len() as u64;
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len * 8;
        // Pad in the block buffer itself: 0x80, zeros, then the length in
        // the last eight bytes — of a second block when fewer than nine
        // bytes are free in this one.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            self.compress(&block);
            block = [0; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Pads `key` to one SHA-256 block (RFC 2104: a longer key is hashed
/// first).
fn hmac_key_block(key: &[u8]) -> [u8; 64] {
    let mut block = [0u8; 64];
    if key.len() > 64 {
        block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
    } else {
        block[..key.len()].copy_from_slice(key);
    }
    block
}

/// An HMAC-SHA256 key (RFC 2104) with both pad blocks already absorbed.
///
/// Half of a short message's HMAC is hashing the two key pads; a key
/// that authenticates many messages pays that once, in [`HmacKey::new`],
/// and [`HmacKey::mac`] resumes from the two saved states.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let block = hmac_key_block(key);
        let mut inner = Sha256::new();
        inner.update(&block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&block.map(|b| b ^ 0x5c));
        HmacKey { inner, outer }
    }

    /// The MAC of `message` under this key.
    pub(crate) fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// The textbook HMAC, `H((K ^ opad) || H((K ^ ipad) || m))` over
/// concatenated buffers: the oracle [`HmacKey`] is tested against.
#[cfg(test)]
pub(crate) fn hmac_sha256_from_scratch(key: &[u8], message: &[u8]) -> Digest {
    let block = hmac_key_block(key);
    let inner = [&block.map(|b| b ^ 0x36)[..], message].concat();
    let outer = [&block.map(|b| b ^ 0x5c)[..], &Sha256::digest(&inner)[..]].concat();
    Sha256::digest(&outer)
}

/// Lowercase hex encoding.
pub fn hex(data: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(data.len() * 2);
    for &b in data {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xF) as usize] as char);
    }
    out
}

/// Constant-time equality for MACs (prevents timing side channels; also the
/// correct idiom to model, even in a simulator).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn sha256_known_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(hex(&Sha256::digest(input)), *expect);
        }
    }

    #[test]
    fn sha256_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1337).collect();
        for split in [0, 1, 63, 64, 65, 1000, 1337] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    /// The padding `finalize` replaced, kept as the oracle: one `update`
    /// call per padding byte.
    fn finalize_bytewise(mut h: Sha256) -> Digest {
        let bit_len = h.total_len * 8;
        h.update(&[0x80]);
        while h.buffer_len != 56 {
            h.update(&[0x00]);
        }
        h.update(&bit_len.to_be_bytes());
        assert_eq!(h.buffer_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Every buffer fill level, so both sides of the one-block /
    /// two-block padding boundary (55 | 56 bytes buffered) are crossed.
    #[test]
    fn sha256_padding_matches_bytewise_padding_at_every_length() {
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for len in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.clone().finalize(), finalize_bytewise(h), "len {len}");
        }
    }

    /// RFC 4231 test cases 1, 2, 3, 6 and 7 as `(key, message, mac)`;
    /// 6 and 7 share their 131-byte key, which is hashed first.
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn hmac_known_vectors() {
        for (key, message, mac) in rfc4231() {
            assert_eq!(hex(&HmacKey::new(&key).mac(&message)), mac);
            assert_eq!(hex(&hmac_sha256_from_scratch(&key, &message)), mac);
        }
    }

    /// One `HmacKey` per distinct key, built up front and then used for
    /// every vector's message, twice over: a `mac` call must leave
    /// nothing behind for the next one.
    #[test]
    fn hmac_key_is_reusable_across_messages() {
        let vectors = rfc4231();
        let keys: Vec<HmacKey> = vectors.iter().map(|(k, ..)| HmacKey::new(k)).collect();
        for _ in 0..2 {
            for (key, (raw, ..)) in keys.iter().zip(&vectors) {
                for (_, message, _) in &vectors {
                    assert_eq!(key.mac(message), hmac_sha256_from_scratch(raw, message));
                }
            }
            for (key, (_, message, mac)) in keys.iter().zip(&vectors) {
                assert_eq!(hex(&key.mac(message)), *mac);
            }
        }
    }

    /// Key lengths on both sides of the block size (a 65-byte key is
    /// hashed, a 64-byte one is not) against message lengths on both
    /// sides of the padding boundary.
    #[test]
    fn hmac_key_matches_from_scratch_at_every_boundary() {
        let data: Vec<u8> = (0..=255u8).cycle().take(200).collect();
        for key_len in [0, 1, 31, 32, 63, 64, 65, 131, 200] {
            let key = HmacKey::new(&data[..key_len]);
            for msg_len in [0, 1, 31, 32, 54, 55, 56, 63, 64, 65, 119, 120, 200] {
                assert_eq!(
                    key.mac(&data[..msg_len]),
                    hmac_sha256_from_scratch(&data[..key_len], &data[..msg_len]),
                    "key {key_len} message {msg_len}"
                );
            }
        }
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sAme"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_encodes() {
        assert_eq!(hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        assert_eq!(hex(&[]), "");
    }
}
