//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Used as the fuzzy extractor's key-derivation function and key-check hash,
//! and by the TRNG crate as a conditioning component. No external crypto
//! dependency is used anywhere in the workspace.

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 32;

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
/// use pufkeygen::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), pufkeygen::sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self
            .length_bits
            .wrapping_add((data.len() as u64).wrapping_mul(8));
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        // Padding: 0x80, zeros up to byte 56 of a block, then the message
        // length in bits. With more than 55 bytes buffered, the 0x80 byte
        // and its zero fill end this block and the length needs another.
        let mut end = self.buffered;
        self.buffer[end] = 0x80;
        end += 1;
        if end > 56 {
            self.buffer[end..].fill(0);
            let block = self.buffer;
            self.compress(&block);
            end = 0;
        }
        self.buffer[end..56].fill(0);
        self.buffer[56..].copy_from_slice(&self.length_bits.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; DIGEST_BYTES];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
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
            let ch = (e & f) ^ (!e & g);
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

/// One-shot digest.
///
/// # Examples
///
/// ```
/// let d = pufkeygen::sha256::digest(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// HMAC-SHA-256 (RFC 2104), used as the extractor's keyed KDF.
///
/// # Examples
///
/// ```
/// // RFC 4231 test case 2.
/// let mac = pufkeygen::sha256::hmac(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(mac[..4], [0x5b, 0xdc, 0xc1, 0x46]);
/// ```
pub fn hmac(key: &[u8], message: &[u8]) -> [u8; DIGEST_BYTES] {
    HmacKey::new(key).mac(message)
}

/// An HMAC-SHA-256 key with its two pad blocks already absorbed: a MAC
/// under a fixed key then costs the compressions of the message and of the
/// inner digest only.
#[derive(Debug, Clone)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        Self { inner, outer }
    }

    /// The MAC of `message`.
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
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
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split {split}");
        }
    }

    #[test]
    fn padding_lengths_around_the_block_boundaries() {
        // Expected digests from python3's `hashlib.sha256(b"a" * n)`. A
        // 55-byte tail leaves room for the 0x80 byte and the length in
        // one block; 56 to 63 push the length into a second block; 64 and
        // 119/120 repeat both cases one block later.
        for (n, expected) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ] {
            assert_eq!(hex(&digest(&vec![b'a'; n])), expected, "{n} bytes");
        }
    }

    #[test]
    fn rfc4231_hmac_cases_3_4_and_7() {
        // Expected MACs from python3's `hmac.new(key, msg, hashlib.sha256)`,
        // which agree with RFC 4231.
        let case_4_key: Vec<u8> = (1..=25).collect();
        let case_7_message = b"This is a test using a larger than block-size key and a \
            larger than block-size data. The key needs to be hashed before being used by \
            the HMAC algorithm.";
        for (case, key, message, expected) in [
            (
                3,
                &[0xaa; 20][..],
                &[0xdd; 50][..],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                4,
                &case_4_key[..],
                &[0xcd; 50][..],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                7,
                &[0xaa; 131][..],
                &case_7_message[..],
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ] {
            assert_eq!(hex(&hmac(key, message)), expected, "case {case}");
        }
    }

    #[test]
    fn hmac_matches_its_definition() {
        // H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m)), spelled out with `digest`, for
        // a short and a hashed long key and messages of 0 to 200 bytes.
        for key in [&b"sram-puf-longterm/kdf/v1"[..], &[0xaa; 131][..]] {
            let mut block = [0u8; 64];
            if key.len() > 64 {
                block[..32].copy_from_slice(&digest(key));
            } else {
                block[..key.len()].copy_from_slice(key);
            }
            let pad = |byte: u8| block.map(|b| b ^ byte).to_vec();
            let message: Vec<u8> = (0..=200u8).map(|i| i.wrapping_mul(37)).collect();
            for len in 0..=200 {
                let inner = digest(&[pad(0x36), message[..len].to_vec()].concat());
                let expected = digest(&[pad(0x5c), inner.to_vec()].concat());
                assert_eq!(hmac(key, &message[..len]), expected, "{len} bytes");
            }
        }
    }

    #[test]
    fn rfc4231_hmac_case_1() {
        let mac = hmac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_hmac_long_key() {
        // Case 6: 131-byte key (forces key hashing).
        let mac = hmac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
