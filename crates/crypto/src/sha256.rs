//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The bank's checkpointing protocol compares hashes of routing and pricing
//! tables between principals and checkers, so the hash must be identical
//! across nodes and runs. This implementation is a direct transcription of
//! the FIPS 180-4 specification, validated against the published test
//! vectors (see the test module).
//!
//! # Backends
//!
//! Only block compression has two backends; padding, buffering and the
//! length encoding are shared. On x86-64, every compression asks the CPU
//! whether it has the SHA extensions (plus the SSSE3 and SSE4.1 shuffles
//! the rounds use) and, if so, runs the SHA-NI rounds
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`). Everywhere else it runs the
//! portable rounds. The answer is cached by the standard library's feature
//! detection, so the check is one load. Both backends compute the same
//! function, so no digest depends on the machine: the tests run each
//! backend directly on the FIPS vectors and on random inputs, the SHA-NI
//! one only on CPUs that have it.
//!
//! The SHA-NI rounds are the module's only `unsafe` code: a
//! `#[target_feature]` function, called only after detection, whose loads
//! and stores stay inside the state array, the block slice and the round
//! constants (each `// SAFETY:` comment says why).

use std::fmt;

/// A 256-bit digest.
///
/// # Example
///
/// ```
/// use specfaith_crypto::sha256::sha256;
///
/// let d = sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for byte in self.0 {
            s.push_str(&format!("{byte:02x}"));
        }
        s
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

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
/// # Example
///
/// ```
/// use specfaith_crypto::sha256::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Clone)]
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

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sha256({} bits ingested)", self.length_bits)
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`], compressing whole blocks with `compress`.
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.length_bits = self
            .length_bits
            .checked_add((data.len() as u64) * 8)
            .expect("message too long for SHA-256");
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// [`Sha256::finalize`], compressing with `compress`.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        let length_bits = self.length_bits;
        // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length.
        self.buffer[self.buffered] = 0x80;
        self.buffered += 1;
        if self.buffered > 56 {
            for byte in &mut self.buffer[self.buffered..] {
                *byte = 0;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        for byte in &mut self.buffer[self.buffered..56] {
            *byte = 0;
        }
        self.buffer[56..].copy_from_slice(&length_bits.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`,
/// with SHA-NI where the CPU has it and the portable rounds otherwise.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable backend: the FIPS 180-4 rounds, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-NI backend (x86-64 SHA extensions).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has every extension [`rounds`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state` and returns `true`, or returns
    /// `false` without touching `state` on a CPU without SHA-NI.
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected` just confirmed that the CPU has every target
        // feature `rounds` is compiled with.
        unsafe { rounds(state, blocks) };
        true
    }

    /// The next four message-schedule words, `W[t..t + 4]`, from the
    /// sixteen before them in four vectors, oldest first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// The 64 rounds of every 64-byte block of `blocks`, in order.
    ///
    /// Calling it is `unsafe` outside code compiled with these target
    /// features: the caller must first confirm them with [`detected`],
    /// as [`compress`] does.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte order: message words are big-endian, lanes little-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is eight `u32`s, so both unaligned 16-byte loads
        // stay inside it.
        let (dcba, hgfe) = unsafe {
            let at = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(at), _mm_loadu_si128(at.add(1)))
        };
        // The rounds instructions want the state as ABEF and CDGH.
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let k_words: &'static [u32; 64] = &K;
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes, so the four unaligned 16-byte
            // loads stay inside it.
            let mut w = unsafe {
                let at = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(at),
                    _mm_loadu_si128(at.add(1)),
                    _mm_loadu_si128(at.add(2)),
                    _mm_loadu_si128(at.add(3)),
                ]
            };
            for word in &mut w {
                *word = _mm_shuffle_epi8(*word, be_words);
            }
            for i in 0..16 {
                if i >= 4 {
                    w[i % 4] = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                }
                // SAFETY: `i < 16`, so the load reads `K[4 * i..4 * i + 4]`.
                let k = unsafe { _mm_loadu_si128(k_words.as_ptr().add(4 * i).cast()) };
                let wk = _mm_add_epi32(w[i % 4], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above, both stores stay inside `state`.
        unsafe {
            let at = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(at, dcba);
            _mm_storeu_si128(at.add(1), hgfe);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A compression backend, for the tests that drive each one directly.
#[cfg(test)]
type Backend = fn(&mut [u32; 8], &[u8]);

/// The backends this CPU runs, by name: the portable one always, and
/// SHA-NI where the CPU has it.
#[cfg(test)]
fn backends() -> Vec<(&'static str, Backend)> {
    let mut all: Vec<(&'static str, Backend)> = vec![("portable", compress_portable)];
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        all.push(("sha-ni", |state, blocks| {
            assert!(sha_ni::compress(state, blocks))
        }));
    }
    all
}

/// SHA-256 of `parts`, fed in order, compressed by `backend` only.
#[cfg(test)]
fn digest_with(backend: Backend, parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update_with(part, backend);
    }
    h.finalize_with(backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FIPS 180-4 / NIST CAVP vectors, through the dispatching hash
    /// and through each backend directly.
    #[test]
    fn each_backend_matches_the_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
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
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (message, hex) in vectors {
            assert_eq!(sha256(message).to_hex(), hex, "{} bytes", message.len());
        }
        let backends = backends();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(backends.len(), 1 + sha_ni::detected() as usize);
        for (name, backend) in backends {
            for (message, hex) in vectors {
                assert_eq!(
                    digest_with(backend, &[message]).to_hex(),
                    hex,
                    "{name}, {} bytes",
                    message.len()
                );
            }
        }
    }

    #[test]
    fn exactly_one_block_padding_boundary() {
        // 55 bytes: padding fits in the same block; 56 bytes: needs an extra.
        let d55 = sha256(&[b'x'; 55]);
        let d56 = sha256(&[b'x'; 56]);
        let d64 = sha256(&[b'x'; 64]);
        assert_ne!(d55, d56);
        assert_ne!(d56, d64);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 128, 500] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string(), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest(ba7816bf"));
    }

    #[test]
    fn digests_differ_on_single_bit_flip() {
        let a = sha256(b"faithful");
        let b = sha256(b"faithfum");
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        /// Each backend, fed a random message in two parts split
        /// anywhere, agrees with itself fed it whole and with the
        /// dispatching one-shot hash — so SHA-NI and the portable rounds
        /// agree with each other wherever the CPU has both.
        #[test]
        fn each_backend_matches_across_lengths_and_splits(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            split in 0usize..1024,
        ) {
            let split = split.min(data.len());
            let expected = sha256(&data);
            for (name, backend) in backends() {
                let split_digest = digest_with(backend, &[&data[..split], &data[split..]]);
                prop_assert!(split_digest == expected, "{name}: split at {split} of {}", data.len());
                let whole = digest_with(backend, &[&data]);
                prop_assert!(whole == expected, "{name}: {} bytes whole", data.len());
            }
        }

        #[test]
        fn different_lengths_of_zeros_differ(a in 0usize..512, b in 0usize..512) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&vec![0u8; a]), sha256(&vec![0u8; b]));
        }
    }
}
