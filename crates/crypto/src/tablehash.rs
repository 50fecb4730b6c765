//! Canonical table hashing for bank checkpoints.
//!
//! \[BANK1\]/\[BANK2\] compare routing/pricing tables between principals and
//! checkers by hash. For the comparison to be meaningful, two semantically
//! equal tables must hash identically regardless of which node produced
//! them — so this hasher defines a canonical, self-delimiting encoding:
//! every field is written with a fixed-width tag and length, and callers
//! feed table rows in a canonical (sorted) order.
//!
//! Fields are 1–9 bytes, so the hasher stages them and feeds SHA-256 whole
//! blocks at a time. Staging changes no byte of the encoding, and so no
//! digest.

use crate::sha256::{Digest, Sha256};

/// Bytes staged before they are fed to SHA-256: four 64-byte blocks.
const STAGE: usize = 256;

/// Streaming canonical hasher for structured table data.
///
/// Each `put_*` call writes a 1-byte type tag followed by fixed-width
/// big-endian bytes, making the encoding prefix-free: no two distinct
/// field sequences share an encoding.
///
/// # Example
///
/// ```
/// use specfaith_crypto::tablehash::TableHasher;
///
/// let mut a = TableHasher::new("routing-table");
/// a.put_u32(1).put_u64(20).put_i64(-3);
/// let mut b = TableHasher::new("routing-table");
/// b.put_u32(1).put_u64(20).put_i64(-3);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct TableHasher {
    inner: Sha256,
    /// Encoded bytes not yet fed to `inner`: `staged[..len]`.
    staged: [u8; STAGE],
    len: usize,
}

impl TableHasher {
    /// Starts a hash for a table with the given domain label.
    ///
    /// The label separates hash domains, so a routing table and a pricing
    /// table with coincidentally identical bytes never collide.
    pub fn new(domain: &str) -> Self {
        let mut h = TableHasher {
            inner: Sha256::new(),
            staged: [0; STAGE],
            len: 0,
        };
        h.write(&(domain.len() as u64).to_be_bytes());
        h.write(domain.as_bytes());
        h
    }

    /// Stages a field: its type tag, then its fixed-width bytes.
    fn field<const N: usize>(&mut self, tag: u8, value: [u8; N]) -> &mut Self {
        if self.len + 1 + N > STAGE {
            self.feed_blocks();
        }
        self.staged[self.len] = tag;
        self.staged[self.len + 1..self.len + 1 + N].copy_from_slice(&value);
        self.len += 1 + N;
        self
    }

    /// Feeds SHA-256 every whole block staged and keeps the rest staged.
    fn feed_blocks(&mut self) {
        let whole = self.len - self.len % 64;
        self.inner.update(&self.staged[..whole]);
        self.staged.copy_within(whole..self.len, 0);
        self.len -= whole;
    }

    /// Stages `bytes` of any length, feeding whole blocks as they fill.
    fn write(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = (STAGE - self.len).min(bytes.len());
            self.staged[self.len..self.len + take].copy_from_slice(&bytes[..take]);
            self.len += take;
            bytes = &bytes[take..];
            if self.len == STAGE {
                self.feed_blocks();
            }
        }
    }

    /// Feeds a `u32` field.
    pub fn put_u32(&mut self, value: u32) -> &mut Self {
        self.field(0x01, value.to_be_bytes())
    }

    /// Feeds a `u64` field.
    pub fn put_u64(&mut self, value: u64) -> &mut Self {
        self.field(0x02, value.to_be_bytes())
    }

    /// Feeds an `i64` field.
    pub fn put_i64(&mut self, value: i64) -> &mut Self {
        self.field(0x03, value.to_be_bytes())
    }

    /// Feeds a length-prefixed byte string.
    pub fn put_bytes(&mut self, value: &[u8]) -> &mut Self {
        self.field(0x04, (value.len() as u64).to_be_bytes());
        self.write(value);
        self
    }

    /// Feeds a marker separating table rows.
    ///
    /// Row markers keep `[row(a,b)][row(c)]` distinct from
    /// `[row(a)][row(b,c)]`.
    pub fn row_boundary(&mut self) -> &mut Self {
        self.field(0x05, [])
    }

    /// Finishes and returns the table digest.
    pub fn finish(mut self) -> Digest {
        self.inner.update(&self.staged[..self.len]);
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_sequences_hash_equal() {
        let mut a = TableHasher::new("t");
        a.put_u32(7).row_boundary().put_i64(-1);
        let mut b = TableHasher::new("t");
        b.put_u32(7).row_boundary().put_i64(-1);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn domains_separate() {
        let mut a = TableHasher::new("routing");
        a.put_u32(7);
        let mut b = TableHasher::new("pricing");
        b.put_u32(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn type_tags_prevent_cross_width_collisions() {
        // u32(0) followed by u32(1) must differ from u64(1).
        let mut a = TableHasher::new("t");
        a.put_u32(0).put_u32(1);
        let mut b = TableHasher::new("t");
        b.put_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn row_boundaries_disambiguate_grouping() {
        let mut a = TableHasher::new("t");
        a.put_u32(1).put_u32(2).row_boundary().put_u32(3);
        let mut b = TableHasher::new("t");
        b.put_u32(1).row_boundary().put_u32(2).put_u32(3);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let mut a = TableHasher::new("t");
        a.put_bytes(b"ab").put_bytes(b"c");
        let mut b = TableHasher::new("t");
        b.put_bytes(b"a").put_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn domain_label_is_length_prefixed() {
        // "ab" + field vs "a" + different-first-field must not collide via
        // label/field boundary ambiguity.
        let mut a = TableHasher::new("ab");
        a.put_bytes(b"");
        let mut b = TableHasher::new("a");
        b.put_bytes(b"b");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn staged_multi_block_digest_is_the_canonical_encoding() {
        // 1,768 bytes: six stage flushes, and a byte string longer than
        // the stage. The hex was computed by the unstaged hasher.
        let mut h = TableHasher::new("fpss/data3*");
        let mut canonical = Vec::new();
        canonical.extend_from_slice(&11u64.to_be_bytes());
        canonical.extend_from_slice(b"fpss/data3*");
        for i in 0..40u32 {
            let (wide, signed) = (u64::from(i) * 1_000_003, -i64::from(i));
            h.put_u32(i)
                .put_u64(wide)
                .put_i64(signed)
                .put_bytes(&[i as u8; 3])
                .row_boundary();
            canonical.push(0x01);
            canonical.extend_from_slice(&i.to_be_bytes());
            canonical.push(0x02);
            canonical.extend_from_slice(&wide.to_be_bytes());
            canonical.push(0x03);
            canonical.extend_from_slice(&signed.to_be_bytes());
            canonical.push(0x04);
            canonical.extend_from_slice(&3u64.to_be_bytes());
            canonical.extend_from_slice(&[i as u8; 3]);
            canonical.push(0x05);
        }
        h.put_bytes(&[0xab; 300]);
        canonical.push(0x04);
        canonical.extend_from_slice(&300u64.to_be_bytes());
        canonical.extend_from_slice(&[0xab; 300]);
        assert_eq!(canonical.len(), 1768);
        let digest = h.finish();
        assert_eq!(
            digest.to_hex(),
            "43f90cd46fcf74a2bea244afbc3e92f3f201f89addf10a3e02232b32b0a274ec"
        );
        assert_eq!(digest, crate::sha256::sha256(&canonical));
    }

    #[test]
    fn single_field_change_changes_digest() {
        let mut a = TableHasher::new("t");
        a.put_u64(100).put_i64(5);
        let mut b = TableHasher::new("t");
        b.put_u64(100).put_i64(6);
        assert_ne!(a.finish(), b.finish());
    }
}
