//! # specfaith-crypto
//!
//! Cryptographic substrate for the faithful FPSS extension.
//!
//! The paper's §4.2 needs two primitives:
//!
//! 1. **Table hashing** — the bank compares routing/pricing tables between a
//!    principal and its checkers, and "a hash of the entire table is
//!    sufficient" (\[BANK1\]/\[BANK2\]). [`mod@sha256`] implements FIPS 180-4
//!    SHA-256 from scratch (no dependencies), and [`TableHasher`] provides
//!    canonical hashing helpers for tables.
//! 2. **Signed bank channels** — "all communication between the bank and a
//!    node is signed with acknowledgments to ensure communication
//!    compatibility". [`mac`] implements HMAC-SHA256, and [`auth`] builds a
//!    per-node authenticated channel on top of it.
//!
//! ## Substitution note
//!
//! The paper assumes generic "signing". Because the *only verifier* of these
//! messages is the trusted bank, a per-node key shared with the bank plus
//! HMAC gives the same guarantee on that channel — transit nodes can neither
//! forge nor undetectably modify node↔bank messages — without needing
//! public-key cryptography.

pub mod auth;
pub mod mac;
pub mod sha256;
pub mod tablehash;

pub use auth::{AuthError, Authenticated, ChannelKey};
pub use mac::hmac_sha256;
pub use sha256::{sha256, Digest, Sha256};
pub use tablehash::TableHasher;
