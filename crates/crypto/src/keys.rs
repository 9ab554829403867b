//! Key pairs and the named public-key registry.
//!
//! Controller configuration files declare the public keys they trust with the
//! PF+=2 `dict` construct, e.g. Fig. 5:
//!
//! ```text
//! dict <pubkeys> { \
//!     research : sk3ajf...fa932 \
//!     admin    : a923jx...a12kz \
//! }
//! ```
//!
//! [`KeyRegistry`] is the in-memory form of that dictionary; the PF+=2
//! evaluator resolves `@pubkeys[research]` against it (or against the literal
//! hex value, when the dictionary stores the key material inline).
//!
//! Keys are real ed25519 keys ([`crate::ed25519`]): the secret key is the
//! RFC 8032 expansion of a 32-byte seed, the public key its 32-byte
//! compressed curve point (64 hex characters in `.control` files).

use std::collections::BTreeMap;

use crate::ed25519;
use crate::sha256::{from_hex, sha256, to_hex};

/// A secret (signing) key: the RFC 8032 expansion of a 32-byte ed25519
/// seed — the clamped secret scalar and the nonce prefix — kept so signing
/// does not re-derive them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    scalar: [u8; 32],
    prefix: [u8; 32],
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret key material.
        write!(f, "SecretKey(..)")
    }
}

/// A public (verification) key: a compressed ed25519 curve point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PublicKey(pub(crate) [u8; 32]);

impl PublicKey {
    /// Hex form, as stored in `.control` files (64 characters).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }

    /// Parses the hex form. Returns `None` for malformed input.
    pub fn from_hex(s: &str) -> Option<PublicKey> {
        let bytes = from_hex(s.trim())?;
        if bytes.len() != 32 {
            return None;
        }
        let mut w = [0u8; 32];
        w.copy_from_slice(&bytes);
        Some(PublicKey(w))
    }

    /// The raw compressed-point bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A signing key pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed.
    ///
    /// Deterministic derivation keeps simulator runs and the paper-figure
    /// scenarios reproducible; a production deployment would draw the 32-byte
    /// ed25519 seed from a CSPRNG instead.
    pub fn from_seed(seed: &[u8]) -> KeyPair {
        let digest = sha256(&[b"identxx-keypair:", seed].concat());
        let (scalar, prefix) = ed25519::expand_seed(&digest);
        KeyPair {
            secret: SecretKey { scalar, prefix },
            public: PublicKey(ed25519::public_from_scalar(&scalar)),
        }
    }

    /// Builds a key pair deterministically from a raw `u64` (kept for
    /// callers that index key material numerically; the value is stretched
    /// into a full seed, it is *not* the secret scalar).
    pub fn from_secret(x: u64) -> KeyPair {
        KeyPair::from_seed(&x.to_be_bytes())
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a raw message.
    pub fn sign(&self, message: &[u8]) -> ed25519::Signature {
        ed25519::sign_expanded(
            &self.secret.scalar,
            &self.secret.prefix,
            &self.public.0,
            message,
        )
    }
}

/// A named registry of trusted public keys (`dict <pubkeys> { … }`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyRegistry {
    keys: BTreeMap<String, PublicKey>,
}

impl KeyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        KeyRegistry::default()
    }

    /// Registers (or replaces) a named key.
    pub fn insert(&mut self, name: impl Into<String>, key: PublicKey) {
        self.keys.insert(name.into(), key);
    }

    /// Looks up a key by name.
    pub fn get(&self, name: &str) -> Option<PublicKey> {
        self.keys.get(name).copied()
    }

    /// Resolves a PF+=2 key argument: either the name of a registered key or
    /// an inline hex-encoded public key.
    pub fn resolve(&self, name_or_hex: &str) -> Option<PublicKey> {
        self.get(name_or_hex)
            .or_else(|| PublicKey::from_hex(name_or_hex))
    }

    /// Number of registered keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over `(name, key)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, PublicKey)> {
        self.keys.iter().map(|(n, k)| (n.as_str(), *k))
    }

    /// The registered names, in order (used by the static analyzer's
    /// dangling-key check).
    pub fn names(&self) -> Vec<String> {
        self.keys.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_pair_is_deterministic_per_seed() {
        let a = KeyPair::from_seed(b"research");
        let b = KeyPair::from_seed(b"research");
        let c = KeyPair::from_seed(b"admin");
        assert_eq!(a, b);
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn public_key_hex_round_trip() {
        let kp = KeyPair::from_seed(b"Secur");
        let hex = kp.public().to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(PublicKey::from_hex(&hex), Some(kp.public()));
        assert_eq!(PublicKey::from_hex("nothex"), None);
        assert_eq!(PublicKey::from_hex("abcd"), None);
        // The old 8-byte toy-scheme key length no longer parses.
        assert_eq!(PublicKey::from_hex("0123456789abcdef"), None);
    }

    #[test]
    fn registry_lookup_and_resolve() {
        let research = KeyPair::from_seed(b"research");
        let mut reg = KeyRegistry::new();
        reg.insert("research", research.public());
        assert_eq!(reg.get("research"), Some(research.public()));
        assert_eq!(reg.get("admin"), None);
        assert_eq!(reg.resolve("research"), Some(research.public()));
        // Inline hex also resolves even if not registered by name.
        let secur = KeyPair::from_seed(b"Secur");
        assert_eq!(reg.resolve(&secur.public().to_hex()), Some(secur.public()));
        assert_eq!(reg.resolve("unknown"), None);
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert_eq!(reg.names(), vec!["research".to_string()]);
    }

    #[test]
    fn secret_key_debug_does_not_leak() {
        let kp = KeyPair::from_secret(123_456);
        let dbg = format!("{:?}", kp);
        assert!(!dbg.contains("123456"));
        assert!(dbg.contains("SecretKey(..)"));
    }

    #[test]
    fn from_secret_signs_verifiably() {
        let kp = KeyPair::from_secret(0);
        let msg = b"m";
        let sig = kp.sign(msg);
        assert!(crate::ed25519::verify(kp.public().as_bytes(), msg, &sig));
    }

    #[test]
    fn stored_expansion_signs_like_the_seed() {
        let digest = sha256(b"identxx-keypair:research");
        let kp = KeyPair::from_seed(b"research");
        assert_eq!(kp.public().0, ed25519::derive_public(&digest));
        for msg in [&b""[..], b"m", b"pass all with allowed(@src[requirements])"] {
            assert_eq!(kp.sign(msg), ed25519::sign(&digest, msg));
        }
    }
}
