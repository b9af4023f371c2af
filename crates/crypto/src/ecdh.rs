//! Elliptic-curve Diffie–Hellman key exchange over the Curve25519 Edwards
//! group, used by the paper's local-attestation flow (§VI: "HyperTEE
//! leverages the Elliptic-Curve Diffie-Hellman (ECDH) key exchange
//! protocol") and by SIGMA remote attestation's key negotiation.

use crate::chacha::ChaChaRng;
use crate::ed::Point;
use crate::hmac::kdf;
use crate::scalar::Scalar;
use crate::CryptoError;

/// An ECDH private key (a secret scalar).
#[derive(Clone)]
pub struct EcdhPrivate {
    secret: Scalar,
    /// The corresponding public point a·B.
    pub public: EcdhPublic,
}

impl core::fmt::Debug for EcdhPrivate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "EcdhPrivate {{ public: {:?}, secret: <redacted> }}",
            self.public
        )
    }
}

/// An ECDH public key (a curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcdhPublic(pub Point);

impl EcdhPrivate {
    /// Generates a fresh ephemeral key.
    pub fn generate(rng: &mut ChaChaRng) -> EcdhPrivate {
        let secret = Scalar::random(rng);
        let public = EcdhPublic(Point::mul_base(&secret));
        EcdhPrivate { secret, public }
    }

    /// Computes the shared secret with a peer's public key and derives a
    /// 32-byte symmetric key from it.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the peer point is the
    /// identity (a degenerate/small-order contribution).
    pub fn shared_key(&self, peer: &EcdhPublic) -> Result<[u8; 32], CryptoError> {
        if peer.0.is_identity() {
            return Err(CryptoError::InvalidPoint);
        }
        let shared_point = peer.0.mul(&self.secret);
        if shared_point.is_identity() {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(kdf(&shared_point.encode(), b"hypertee-ecdh-v1", b""))
    }
}

impl EcdhPublic {
    /// Serializes to 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.encode()
    }

    /// Parses a 64-byte public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for off-curve encodings.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<EcdhPublic, CryptoError> {
        Ok(EcdhPublic(Point::decode(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_agree() {
        let mut rng = ChaChaRng::from_u64(11);
        let alice = EcdhPrivate::generate(&mut rng);
        let bob = EcdhPrivate::generate(&mut rng);
        let k_ab = alice.shared_key(&bob.public).unwrap();
        let k_ba = bob.shared_key(&alice.public).unwrap();
        assert_eq!(k_ab, k_ba);
    }

    #[test]
    fn third_party_disagrees() {
        let mut rng = ChaChaRng::from_u64(12);
        let alice = EcdhPrivate::generate(&mut rng);
        let bob = EcdhPrivate::generate(&mut rng);
        let eve = EcdhPrivate::generate(&mut rng);
        let k_ab = alice.shared_key(&bob.public).unwrap();
        let k_eb = eve.shared_key(&bob.public).unwrap();
        assert_ne!(k_ab, k_eb);
    }

    #[test]
    fn identity_peer_rejected() {
        let mut rng = ChaChaRng::from_u64(13);
        let alice = EcdhPrivate::generate(&mut rng);
        let degenerate = EcdhPublic(crate::ed::Point::identity());
        assert_eq!(
            alice.shared_key(&degenerate),
            Err(CryptoError::InvalidPoint)
        );
    }

    #[test]
    fn public_key_roundtrip() {
        let mut rng = ChaChaRng::from_u64(14);
        let alice = EcdhPrivate::generate(&mut rng);
        let restored = EcdhPublic::from_bytes(&alice.public.to_bytes()).unwrap();
        assert_eq!(restored, alice.public);
    }
}
