//! Deterministic Schnorr signatures over the Curve25519 Edwards group.
//!
//! These back the paper's attestation certificates (§VI): the Endorsement
//! Key (EK) signs platform measurements and the Attestation Key (AK) signs
//! enclave measurements. The scheme is textbook Schnorr with a deterministic
//! nonce (hash of a per-key seed and the message), giving EdDSA-style
//! robustness against nonce reuse without needing an entropy source at
//! signing time.

use crate::chacha::ChaChaRng;
use crate::ed::Point;
use crate::scalar::Scalar;
use crate::sha256::Sha256;
use crate::CryptoError;

/// A public verification key (a curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(pub Point);

/// A Schnorr signature: commitment point R and response scalar s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Commitment R = r·B.
    pub r: Point,
    /// Response s = r + e·a (mod L).
    pub s: Scalar,
}

impl Signature {
    /// Serializes to 96 bytes: enc(R) ‖ s.
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..64].copy_from_slice(&self.r.encode());
        out[64..].copy_from_slice(&self.s.to_le_bytes());
        out
    }

    /// Parses a 96-byte signature.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when R is off-curve or not
    /// canonically encoded, and [`CryptoError::InvalidScalar`] when
    /// `s ≥ L` (so `s` and `s + L` cannot both decode).
    pub fn from_bytes(bytes: &[u8; 96]) -> Result<Signature, CryptoError> {
        let r = Point::decode(&bytes[..64].try_into().expect("64 bytes"))?;
        let s = Scalar::from_canonical_bytes(&bytes[64..].try_into().expect("32 bytes"))?;
        Ok(Signature { r, s })
    }
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    /// Secret scalar.
    secret: Scalar,
    /// Deterministic-nonce seed.
    seed: [u8; 32],
    /// The public key a·B.
    pub public: PublicKey,
}

impl core::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Keypair {{ public: {:?}, secret: <redacted> }}",
            self.public
        )
    }
}

fn challenge(r: &Point, a: &Point, msg: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"hypertee-schnorr-v1");
    h.update(&r.encode());
    h.update(&a.encode());
    h.update(msg);
    let d1 = h.finalize();
    // Widen to 64 bytes with a second domain-separated digest so the scalar
    // reduction is statistically uniform.
    let mut h2 = Sha256::new();
    h2.update(b"hypertee-schnorr-v1-wide");
    h2.update(&d1);
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    Scalar::from_le_bytes_wide(&wide)
}

impl Keypair {
    /// Generates a fresh keypair from the given RNG.
    pub fn generate(rng: &mut ChaChaRng) -> Keypair {
        let secret = Scalar::random(rng);
        let seed = rng.gen_bytes32();
        let public = PublicKey(Point::mul_base(&secret));
        Keypair {
            secret,
            seed,
            public,
        }
    }

    /// Derives a keypair deterministically from 32 bytes of key material —
    /// how EMS turns `kdf(SK, "attestation", salt)` output into an AK (§VI).
    pub fn from_key_material(material: &[u8; 32]) -> Keypair {
        let mut h = Sha256::new();
        h.update(b"hypertee-keygen-scalar");
        h.update(material);
        let d1 = h.finalize();
        let mut h2 = Sha256::new();
        h2.update(b"hypertee-keygen-wide");
        h2.update(material);
        let d2 = h2.finalize();
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d1);
        wide[32..].copy_from_slice(&d2);
        let mut secret = Scalar::from_le_bytes_wide(&wide);
        if secret.is_zero() {
            secret = Scalar::ONE; // Unreachable in practice; keeps the API total.
        }
        let mut h3 = Sha256::new();
        h3.update(b"hypertee-keygen-seed");
        h3.update(material);
        let seed = h3.finalize();
        let public = PublicKey(Point::mul_base(&secret));
        Keypair {
            secret,
            seed,
            public,
        }
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        // Deterministic nonce r = H(seed ‖ msg) widened mod L.
        let mut h = Sha256::new();
        h.update(b"hypertee-schnorr-nonce");
        h.update(&self.seed);
        h.update(msg);
        let d1 = h.finalize();
        let mut h2 = Sha256::new();
        h2.update(b"hypertee-schnorr-nonce-wide");
        h2.update(&d1);
        let d2 = h2.finalize();
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d1);
        wide[32..].copy_from_slice(&d2);
        let mut r = Scalar::from_le_bytes_wide(&wide);
        if r.is_zero() {
            r = Scalar::ONE;
        }
        let big_r = Point::mul_base(&r);
        let e = challenge(&big_r, &self.public.0, msg);
        let s = r.add(&e.mul(&self.secret));
        Signature { r: big_r, s }
    }
}

impl PublicKey {
    /// Verifies a signature over `msg`. Returns `true` on success.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let e = challenge(&sig.r, &self.0, msg);
        // s·B == R + e·A, checked as e·(−A) + s·B == R. Negating the point
        // rather than the scalar keeps the check exact for any A.
        Point::double_mul_base(&e, &self.0.neg(), &sig.s) == sig.r
    }

    /// Serializes to 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.encode()
    }

    /// Parses a 64-byte public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for off-curve encodings.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<PublicKey, CryptoError> {
        Ok(PublicKey(Point::decode(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = ChaChaRng::from_u64(1);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"enclave measurement");
        assert!(kp.public.verify(b"enclave measurement", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = ChaChaRng::from_u64(2);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"original");
        assert!(!kp.public.verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = ChaChaRng::from_u64(3);
        let kp1 = Keypair::generate(&mut rng);
        let kp2 = Keypair::generate(&mut rng);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let mut rng = ChaChaRng::from_u64(4);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"serialize me");
        let restored = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(kp.public.verify(b"serialize me", &restored));
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_key_material(&[0x17; 32]);
        let s1 = kp.sign(b"same message");
        let s2 = kp.sign(b"same message");
        assert_eq!(s1, s2, "deterministic nonce must give identical signatures");
    }

    #[test]
    fn tampered_s_rejected() {
        let mut rng = ChaChaRng::from_u64(5);
        let kp = Keypair::generate(&mut rng);
        let mut sig = kp.sign(b"msg");
        sig.s = sig.s.add(&Scalar::ONE);
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn verify_matches_reference_equation_off_subgroup() {
        // A key A' = A + T with T of order 2, and signatures made for A'
        // with A's secret: s·B == R + e·A' then holds only for even e, so a
        // verifier that negated e instead of A' would disagree with the
        // seed equation on about half of these messages.
        let kp = Keypair::from_key_material(&[0x33; 32]);
        let order2 = Point::from_affine(crate::fe::Fe::ZERO, crate::fe::Fe::ONE.neg()).unwrap();
        let twisted = PublicKey(kp.public.0.add(&order2));
        let mut outcomes = [0usize; 2];
        for i in 0..16u64 {
            let msg = i.to_le_bytes();
            let r = Scalar::from_u64(1000 + i);
            let big_r = Point::mul_base(&r);
            let e = challenge(&big_r, &twisted.0, &msg);
            let sig = Signature {
                r: big_r,
                s: r.add(&e.mul(&kp.secret)),
            };
            let seed_eq = Point::base().mul_ref(&sig.s) == big_r.add(&twisted.0.mul_ref(&e));
            assert_eq!(twisted.verify(&msg, &sig), seed_eq, "message {i}");
            outcomes[usize::from(seed_eq)] += 1;
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn key_material_derivation_is_stable() {
        let a = Keypair::from_key_material(&[9; 32]);
        let b = Keypair::from_key_material(&[9; 32]);
        assert_eq!(a.public, b.public);
        let c = Keypair::from_key_material(&[10; 32]);
        assert_ne!(a.public, c.public);
    }
}
