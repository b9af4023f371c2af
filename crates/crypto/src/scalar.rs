//! Arithmetic modulo the Curve25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Wide values and products reduce by folding: writing L = 2^252 + c with
//! c < 2^125, any x = h·2^252 + l satisfies x ≡ l − h·c (mod L), which
//! shrinks a 512-bit value to below 2^252 in at most four rounds. The
//! generic binary long division `U512::reduce_mod(&L)` is kept as the
//! differential oracle.

use crate::chacha::ChaChaRng;
use crate::u256::{U256, U512};
use crate::CryptoError;

/// The group order L, little-endian limbs.
pub const L: U256 = U256([
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
]);

/// c = L − 2^252.
const C: [u64; 2] = [L.0[0], L.0[1]];

/// Reduces a 512-bit value modulo L by folding 2^252 ≡ −c.
///
/// The running value is kept as a sign and a magnitude: each round splits
/// the magnitude at bit 252 and replaces h·2^252 + l by l − h·c, flipping
/// the sign when h·c exceeds l. Magnitudes shrink 512 → 385 → 258 → 252
/// bits, so the loop ends after at most four rounds with a magnitude below
/// 2^252 < L.
fn reduce_wide(x: &U512) -> U256 {
    let mut mag = x.0;
    let mut neg = false;
    loop {
        let mut h = [0u64; 5];
        for (i, hi) in h.iter_mut().enumerate() {
            let above = if i + 4 < 8 { mag[i + 4] << 4 } else { 0 };
            *hi = (mag[i + 3] >> 60) | above;
        }
        if h == [0; 5] {
            break;
        }
        let mut l = [0u64; 8];
        l[..4].copy_from_slice(&mag[..4]);
        l[3] &= (1 << 60) - 1;
        let mut hc = [0u64; 8];
        for (i, &hi) in h.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &cj) in C.iter().enumerate() {
                let acc = hc[i + j] as u128 + (hi as u128) * (cj as u128) + carry;
                hc[i + j] = acc as u64;
                carry = acc >> 64;
            }
            hc[i + 2] = carry as u64;
        }
        let (l, hc) = (U512(l), U512(hc));
        mag = if l.cmp_u512(&hc) == core::cmp::Ordering::Less {
            neg = !neg;
            hc.checked_sub(&l).0
        } else {
            l.checked_sub(&hc).0
        };
    }
    let r = U256([mag[0], mag[1], mag[2], mag[3]]);
    if neg && !r.is_zero() {
        L.sbb(&r).0
    } else {
        r
    }
}

/// A scalar modulo L, kept in canonical form (`< L`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Scalar(pub(crate) U256);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar(U256([0, 0, 0, 0]));
    /// The scalar one.
    pub const ONE: Scalar = Scalar(U256([1, 0, 0, 0]));

    /// Builds a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(U256::from_u64(v))
    }

    /// Reduces 32 little-endian bytes modulo L.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Scalar {
        Scalar(reduce_wide(&U512::from_u256(&U256::from_le_bytes(bytes))))
    }

    /// Parses 32 little-endian bytes that must already be canonical.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidScalar`] when the value is `≥ L`: a
    /// wire format that accepted `s + L` for `s` would be malleable.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Result<Scalar, CryptoError> {
        let raw = U256::from_le_bytes(bytes);
        if raw.cmp_u256(&L) == core::cmp::Ordering::Less {
            Ok(Scalar(raw))
        } else {
            Err(CryptoError::InvalidScalar)
        }
    }

    /// Reduces 64 little-endian bytes (e.g. a hash widened to 512 bits)
    /// modulo L — the standard way to map digests to scalars.
    pub fn from_le_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(reduce_wide(&U512::from_le_bytes(bytes)))
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.0.to_le_bytes()
    }

    /// Returns `true` when the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Samples a uniformly random nonzero scalar.
    pub fn random(rng: &mut ChaChaRng) -> Scalar {
        loop {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let s = Scalar::from_le_bytes_wide(&wide);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Scalar addition mod L.
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar(crate::u256::add_mod(&self.0, &other.0, &L))
    }

    /// Scalar subtraction mod L.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar(crate::u256::sub_mod(&self.0, &other.0, &L))
    }

    /// Scalar multiplication mod L.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(reduce_wide(&self.0.widening_mul(&other.0)))
    }

    /// Returns the bit at `index` of the canonical representation.
    pub fn bit(&self, index: usize) -> bool {
        self.0.bit(index)
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        self.0.highest_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_reduces_to_zero() {
        let bytes = L.to_le_bytes();
        assert!(Scalar::from_le_bytes(&bytes).is_zero());
    }

    #[test]
    fn folding_matches_long_division_on_edges() {
        // Random inputs are covered by tests/props.rs.
        let (lm1, _) = L.sbb(&U256::ONE);
        let cases = [
            U512::default(),
            U512::from_u256(&L),
            U512::from_u256(&lm1),
            U512([u64::MAX; 8]),
            U512([0, 0, 0, 1 << 60, 0, 0, 0, 0]),
            L.widening_mul(&L),
            lm1.widening_mul(&lm1),
        ];
        for x in cases {
            assert_eq!(reduce_wide(&x), x.reduce_mod(&L), "{x:?}");
        }
    }

    #[test]
    fn canonical_parse_rejects_l_and_above() {
        let (lm1, _) = L.sbb(&U256::ONE);
        assert_eq!(
            Scalar::from_canonical_bytes(&lm1.to_le_bytes()),
            Ok(Scalar(lm1))
        );
        for bad in [L, L.adc(&U256::ONE).0, U256([u64::MAX; 4])] {
            assert_eq!(
                Scalar::from_canonical_bytes(&bad.to_le_bytes()),
                Err(CryptoError::InvalidScalar)
            );
        }
    }

    #[test]
    fn l_minus_one_plus_one_wraps() {
        let (lm1, _) = L.sbb(&U256::ONE);
        let s = Scalar::from_le_bytes(&lm1.to_le_bytes());
        assert!(s.add(&Scalar::ONE).is_zero());
    }

    #[test]
    fn mul_distributes_over_add() {
        let a = Scalar::from_le_bytes(&[0x61; 32]);
        let b = Scalar::from_le_bytes(&[0x29; 32]);
        let c = Scalar::from_le_bytes(&[0x77; 32]);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn wide_reduction_is_uniform_on_known_value() {
        // 2^256 mod L, computed independently: 2^256 = 16·2^252; with
        // 2^252 ≡ -c (mod L) where c = L - 2^252, 2^256 ≡ -16c ≡ L·16 - 16c… we
        // simply check consistency: from_le_bytes_wide(2^256) ==
        // from(2)^256 via repeated doubling.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256.
        let direct = Scalar::from_le_bytes_wide(&wide);
        let mut doubled = Scalar::ONE;
        for _ in 0..256 {
            doubled = doubled.add(&doubled);
        }
        assert_eq!(direct, doubled);
    }

    #[test]
    fn random_scalars_differ() {
        let mut rng = ChaChaRng::from_u64(99);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        assert_ne!(a, b);
        assert!(!a.is_zero());
    }
}
