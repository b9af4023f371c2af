//! Arithmetic in the field GF(2^255 − 19) underlying Curve25519.
//!
//! An element is five unsigned limbs in radix 2^51. Products accumulate in
//! `u128` and are reduced in one carry pass using 2^255 ≡ 19 (mod p); the
//! result is only *weakly* reduced (every limb below 2^51 + 2^13), and the
//! canonical value `< p` is produced on demand by [`Fe::to_le_bytes`].
//! Equality and hashing go through that canonical encoding, so two
//! representations of the same element compare equal.
//!
//! The generic `u256::mul_mod(·, ·, &P)` and [`Fe::pow`] are the
//! differential oracles for [`Fe::mul`], [`Fe::square`] and
//! [`Fe::invert`].

use crate::u256::U256;

/// The field prime p = 2^255 − 19, little-endian limbs.
pub const P: U256 = U256([
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

const MASK51: u64 = (1 << 51) - 1;

/// 16·p in radix 2^51: added before a subtraction so no limb underflows
/// (every weakly reduced limb is far below 2^55).
const SIXTEEN_P: [u64; 5] = [
    16 * ((1 << 51) - 19),
    16 * MASK51,
    16 * MASK51,
    16 * MASK51,
    16 * MASK51,
];

/// An element of GF(2^255 − 19), five weakly reduced radix-2^51 limbs.
#[derive(Clone, Copy, Default)]
pub struct Fe(pub(crate) [u64; 5]);

#[inline(always)]
fn m(x: u64, y: u64) -> u128 {
    (x as u128) * (y as u128)
}

/// One carry pass over 128-bit column sums, folding the carry out of the
/// top limb back in with ×19. Columns must stay below 2^115 so every carry
/// fits a `u64` (true for inputs with limbs below 2^54).
#[inline(always)]
fn carry_wide(mut c: [u128; 5]) -> Fe {
    let mut out = [0u64; 5];
    c[1] += (c[0] >> 51) as u64 as u128;
    out[0] = c[0] as u64 & MASK51;
    c[2] += (c[1] >> 51) as u64 as u128;
    out[1] = c[1] as u64 & MASK51;
    c[3] += (c[2] >> 51) as u64 as u128;
    out[2] = c[2] as u64 & MASK51;
    c[4] += (c[3] >> 51) as u64 as u128;
    out[3] = c[3] as u64 & MASK51;
    let carry = (c[4] >> 51) as u64;
    out[4] = c[4] as u64 & MASK51;
    out[0] += carry * 19;
    out[1] += out[0] >> 51;
    out[0] &= MASK51;
    Fe(out)
}

/// Carries limbs of up to 2^63 down to the weakly reduced form.
#[inline(always)]
fn weak_reduce(mut l: [u64; 5]) -> Fe {
    let c0 = l[0] >> 51;
    let c1 = l[1] >> 51;
    let c2 = l[2] >> 51;
    let c3 = l[3] >> 51;
    let c4 = l[4] >> 51;
    l[0] &= MASK51;
    l[1] &= MASK51;
    l[2] &= MASK51;
    l[3] &= MASK51;
    l[4] &= MASK51;
    l[0] += c4 * 19;
    l[1] += c0;
    l[2] += c1;
    l[3] += c2;
    l[4] += c3;
    Fe(l)
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Splits a value below 2^255 into radix-2^51 limbs; bit 255 is dropped.
    pub(crate) const fn from_u256(v: U256) -> Fe {
        let w = v.0;
        Fe([
            w[0] & MASK51,
            ((w[0] >> 51) | (w[1] << 13)) & MASK51,
            ((w[1] >> 38) | (w[2] << 26)) & MASK51,
            ((w[2] >> 25) | (w[3] << 39)) & MASK51,
            (w[3] >> 12) & MASK51,
        ])
    }

    /// Builds a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        weak_reduce([v, 0, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes, reducing modulo p.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Fe {
        let raw = U256::from_le_bytes(bytes);
        let mut fe = Fe::from_u256(raw);
        // 2^255 ≡ 19.
        fe.0[0] += 19 * (raw.0[3] >> 63);
        weak_reduce(fe.0)
    }

    /// Parses 32 little-endian bytes that must already be canonical
    /// (`< p`); returns `None` for any other encoding of the element.
    pub(crate) fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Fe> {
        let fe = Fe::from_le_bytes(bytes);
        (fe.to_le_bytes() == *bytes).then_some(fe)
    }

    /// The canonical value (`< p`) as a 256-bit integer.
    fn to_u256(self) -> U256 {
        let mut l = weak_reduce(self.0).0;
        // The value is now below 2p; q = 1 exactly when it is ≥ p, which is
        // when adding 19 carries out of bit 255.
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        // Subtract q·p = q·2^255 − 19q: add 19q, carry, drop bit 255.
        l[0] += 19 * q;
        l[1] += l[0] >> 51;
        l[0] &= MASK51;
        l[2] += l[1] >> 51;
        l[1] &= MASK51;
        l[3] += l[2] >> 51;
        l[2] &= MASK51;
        l[4] += l[3] >> 51;
        l[3] &= MASK51;
        l[4] &= MASK51;
        U256([
            l[0] | (l[1] << 51),
            (l[1] >> 13) | (l[2] << 38),
            (l[2] >> 26) | (l[3] << 25),
            (l[3] >> 39) | (l[4] << 12),
        ])
    }

    /// Serializes to 32 little-endian bytes (canonical form).
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.to_u256().to_le_bytes()
    }

    /// Returns `true` when this element is zero.
    pub fn is_zero(&self) -> bool {
        self.to_u256().is_zero()
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        weak_reduce([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        weak_reduce([
            (a[0] + SIXTEEN_P[0]) - b[0],
            (a[1] + SIXTEEN_P[1]) - b[1],
            (a[2] + SIXTEEN_P[2]) - b[2],
            (a[3] + SIXTEEN_P[3]) - b[3],
            (a[4] + SIXTEEN_P[4]) - b[4],
        ])
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: 25 limb products, one lazy reduction pass.
    #[inline]
    pub fn mul(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        carry_wide([
            m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    /// Field squaring: 15 limb products (cross terms doubled once).
    #[inline]
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)` by `k` squarings.
    fn pow2k(&self, k: u32) -> Fe {
        let mut x = *self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Raises to the power `exp` (square-and-multiply).
    pub fn pow(&self, exp: &U256) -> Fe {
        let mut acc = Fe::ONE;
        let mut base = *self;
        let top = exp.highest_bit().unwrap_or(0);
        for i in 0..=top {
            if exp.bit(i) {
                acc = acc.mul(&base);
            }
            base = base.square();
        }
        if exp.is_zero() {
            Fe::ONE
        } else {
            acc
        }
    }

    /// Multiplicative inverse `self^(p−2)`, by the standard Curve25519
    /// addition chain: 254 squarings and 11 multiplications.
    ///
    /// # Panics
    ///
    /// Panics when called on zero.
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "zero has no inverse");
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 2^5 − 1
        let t7 = t5.pow2k(5).mul(&t5); // 2^10 − 1
        let t9 = t7.pow2k(10).mul(&t7); // 2^20 − 1
        let t11 = t9.pow2k(20).mul(&t9); // 2^40 − 1
        let t13 = t11.pow2k(10).mul(&t7); // 2^50 − 1
        let t15 = t13.pow2k(50).mul(&t13); // 2^100 − 1
        let t17 = t15.pow2k(100).mul(&t15); // 2^200 − 1
        let t19 = t17.pow2k(50).mul(&t13); // 2^250 − 1
        t19.pow2k(5).mul(&t3) // 2^255 − 21 = p − 2
    }

    /// Inverts every element of `zs` in place with one [`Fe::invert`] and
    /// 3(n − 1) multiplications (Montgomery's trick).
    ///
    /// # Panics
    ///
    /// Panics when any element is zero.
    pub(crate) fn batch_invert(zs: &mut [Fe]) {
        let mut prefix = Vec::with_capacity(zs.len());
        let mut acc = Fe::ONE;
        for z in zs.iter() {
            prefix.push(acc);
            acc = acc.mul(z);
        }
        let mut inv = acc.invert();
        for (z, pre) in zs.iter_mut().zip(prefix).rev() {
            let next = inv.mul(z);
            *z = inv.mul(&pre);
            inv = next;
        }
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.to_le_bytes() == other.to_le_bytes()
    }
}

impl Eq for Fe {}

impl core::hash::Hash for Fe {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.to_le_bytes().hash(state);
    }
}

impl core::fmt::Debug for Fe {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe({})", crate::util::to_hex(&self.to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::u256::mul_mod;

    fn to_int(x: &Fe) -> U256 {
        U256::from_le_bytes(&x.to_le_bytes())
    }

    #[test]
    fn one_is_identity() {
        let x = Fe::from_u64(123456789);
        assert_eq!(x.mul(&Fe::ONE), x);
        assert_eq!(x.add(&Fe::ZERO), x);
    }

    #[test]
    fn sub_neg_consistency() {
        let a = Fe::from_u64(5);
        let b = Fe::from_u64(9);
        assert_eq!(a.sub(&b), a.add(&b.neg()));
    }

    #[test]
    fn two_to_255_is_19_plus_zero() {
        // 2^255 mod p = 19.
        let two = Fe::from_u64(2);
        let v = two.pow(&U256::from_u64(255));
        assert_eq!(v, Fe::from_u64(19));
    }

    #[test]
    fn invert_roundtrip() {
        for v in [1u64, 2, 19, 123456789, u64::MAX] {
            let x = Fe::from_u64(v);
            assert_eq!(x.mul(&x.invert()), Fe::ONE, "v={v}");
        }
    }

    #[test]
    fn p_reduces_to_zero() {
        let bytes = P.to_le_bytes();
        assert!(Fe::from_le_bytes(&bytes).is_zero());
    }

    #[test]
    fn non_canonical_encodings_reduce_and_are_rejected() {
        // Every value in [p, 2^256) wraps; only the canonical form parses.
        for (raw, canon) in [
            (P, U256::ZERO),
            (P.adc(&U256::from_u64(5)).0, U256::from_u64(5)),
            (U256([u64::MAX; 4]), U256::from_u64(37)),
            (U256([0, 0, 0, 1 << 63]), U256::from_u64(19)),
        ] {
            let bytes = raw.to_le_bytes();
            assert_eq!(to_int(&Fe::from_le_bytes(&bytes)), canon);
            assert_eq!(Fe::from_canonical_bytes(&bytes), None);
            let ok = canon.to_le_bytes();
            assert_eq!(
                Fe::from_canonical_bytes(&ok).map(|f| to_int(&f)),
                Some(canon)
            );
        }
    }

    #[test]
    fn mul_square_match_generic_reduction() {
        // Boundary elements: p − 1, p − 19, 2^255 − 20 and friends.
        let (pm1, _) = P.sbb(&U256::ONE);
        let edge = [
            U256::ZERO,
            U256::ONE,
            pm1,
            P.sbb(&U256::from_u64(19)).0,
            U256([u64::MAX, u64::MAX, 0, 0]),
            U256([0, 0, 0, 1 << 62]),
        ];
        for a in edge {
            for b in edge {
                let (fa, fb) = (
                    Fe::from_le_bytes(&a.to_le_bytes()),
                    Fe::from_le_bytes(&b.to_le_bytes()),
                );
                assert_eq!(to_int(&fa.mul(&fb)), mul_mod(&a, &b, &P));
                assert_eq!(to_int(&fa.sub(&fb).add(&fb)), a);
            }
            let fa = Fe::from_le_bytes(&a.to_le_bytes());
            assert_eq!(to_int(&fa.square()), mul_mod(&a, &a, &P));
        }
    }

    #[test]
    fn batch_invert_matches_invert() {
        let xs: Vec<Fe> = (1..9u64).map(|v| Fe::from_u64(v * 0x1234_5677)).collect();
        let mut inv = xs.clone();
        Fe::batch_invert(&mut inv);
        for (x, i) in xs.iter().zip(&inv) {
            assert_eq!(*i, x.invert());
        }
    }

    #[test]
    fn mul_commutative_associative() {
        let a = Fe::from_le_bytes(&[0xaa; 32]);
        let b = Fe::from_le_bytes(&[0x37; 32]);
        let c = Fe::from_le_bytes(&[0x91; 32]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn distributive_law() {
        let a = Fe::from_u64(7777);
        let b = Fe::from_le_bytes(&[0x55; 32]);
        let c = Fe::from_le_bytes(&[0x13; 32]);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn invert_zero_panics() {
        Fe::ZERO.invert();
    }
}
