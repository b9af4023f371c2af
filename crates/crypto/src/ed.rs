//! Curve25519 in twisted-Edwards form: −x² + y² = 1 + d·x²·y².
//!
//! Points use extended homogeneous coordinates (X : Y : Z : T) with
//! T = XY/Z (Hisil–Wong–Carter–Dawson). This is the group used for local
//! attestation ECDH and Schnorr attestation signatures (§VI).
//!
//! Encoding note: points serialize as 64 bytes (affine x ‖ y) rather than the
//! 32-byte compressed Ed25519 wire format; decompression would require a
//! field square root that nothing in the simulated protocol needs, and the
//! uncompressed form is validated on decode (on-curve, both coordinates
//! canonical).
//!
//! # Scalar multiplication
//!
//! Three strategies, each checked against the plain MSB-first
//! double-and-add [`Point::mul_ref`]:
//!
//! * **Fixed base** ([`Point::mul_base`], used for keygen, ECDH ephemerals
//!   and signing): the scalar is recoded into 64 signed radix-16 digits in
//!   [−8, 8], and a table holds `k·256^j·B` for k = 1..8 and j = 0..31 in
//!   affine Niels form (y+x, y−x, 2d·xy). One multiplication is 64 mixed
//!   additions and 4 doublings. The table is 256 entries × 120 bytes =
//!   30 KiB.
//! * **Variable base** ([`Point::mul`], the ECDH shared secret): width-5
//!   NAF over a per-call table of the odd multiples P, 3P, …, 15P, so
//!   ~253 doublings and ~50 additions.
//! * **Double scalar** ([`Point::double_mul_base`], signature
//!   verification): Straus–Shamir interleaving of a width-5 NAF of the
//!   variable point with a width-8 NAF of B over a static table of its 64
//!   odd multiples (7.5 KiB), sharing one chain of doublings.
//!
//! Both static tables are built once per process through
//! [`std::sync::OnceLock`], with one batched inversion each. The first
//! call pays the build: about 0.3 ms for the radix-16 table and 0.05 ms
//! for the odd multiples of B, measured on a 2-vCPU Xeon VM.
//!
//! All three run in variable time: they skip zero digits and index tables
//! by secret digits. That is the same stance as the double-and-add they
//! replace, which branches on every key bit. The simulator models the
//! paper's timing through `LatencyBook`, not through host time, and has no
//! host side-channel model.

use std::ops::Neg;
use std::sync::OnceLock;

use crate::fe::Fe;
use crate::scalar::Scalar;
use crate::u256::U256;
use crate::CryptoError;

/// The curve constant d.
pub const D: Fe = Fe::from_u256(U256([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]));

/// 2d mod p, the constant the addition formulas multiply T by.
const D2: Fe = Fe::from_u256(U256([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]));

/// Base point affine x coordinate.
const BASE_X: Fe = Fe::from_u256(U256([
    0xc956_2d60_8f25_d51a,
    0x692c_c760_9525_a7b2,
    0xc0a4_e231_fdd6_dc5c,
    0x2169_36d3_cd6e_53fe,
]));

/// Base point affine y coordinate (4/5 mod p).
const BASE_Y: Fe = Fe::from_u256(U256([
    0x6666_6666_6666_6658,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
]));

/// A point on the twisted Edwards curve, in extended coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point as ((X : Z), (Y : T)): the raw output of the addition and
/// doubling formulas, before the final multiplications.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (X : Y : Z) without T: enough to double from.
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// (Y+X, Y−X, Z, 2d·T): a readied addend for variable points.
#[derive(Clone, Copy)]
struct ProjNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// (y+x, y−x, 2d·xy) of an affine point: a readied addend for table points.
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Completed {
    fn to_extended(&self) -> Point {
        Point {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }

    fn to_projective(&self) -> Projective {
        Projective {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }
}

impl Projective {
    fn identity() -> Projective {
        Projective {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
        }
    }

    /// dbl-2008-hwcd for a = −1: four squarings, Z squared once.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(&zz2);
        let x_plus_y_sq = self.x.add(&self.y).square();
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        Completed {
            x: x_plus_y_sq.sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }

    fn to_extended(&self) -> Point {
        Point {
            x: self.x.mul(&self.z),
            y: self.y.mul(&self.z),
            z: self.z.square(),
            t: self.x.mul(&self.y),
        }
    }
}

impl Neg for ProjNiels {
    type Output = ProjNiels;

    fn neg(self) -> ProjNiels {
        ProjNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl Neg for AffineNiels {
    type Output = AffineNiels;

    fn neg(self) -> AffineNiels {
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// `|d|·P` for a nonzero signed digit `d`, from a table whose entry `i`
/// holds `(step·i + 1)·P`: the odd multiples for NAF digits (`step` 2), the
/// plain multiples for radix-16 digits (`step` 1).
fn select<T: Copy + Neg<Output = T>>(table: &[T], d: i8, step: u8) -> T {
    let entry = table[usize::from((d.unsigned_abs() - 1) / step)];
    if d < 0 {
        -entry
    } else {
        entry
    }
}

impl Point {
    /// The group identity (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B.
    pub fn base() -> Point {
        Point {
            x: BASE_X,
            y: BASE_Y,
            z: Fe::ONE,
            t: BASE_X.mul(&BASE_Y),
        }
    }

    /// Builds a point from affine coordinates, verifying the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when (x, y) is not on the curve.
    pub fn from_affine(x: Fe, y: Fe) -> Result<Point, CryptoError> {
        // −x² + y² = 1 + d·x²·y².
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = Fe::ONE.add(&D.mul(&xx).mul(&yy));
        if lhs == rhs {
            Ok(Point {
                x,
                y,
                z: Fe::ONE,
                t: x.mul(&y),
            })
        } else {
            Err(CryptoError::InvalidPoint)
        }
    }

    /// Returns the affine (x, y) coordinates.
    pub fn to_affine(&self) -> (Fe, Fe) {
        let zinv = self.z.invert();
        (self.x.mul(&zinv), self.y.mul(&zinv))
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_niels(self) -> ProjNiels {
        ProjNiels {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    /// add-2008-hwcd-3 (a = −1) against a readied addend.
    fn add_niels(&self, other: &ProjNiels) -> Completed {
        let pp = self.y.add(&self.x).mul(&other.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&other.y_minus_x);
        let tt2d = self.t.mul(&other.t2d);
        let zz = self.z.mul(&other.z);
        let zz2 = zz.add(&zz);
        Completed {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z: zz2.add(&tt2d),
            t: zz2.sub(&tt2d),
        }
    }

    /// Mixed addition against an affine addend (Z₂ = 1 saves a multiply).
    fn add_affine(&self, other: &AffineNiels) -> Completed {
        let pp = self.y.add(&self.x).mul(&other.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&other.y_minus_x);
        let txy2d = self.t.mul(&other.xy2d);
        let z2 = self.z.add(&self.z);
        Completed {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z: z2.add(&txy2d),
            t: z2.sub(&txy2d),
        }
    }

    /// Point addition (add-2008-hwcd-3 formulas for a = −1 curves).
    pub fn add(&self, other: &Point) -> Point {
        self.add_niels(&other.to_niels()).to_extended()
    }

    /// Point doubling (dbl-2008-hwcd, a = −1).
    pub fn double(&self) -> Point {
        self.to_projective().double().to_extended()
    }

    /// Point negation: (−X : Y : Z : −T).
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `2^k · self` by `k ≥ 1` doublings.
    fn mul_by_pow_2(&self, k: u32) -> Point {
        let mut r = self.to_projective();
        for _ in 1..k {
            r = r.double().to_projective();
        }
        r.double().to_extended()
    }

    /// Scalar multiplication, reference arm: MSB-first double-and-add.
    /// The oracle every faster multiplication is tested against.
    pub fn mul_ref(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        let top = match k.highest_bit() {
            None => return Point::identity(),
            Some(t) => t,
        };
        for i in (0..=top).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Variable-base scalar multiplication `k·self` (width-5 NAF).
    pub fn mul(&self, k: &Scalar) -> Point {
        let naf = non_adjacent_form(k, 5);
        let Some(top) = naf.iter().rposition(|&d| d != 0) else {
            return Point::identity();
        };
        let table = self.odd_multiples();
        let mut r = Projective::identity();
        for &d in naf[..=top].iter().rev() {
            let mut t = r.double();
            if d != 0 {
                t = t.to_extended().add_niels(&select(&table, d, 2));
            }
            r = t.to_projective();
        }
        r.to_extended()
    }

    /// Fixed-base scalar multiplication `k·B` from the radix-16 table.
    pub fn mul_base(k: &Scalar) -> Point {
        let table = base_table();
        let digits = radix_16(k);
        let add_digit = |p: Point, row: &[AffineNiels; 8], d: i8| -> Point {
            if d == 0 {
                p
            } else {
                p.add_affine(&select(row, d, 1)).to_extended()
            }
        };
        // Σ d_i·16^i·B with table row j holding multiples of 256^j·B: the
        // odd digits first, shifted up by 16, then the even digits.
        let mut p = Point::identity();
        for (j, row) in table.iter().enumerate() {
            p = add_digit(p, row, digits[2 * j + 1]);
        }
        p = p.mul_by_pow_2(4);
        for (j, row) in table.iter().enumerate() {
            p = add_digit(p, row, digits[2 * j]);
        }
        p
    }

    /// Double-scalar multiplication `a·A + b·B` for B the base point
    /// (Straus–Shamir, variable time): what signature verification needs.
    pub fn double_mul_base(a: &Scalar, big_a: &Point, b: &Scalar) -> Point {
        let a_naf = non_adjacent_form(a, 5);
        let b_naf = non_adjacent_form(b, 8);
        let Some(top) = (0..256).rposition(|i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return Point::identity();
        };
        let table_a = big_a.odd_multiples();
        let table_b = base_odd_table();
        let mut r = Projective::identity();
        for i in (0..=top).rev() {
            let mut t = r.double();
            if a_naf[i] != 0 {
                t = t.to_extended().add_niels(&select(&table_a, a_naf[i], 2));
            }
            if b_naf[i] != 0 {
                t = t.to_extended().add_affine(&select(table_b, b_naf[i], 2));
            }
            r = t.to_projective();
        }
        r.to_extended()
    }

    /// P, 3P, 5P, …, 15P, readied for addition.
    fn odd_multiples(&self) -> [ProjNiels; 8] {
        let p2 = self.double().to_niels();
        let mut table = [self.to_niels(); 8];
        let mut acc = *self;
        for entry in table.iter_mut().skip(1) {
            acc = acc.add_niels(&p2).to_extended();
            *entry = acc.to_niels();
        }
        table
    }

    /// Projective equality: X1·Z2 == X2·Z1 and Y1·Z2 == Y2·Z1.
    pub fn equals(&self, other: &Point) -> bool {
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }

    /// Returns `true` for the identity point.
    pub fn is_identity(&self) -> bool {
        self.equals(&Point::identity())
    }

    /// Serializes as 64 bytes: affine x (32 LE) ‖ affine y (32 LE).
    pub fn encode(&self) -> [u8; 64] {
        let (x, y) = self.to_affine();
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
        out
    }

    /// Deserializes a 64-byte encoding, verifying the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for off-curve encodings and for
    /// coordinates encoded as a value `≥ p` (every element has exactly one
    /// accepted encoding).
    pub fn decode(bytes: &[u8; 64]) -> Result<Point, CryptoError> {
        let coord = |half: &[u8]| {
            Fe::from_canonical_bytes(half.try_into().expect("32 bytes"))
                .ok_or(CryptoError::InvalidPoint)
        };
        Point::from_affine(coord(&bytes[..32])?, coord(&bytes[32..])?)
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.equals(other)
    }
}

impl Eq for Point {}

/// Converts points to affine Niels form with one batched inversion.
fn batch_to_affine_niels(points: &[Point]) -> Vec<AffineNiels> {
    let mut zinv: Vec<Fe> = points.iter().map(|p| p.z).collect();
    Fe::batch_invert(&mut zinv);
    points
        .iter()
        .zip(&zinv)
        .map(|(p, zi)| {
            let x = p.x.mul(zi);
            let y = p.y.mul(zi);
            AffineNiels {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                xy2d: x.mul(&y).mul(&D2),
            }
        })
        .collect()
}

/// Row j holds k·256^j·B for k = 1..8.
fn base_table() -> &'static [[AffineNiels; 8]; 32] {
    static TABLE: OnceLock<Box<[[AffineNiels; 8]; 32]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut points = Vec::with_capacity(256);
        let mut row_base = Point::base();
        for _ in 0..32 {
            let mut acc = row_base;
            points.push(acc);
            for _ in 1..8 {
                acc = acc.add(&row_base);
                points.push(acc);
            }
            row_base = row_base.mul_by_pow_2(8);
        }
        let niels = batch_to_affine_niels(&points);
        let mut table = Box::new([[niels[0]; 8]; 32]);
        for (row, chunk) in table.iter_mut().zip(niels.chunks_exact(8)) {
            row.copy_from_slice(chunk);
        }
        table
    })
}

/// B, 3B, 5B, …, 127B for the width-8 NAF of the base scalar.
fn base_odd_table() -> &'static [AffineNiels] {
    static TABLE: OnceLock<Vec<AffineNiels>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let b = Point::base();
        let b2 = b.double();
        let mut points = vec![b];
        for i in 1..64 {
            points.push(points[i - 1].add(&b2));
        }
        batch_to_affine_niels(&points)
    })
}

/// Width-`w` non-adjacent form of `k` (2 ≤ w ≤ 8): digits odd and below
/// 2^(w−1) in magnitude, any two nonzero digits at least `w` apart, and
/// Σ naf[i]·2^i = k.
fn non_adjacent_form(k: &Scalar, w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    let mut words = [0u64; 5];
    words[..4].copy_from_slice(&k.0 .0);
    let width = 1u64 << w;
    let window_mask = width - 1;
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bit_buf = if bit < 64 - w {
            words[idx] >> bit
        } else {
            (words[idx] >> bit) | (words[idx + 1] << (64 - bit))
        };
        let window = carry + (bit_buf & window_mask);
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i8).wrapping_sub(width as i8);
        }
        pos += w;
    }
    naf
}

/// Signed radix-16 digits of `k` (< 2^253): 64 digits in [−8, 8] with
/// Σ d_i·16^i = k.
fn radix_16(k: &Scalar) -> [i8; 64] {
    let bytes = k.to_le_bytes();
    let mut digits = [0i8; 64];
    for (i, b) in bytes.iter().enumerate() {
        digits[2 * i] = (b & 15) as i8;
        digits[2 * i + 1] = (b >> 4) as i8;
    }
    for i in 0..63 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_scalars() -> Vec<Scalar> {
        let (lm1, _) = crate::scalar::L.sbb(&U256::ONE);
        let mut nibbles = [0xffu8; 32];
        nibbles[31] = 0x0f;
        let mut top = [0u8; 32];
        top[31] = 0x10;
        let mut lone = [0u8; 32];
        lone[31] = 0x0f;
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(15),
            Scalar::from_u64(16),
            Scalar(lm1),
            Scalar::from_le_bytes(&nibbles),
            Scalar::from_le_bytes(&top),
            Scalar::from_le_bytes(&lone),
        ]
    }

    #[test]
    fn base_point_is_on_curve() {
        let (x, y) = Point::base().to_affine();
        assert!(Point::from_affine(x, y).is_ok());
    }

    #[test]
    fn d2_is_twice_d() {
        assert_eq!(D2, D.add(&D));
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::base();
        assert_eq!(b.add(&Point::identity()), b);
        assert_eq!(Point::identity().add(&b), b);
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert_eq!(b.double(), b.add(&b));
        let b2 = b.double();
        assert_eq!(b2.double(), b2.add(&b2));
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = Point::base();
        assert_eq!(b.mul(&Scalar::from_u64(1)), b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(5)), b.double().double().add(&b));
        assert!(b.mul(&Scalar::ZERO).is_identity());
        assert!(Point::mul_base(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn order_annihilates_base() {
        // L·B = identity confirms both the order constant and the group law.
        // Scalar::from_le_bytes would reduce L to 0; multiply by L via
        // (L−1)·B + B instead.
        let (lm1, _) = crate::scalar::L.sbb(&U256::ONE);
        let s = Scalar::from_le_bytes(&lm1.to_le_bytes());
        let almost = Point::base().mul_ref(&s);
        assert!(almost.add(&Point::base()).is_identity());
        assert!(Point::mul_base(&s).add(&Point::base()).is_identity());
    }

    #[test]
    fn recodings_sum_to_the_scalar() {
        for k in edge_scalars() {
            for w in [5, 8] {
                let naf = non_adjacent_form(&k, w);
                let mut acc = Scalar::ZERO;
                for &d in naf.iter().rev() {
                    acc = acc.add(&acc);
                    let m = Scalar::from_u64(d.unsigned_abs() as u64);
                    acc = if d < 0 { acc.sub(&m) } else { acc.add(&m) };
                }
                assert_eq!(acc, k, "w={w}");
            }
            let digits = radix_16(&k);
            assert!(digits.iter().all(|d| (-8..=8).contains(d)));
            let mut acc = Scalar::ZERO;
            for &d in digits.iter().rev() {
                acc = acc.mul(&Scalar::from_u64(16));
                let m = Scalar::from_u64(d.unsigned_abs() as u64);
                acc = if d < 0 { acc.sub(&m) } else { acc.add(&m) };
            }
            assert_eq!(acc, k);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = Point::base();
        let a = Scalar::from_u64(123456);
        let c = Scalar::from_u64(654321);
        assert_eq!(b.mul(&a).add(&b.mul(&c)), b.mul(&a.add(&c)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Point::base().mul(&Scalar::from_u64(777));
        let decoded = Point::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_rejects_off_curve() {
        let mut bytes = Point::base().encode();
        bytes[0] ^= 1; // Perturb x.
        assert_eq!(Point::decode(&bytes), Err(CryptoError::InvalidPoint));
    }

    #[test]
    fn decode_rejects_non_canonical_coordinates() {
        // x + p still fits 256 bits and reduces to the same x.
        let enc = Point::base().encode();
        let x = U256::from_le_bytes(&enc[..32].try_into().unwrap());
        let (x_plus_p, carry) = x.adc(&crate::fe::P);
        assert!(!carry);
        let mut bytes = enc;
        bytes[..32].copy_from_slice(&x_plus_p.to_le_bytes());
        assert_eq!(Point::decode(&bytes), Err(CryptoError::InvalidPoint));
    }
}
