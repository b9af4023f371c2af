//! Known-answer tests pinning the hand-rolled primitives against published
//! vectors: FIPS 180-4 (SHA-256), FIPS 202 (SHA3-256), RFC 4231
//! (HMAC-SHA256), NIST SP 800-38A (AES-128-CTR), and RFC 8032 (Ed25519
//! curve arithmetic).
//!
//! The signature scheme itself is SHA-256 Schnorr over the Edwards curve,
//! not wire-format Ed25519 (the crate has no SHA-512), so the RFC 8032
//! vectors pin the *curve layer*: the clamped TEST-vector scalars times the
//! base point must land on the decompressed TEST-vector public keys. The
//! scalars and affine coordinates below were derived from the RFC seeds
//! with SHA-512 clamping and standard point decompression.

use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::ed::Point;
use hypertee_crypto::fe::Fe;
use hypertee_crypto::hmac::hmac_sha256;
use hypertee_crypto::scalar::Scalar;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sha3::sha3_256;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn unhex32(s: &str) -> [u8; 32] {
    unhex(s).try_into().unwrap()
}

#[test]
fn sha256_fips180_vectors() {
    assert_eq!(
        sha256(b""),
        unhex32("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    );
    assert_eq!(
        sha256(b"abc"),
        unhex32("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    );
    // Two-block message exercising the padding boundary.
    assert_eq!(
        sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        unhex32("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
    );
    // One million 'a's, streamed (FIPS 180-4 long-message vector).
    let mut h = hypertee_crypto::sha256::Sha256::new();
    let chunk = [b'a'; 1000];
    for _ in 0..1000 {
        h.update(&chunk);
    }
    assert_eq!(
        h.finalize(),
        unhex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
    );
}

#[test]
fn sha3_256_fips202_vectors() {
    assert_eq!(
        sha3_256(b""),
        unhex32("a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")
    );
    assert_eq!(
        sha3_256(b"abc"),
        unhex32("3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532")
    );
    // 200 bytes of 0xa3 (the classic NIST SHA3-256 msg vector).
    assert_eq!(
        sha3_256(&[0xa3u8; 200]),
        unhex32("79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787")
    );
}

#[test]
fn hmac_sha256_rfc4231_vectors() {
    // Test case 1.
    assert_eq!(
        hmac_sha256(&[0x0b; 20], b"Hi There"),
        unhex32("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7")
    );
    // Test case 2: short textual key.
    assert_eq!(
        hmac_sha256(b"Jefe", b"what do ya want for nothing?"),
        unhex32("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")
    );
    // Test case 3: 50 bytes of 0xdd.
    assert_eq!(
        hmac_sha256(&[0xaa; 20], &[0xdd; 50]),
        unhex32("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe")
    );
    // Test case 6: key longer than one block (hashed down first).
    assert_eq!(
        hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First"
        ),
        unhex32("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54")
    );
}

#[test]
fn aes128_ctr_sp800_38a_f5_vectors() {
    // NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt): the four-block message
    // under the standard test key and the f0f1f2.. initial counter.
    let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
        .try_into()
        .unwrap();
    let iv: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        .try_into()
        .unwrap();
    let mut data = unhex(concat!(
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ));
    let expected = unhex(concat!(
        "874d6191b620e3261bef6864990db6ce",
        "9806f66b7970fdff8617187bb9fffdff",
        "5ae4df3edbd5d35e5b4f09020db03eab",
        "1e031dda2fbe03d1792170a0f3009cee",
    ));
    let aes = Aes128::new(&key);
    aes.ctr_apply(&iv, &mut data);
    assert_eq!(data, expected);
    // F.5.2 direction: decryption is the same keystream.
    aes.ctr_apply(&iv, &mut data);
    assert_eq!(
        data,
        unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ))
    );
}

#[test]
fn aes128_fips197_block_vector() {
    let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
        .try_into()
        .unwrap();
    let pt: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
        .try_into()
        .unwrap();
    let aes = Aes128::new(&key);
    let ct = aes.encrypt_block(&pt);
    assert_eq!(ct.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    assert_eq!(aes.decrypt_block(&ct), pt);
}

#[test]
fn ctr_iv_is_deterministic_per_tweak() {
    let a = ctr_iv(7, 99);
    let b = ctr_iv(7, 99);
    let c = ctr_iv(8, 99);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// RFC 8032 TEST 1 and TEST 2, restated as curve facts: clamped(SHA-512(seed))
/// times the base point equals the decompressed public key. Each vector
/// runs through every multiplication path: the double-and-add reference,
/// the fixed-base table, the variable-base wNAF with B as an ordinary
/// point, and both arms of the Straus double-scalar multiplication.
#[test]
fn ed25519_rfc8032_base_point_multiples() {
    let vectors = [
        // TEST 1: seed 9d61b19d..; public key d75a9801..511a.
        (
            "307c83864f2833cb427a2ef1c00a013cfdff2768d980c0a3a520f006904de94f",
            "ce457677bd8627b1247c185372d413c520f6d0608de0972229349d2b9ae0d055",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        ),
        // TEST 2: seed 4ccd089b..; public key 3d4017c3..660c.
        (
            "68bd9ed75882d52815a97585caf4790a7f6c6b3b7f821c5e259a24b02e502e51",
            "ae43de571ee04a246f09a5b61ff98580524e8685653e81c04b384f5b2028ad74",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        ),
    ];
    let b = Point::base();
    let mut publics = Vec::new();
    for (i, (s, x, y)) in vectors.iter().enumerate() {
        let s = Scalar::from_le_bytes(&unhex32(s));
        let a = Point::from_affine(
            Fe::from_le_bytes(&unhex32(x)),
            Fe::from_le_bytes(&unhex32(y)),
        )
        .expect("RFC 8032 public key is on the curve");
        assert!(b.mul_ref(&s).equals(&a), "TEST {}: mul_ref", i + 1);
        assert!(Point::mul_base(&s).equals(&a), "TEST {}: mul_base", i + 1);
        assert!(b.mul(&s).equals(&a), "TEST {}: mul", i + 1);
        let straus_var = Point::double_mul_base(&s, &b, &Scalar::ZERO);
        assert!(straus_var.equals(&a), "TEST {}: Straus A arm", i + 1);
        let straus_base = Point::double_mul_base(&Scalar::ZERO, &a, &s);
        assert!(straus_base.equals(&a), "TEST {}: Straus B arm", i + 1);
        // Split s = u + (s − u) across both arms.
        let u = Scalar::from_le_bytes(&[0x5c; 32]);
        let split = Point::double_mul_base(&u, &b, &s.sub(&u));
        assert!(split.equals(&a), "TEST {}: Straus split", i + 1);
        publics.push(a);
    }

    // The two multiples are distinct points (sanity against degenerate
    // mul implementations).
    assert!(!publics[0].equals(&publics[1]));
}
