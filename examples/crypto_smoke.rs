//! Fixed-seed Curve25519 differential smoke, used as the release-mode gate
//! inside `scripts/verify.sh`.
//!
//! Draws 10,000 random scalars and runs each fast scalar multiplication
//! against the double-and-add `Point::mul_ref` oracle: the fixed-base table
//! (`mul_base`), the width-5 NAF (`mul`, on points with and without an
//! order-2 component) and the Straus double-scalar product
//! (`double_mul_base`). Then it round-trips signatures and ECDH. Exits
//! non-zero on the first divergence, naming the case.

use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::crypto::ecdh::EcdhPrivate;
use hypertee_repro::crypto::ed::Point;
use hypertee_repro::crypto::fe::Fe;
use hypertee_repro::crypto::scalar::Scalar;
use hypertee_repro::crypto::sig::{Keypair, Signature};
use hypertee_repro::crypto::util::to_hex;

const SEED: u64 = 0xc25_519;
/// Each round draws four scalars: one per single-scalar path, two for
/// the double-scalar path.
const ROUNDS: usize = 2_500;
const ROUND_TRIPS: usize = 200;

fn fail(what: &str, round: usize, k: &Scalar) -> ! {
    eprintln!(
        "crypto smoke FAILED: {what} diverged from mul_ref at round {round}, seed {SEED:#x}, \
         scalar {}",
        to_hex(&k.to_le_bytes())
    );
    std::process::exit(1);
}

fn main() {
    let mut rng = ChaChaRng::from_u64(SEED);
    let b = Point::base();
    // (0, −1) has order 2: adding it gives points outside the prime-order
    // subgroup, where k·P depends on k as an integer, not only mod L.
    let order2 = Point::from_affine(Fe::ZERO, Fe::ONE.neg()).expect("order-2 point");
    for round in 0..ROUNDS {
        let k = Scalar::random(&mut rng);
        if Point::mul_base(&k) != b.mul_ref(&k) {
            fail("mul_base", round, &k);
        }
        let mut p = Point::mul_base(&Scalar::random(&mut rng));
        if round % 4 == 0 {
            p = p.add(&order2);
        }
        let k = Scalar::random(&mut rng);
        if p.mul(&k) != p.mul_ref(&k) {
            fail("mul", round, &k);
        }
        let (a, c) = (Scalar::random(&mut rng), Scalar::random(&mut rng));
        if Point::double_mul_base(&a, &p, &c) != p.mul_ref(&a).add(&b.mul_ref(&c)) {
            fail("double_mul_base", round, &a);
        }
    }
    println!(
        "crypto smoke: {} scalars through mul_base/mul/double_mul_base lockstep with mul_ref",
        4 * ROUNDS
    );

    for i in 0..ROUND_TRIPS {
        let kp = Keypair::generate(&mut rng);
        let msg = rng.gen_bytes32();
        let sig = Signature::from_bytes(&kp.sign(&msg).to_bytes()).expect("wire round trip");
        let mut other = msg;
        other[i % 32] ^= 1;
        if !kp.public.verify(&msg, &sig) || kp.public.verify(&other, &sig) {
            eprintln!("crypto smoke FAILED: signature round trip {i}, seed {SEED:#x}");
            std::process::exit(1);
        }
        let (alice, bob) = (
            EcdhPrivate::generate(&mut rng),
            EcdhPrivate::generate(&mut rng),
        );
        if alice.shared_key(&bob.public) != bob.shared_key(&alice.public) {
            eprintln!("crypto smoke FAILED: ECDH round trip {i}, seed {SEED:#x}");
            std::process::exit(1);
        }
    }
    println!("crypto smoke: {ROUND_TRIPS} sign/verify and ECDH round trips agree");
}
