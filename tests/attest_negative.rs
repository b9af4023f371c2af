//! Negative-path coverage for the attestation evidence chain: malformed
//! quote wire bytes, cross-platform verification, and SIGMA handshake
//! tampering/replay — everything the fail-closed service facade leans on
//! must reject cleanly at this layer too.

use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::crypto::fe::P;
use hypertee_repro::crypto::scalar::L;
use hypertee_repro::crypto::u256::U256;
use hypertee_repro::ems::attest::{Quote, SigmaInitiator};
use hypertee_repro::ems::error::EmsError;
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::sim::config::SocConfig;

fn manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap()
}

/// Boots a machine with one measured enclave and returns it with a fresh
/// quote over `challenge`.
fn quoted_machine(seed: u64, challenge: &[u8]) -> (Machine, u64, Quote) {
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(0, &manifest(), format!("attested #{seed}").as_bytes())
        .unwrap();
    m.enter(0, e).unwrap();
    let quote = m.attest(0, e, challenge).unwrap();
    (m, e.0, quote)
}

#[test]
fn quote_from_bytes_rejects_wrong_lengths() {
    let (_m, _eid, quote) = quoted_machine(1, b"length check");
    let bytes = quote.to_bytes();
    assert_eq!(bytes.len(), 384);
    // Truncated by one, extended by one, empty, and half a quote: all must
    // fail to parse — there is no sloppy prefix acceptance.
    assert_eq!(
        Quote::from_bytes(&bytes[..383]).unwrap_err(),
        EmsError::InvalidArgument
    );
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(
        Quote::from_bytes(&long).unwrap_err(),
        EmsError::InvalidArgument
    );
    assert_eq!(
        Quote::from_bytes(&[]).unwrap_err(),
        EmsError::InvalidArgument
    );
    assert_eq!(
        Quote::from_bytes(&bytes[..192]).unwrap_err(),
        EmsError::InvalidArgument
    );
}

#[test]
fn quote_survives_no_single_bit_flip() {
    let (m, _eid, quote) = quoted_machine(2, b"bit flip sweep");
    let ek = m.ek_public();
    let bytes = quote.to_bytes();
    assert!(Quote::from_bytes(&bytes).unwrap().verify(&ek));
    // Flip one bit in every byte of the wire image. Measurements and
    // report_data are covered by the certificate signatures; key and
    // signature bytes either fail point decoding or break verification.
    for i in 0..bytes.len() {
        let mut tampered = bytes.clone();
        tampered[i] ^= 1;
        let accepted = match Quote::from_bytes(&tampered) {
            Ok(q) => q.verify(&ek),
            Err(_) => false,
        };
        assert!(!accepted, "bit flip at byte {i} produced an accepted quote");
    }
}

/// Adds `k` to the 256-bit little-endian field at `bytes[at..at + 32]`.
fn add_to_field(bytes: &mut [u8], at: usize, k: &U256) {
    let v = U256::from_le_bytes(&bytes[at..at + 32].try_into().unwrap());
    let (sum, carry) = v.adc(k);
    assert!(!carry, "the shifted value must still fit 256 bits");
    bytes[at..at + 32].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn quote_rejects_non_canonical_encodings() {
    // Each tampering below names the same mathematical quote: a decoder
    // that reduced it would accept a second wire image for one quote.
    let (m, _eid, quote) = quoted_machine(5, b"canonical check");
    let ek = m.ek_public();
    let bytes = quote.to_bytes();
    assert!(Quote::from_bytes(&bytes).unwrap().verify(&ek));

    // platform_sig.s (bytes 256..288) replaced by s + L.
    let mut s_plus_l = bytes.clone();
    add_to_field(&mut s_plus_l, 256, &L);
    assert_eq!(
        Quote::from_bytes(&s_plus_l).unwrap_err(),
        EmsError::InvalidArgument
    );
    // ak_pub's x coordinate (bytes 128..160) encoded as x + p.
    let mut x_plus_p = bytes.clone();
    add_to_field(&mut x_plus_p, 128, &P);
    assert_eq!(
        Quote::from_bytes(&x_plus_p).unwrap_err(),
        EmsError::InvalidArgument
    );
}

#[test]
fn quote_rejects_foreign_endorsement_key() {
    let (m, _eid, quote) = quoted_machine(3, b"ek check");
    assert!(quote.verify(&m.ek_public()));
    // A different platform's eFuse EK must not endorse this quote, and
    // neither may an arbitrary key.
    let other = Machine::boot(SocConfig::default(), 0xD1FF).unwrap();
    assert!(!quote.verify(&other.ek_public()));
    let arbitrary = hypertee_repro::crypto::sig::Keypair::from_key_material(&[0x5au8; 32]).public;
    assert!(!quote.verify(&arbitrary));
}

#[test]
fn sigma_rejects_tampered_msg2() {
    let (mut m, eid, quote) = quoted_machine(4, b"");
    let expected = quote.enclave_measurement;
    let ek = m.ek_public();
    let mut rng = ChaChaRng::from_u64(0x00A7_7E57);

    let (init, msg1) = SigmaInitiator::start(&mut rng);
    let msg2 = m.ems.sigma_respond(eid, &msg1).unwrap();
    assert!(init.finish(&msg2, &ek, &expected).is_ok());

    // Tampered MAC: the transcript integrity check fails.
    let mut bad_mac = msg2.clone();
    bad_mac.mac[7] ^= 0x80;
    assert!(init.finish(&bad_mac, &ek, &expected).is_err());

    // Tampered report_data: the quote no longer binds this transcript
    // (and its enclave certificate breaks).
    let mut bad_binding = msg2.clone();
    bad_binding.quote.report_data[0] ^= 1;
    assert!(init.finish(&bad_binding, &ek, &expected).is_err());

    // Substituted responder key: the ECDH transcript diverges even though
    // the quote itself is untouched and genuine.
    let mut bad_key = msg2.clone();
    let other = m
        .ems
        .sigma_respond(eid, &SigmaInitiator::start(&mut rng).1)
        .unwrap();
    bad_key.enclave_pub = other.enclave_pub;
    assert!(init.finish(&bad_key, &ek, &expected).is_err());
}

#[test]
fn sigma_rejects_replayed_msg1() {
    let (mut m, eid, _quote) = quoted_machine(5, b"");
    let mut rng = ChaChaRng::from_u64(0x005E_9A11);
    let (_init, msg1) = SigmaInitiator::start(&mut rng);
    m.ems.sigma_respond(eid, &msg1).unwrap();
    // The responder's replay guard keys on the msg1 nonce: a byte-identical
    // resubmission must be refused rather than re-served.
    assert_eq!(
        m.ems.sigma_respond(eid, &msg1).unwrap_err(),
        EmsError::AccessDenied
    );
}
