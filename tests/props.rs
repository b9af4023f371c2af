//! Property-style tests over the core data structures and cryptographic
//! invariants. Each property runs a fixed number of cases driven by the
//! in-tree ChaCha20 DRBG, so the suite needs no external dependencies and
//! every case is replayable from the printed seed.

use hypertee_repro::crypto::aes::{ctr_iv, Aes128};
use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::crypto::ed::Point;
use hypertee_repro::crypto::fe::{Fe, P};
use hypertee_repro::crypto::scalar::{Scalar, L};
use hypertee_repro::crypto::sha256::{sha256, Sha256};
use hypertee_repro::crypto::sig::{Keypair, Signature};
use hypertee_repro::crypto::u256::{mul_mod, U256, U512};
use hypertee_repro::crypto::CryptoError;
use hypertee_repro::fabric::ring::Ring;
use hypertee_repro::hypertee_cpu::asm::Asm;
use hypertee_repro::hypertee_cpu::isa::decode;
use hypertee_repro::mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_repro::mem::mktme::MktmeEngine;
use hypertee_repro::mem::pagetable::{PageTable, Perms};
use hypertee_repro::mem::phys::{FrameAllocator, PhysMemory};

const CASES: u64 = 32;

/// Runs `f` once per case with a distinct deterministic RNG; the closure
/// can draw as much randomness as it needs.
fn property(name: &str, f: impl Fn(&mut ChaChaRng)) {
    for case in 0..CASES {
        let seed = 0x5eed_0000 + case;
        let mut rng = ChaChaRng::from_u64(seed);
        // The seed is in scope so a failing case prints what to replay.
        let _ = name;
        f(&mut rng);
    }
}

fn rand_vec(rng: &mut ChaChaRng, max_len: u64) -> Vec<u8> {
    let len = rng.gen_range(max_len) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn rand_array16(rng: &mut ChaChaRng) -> [u8; 16] {
    let mut a = [0u8; 16];
    rng.fill_bytes(&mut a);
    a
}

#[test]
fn aes_ctr_roundtrip() {
    property("aes_ctr_roundtrip", |rng| {
        let key = rand_array16(rng);
        let tweak = rng.next_u64();
        let data = rand_vec(rng, 512);
        let cipher = Aes128::new(&key);
        let iv = ctr_iv(tweak, 1);
        let mut buf = data.clone();
        cipher.ctr_apply(&iv, &mut buf);
        cipher.ctr_apply(&iv, &mut buf);
        assert_eq!(buf, data);
    });
}

#[test]
fn aes_block_roundtrip() {
    property("aes_block_roundtrip", |rng| {
        let key = rand_array16(rng);
        let block = rand_array16(rng);
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.decrypt_block(&cipher.encrypt_block(&block)), block);
    });
}

#[test]
fn sha256_incremental_equals_oneshot() {
    property("sha256_incremental_equals_oneshot", |rng| {
        let data = rand_vec(rng, 2048);
        let split = (rng.gen_range(2048) as usize).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    });
}

#[test]
fn field_inverse_law() {
    property("field_inverse_law", |rng| {
        let v = 1 + rng.next_u64() / 2;
        let x = Fe::from_u64(v);
        assert_eq!(x.mul(&x.invert()), Fe::ONE);
    });
}

#[test]
fn scalar_ring_laws() {
    property("scalar_ring_laws", |rng| {
        let (a, b, c) = (
            Scalar::from_le_bytes(&rng.gen_bytes32()),
            Scalar::from_le_bytes(&rng.gen_bytes32()),
            Scalar::from_le_bytes(&rng.gen_bytes32()),
        );
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        assert_eq!(a.sub(&a), Scalar::ZERO);
    });
}

/// Scalars where recodings carry, wrap or saturate: 0, 1, a full and a
/// just-overflowing radix-16 digit, L − 1, 2^252, every nibble 0xf, and a
/// lone top nibble.
fn edge_scalars() -> Vec<Scalar> {
    let (lm1, _) = L.sbb(&U256::ONE);
    let mut all_f = [0xffu8; 32];
    all_f[31] = 0x0f;
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    let mut top_nibble = [0u8; 32];
    top_nibble[31] = 0x0f;
    vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(15),
        Scalar::from_u64(16),
        Scalar::from_le_bytes(&lm1.to_le_bytes()),
        Scalar::from_le_bytes(&two_252),
        Scalar::from_le_bytes(&all_f),
        Scalar::from_le_bytes(&top_nibble),
    ]
}

fn rand_scalar(rng: &mut ChaChaRng) -> Scalar {
    Scalar::from_le_bytes(&rng.gen_bytes32())
}

fn fe_int(x: &Fe) -> U256 {
    U256::from_le_bytes(&x.to_le_bytes())
}

#[test]
fn group_homomorphism() {
    property("group_homomorphism", |rng| {
        // (x+y)B == xB + yB for the Edwards group, on small and full-width
        // scalars, with every multiplication path on both sides.
        let (x, y) = (1 + rng.gen_range(1 << 48), 1 + rng.gen_range(1 << 48));
        let (sx, sy) = (Scalar::from_u64(x), Scalar::from_u64(y));
        let b = Point::base();
        assert_eq!(b.mul(&sx.add(&sy)), b.mul(&sx).add(&b.mul(&sy)));
        let (sx, sy) = (rand_scalar(rng), rand_scalar(rng));
        let sum = Point::mul_base(&sx.add(&sy));
        assert_eq!(sum, Point::mul_base(&sx).add(&Point::mul_base(&sy)));
        assert_eq!(sum, b.mul_ref(&sx).add(&b.mul(&sy)));
        assert_eq!(sum, Point::double_mul_base(&sx, &b, &sy));
    });
}

#[test]
fn fixed_base_mul_matches_reference() {
    let b = Point::base();
    for k in edge_scalars() {
        assert_eq!(Point::mul_base(&k), b.mul_ref(&k), "{k:?}");
    }
    property("fixed_base_mul_matches_reference", |rng| {
        let k = rand_scalar(rng);
        assert_eq!(Point::mul_base(&k), b.mul_ref(&k));
    });
}

#[test]
fn variable_base_mul_matches_reference() {
    let p = Point::base().mul_ref(&Scalar::from_u64(0x1234_5678_9abc));
    for k in edge_scalars() {
        assert_eq!(p.mul(&k), p.mul_ref(&k), "{k:?}");
    }
    property("variable_base_mul_matches_reference", |rng| {
        let p = Point::base().mul_ref(&rand_scalar(rng));
        let k = rand_scalar(rng);
        assert_eq!(p.mul(&k), p.mul_ref(&k));
    });
}

#[test]
fn double_scalar_mul_matches_reference() {
    let reference =
        |a: &Scalar, a_pt: &Point, b: &Scalar| a_pt.mul_ref(a).add(&Point::base().mul_ref(b));
    let p = Point::base().mul_ref(&Scalar::from_u64(0x1234_5678_9abc));
    for a in edge_scalars() {
        for b in edge_scalars() {
            let got = Point::double_mul_base(&a, &p, &b);
            assert_eq!(got, reference(&a, &p, &b), "{a:?} {b:?}");
        }
    }
    property("double_scalar_mul_matches_reference", |rng| {
        let a_pt = Point::base().mul_ref(&rand_scalar(rng));
        let (a, b) = (rand_scalar(rng), rand_scalar(rng));
        assert_eq!(
            Point::double_mul_base(&a, &a_pt, &b),
            reference(&a, &a_pt, &b)
        );
    });
}

#[test]
fn field_mul_square_match_generic_reduction() {
    property("field_mul_square_match_generic_reduction", |rng| {
        let (a, b) = (
            Fe::from_le_bytes(&rng.gen_bytes32()),
            Fe::from_le_bytes(&rng.gen_bytes32()),
        );
        assert_eq!(fe_int(&a.mul(&b)), mul_mod(&fe_int(&a), &fe_int(&b), &P));
        assert_eq!(fe_int(&a.square()), mul_mod(&fe_int(&a), &fe_int(&a), &P));
    });
}

#[test]
fn field_invert_matches_fermat_power() {
    let (p_minus_2, _) = P.sbb(&U256::from_u64(2));
    property("field_invert_matches_fermat_power", |rng| {
        let x = Fe::from_le_bytes(&rng.gen_bytes32());
        if !x.is_zero() {
            assert_eq!(x.invert(), x.pow(&p_minus_2));
        }
    });
}

#[test]
fn scalar_reduction_matches_long_division() {
    property("scalar_reduction_matches_long_division", |rng| {
        let mut wide = [0u8; 64];
        rng.fill_bytes(&mut wide);
        let want = U512::from_le_bytes(&wide).reduce_mod(&L);
        assert_eq!(
            Scalar::from_le_bytes_wide(&wide).to_le_bytes(),
            want.to_le_bytes()
        );
        let (a, b) = (rand_scalar(rng), rand_scalar(rng));
        let (ai, bi) = (
            U256::from_le_bytes(&a.to_le_bytes()),
            U256::from_le_bytes(&b.to_le_bytes()),
        );
        assert_eq!(a.mul(&b).to_le_bytes(), mul_mod(&ai, &bi, &L).to_le_bytes());
    });
}

#[test]
fn signatures_bind_messages() {
    property("signatures_bind_messages", |rng| {
        let mut keyrng = ChaChaRng::from_u64(rng.next_u64());
        let kp = Keypair::generate(&mut keyrng);
        let mut msg = rand_vec(rng, 127);
        msg.push(rng.next_u64() as u8); // ensure non-empty
        let sig = kp.sign(&msg);
        assert!(kp.public.verify(&msg, &sig));
        let mut tampered = msg.clone();
        let idx = rng.gen_range(tampered.len() as u64) as usize;
        tampered[idx] ^= 1;
        assert!(!kp.public.verify(&tampered, &sig));
        // The wire image round-trips, and the same s written as s + L
        // does not decode.
        let mut wire = sig.to_bytes();
        assert!(kp
            .public
            .verify(&msg, &Signature::from_bytes(&wire).unwrap()));
        let s = U256::from_le_bytes(&wire[64..].try_into().unwrap());
        wire[64..].copy_from_slice(&s.adc(&L).0.to_le_bytes());
        assert_eq!(
            Signature::from_bytes(&wire),
            Err(CryptoError::InvalidScalar)
        );
        // Verification's s·B − e·A core on this key, against the reference.
        let a = kp.public.0;
        let (e, s) = (rand_scalar(rng), rand_scalar(rng));
        let want = Point::base().mul_ref(&s).add(&a.mul_ref(&e).neg());
        assert_eq!(Point::double_mul_base(&e, &a.neg(), &s), want);
    });
}

#[test]
fn mktme_roundtrip_any_range() {
    property("mktme_roundtrip_any_range", |rng| {
        let offset = rng.gen_range(4000);
        let mut data = rand_vec(rng, 255);
        data.push(0xa7); // ensure non-empty
        let mut mem = PhysMemory::new(1 << 20);
        let mut engine = MktmeEngine::new(true);
        engine.program_key(KeyId(1), &[9; 16], &[8; 32]);
        let pa = PhysAddr(0x10_000 + offset);
        engine.write(&mut mem, pa, KeyId(1), &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        engine.read(&mut mem, pa, KeyId(1), &mut buf).unwrap();
        assert_eq!(buf, data);
    });
}

#[test]
fn mktme_detects_any_single_bit_flip() {
    property("mktme_detects_any_single_bit_flip", |rng| {
        let byte = rng.gen_range(64);
        let bit = rng.gen_range(8) as u32;
        let mut mem = PhysMemory::new(1 << 20);
        let mut engine = MktmeEngine::new(true);
        engine.program_key(KeyId(1), &[1; 16], &[2; 32]);
        let pa = PhysAddr(0x20_000);
        engine.write(&mut mem, pa, KeyId(1), &[0x5a; 64]).unwrap();
        // Flip one ciphertext bit through the raw path.
        let mut raw = [0u8; 1];
        mem.read(PhysAddr(pa.0 + byte), &mut raw).unwrap();
        raw[0] ^= 1 << bit;
        mem.write(PhysAddr(pa.0 + byte), &raw).unwrap();
        let mut buf = [0u8; 64];
        assert!(engine.read(&mut mem, pa, KeyId(1), &mut buf).is_err());
    });
}

#[test]
fn pagetable_maps_are_faithful() {
    property("pagetable_maps_are_faithful", |rng| {
        let mut entries = std::collections::BTreeMap::new();
        let n = 1 + rng.gen_range(39);
        for _ in 0..n {
            entries.insert(rng.gen_range(10_000), 1 + rng.gen_range(4_999));
        }
        let mut mem = PhysMemory::new(128 << 20);
        let mut alloc = FrameAllocator::new(Ppn(16), Ppn(30_000));
        let pt = PageTable::new(&mut alloc, &mut mem);
        for (&vpn, &ppn) in &entries {
            pt.map(
                VirtAddr(vpn * PAGE_SIZE),
                Ppn(ppn),
                Perms::RW,
                KeyId::HOST,
                &mut alloc,
                &mut mem,
            )
            .unwrap();
        }
        // Every mapping translates to exactly what was installed.
        for (&vpn, &ppn) in &entries {
            let tr = pt.walk(VirtAddr(vpn * PAGE_SIZE), false, &mut mem).unwrap();
            assert_eq!(tr.ppn, Ppn(ppn));
        }
        // The enumeration matches the installed set exactly.
        let maps = pt.mappings(&mut mem).unwrap();
        assert_eq!(maps.len(), entries.len());
        // Unmapping removes translations.
        for (&vpn, _) in entries.iter().take(5) {
            pt.unmap(VirtAddr(vpn * PAGE_SIZE), &mut mem).unwrap();
            assert!(pt.walk(VirtAddr(vpn * PAGE_SIZE), false, &mut mem).is_err());
        }
    });
}

#[test]
fn ring_behaves_like_vecdeque() {
    property("ring_behaves_like_vecdeque", |rng| {
        // 2/3 push, 1/3 pop; compare against the std model.
        let mut ring = Ring::new(16);
        let mut model = std::collections::VecDeque::new();
        let ops = rng.gen_range(200);
        for _ in 0..ops {
            if rng.gen_range(3) < 2 {
                let x = rng.next_u64() as u8;
                let ring_ok = ring.push(x).is_ok();
                let model_ok = model.len() < 16;
                assert_eq!(ring_ok, model_ok);
                if model_ok {
                    model.push_back(x);
                }
            } else {
                assert_eq!(ring.pop(), model.pop_front());
            }
            assert_eq!(ring.len(), model.len());
        }
    });
}

#[test]
fn manifest_accepts_generated_configs() {
    property("manifest_accepts_generated_configs", |rng| {
        let heap = 1 + rng.gen_range(1023);
        let stack = 1 + rng.gen_range(511);
        let shared = 1 + rng.gen_range(511);
        let text = format!("heap = {heap}K\nstack = {stack}K\nhost_shared = {shared}K");
        let m = hypertee_repro::hypertee::manifest::EnclaveManifest::parse(&text).unwrap();
        assert_eq!(m.heap_max, heap * 1024);
        assert_eq!(m.stack_bytes, stack * 1024);
        assert_eq!(m.host_shared_bytes, shared * 1024);
    });
}

#[test]
fn decoder_is_total() {
    property("decoder_is_total", |rng| {
        // Arbitrary bit patterns either decode or return IllegalInstruction;
        // never panic.
        for _ in 0..64 {
            let _ = decode(rng.next_u32());
        }
    });
}

#[test]
fn assembled_alu_programs_decode() {
    property("assembled_alu_programs_decode", |rng| {
        let rd = 1 + rng.gen_range(31) as u8;
        let rs1 = rng.gen_range(32) as u8;
        let rs2 = rng.gen_range(32) as u8;
        let imm = rng.gen_range(4096) as i64 - 2048;
        let mut a = Asm::new();
        a.addi(rd, rs1, imm);
        a.add(rd, rs1, rs2);
        a.xor(rd, rs1, rs2);
        a.sltu(rd, rs1, rs2);
        a.mul(rd, rs1, rs2);
        let image = a.assemble();
        for chunk in image.chunks(4) {
            let word = u32::from_le_bytes(chunk.try_into().unwrap());
            assert!(decode(word).is_ok(), "word {word:#010x} must decode");
        }
    });
}

#[test]
fn li_loads_any_constant() {
    property("li_loads_any_constant", |rng| {
        // Execute the li expansion on a bare interpreter and check x5.
        use hypertee_repro::hypertee_cpu::dicache::DecodeCache;
        use hypertee_repro::hypertee_cpu::hart::{Cpu, StepEvent};
        use hypertee_repro::mem::system::{CoreMmu, MemorySystem};
        let value = rng.next_u64();
        let mut a = Asm::new();
        a.li(5, value);
        a.ecall();
        let image = a.assemble();
        let mut sys = MemorySystem::new(8 << 20, PhysAddr(0x2000));
        let mut frames = FrameAllocator::new(Ppn(16), Ppn(1000));
        let pt = PageTable::new(&mut frames, &mut sys.phys);
        let code = frames.alloc().unwrap();
        sys.phys.write(code.base(), &image).unwrap();
        pt.map(
            VirtAddr(0x10_000),
            code,
            Perms::RX,
            KeyId::HOST,
            &mut frames,
            &mut sys.phys,
        )
        .unwrap();
        let mut mmu = CoreMmu::new(8);
        mmu.switch_table(Some(pt), false);
        let mut cpu = Cpu::new(VirtAddr(0x10_000));
        let mut icache = DecodeCache::new(16);
        loop {
            match cpu.step(&mut mmu, &mut sys, &mut icache).unwrap() {
                StepEvent::Continue => {}
                StepEvent::Ecall => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(cpu.regs[5], value);
    });
}

#[test]
fn point_encoding_roundtrips() {
    property("point_encoding_roundtrips", |rng| {
        let k = 1 + rng.gen_range(1 << 52);
        let p = Point::base().mul(&Scalar::from_u64(k));
        assert_eq!(Point::decode(&p.encode()).unwrap(), p);
    });
}
