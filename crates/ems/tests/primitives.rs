//! End-to-end tests of the EMS primitive implementations: the full enclave
//! life cycle, memory management, shared memory, and attestation — driving
//! the runtime the way EMCall would, against real simulated memory.

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_ems::attest::SigmaInitiator;
use hypertee_ems::control::{layout, EnclaveConfig};
use hypertee_ems::error::EmsError;
use hypertee_ems::keys::EFuse;
use hypertee_ems::runtime::{Ems, EmsContext};
use hypertee_fabric::dma::DeviceId;
use hypertee_fabric::ihub::IHub;
use hypertee_mem::addr::{PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::pagetable::Perms;
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::{CoreMmu, MemorySystem};

struct Machine {
    sys: MemorySystem,
    hub: IHub,
    os: FrameAllocator,
    ems: Ems,
}

impl Machine {
    fn new(seed: u64) -> Machine {
        let sys = MemorySystem::new(256 << 20, PhysAddr(0x10_000));
        let (hub, cap) = IHub::new();
        let os = FrameAllocator::new(Ppn(256), Ppn(60000));
        let mut rng = ChaChaRng::from_u64(seed);
        let efuse = EFuse::burn(&mut rng);
        let ems = Ems::new(cap, efuse, [0xAB; 32], seed);
        Machine { sys, hub, os, ems }
    }

    /// Runs `f` with the EMS and a context over the machine's split-borrowed
    /// fields (the pattern EMCall uses: EMS never owns CS state).
    fn with<R>(&mut self, f: impl FnOnce(&mut Ems, &mut EmsContext<'_>) -> R) -> R {
        let mut ctx = EmsContext {
            sys: &mut self.sys,
            hub: &mut self.hub,
            os_frames: &mut self.os,
        };
        f(&mut self.ems, &mut ctx)
    }

    /// Builds a small measured enclave with `image` loaded at CODE_BASE and
    /// returns its id. The host image is staged in host physical memory.
    fn build_enclave(&mut self, image: &[u8]) -> u64 {
        // Host window frames provided by the OS.
        let host_base = self.os.alloc().unwrap();
        for _ in 1..16 {
            self.os.alloc().unwrap(); // keep the window contiguous
        }
        let mut ctx = EmsContext {
            sys: &mut self.sys,
            hub: &mut self.hub,
            os_frames: &mut self.os,
        };
        let eid = self
            .ems
            .ecreate(
                &mut ctx,
                EnclaveConfig {
                    heap_max: 8 * 1024 * 1024,
                    stack_bytes: 64 * 1024,
                    host_shared_bytes: 64 * 1024,
                },
                host_base.base().0,
            )
            .unwrap()
            .0;
        // Stage the image in host memory.
        let src = self.os.alloc().unwrap();
        let mut staged = image.to_vec();
        staged.resize(staged.len().div_ceil(4096) * 4096, 0);
        for (i, chunk) in staged.chunks(4096).enumerate() {
            // Keep the image within one frame for this helper.
            assert_eq!(i, 0, "helper supports single-page images");
            self.sys.phys.write(src.base(), chunk).unwrap();
        }
        let mut ctx = EmsContext {
            sys: &mut self.sys,
            hub: &mut self.hub,
            os_frames: &mut self.os,
        };
        self.ems
            .eadd(
                &mut ctx,
                eid,
                layout::CODE_BASE.0,
                src.base().0,
                staged.len() as u64,
                0b101,
            )
            .unwrap();
        self.ems.emeas(eid).unwrap();
        eid
    }
}

#[test]
fn full_lifecycle() {
    let mut m = Machine::new(1);
    let eid = m.build_enclave(b"enclave image: lifecycle");
    assert_eq!(m.ems.enclave_count(), 1);

    let (root, entry, key) = m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();
    assert!(root.0 > 0);
    assert_eq!(entry, layout::CODE_BASE);
    assert!(key.is_encrypted());
    m.ems.eexit(eid).unwrap();
    m.with(|ems, ctx| ems.eresume(ctx, eid)).unwrap();
    m.ems.eexit(eid).unwrap();
    m.with(|ems, ctx| ems.edestroy(ctx, eid)).unwrap();
    assert_eq!(m.ems.enclave_count(), 0);
}

#[test]
fn enclave_code_is_encrypted_and_runnable() {
    let mut m = Machine::new(2);
    let image = b"secret enclave code bytes";
    let eid = m.build_enclave(image);
    let (root, entry, _) = m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();

    // A CS core entering the enclave can read the image back through the
    // enclave page table.
    let mut mmu = CoreMmu::new(32);
    mmu.switch_table(Some(hypertee_mem::pagetable::PageTable { root }), true);
    let mut buf = vec![0u8; image.len()];
    mmu.load(&mut m.sys, entry, &mut buf).unwrap();
    assert_eq!(&buf, image);

    // The raw physical frame holds ciphertext (cold-boot defence §II-B).
    let maps = hypertee_mem::pagetable::PageTable { root }
        .mappings(&mut m.sys.phys)
        .unwrap();
    let code_frame = maps
        .iter()
        .find(|(va, _)| *va == layout::CODE_BASE)
        .map(|(_, pte)| pte.ppn())
        .unwrap();
    let mut raw = vec![0u8; image.len()];
    m.sys.phys.read(code_frame.base(), &mut raw).unwrap();
    assert_ne!(&raw, image);
}

#[test]
fn eadd_after_emeas_rejected() {
    let mut m = Machine::new(3);
    let eid = m.build_enclave(b"img");
    let src = m.os.alloc().unwrap();
    let err = m
        .with(|ems, ctx| {
            ems.eadd(
                ctx,
                eid,
                layout::CODE_BASE.0 + 0x10000,
                src.base().0,
                4096,
                0b101,
            )
        })
        .unwrap_err();
    assert_eq!(err, EmsError::BadState);
}

#[test]
fn measurement_is_input_sensitive() {
    let mut m1 = Machine::new(4);
    let e1 = m1.build_enclave(b"image A");
    let mut m2 = Machine::new(4);
    let e2 = m2.build_enclave(b"image B");
    let q1 = m1.ems.eattest(e1, b"c").unwrap();
    let q2 = m2.ems.eattest(e2, b"c").unwrap();
    assert_ne!(q1.enclave_measurement, q2.enclave_measurement);
}

#[test]
fn ealloc_efree_roundtrip() {
    let mut m = Machine::new(5);
    let eid = m.build_enclave(b"alloc test");
    m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();
    let (va, pages) = m.with(|ems, ctx| ems.ealloc(ctx, eid, 128 * 1024)).unwrap();
    assert_eq!(va, layout::HEAP_BASE);
    assert_eq!(pages, 32);
    // The memory is usable through the enclave address space.
    m.with(|ems, ctx| ems.eresume(ctx, eid)).unwrap_err(); // already running
    assert!(
        m.with(|ems, ctx| ems.eenter(ctx, eid)).is_err(),
        "cannot double-enter"
    );
    m.ems.eexit(eid).unwrap();
    let (root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();
    let mut mmu = CoreMmu::new(64);
    mmu.switch_table(Some(hypertee_mem::pagetable::PageTable { root }), true);
    mmu.store_u64(&mut m.sys, va, 0xfeed).unwrap();
    assert_eq!(mmu.load_u64(&mut m.sys, va).unwrap(), 0xfeed);
    // Free it back.
    m.with(|ems, ctx| ems.efree(ctx, eid, va.0, 128 * 1024))
        .unwrap();
    assert!(m.ems.pool().used_frames() > 0);
}

#[test]
fn heap_limit_enforced() {
    let mut m = Machine::new(6);
    let eid = m.build_enclave(b"limit");
    // heap_max is 8 MiB in the helper; 16 MiB must be rejected.
    let err = m
        .with(|ems, ctx| ems.ealloc(ctx, eid, 16 * 1024 * 1024))
        .unwrap_err();
    assert_eq!(err, EmsError::InvalidArgument);
}

#[test]
fn ewb_returns_randomized_clean_pages() {
    let mut m = Machine::new(7);
    let _eid = m.build_enclave(b"swap");
    let evicted = m.with(|ems, ctx| ems.ewb(ctx, 8)).unwrap();
    assert!(
        evicted.len() >= 8,
        "randomized count is at least the request"
    );
    for f in &evicted {
        // Bitmap bit cleared: page is OS-reclaimable.
        assert!(!m.sys.bitmap.is_enclave(*f, &mut m.sys.phys).unwrap());
        // Contents are keystream, not zeroes and not plaintext secrets.
        let mut buf = [0u8; 64];
        m.sys.phys.read(f.base(), &mut buf).unwrap();
        assert_ne!(
            buf, [0u8; 64],
            "swapped pages must be indistinguishable from used ones"
        );
    }
    // Two different runs evict different counts (randomized).
    let mut counts = std::collections::BTreeSet::new();
    for _ in 0..6 {
        counts.insert(m.with(|ems, ctx| ems.ewb(ctx, 8)).unwrap().len());
    }
    assert!(counts.len() > 1, "EWB count must vary: {counts:?}");
}

#[test]
fn shared_memory_full_flow() {
    let mut m = Machine::new(8);
    let sender = m.build_enclave(b"sender enclave");
    let receiver = m.build_enclave(b"receiver enclave");

    // Local attestation between the two enclaves (§V-A: ESHMAT follows
    // local attestation).
    let sender_meas = m.ems.eattest(sender, b"").unwrap().enclave_measurement;
    let report = m.ems.local_report(receiver, &sender_meas).unwrap();
    assert!(m.ems.local_verify(sender, &report).unwrap());

    // Sender creates the region and registers the receiver read-write.
    let shmid = m
        .with(|ems, ctx| ems.eshmget(ctx, sender, 64 * 1024, 0b11, false))
        .unwrap();
    m.with(|ems, ctx| ems.eshmshr(ctx, sender, shmid, receiver, 0b11))
        .unwrap();

    // Both attach.
    let (s_va, s_pages) = m
        .with(|ems, ctx| ems.eshmat(ctx, sender, shmid, sender))
        .unwrap();
    let (r_va, r_pages) = m
        .with(|ems, ctx| ems.eshmat(ctx, receiver, shmid, sender))
        .unwrap();
    assert_eq!(s_pages, 16);
    assert_eq!(r_pages, 16);

    // Plaintext-speed communication: sender writes, receiver reads, through
    // their own address spaces, no software crypto involved.
    let (s_root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, sender)).unwrap();
    let mut s_mmu = CoreMmu::new(64);
    s_mmu.switch_table(
        Some(hypertee_mem::pagetable::PageTable { root: s_root }),
        true,
    );
    s_mmu.store(&mut m.sys, s_va, b"hello receiver!").unwrap();

    let (r_root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, receiver)).unwrap();
    let mut r_mmu = CoreMmu::new(64);
    r_mmu.switch_table(
        Some(hypertee_mem::pagetable::PageTable { root: r_root }),
        true,
    );
    let mut buf = [0u8; 15];
    r_mmu.load(&mut m.sys, r_va, &mut buf).unwrap();
    assert_eq!(&buf, b"hello receiver!");

    // The region is ciphertext at rest.
    let shm_frame = m.ems.shm(shmid).unwrap().frames[0];
    let mut raw = [0u8; 15];
    m.sys.phys.read(shm_frame.base(), &mut raw).unwrap();
    assert_ne!(&raw, b"hello receiver!");

    // Destroy is blocked while attached, then succeeds after detach.
    assert_eq!(
        m.with(|ems, ctx| ems.eshmdes(ctx, sender, shmid))
            .unwrap_err(),
        EmsError::BadState
    );
    m.with(|ems, ctx| ems.eshmdt(ctx, sender, shmid)).unwrap();
    m.with(|ems, ctx| ems.eshmdt(ctx, receiver, shmid)).unwrap();
    m.with(|ems, ctx| ems.eshmdes(ctx, sender, shmid)).unwrap();
    assert!(m.ems.shm(shmid).is_none());
}

#[test]
fn unregistered_receiver_cannot_attach() {
    let mut m = Machine::new(9);
    let sender = m.build_enclave(b"s");
    let attacker = m.build_enclave(b"attacker");
    let shmid = m
        .with(|ems, ctx| ems.eshmget(ctx, sender, 4096, 0b11, false))
        .unwrap();
    // Brute-force ShmID guessing: attach without registration is denied.
    assert_eq!(
        m.with(|ems, ctx| ems.eshmat(ctx, attacker, shmid, sender))
            .unwrap_err(),
        EmsError::AccessDenied
    );
}

#[test]
fn readonly_receiver_cannot_write() {
    let mut m = Machine::new(10);
    let sender = m.build_enclave(b"s");
    let receiver = m.build_enclave(b"r");
    let shmid = m
        .with(|ems, ctx| ems.eshmget(ctx, sender, 4096, 0b11, false))
        .unwrap();
    m.with(|ems, ctx| ems.eshmshr(ctx, sender, shmid, receiver, 0b01))
        .unwrap(); // read-only
    let (va, _) = m
        .with(|ems, ctx| ems.eshmat(ctx, receiver, shmid, sender))
        .unwrap();
    let (root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, receiver)).unwrap();
    let mut mmu = CoreMmu::new(64);
    mmu.switch_table(Some(hypertee_mem::pagetable::PageTable { root }), true);
    // Unprivileged tampering (§V-C threat 1) is stopped by the PTE perms.
    assert!(mmu.store(&mut m.sys, va, b"tamper").is_err());
    let mut probe = [0u8; 6];
    mmu.load(&mut m.sys, va, &mut probe).unwrap();
}

#[test]
fn receiver_cannot_destroy_or_overshare() {
    let mut m = Machine::new(11);
    let sender = m.build_enclave(b"s");
    let receiver = m.build_enclave(b"r");
    let third = m.build_enclave(b"t");
    let shmid = m
        .with(|ems, ctx| ems.eshmget(ctx, sender, 4096, 0b01, false))
        .unwrap();
    m.with(|ems, ctx| ems.eshmshr(ctx, sender, shmid, receiver, 0b01))
        .unwrap();
    // Malicious release (§V-C threat 2): receiver cannot destroy.
    assert_eq!(
        m.with(|ems, ctx| ems.eshmdes(ctx, receiver, shmid))
            .unwrap_err(),
        EmsError::AccessDenied
    );
    // Receiver cannot grant others access.
    assert_eq!(
        m.with(|ems, ctx| ems.eshmshr(ctx, receiver, shmid, third, 0b01))
            .unwrap_err(),
        EmsError::AccessDenied
    );
    // Max-permission cap: write grant on a read-only region is denied.
    assert_eq!(
        m.with(|ems, ctx| ems.eshmshr(ctx, sender, shmid, receiver, 0b11))
            .unwrap_err(),
        EmsError::AccessDenied
    );
}

#[test]
fn device_shared_region_and_dma_whitelist() {
    let mut m = Machine::new(12);
    let driver = m.build_enclave(b"driver enclave");
    let shmid = m
        .with(|ems, ctx| ems.eshmget(ctx, driver, 8192, 0b11, true))
        .unwrap();
    let dev = DeviceId(3);
    m.with(|ems, ctx| ems.eshm_grant_device(ctx, driver, shmid, dev, true))
        .unwrap();
    let frame = m.ems.shm(shmid).unwrap().frames[0];
    // The device can now DMA into the region…
    let ok = m.hub.dma_access(
        dev,
        &mut m.sys.phys,
        frame.base(),
        hypertee_fabric::ihub::DmaOp::Write(b"device data"),
    );
    assert!(ok);
    // …but not outside it (I/O compromise defence §V-C threat 3).
    let outside = PhysAddr(frame.base().0 + 64 * PAGE_SIZE);
    let ok = m.hub.dma_access(
        dev,
        &mut m.sys.phys,
        outside,
        hypertee_fabric::ihub::DmaOp::Write(b"evil"),
    );
    assert!(!ok);
    assert!(m.hub.dma_discarded() > 0);
}

#[test]
fn host_cannot_read_enclave_pages_via_bitmap() {
    let mut m = Machine::new(13);
    let eid = m.build_enclave(b"protected");
    let (root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();
    // Find a code frame and have the host OS map it into its own table.
    let maps = hypertee_mem::pagetable::PageTable { root }
        .mappings(&mut m.sys.phys)
        .unwrap();
    let code_frame = maps
        .iter()
        .find(|(va, _)| *va == layout::CODE_BASE)
        .map(|(_, pte)| pte.ppn())
        .unwrap();
    let host_pt = hypertee_mem::pagetable::PageTable::new(&mut m.os, &mut m.sys.phys);
    host_pt
        .map(
            VirtAddr(0x5000_0000),
            code_frame,
            Perms::RW,
            hypertee_mem::addr::KeyId::HOST,
            &mut m.os,
            &mut m.sys.phys,
        )
        .unwrap();
    let mut mmu = CoreMmu::new(32);
    mmu.switch_table(Some(host_pt), false);
    let mut buf = [0u8; 8];
    let err = mmu
        .load(&mut m.sys, VirtAddr(0x5000_0000), &mut buf)
        .unwrap_err();
    assert!(matches!(
        err,
        hypertee_mem::MemFault::BitmapViolation { .. }
    ));
}

#[test]
fn remote_attestation_sigma_flow() {
    let mut m = Machine::new(14);
    let eid = m.build_enclave(b"attested enclave");
    let expected = m.ems.eattest(eid, b"").unwrap().enclave_measurement;
    let ek = m.ems.ek_public();

    let mut user_rng = ChaChaRng::from_u64(777);
    let (initiator, msg1) = SigmaInitiator::start(&mut user_rng);
    let msg2 = m.ems.sigma_respond(eid, &msg1).unwrap();
    let session = initiator.finish(&msg2, &ek, &expected).unwrap();
    assert_ne!(session, [0u8; 32]);

    // Wrong expected measurement → rejected.
    assert_eq!(
        initiator.finish(&msg2, &ek, &[0u8; 32]).unwrap_err(),
        EmsError::AccessDenied
    );
    // Wrong EK (different platform) → rejected.
    let other_ek = hypertee_crypto::sig::Keypair::from_key_material(&[9u8; 32]).public;
    assert_eq!(
        initiator.finish(&msg2, &other_ek, &expected).unwrap_err(),
        EmsError::AccessDenied
    );
    // Tampered MAC → rejected.
    let mut bad = msg2.clone();
    bad.mac[0] ^= 1;
    assert!(initiator.finish(&bad, &ek, &expected).is_err());
}

#[test]
fn quote_serialization_roundtrip() {
    let mut m = Machine::new(15);
    let eid = m.build_enclave(b"quoted");
    let quote = m.ems.eattest(eid, b"challenge!").unwrap();
    let bytes = quote.to_bytes();
    assert_eq!(bytes.len(), 384);
    let restored = hypertee_ems::attest::Quote::from_bytes(&bytes).unwrap();
    assert_eq!(restored, quote);
    assert!(restored.verify(&m.ems.ek_public()));
}

#[test]
fn sealing_roundtrip_and_binding() {
    let mut m = Machine::new(16);
    let eid = m.build_enclave(b"sealer");
    let blob = m.ems.seal(eid, b"persistent secret").unwrap();
    assert_eq!(m.ems.unseal(eid, &blob).unwrap(), b"persistent secret");
    // Tampering is detected.
    let mut bad = blob.clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    assert_eq!(m.ems.unseal(eid, &bad).unwrap_err(), EmsError::AccessDenied);
    // A different enclave identity cannot unseal.
    let other = m.build_enclave(b"other enclave");
    assert_eq!(
        m.ems.unseal(other, &blob).unwrap_err(),
        EmsError::AccessDenied
    );
}

#[test]
fn keyid_exhaustion_suspends_stopped_enclave() {
    let mut m = Machine::new(17);
    m.ems.set_keyid_limit(4); // KeyIDs 1..=3 available.
    let e1 = m.build_enclave(b"one");
    let e2 = m.build_enclave(b"two");
    // Park e1 so it is a suspension candidate.
    m.with(|ems, ctx| ems.eenter(ctx, e1)).unwrap();
    m.ems.eexit(e1).unwrap();
    let _ = e2;
    // Exhaust the remaining KeyID with a third enclave + one more demand.
    let e3 = m.build_enclave(b"three");
    let _ = e3;
    // All 3 KeyIDs used; creating a 4th forces a suspension of e1.
    let e4 = m.build_enclave(b"four");
    let _ = e4;
    assert!(m.ems.stats.keyid_suspensions >= 1);
    // Park e2 so resuming e1 has a suspension victim to reclaim from.
    m.with(|ems, ctx| ems.eenter(ctx, e2)).unwrap();
    m.ems.eexit(e2).unwrap();
    // e1 still resumable: its key is re-derived and re-programmed.
    let (root, _, key) = m.with(|ems, ctx| ems.eresume(ctx, e1)).unwrap();
    assert!(key.is_encrypted());
    // And its memory still decrypts (stack read through new KeyID).
    let mut mmu = CoreMmu::new(32);
    mmu.switch_table(Some(hypertee_mem::pagetable::PageTable { root }), true);
    let mut buf = [0u8; 8];
    mmu.load(&mut m.sys, layout::STACK_BASE, &mut buf).unwrap();
    assert_eq!(buf, [0u8; 8]);
}

#[test]
fn destroy_zeroes_and_reclaims() {
    let mut m = Machine::new(18);
    let eid = m.build_enclave(b"ephemeral");
    let (root, _, _) = m.with(|ems, ctx| ems.eenter(ctx, eid)).unwrap();
    let maps = hypertee_mem::pagetable::PageTable { root }
        .mappings(&mut m.sys.phys)
        .unwrap();
    let code_frame = maps
        .iter()
        .find(|(va, _)| *va == layout::CODE_BASE)
        .map(|(_, pte)| pte.ppn())
        .unwrap();
    m.ems.eexit(eid).unwrap();
    let used_before = m.ems.pool().used_frames();
    m.with(|ems, ctx| ems.edestroy(ctx, eid)).unwrap();
    assert!(m.ems.pool().used_frames() < used_before);
    // Freed frame content is zeroed (no ciphertext residue for later owners).
    let mut buf = [0xffu8; 64];
    m.sys.phys.read(code_frame.base(), &mut buf).unwrap();
    assert_eq!(buf, [0u8; 64]);
}

#[test]
fn scheduled_service_preserves_correctness() {
    use hypertee_ems::scheduler::EmsScheduler;
    use hypertee_fabric::message::{CallerIdentity, Primitive, Privilege, Request, Status};
    let mut m = Machine::new(23);
    let e1 = m.build_enclave(b"sched one");
    let e2 = m.build_enclave(b"sched two");
    // Queue a burst of interleaved EALLOCs from both enclaves.
    let mut tickets = Vec::new();
    for i in 0..6u64 {
        let eid = if i % 2 == 0 { e1 } else { e2 };
        let req = Request {
            req_id: 0,
            primitive: Primitive::Ealloc,
            caller: CallerIdentity {
                privilege: Privilege::User,
                enclave: Some(hypertee_mem::ownership::EnclaveId(eid)),
            },
            args: vec![eid, 4096 * (i + 1)],
            payload: vec![],
        };
        tickets.push(m.hub.mailbox.submit(req));
    }
    let mut sched = EmsScheduler::new(2, 5);
    let plan = m
        .with(|ems, ctx| ems.service_scheduled(ctx, &mut sched))
        .unwrap();
    assert_eq!(plan.len(), 6);
    // Every response arrived, bound to its own ticket, all successful —
    // and per-enclave heap addresses are monotone (program order held).
    let mut vas = (Vec::new(), Vec::new());
    for (i, t) in tickets.iter().enumerate() {
        let resp = m.hub.mailbox.poll(t).expect("response present");
        assert_eq!(resp.status, Status::Ok, "request {i}");
        if i % 2 == 0 {
            vas.0.push(resp.vals[0]);
        } else {
            vas.1.push(resp.vals[0]);
        }
    }
    assert!(
        vas.0.windows(2).all(|w| w[0] < w[1]),
        "e1 heap order {:?}",
        vas.0
    );
    assert!(
        vas.1.windows(2).all(|w| w[0] < w[1]),
        "e2 heap order {:?}",
        vas.1
    );
}

#[test]
fn pool_concealment_counters() {
    let mut m = Machine::new(19);
    let _e = m.build_enclave(b"pool test");
    let served_before = m.ems.pool().stats.pages_served;
    let events_before = m.ems.pool().stats.growth_events;
    // 64 small allocations = 64 pages served…
    for _ in 0..8 {
        let e = m.with(|ems, ctx| ems.ealloc(ctx, 1, 8 * 4096));
        e.unwrap();
    }
    let served = m.ems.pool().stats.pages_served - served_before;
    let events = m.ems.pool().stats.growth_events - events_before;
    assert!(served >= 64);
    // …but the CS OS observed at most a couple of batched growth events.
    assert!(
        events <= 2,
        "allocation events leak: {events} growths for {served} pages"
    );
}

#[test]
fn every_primitive_rejects_malformed_argument_vectors() {
    use hypertee_fabric::message::{CallerIdentity, Primitive, Request, Status};
    let mut m = Machine::new(31);
    // A caller that passes both the privilege check and the identity check
    // for its primitive, but with too many arguments: the sanity check must
    // fire for every single primitive.
    for prim in Primitive::all() {
        let caller = CallerIdentity {
            privilege: prim.required_privilege(),
            enclave: Some(hypertee_mem::ownership::EnclaveId(1)),
        };
        let req = Request {
            req_id: 0,
            primitive: prim,
            caller,
            args: vec![1; 9], // no primitive takes 9 arguments
            payload: vec![],
        };
        let resp = m.with(|ems, ctx| ems.handle(ctx, req));
        assert_eq!(
            resp.status,
            Status::InvalidArgument,
            "{prim:?} accepted garbage"
        );
    }
    assert_eq!(m.ems.stats.sanity_rejects, 16);
}

#[test]
fn quote_tampering_matrix() {
    // Flipping any field of a quote must break verification.
    let mut m = Machine::new(32);
    let eid = m.build_enclave(b"tamper matrix");
    let quote = m.ems.eattest(eid, b"challenge").unwrap();
    let ek = m.ems.ek_public();
    assert!(quote.verify(&ek));
    for field in 0..4 {
        let mut q = quote.clone();
        match field {
            0 => q.platform_measurement[0] ^= 1,
            1 => q.enclave_measurement[0] ^= 1,
            2 => q.report_data[0] ^= 1,
            _ => q.ak_salt[0] ^= 1,
        }
        assert!(!q.verify(&ek), "field {field} tamper survived verification");
    }
    // Swapping in a foreign AK public key also fails (chain is broken).
    let mut q = quote.clone();
    q.ak_pub = hypertee_crypto::sig::Keypair::from_key_material(&[3; 32]).public;
    assert!(!q.verify(&ek));
}
