//! Differential tests pinning the optimized data plane to the seed's
//! scalar reference paths.
//!
//! The memory engine's span/full-line fast paths and the batched line MAC
//! ([`mac28_lines`]) only change host wall-clock, never behaviour: every
//! byte stored, every counter trajectory, and every fault must match what
//! the verbatim seed code ([`MktmeEngine::write_ref`]/[`read_ref`])
//! produces. These tests drive both planes through identical operation
//! mixes — aligned, unaligned, and line-straddling — plus the wrong-key and
//! tamper fault paths, and check the walk-cache flush discipline at the
//! EFREE/EDESTROY teardown sites.

use hypertee_repro::ems::control::layout;
use hypertee_repro::hypertee::exec::{InterpMode, RunOutcome};
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::hypertee::shard::{ShardSpec, ShardedMachine};
use hypertee_repro::hypertee_cpu::asm::Asm;
use hypertee_repro::mem::addr::{KeyId, PhysAddr, VirtAddr};
use hypertee_repro::mem::mktme::MktmeEngine;
use hypertee_repro::mem::phys::PhysMemory;
use hypertee_repro::mem::walkcache::WalkCacheStats;
use hypertee_repro::mem::MemFault;
use hypertee_repro::workloads::programs;

/// A deterministic xorshift so the operation mix is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn range(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn pair() -> (PhysMemory, MktmeEngine, PhysMemory, MktmeEngine) {
    let opt_mem = PhysMemory::new(4 << 20);
    let ref_mem = PhysMemory::new(4 << 20);
    let mut opt = MktmeEngine::new(true);
    let mut re = MktmeEngine::new(true);
    for e in [&mut opt, &mut re] {
        e.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
        e.program_key(KeyId(2), &[0x22; 16], &[0xa2; 32]);
    }
    (opt_mem, opt, ref_mem, re)
}

/// The optimized write/read paths must be byte-, counter-, and
/// fault-equivalent to the seed's scalar paths over a randomized mix of
/// aligned, unaligned, and line-straddling accesses of many sizes —
/// including spans long enough to exercise the eight-line batched MAC and
/// its remainder handling.
#[test]
fn optimized_and_reference_data_planes_agree() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let mut rng = Rng(0x5eed_cafe);
    // Sizes chosen to hit: sub-line, exactly one line, a few lines (below
    // the 8-line batch), exactly one batch, batch + remainder, a full 4 KiB
    // page (8 batches), and page + remainder.
    let sizes = [1, 7, 63, 64, 65, 192, 448, 512, 520, 4096, 4160];
    for round in 0..200 {
        let size = sizes[(round as usize) % sizes.len()];
        // A line-aligned base plus a random in-line offset, so accesses
        // land aligned, unaligned, and straddling line boundaries.
        let pa = PhysAddr(0x10_000 + (rng.range(0x8_000) & !63) + rng.range(64));
        let key = KeyId(1);
        let mut data = vec![0u8; size];
        for b in data.iter_mut() {
            *b = rng.next() as u8;
        }
        let wa = opt.write(&mut opt_mem, pa, key, &data);
        let wb = re.write_ref(&mut ref_mem, pa, key, &data);
        assert_eq!(wa, wb, "write result diverged at round {round}");
        let mut got_a = vec![0u8; size];
        let mut got_b = vec![0u8; size];
        let ra = opt.read(&mut opt_mem, pa, key, &mut got_a);
        let rb = re.read_ref(&mut ref_mem, pa, key, &mut got_b);
        assert_eq!(ra, rb, "read result diverged at round {round}");
        assert_eq!(got_a, got_b, "read data diverged at round {round}");
        assert_eq!(got_a, data, "roundtrip corrupted at round {round}");
    }
    // The modelled charges — raw accesses, byte counters, MAC checks — must
    // ride the same trajectory on both planes.
    assert_eq!(opt_mem.access_count, ref_mem.access_count);
    assert_eq!(opt.stats.bytes_encrypted, re.stats.bytes_encrypted);
    assert_eq!(opt.stats.bytes_decrypted, re.stats.bytes_decrypted);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
    // And the ciphertext itself is identical: interleaving the planes over
    // the same state would be sound.
    let mut raw_a = vec![0u8; 0x20_000];
    let mut raw_b = vec![0u8; 0x20_000];
    opt_mem.read(PhysAddr(0x10_000), &mut raw_a).unwrap();
    ref_mem.read(PhysAddr(0x10_000), &mut raw_b).unwrap();
    assert_eq!(raw_a, raw_b, "physical ciphertext diverged");
}

/// Wrong-KeyID reads fault identically on both planes: same fault, same
/// faulting line, same access and MAC-check counts after the early return.
#[test]
fn wrong_key_fault_parity() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let pa = PhysAddr(0x40_000);
    opt.write(&mut opt_mem, pa, KeyId(1), &[0x5a; 4096])
        .unwrap();
    re.write_ref(&mut ref_mem, pa, KeyId(1), &[0x5a; 4096])
        .unwrap();
    let mut buf = [0u8; 4096];
    let fa = opt.read(&mut opt_mem, pa, KeyId(2), &mut buf);
    let fb = re.read_ref(&mut ref_mem, pa, KeyId(2), &mut buf);
    assert!(matches!(fa, Err(MemFault::IntegrityViolation { pa: p }) if p == pa.0));
    assert_eq!(fa, fb, "fault diverged");
    assert_eq!(opt_mem.access_count, ref_mem.access_count);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
}

/// Ciphertext tampering in the middle of a span faults at exactly the
/// tampered line on both planes, with the per-line access-count trajectory
/// (k+1 line reads for a failure at line k) preserved by the span fast path.
#[test]
fn tamper_fault_parity_mid_span() {
    let (mut opt_mem, mut opt, mut ref_mem, mut re) = pair();
    let pa = PhysAddr(0x50_000);
    opt.write(&mut opt_mem, pa, KeyId(1), &[7u8; 4096]).unwrap();
    re.write_ref(&mut ref_mem, pa, KeyId(1), &[7u8; 4096])
        .unwrap();
    // Flip one ciphertext bit in line 13 of the page, on both memories.
    let victim = PhysAddr(pa.0 + 13 * 64 + 5);
    for mem in [&mut opt_mem, &mut ref_mem] {
        let mut raw = [0u8; 1];
        mem.read(victim, &mut raw).unwrap();
        raw[0] ^= 0x40;
        mem.write(victim, &raw).unwrap();
    }
    let opt_base = opt_mem.access_count;
    let ref_base = ref_mem.access_count;
    let mut buf = [0u8; 4096];
    let fa = opt.read(&mut opt_mem, pa, KeyId(1), &mut buf);
    let fb = re.read_ref(&mut ref_mem, pa, KeyId(1), &mut buf);
    assert!(
        matches!(fa, Err(MemFault::IntegrityViolation { pa: p }) if p == pa.0 + 13 * 64),
        "must fault at the first tampered line, got {fa:?}"
    );
    assert_eq!(fa, fb, "fault diverged");
    // 14 line reads each (lines 0..=13), despite the span round trip.
    assert_eq!(opt_mem.access_count - opt_base, 14);
    assert_eq!(ref_mem.access_count - ref_base, 14);
    assert_eq!(opt.stats.mac_checks, re.stats.mac_checks);
    assert_eq!(opt.stats.mac_failures, re.stats.mac_failures);
}

/// The two data planes over one operation sequence: `zero_page` and the
/// fast read/write paths against a zero write and reads on the seed's
/// reference paths.
struct Twin {
    opt_mem: PhysMemory,
    opt: MktmeEngine,
    ref_mem: PhysMemory,
    re: MktmeEngine,
}

impl Twin {
    fn new() -> Self {
        let (opt_mem, opt, ref_mem, re) = pair();
        Twin {
            opt_mem,
            opt,
            ref_mem,
            re,
        }
    }

    fn program(&mut self, key: KeyId, aes: &[u8; 16], mac: &[u8; 32]) {
        self.opt.program_key(key, aes, mac);
        self.re.program_key(key, aes, mac);
    }

    fn zero(&mut self, pa: PhysAddr, key: KeyId) -> Result<(), MemFault> {
        let a = self.opt.zero_page(&mut self.opt_mem, pa.ppn(), key);
        let b = self.re.write_ref(&mut self.ref_mem, pa, key, &[0; 4096]);
        assert_eq!(a, b, "zero result diverged");
        self.assert_agree();
        a
    }

    fn write(&mut self, pa: PhysAddr, key: KeyId, data: &[u8]) -> Result<(), MemFault> {
        let a = self.opt.write(&mut self.opt_mem, pa, key, data);
        let b = self.re.write_ref(&mut self.ref_mem, pa, key, data);
        assert_eq!(a, b, "write result diverged");
        self.assert_agree();
        a
    }

    fn read(&mut self, pa: PhysAddr, key: KeyId, len: usize) -> Result<Vec<u8>, MemFault> {
        let mut got_a = vec![0u8; len];
        let mut got_b = vec![0u8; len];
        let a = self.opt.read(&mut self.opt_mem, pa, key, &mut got_a);
        let b = self.re.read_ref(&mut self.ref_mem, pa, key, &mut got_b);
        assert_eq!(a, b, "read result diverged");
        assert_eq!(got_a, got_b, "read data diverged");
        self.assert_agree();
        a.map(|()| got_a)
    }

    /// Flips one ciphertext bit through the plaintext domain on both sides.
    fn flip(&mut self, pa: PhysAddr, mask: u8) {
        for mem in [&mut self.opt_mem, &mut self.ref_mem] {
            let mut raw = [0u8; 1];
            mem.read(pa, &mut raw).unwrap();
            raw[0] ^= mask;
            mem.write(pa, &raw).unwrap();
        }
    }

    /// The charged counters, the raw-access trajectory and the physical
    /// bytes of the exercised region are identical on both planes.
    fn assert_agree(&mut self) {
        let (a, b) = (self.opt.stats, self.re.stats);
        assert_eq!(a.bytes_encrypted, b.bytes_encrypted);
        assert_eq!(a.bytes_decrypted, b.bytes_decrypted);
        assert_eq!(a.mac_checks, b.mac_checks);
        assert_eq!(a.mac_failures, b.mac_failures);
        assert_eq!(self.opt_mem.access_count, self.ref_mem.access_count);
        let mut raw_a = vec![0u8; 0x4000];
        let mut raw_b = vec![0u8; 0x4000];
        self.opt_mem.read(PhysAddr(0x70_000), &mut raw_a).unwrap();
        self.ref_mem.read(PhysAddr(0x70_000), &mut raw_b).unwrap();
        self.opt_mem.access_count -= 1;
        self.ref_mem.access_count -= 1;
        assert_eq!(raw_a, raw_b, "physical ciphertext diverged");
    }
}

const FRAME: PhysAddr = PhysAddr(0x71_000);

/// `zero_page` stores the same ciphertext with the same counters as the
/// fast zero write it replaces, and both read back as zeros on either
/// plane, whole-page and line by line.
#[test]
fn zero_page_matches_zero_write() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    let (mut mem, mut fast) = (PhysMemory::new(4 << 20), MktmeEngine::new(true));
    fast.program_key(KeyId(1), &[0x11; 16], &[0xa1; 32]);
    fast.write(&mut mem, FRAME, KeyId(1), &[0; 4096]).unwrap();
    assert_eq!(t.opt.stats, fast.stats);
    assert_eq!(t.opt_mem.access_count, mem.access_count);
    let mut raw_a = vec![0u8; 4096];
    let mut raw_b = vec![0u8; 4096];
    t.opt_mem.read(FRAME, &mut raw_a).unwrap();
    t.opt_mem.access_count -= 1;
    mem.read(FRAME, &mut raw_b).unwrap();
    assert_eq!(raw_a, raw_b);
    assert_eq!(t.read(FRAME, KeyId(1), 4096).unwrap(), vec![0u8; 4096]);
    for line in 0..64 {
        let pa = PhysAddr(FRAME.0 + line * 64 + line % 7);
        assert_eq!(t.read(pa, KeyId(1), 9).unwrap(), vec![0u8; 9]);
    }
}

/// One flipped ciphertext bit in a zero-pending line faults at that line
/// on both planes, with the same failure count.
#[test]
fn zero_page_tamper_faults_at_the_flipped_line() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    t.flip(PhysAddr(FRAME.0 + 21 * 64 + 3), 0x08);
    let fault = t.read(FRAME, KeyId(1), 4096);
    assert_eq!(
        fault,
        Err(MemFault::IntegrityViolation {
            pa: FRAME.0 + 21 * 64
        })
    );
    assert_eq!(t.opt.stats.mac_failures, 1);
    // The per-line path faults the same way, and untouched lines still pass.
    assert!(t
        .read(PhysAddr(FRAME.0 + 21 * 64 + 8), KeyId(1), 8)
        .is_err());
    assert!(t.read(PhysAddr(FRAME.0 + 20 * 64), KeyId(1), 64).is_ok());
    assert_eq!(t.opt.stats.mac_failures, 2);
}

/// Reading a zeroed page through another KeyID faults — including a KeyID
/// programmed with the same AES key but a different MAC key, whose
/// decryption really is all zeros: accepting a pending line on the zero
/// check alone would let it through.
#[test]
fn zero_page_wrong_key_faults_even_with_the_same_aes_key() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    assert!(matches!(
        t.read(FRAME, KeyId(2), 4096),
        Err(MemFault::IntegrityViolation { pa }) if pa == FRAME.0
    ));
    t.program(KeyId(3), &[0x11; 16], &[0xb3; 32]);
    assert!(matches!(
        t.read(FRAME, KeyId(3), 4096),
        Err(MemFault::IntegrityViolation { pa }) if pa == FRAME.0
    ));
    assert!(t.read(PhysAddr(FRAME.0 + 640), KeyId(3), 4).is_err());
}

/// Suspension/resume (§IV-C): the same keys re-programmed under a new
/// KeyID still verify a zeroed page.
#[test]
fn zero_page_survives_rekeying_under_a_new_keyid() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    t.opt.revoke_key(KeyId(1));
    t.re.revoke_key(KeyId(1));
    t.program(KeyId(5), &[0x11; 16], &[0xa1; 32]);
    assert_eq!(t.read(FRAME, KeyId(5), 4096).unwrap(), vec![0u8; 4096]);
    assert_eq!(
        t.read(PhysAddr(FRAME.0 + 4000), KeyId(5), 3).unwrap(),
        vec![0u8; 3]
    );
}

/// Partial writes into pending lines, line-straddling and single-line,
/// read back correctly next to their still-pending neighbours.
#[test]
fn zero_page_then_partial_writes_read_back() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    t.write(PhysAddr(FRAME.0 + 100), KeyId(1), &[0xab; 50])
        .unwrap();
    t.write(PhysAddr(FRAME.0 + 1000), KeyId(1), &[0xcd; 300])
        .unwrap();
    t.write(PhysAddr(FRAME.0 + 4090), KeyId(1), &[0xef; 6])
        .unwrap();
    let page = t.read(FRAME, KeyId(1), 4096).unwrap();
    let mut want = vec![0u8; 4096];
    want[100..150].fill(0xab);
    want[1000..1300].fill(0xcd);
    want[4090..].fill(0xef);
    assert_eq!(page, want);
}

/// Re-zeroing a page under a new key makes it that key's: zeros through
/// the new KeyID, a fault through the old one.
#[test]
fn zero_page_rezero_under_a_new_key() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    t.write(PhysAddr(FRAME.0 + 64), KeyId(1), &[0x77; 256])
        .unwrap();
    t.zero(FRAME, KeyId(2)).unwrap();
    assert_eq!(t.read(FRAME, KeyId(2), 4096).unwrap(), vec![0u8; 4096]);
    assert!(t.read(FRAME, KeyId(1), 4096).is_err());
}

/// A revoked key makes both zeroing and reading a bus error.
#[test]
fn zero_page_with_a_revoked_key_is_a_bus_error() {
    let mut t = Twin::new();
    t.zero(FRAME, KeyId(1)).unwrap();
    t.opt.revoke_key(KeyId(1));
    t.re.revoke_key(KeyId(1));
    assert_eq!(
        t.zero(FRAME, KeyId(1)),
        Err(MemFault::BusError { pa: FRAME.0 })
    );
    assert!(matches!(
        t.read(FRAME, KeyId(1), 64),
        Err(MemFault::BusError { .. })
    ));
}

/// EFREE must drop the freeing hart's walk-cache pointers along with its
/// TLB entries: the freed page-table frames return to the pool, and a stale
/// intermediate-level pointer would let the walker interpret reused frames
/// as PTEs.
#[test]
fn efree_flushes_walk_cache() {
    let manifest = EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap();
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(0, &manifest, b"walk cache victim")
        .unwrap();
    m.enter(0, e).unwrap();
    let va = m.ealloc(0, 64 * 1024).unwrap();
    // Touch several pages so the walker populates its cache.
    for page in 0..8u64 {
        m.enclave_store(0, VirtAddr(va.0 + page * 4096), &[page as u8; 32])
            .unwrap();
    }
    assert!(
        !m.harts[0].mmu.walk_cache.is_empty(),
        "test premise: walking populated the cache"
    );
    let flushes_before = m.harts[0].mmu.walk_cache.stats.flushes;
    m.efree(0, va, 64 * 1024).unwrap();
    assert!(
        m.harts[0].mmu.walk_cache.is_empty(),
        "EFREE left stale walk-cache pointers"
    );
    assert!(m.harts[0].mmu.walk_cache.stats.flushes > flushes_before);
    m.exit(0).unwrap();
    m.destroy(0, e).unwrap();
}

/// Self-modifying code through the full machine data plane: a spin loop
/// runs long enough for the decoded-block cache to go hot, then the host
/// rewrites the loop's back-edge *through MKTME* (`vm_store` into the RWX
/// code page), and the resumed run must execute the new bytes — falling
/// through to the exit sequence instead of spinning. The whole interleaving
/// repeats under `InterpMode::Reference`, and exit code, hart clock, and
/// machine clock must be bit-identical: the cache may only change
/// wall-clock, never architecture or charges.
#[test]
fn host_store_over_cached_block_reexecutes_new_bytes_with_identical_charges() {
    // 0x00: addi x10, x10, 1
    // 0x04: jal  x0, -4        <- rewritten to nop mid-run
    // 0x08: addi x17, x0, 93
    // 0x0c: ecall              (exit with x10)
    let mut a = Asm::new();
    let top = a.label();
    a.bind(top);
    a.addi(10, 10, 1);
    a.jal(0, top);
    a.addi(17, 0, 93);
    a.ecall();
    let image = a.assemble();

    let run = |mode: InterpMode| {
        let manifest = EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").unwrap();
        let mut m = Machine::boot_default();
        m.interp = mode;
        let e = m.create_enclave(0, &manifest, &image).unwrap();
        m.enter(0, e).unwrap();
        // Slice 1: five loop iterations; the block is now hot in the cache.
        let first = m.run_enclave_program(0, 10).unwrap();
        assert_eq!(first, RunOutcome::StepLimit, "{mode:?}: loop must spin");
        // Rewrite the back-edge to `addi x0, x0, 0` through the data plane.
        m.vm_store(
            0,
            VirtAddr(layout::CODE_BASE.0 + 4),
            &0x0000_0013u32.to_le_bytes(),
        )
        .unwrap();
        // Slice 2: one more increment, then fall through and exit. A stale
        // decoded line would keep spinning into the step limit instead.
        let code = match m.run_enclave_program(0, 1_000).unwrap() {
            RunOutcome::Exited { code, .. } => code,
            other => panic!("{mode:?}: patched program must exit, got {other:?}"),
        };
        let inval = m.icache_stats(0).invalidations;
        (code, m.hart_clock(0).0, m.clock.0, inval)
    };

    let (fast_code, fast_hart, fast_clock, fast_inval) = run(InterpMode::Fast);
    let (ref_code, ref_hart, ref_clock, _) = run(InterpMode::Reference);
    assert_eq!(fast_code, 6, "five spins + one post-patch increment");
    assert_eq!(fast_code, ref_code, "exit codes diverged");
    assert_eq!(fast_hart, ref_hart, "hart-clock charges diverged");
    assert_eq!(fast_clock, ref_clock, "machine clocks diverged");
    assert!(
        fast_inval > 0,
        "the code store must have invalidated cached lines"
    );
}

/// The decoded-block interpreter must be invisible in the sharded merged
/// reports: per-shard simulated clocks, the merged clock, the merged
/// stats, and each shard's MKTME full-line / batched-keystream counters and
/// per-hart walk-cache stats from a 4-shard enclave-program workload are
/// identical at every (thread width, interpreter mode) combination — the
/// same invariance `tests/sharding.rs` pins for thread width alone. MKTME
/// `bytes_decrypted` and `mac_checks` are deliberately not compared: the
/// decode cache legitimately skips instruction refetches.
#[test]
fn interpreter_mode_is_invisible_in_sharded_merged_reports() {
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let run = |threads: usize, mode: InterpMode| {
        let mut m = ShardedMachine::boot(ShardSpec::new(4, threads, 0x1f7e_0006)).expect("boot");
        m.par_map(|d| {
            d.machine.interp = mode;
            let image = programs::fib(30);
            let e = d
                .machine
                .create_enclave(0, &manifest, &image)
                .expect("create");
            d.machine.enter(0, e).expect("enter");
            match d.machine.run_enclave_program(0, 1_000_000).expect("run") {
                RunOutcome::Exited { code, .. } => assert_eq!(code, 832_040),
                other => panic!("fib must exit, got {other:?}"),
            }
            d.machine.exit(0).expect("exit");
        });
        let clocks: Vec<u64> = m.domains().iter().map(|d| d.machine.clock.0).collect();
        let mktme: Vec<(u64, u64)> = m
            .domains()
            .iter()
            .map(|d| {
                let stats = &d.machine.sys.engine.stats;
                (stats.full_line_writes, stats.keystream_blocks_batched)
            })
            .collect();
        let walk_caches: Vec<Vec<WalkCacheStats>> = m
            .domains()
            .iter()
            .map(|d| {
                d.machine
                    .harts
                    .iter()
                    .map(|h| h.mmu.walk_cache.stats)
                    .collect()
            })
            .collect();
        let merged = m.merged_clock();
        (clocks, merged, m.merged_stats(), mktme, walk_caches)
    };
    let reference = run(1, InterpMode::Reference);
    for (threads, mode) in [
        (1, InterpMode::Fast),
        (4, InterpMode::Fast),
        (4, InterpMode::Reference),
    ] {
        assert_eq!(
            run(threads, mode),
            reference,
            "merged report must be identical at threads={threads}, mode={mode:?}"
        );
    }
}

/// EDESTROY must drop walk-cache pointers on *every* hart, not just the
/// caller's: another hart that previously ran the enclave may still hold
/// intermediate pointers into the now-recycled page-table frames.
#[test]
fn edestroy_flushes_walk_caches_on_all_harts() {
    let manifest = EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap();
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(1, &manifest, b"multi-hart teardown")
        .unwrap();
    m.enter(1, e).unwrap();
    let va = m.ealloc(1, 32 * 1024).unwrap();
    m.enclave_store(1, va, b"resident data").unwrap();
    m.exit(1).unwrap();
    m.destroy(1, e).unwrap();
    for (i, hart) in m.harts.iter().enumerate() {
        assert!(
            hart.mmu.walk_cache.is_empty(),
            "hart {i} kept stale walk-cache pointers across EDESTROY"
        );
    }
}
