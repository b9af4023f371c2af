//! Fixed-seed MKTME differential smoke, used as the release-mode gate
//! inside `scripts/verify.sh`.
//!
//! Runs 10,000 seeded operations on twin engines over twin memories: one
//! side zeroes frames with `zero_page` and moves data with the fast
//! `write`/`read`, the other zeroes with an eager `write_ref` of 4 KiB of
//! zeros and moves data with `write_ref`/`read_ref`. The mix covers frame
//! zeroing, random-offset writes and reads of many sizes (line-straddling,
//! multi-line and off the end of installed memory), raw ciphertext
//! tampering, and key revocation and re-programming — including KeyIDs
//! that share the AES key but not the MAC key, and the same keys under a
//! new KeyID. Every result, fault, returned byte, charged counter and raw
//! access count must agree, and the physical bytes are compared
//! throughout. Exits non-zero on the first divergence, naming the case.

use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::mem::addr::{KeyId, PhysAddr, PAGE_SIZE};
use hypertee_repro::mem::mktme::MktmeEngine;
use hypertee_repro::mem::phys::PhysMemory;

const SEED: u64 = 0x2e40_f111;
const OPS: usize = 10_000;
/// Installed memory: 128 frames, all of them exercised.
const MEM_BYTES: u64 = 128 * PAGE_SIZE;
const KEYS: u16 = 4;
const SIZES: [u64; 12] = [1, 7, 8, 63, 64, 65, 200, 512, 520, 1000, 4096, 4160];
const AES_KEYS: [[u8; 16]; 2] = [[0x11; 16], [0x22; 16]];
const MAC_KEYS: [[u8; 32]; 2] = [[0xa1; 32], [0xb2; 32]];

struct Twin {
    fast_mem: PhysMemory,
    fast: MktmeEngine,
    ref_mem: PhysMemory,
    re: MktmeEngine,
}

fn fail(op: usize, what: &str) -> ! {
    eprintln!("mktme smoke FAILED at op {op}, seed {SEED:#x}: {what}");
    std::process::exit(1);
}

impl Twin {
    fn agree<T: PartialEq + std::fmt::Debug>(&self, op: usize, what: &str, a: T, b: T) -> T {
        if a != b {
            fail(op, &format!("{what}: fast {a:?} vs reference {b:?}"));
        }
        a
    }

    /// Charged counters and the raw-access trajectory match.
    fn counters(&self, op: usize) {
        let (a, b) = (self.fast.stats, self.re.stats);
        self.agree(op, "bytes_encrypted", a.bytes_encrypted, b.bytes_encrypted);
        self.agree(op, "bytes_decrypted", a.bytes_decrypted, b.bytes_decrypted);
        self.agree(op, "mac_checks", a.mac_checks, b.mac_checks);
        self.agree(op, "mac_failures", a.mac_failures, b.mac_failures);
        self.agree(
            op,
            "access_count",
            self.fast_mem.access_count,
            self.ref_mem.access_count,
        );
    }

    /// Physical bytes of the whole installed memory match (the check reads
    /// are taken off the access counters again).
    fn physical(&mut self, op: usize) {
        let mut a = vec![0u8; MEM_BYTES as usize];
        let mut b = vec![0u8; MEM_BYTES as usize];
        self.fast_mem.read(PhysAddr(0), &mut a).expect("raw read");
        self.ref_mem.read(PhysAddr(0), &mut b).expect("raw read");
        self.fast_mem.access_count -= 1;
        self.ref_mem.access_count -= 1;
        if a != b {
            let at = a.iter().zip(&b).position(|(x, y)| x != y).unwrap_or(0);
            fail(op, &format!("physical bytes differ at {at:#x}"));
        }
    }
}

fn main() {
    let mut rng = ChaChaRng::from_u64(SEED);
    let mut t = Twin {
        fast_mem: PhysMemory::new(MEM_BYTES),
        fast: MktmeEngine::new(true),
        ref_mem: PhysMemory::new(MEM_BYTES),
        re: MktmeEngine::new(true),
    };
    for k in 1..=KEYS {
        let (aes, mac) = (
            &AES_KEYS[usize::from(k % 2)],
            &MAC_KEYS[usize::from(k / 2 % 2)],
        );
        t.fast.program_key(KeyId(k), aes, mac);
        t.re.program_key(KeyId(k), aes, mac);
    }
    // The KeyID each frame was last zeroed or written through: reads and
    // writes mostly use it, so zero-pending lines are read back under their
    // own key as well as under others.
    let mut owner = vec![KeyId(1); (MEM_BYTES / PAGE_SIZE) as usize + 2];
    let mut tally = [[0usize; 2]; 5];
    let mut revoked = None;
    for op in 0..OPS {
        let choice = rng.gen_range(100);
        let key = KeyId(1 + rng.gen_range(u64::from(KEYS)) as u16);
        // Frames past the end of memory exercise the bus-error paths.
        let frame = rng.gen_range(MEM_BYTES / PAGE_SIZE + 2);
        let own = if rng.gen_range(4) == 0 {
            key
        } else {
            owner[frame as usize]
        };
        let len = SIZES[rng.gen_range(SIZES.len() as u64) as usize];
        // Mostly inside the frame; a quarter may straddle into the next.
        let off = if len < PAGE_SIZE && rng.gen_range(4) != 0 {
            rng.gen_range(PAGE_SIZE - len + 1)
        } else {
            rng.gen_range(PAGE_SIZE)
        };
        let pa = PhysAddr(frame * PAGE_SIZE + off);
        let len = len as usize;
        let (kind, ok) = match choice {
            0..=29 => {
                let base = PhysAddr(frame * PAGE_SIZE);
                let a = t.fast.zero_page(&mut t.fast_mem, base.ppn(), key);
                let b =
                    t.re.write_ref(&mut t.ref_mem, base, key, &[0; PAGE_SIZE as usize]);
                owner[frame as usize] = key;
                (0, t.agree(op, "zero_page result", a, b).is_ok())
            }
            30..=59 => {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                if rng.gen_range(3) == 0 {
                    data.fill(0);
                }
                let a = t.fast.write(&mut t.fast_mem, pa, own, &data);
                let b = t.re.write_ref(&mut t.ref_mem, pa, own, &data);
                (1, t.agree(op, "write result", a, b).is_ok())
            }
            60..=96 => {
                let (mut a_buf, mut b_buf) = (vec![0u8; len], vec![0u8; len]);
                let a = t.fast.read(&mut t.fast_mem, pa, own, &mut a_buf);
                let b = t.re.read_ref(&mut t.ref_mem, pa, own, &mut b_buf);
                t.agree(op, "read bytes", &a_buf, &b_buf);
                (2, t.agree(op, "read result", a, b).is_ok())
            }
            97 => {
                let at = PhysAddr(rng.gen_range(MEM_BYTES));
                let mask = 1u8 << rng.gen_range(8);
                for mem in [&mut t.fast_mem, &mut t.ref_mem] {
                    let mut raw = [0u8; 1];
                    mem.read(at, &mut raw).expect("raw read");
                    raw[0] ^= mask;
                    mem.write(at, &raw).expect("raw write");
                }
                (3, true)
            }
            _ => {
                // Key operations alternate: revoke a KeyID, then re-program
                // it with fresh material drawn from the shared pools.
                if let Some(k) = revoked.take() {
                    let aes = &AES_KEYS[rng.gen_range(2) as usize];
                    let mac = &MAC_KEYS[rng.gen_range(2) as usize];
                    t.fast.program_key(k, aes, mac);
                    t.re.program_key(k, aes, mac);
                } else {
                    t.fast.revoke_key(key);
                    t.re.revoke_key(key);
                    revoked = Some(key);
                }
                (4, true)
            }
        };
        tally[kind][usize::from(!ok)] += 1;
        t.counters(op);
        if op % 500 == 499 {
            t.physical(op);
        }
    }
    t.physical(OPS);
    println!(
        "mktme smoke: {OPS} ops lockstep with the reference data plane \
         (zero_page {}/{} ok/fault, write {}/{}, read {}/{}, tamper {}, key {}; \
         {} MAC checks, {} failures)",
        tally[0][0],
        tally[0][1],
        tally[1][0],
        tally[1][1],
        tally[2][0],
        tally[2][1],
        tally[3][0],
        tally[4][0],
        t.fast.stats.mac_checks,
        t.fast.stats.mac_failures,
    );
}
