//! Tracked perf pipeline: runs the crypto/MKTME/PTW microbenches plus
//! memstream + wolfSSL workload passes and emits the schema-stable
//! `BENCH_perf.json` (see `hypertee_bench::report`).
//!
//! Every kernel with a pre-optimization reference path (`*_ref`) is
//! measured against it in the same run, so the recorded `speedup` is a
//! like-for-like before/after delta on the same host.
//!
//! ```text
//! bench_report [--smoke] [--threads N] [--out PATH]   # run + emit
//! bench_report --check PATH                           # validate a report
//! ```
//!
//! `--threads` sizes the worker pool for the `threads_*` scaling rows
//! (default 4). Two kinds of scaling rows are emitted:
//!
//! * **wall-clock fan-out** (`threads_lockstep_x4`, `threads_wolfssl_x4`):
//!   the same four independent jobs run sequentially (baseline) and on the
//!   pool (optimized) in the same run, so `speedup` is the host's real
//!   parallel yield — ~1x on a single-core container, and that is the
//!   honest number;
//! * **simulated-clock scaling** (`threads_simclock_*_x4`): deterministic
//!   cycle counts from the sharded machine — `ns_per_op` is the makespan
//!   (max shard clock) and `baseline_ns_per_op` the sequential schedule
//!   (sum of shard clocks), both in *simulated cycles*, so `speedup` is
//!   the architectural scaling of the shard composition and is identical
//!   on any host at any `--threads` width.

use std::hint::black_box;
use std::process::ExitCode;

use hypertee::exec::{InterpMode, RunOutcome};
use hypertee::machine::Machine;
use hypertee::manifest::EnclaveManifest;
use hypertee::shard::{par_run, ShardSpec, ShardedMachine};
use hypertee_bench::microbench::{bench, bench_pair};
use hypertee_bench::report::{check_file, validate, PerfBench, PerfReport, ReportArgs};
use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ed::Point;
use hypertee_crypto::mac::{mac28_lines, mac28_ref};
use hypertee_crypto::scalar::Scalar;
use hypertee_crypto::sha3::{keccakf, keccakf_ref, sha3_256_ref, Sha3_256};
use hypertee_crypto::util::{fnv1a_words, FNV_OFFSET};
use hypertee_fabric::message::{Primitive, Privilege};
use hypertee_faults::{FaultConfig, FaultPlan};
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::mktme::MktmeEngine;
use hypertee_mem::pagetable::{PageTable, Perms};
use hypertee_mem::phys::{FrameAllocator, PhysMemory};
use hypertee_mem::system::{CoreMmu, MemorySystem};
use hypertee_model::harness::{run_campaign, Campaign};
use hypertee_model::ops::generate;
use hypertee_sim::rng::derive_stream;
use hypertee_workloads::{memstream, programs, wolfssl};

/// KeyID used for the encrypted benchmark regions.
const BENCH_KEY: KeyId = KeyId(2);

fn iters(cfg: &ReportArgs, full: u32, smoke: u32) -> u32 {
    if cfg.smoke {
        smoke
    } else {
        full
    }
}

fn crypto_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Keccak-f[1600]: the unrolled permutation vs the scalar loop nest.
    // Interleaved batches: at ~1.3-1.4x this row's margin is thinner than
    // the host's drift between two back-to-back timing windows. Smoke
    // iterations stay high enough that one batch is ~1 ms: shorter batches
    // never dodge a preemption window, so the min-batch estimator starves.
    let n = iters(cfg, 8_000, 3_000);
    let mut st = [0x5a5a_5a5a_u64.wrapping_mul(7); 25];
    let mut st_ref = [0x5a5a_5a5a_u64.wrapping_mul(7); 25];
    let (opt, base) = bench_pair(
        "keccak_f1600",
        "keccak_f1600_ref",
        n,
        200,
        || {
            keccakf(black_box(&mut st));
        },
        || {
            keccakf_ref(black_box(&mut st_ref));
        },
    );
    rows.push(PerfBench::from_timings(
        "keccak_f1600",
        opt.ns_per_iter,
        200,
        Some(base.ns_per_iter),
    ));

    // SHA3-256 over 1 KiB.
    let n = iters(cfg, 2_000, 100);
    let data = vec![0xabu8; 1024];
    let (opt, base) = bench_pair(
        "sha3_256_1k",
        "sha3_256_1k_ref",
        n,
        1024,
        || {
            let mut h = Sha3_256::new();
            h.update(black_box(&data));
            black_box(h.finalize());
        },
        || {
            black_box(sha3_256_ref(black_box(&data)));
        },
    );
    rows.push(PerfBench::from_timings(
        "sha3_256_1k",
        opt.ns_per_iter,
        1024,
        Some(base.ns_per_iter),
    ));

    // The 28-bit line MAC of §IV-C, measured as the data plane consumes
    // it: eight consecutive 64-byte lines per operation (a 4 KiB page is
    // eight such batches). The optimized side is one lane-sliced
    // `mac28_lines` call; the reference side computes the same eight tags
    // sequentially with the seed hasher. Reported per line (ns ÷ 8).
    let n = iters(cfg, 2_000, 150);
    let key = [7u8; 32];
    let mut lines = [0u8; 512];
    for (i, b) in lines.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(0x3c);
    }
    let opt = bench("sha3_mac28_line_x8", n, 512, || {
        black_box(mac28_lines(black_box(&key), 0x8000, black_box(&lines)));
    });
    let base = bench("sha3_mac28_line_x8_ref", n, 512, || {
        for i in 0..8u64 {
            let line: &[u8; 64] = lines[64 * i as usize..64 * i as usize + 64]
                .try_into()
                .expect("64 bytes");
            black_box(mac28_ref(black_box(&key), 0x8000 + 64 * i, black_box(line)));
        }
    });
    rows.push(PerfBench::from_timings(
        "sha3_mac28_line",
        opt.ns_per_iter / 8.0,
        64,
        Some(base.ns_per_iter / 8.0),
    ));

    // AES-128 CTR over 4 KiB: AES-NI (T-table fallback) vs the scalar seed.
    let n = iters(cfg, 500, 50);
    let cipher = Aes128::new(&[0x42; 16]);
    let iv = ctr_iv(0x1000, 0xdead_beef);
    let mut buf = vec![0x11u8; 4096];
    let opt = bench("aes128_ctr_4k", n, 4096, || {
        cipher.ctr_apply(black_box(&iv), black_box(&mut buf));
    });
    let base = bench("aes128_ctr_4k_ref", n, 4096, || {
        cipher.ctr_apply_ref(black_box(&iv), black_box(&mut buf));
    });
    rows.push(PerfBench::from_timings(
        "aes128_ctr_4k",
        opt.ns_per_iter,
        4096,
        Some(base.ns_per_iter),
    ));

    // The memory engine's page keystream: one `ctr_lines` call over 64
    // lines, each with its own address-tweaked IV, vs one scalar
    // `ctr_apply_ref` per line.
    let n = iters(cfg, 2_000, 200);
    const NONCE: u64 = 0x4d4b_544d_4531_0001;
    let per_line_ref = |buf: &mut [u8]| {
        for (i, line) in buf.chunks_mut(64).enumerate() {
            cipher.ctr_apply_ref(&ctr_iv(0x7000 + 64 * i as u64, NONCE), line);
        }
    };
    let mut lines = vec![0u8; 4096];
    let mut lines_ref = vec![0u8; 4096];
    cipher.ctr_lines(0x7000, NONCE, &mut lines);
    per_line_ref(&mut lines_ref);
    assert_eq!(
        lines, lines_ref,
        "ctr_lines must match per-line ctr_apply_ref"
    );
    let opt = bench("aes128_ctr_lines_4k", n, 4096, || {
        cipher.ctr_lines(black_box(0x7000), NONCE, black_box(&mut lines));
    });
    let base = bench("aes128_ctr_lines_4k_ref", n, 4096, || {
        per_line_ref(black_box(&mut lines_ref));
    });
    rows.push(PerfBench::from_timings(
        "aes128_ctr_lines_4k",
        opt.ns_per_iter,
        4096,
        Some(base.ns_per_iter),
    ));

    curve_benches(cfg, rows);
}

/// The three Curve25519 scalar-multiplication strategies of the
/// attestation path, each against the double-and-add `mul_ref`: the
/// fixed-base table (keygen, signing), the width-5 NAF (ECDH) and the
/// Straus double-scalar product (verification), whose reference is two
/// `mul_ref` calls plus an add. Per operation, on one 32-byte scalar.
fn curve_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    let mut rng = ChaChaRng::from_u64(0xed25_5190);
    let k = Scalar::random(&mut rng);
    let j = Scalar::random(&mut rng);
    let b = Point::base();
    let p = Point::mul_base(&Scalar::random(&mut rng));
    let n = iters(cfg, 60, 20);

    assert_eq!(
        Point::mul_base(&k),
        b.mul_ref(&k),
        "fixed-base mul diverged"
    );
    let (opt, base) = bench_pair(
        "ed_base_mul",
        "ed_base_mul_ref",
        n,
        32,
        || {
            black_box(Point::mul_base(black_box(&k)));
        },
        || {
            black_box(b.mul_ref(black_box(&k)));
        },
    );
    rows.push(PerfBench::from_timings(
        "ed_base_mul",
        opt.ns_per_iter,
        32,
        Some(base.ns_per_iter),
    ));

    assert_eq!(p.mul(&k), p.mul_ref(&k), "variable-base mul diverged");
    let (opt, base) = bench_pair(
        "ed_var_mul",
        "ed_var_mul_ref",
        n,
        32,
        || {
            black_box(black_box(&p).mul(black_box(&k)));
        },
        || {
            black_box(black_box(&p).mul_ref(black_box(&k)));
        },
    );
    rows.push(PerfBench::from_timings(
        "ed_var_mul",
        opt.ns_per_iter,
        32,
        Some(base.ns_per_iter),
    ));

    let double_ref = |a: &Scalar, b2: &Scalar| p.mul_ref(a).add(&b.mul_ref(b2));
    assert_eq!(
        Point::double_mul_base(&k, &p, &j),
        double_ref(&k, &j),
        "double-scalar mul diverged"
    );
    let (opt, base) = bench_pair(
        "ed_double_mul",
        "ed_double_mul_ref",
        n,
        32,
        || {
            black_box(Point::double_mul_base(black_box(&k), &p, black_box(&j)));
        },
        || {
            black_box(double_ref(black_box(&k), black_box(&j)));
        },
    );
    rows.push(PerfBench::from_timings(
        "ed_double_mul",
        opt.ns_per_iter,
        32,
        Some(base.ns_per_iter),
    ));
}

fn mktme_bench(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Encrypted + MAC-verified 4 KiB write/read roundtrip through the
    // engine, against the seed's per-line scalar path.
    let n = iters(cfg, 50, 10);
    let data = vec![0x77u8; 4096];
    let mut back = vec![0u8; 4096];
    let pa = PhysAddr(0x10_000);

    let mut engine = MktmeEngine::new(true);
    engine.program_key(BENCH_KEY, &[1; 16], &[2; 32]);
    let mut mem = PhysMemory::new(16 << 20);
    let opt = bench("mktme_roundtrip_4k", n, 8192, || {
        engine
            .write(&mut mem, pa, BENCH_KEY, black_box(&data))
            .expect("bench write");
        engine
            .read(&mut mem, pa, BENCH_KEY, black_box(&mut back))
            .expect("bench read");
    });

    let mut engine = MktmeEngine::new(true);
    engine.program_key(BENCH_KEY, &[1; 16], &[2; 32]);
    let mut mem = PhysMemory::new(16 << 20);
    let base = bench("mktme_roundtrip_4k_ref", n, 8192, || {
        engine
            .write_ref(&mut mem, pa, BENCH_KEY, black_box(&data))
            .expect("bench write_ref");
        engine
            .read_ref(&mut mem, pa, BENCH_KEY, black_box(&mut back))
            .expect("bench read_ref");
    });
    assert_eq!(back, data, "roundtrip must return the plaintext");
    rows.push(PerfBench::from_timings(
        "mktme_roundtrip_4k",
        opt.ns_per_iter,
        8192,
        Some(base.ns_per_iter),
    ));

    // Zeroing a 4 KiB frame through a key (ECREATE stack, EALLOC, shm
    // creation): `zero_page` vs the eager zero write of the seed path.
    // Both must leave the same ciphertext and materialised tags.
    let n = iters(cfg, 1_000, 100);
    let zero = vec![0u8; 4096];
    let fresh = || {
        let mut engine = MktmeEngine::new(true);
        engine.program_key(BENCH_KEY, &[1; 16], &[2; 32]);
        (engine, PhysMemory::new(16 << 20))
    };
    let (mut engine, mut mem) = fresh();
    let (mut engine_ref, mut mem_ref) = fresh();
    engine
        .zero_page(&mut mem, pa.ppn(), BENCH_KEY)
        .expect("bench zero_page");
    engine_ref
        .write_ref(&mut mem_ref, pa, BENCH_KEY, &zero)
        .expect("bench write_ref");
    let (mut raw, mut raw_ref) = (vec![0u8; 4096], vec![0u8; 4096]);
    mem.read(pa, &mut raw).expect("raw read");
    mem_ref.read(pa, &mut raw_ref).expect("raw read");
    assert_eq!(
        raw, raw_ref,
        "zero_page must store the zero write's ciphertext"
    );
    engine
        .read_ref(&mut mem, pa, BENCH_KEY, &mut back)
        .expect("zeroed page verifies");
    assert_eq!(back, zero);
    let opt = bench("mktme_zero_page", n, 4096, || {
        engine
            .zero_page(&mut mem, black_box(pa.ppn()), BENCH_KEY)
            .expect("bench zero_page");
    });
    let base = bench("mktme_zero_page_ref", n, 4096, || {
        engine_ref
            .write_ref(&mut mem_ref, black_box(pa), BENCH_KEY, black_box(&zero))
            .expect("bench write_ref");
    });
    rows.push(PerfBench::from_timings(
        "mktme_zero_page",
        opt.ns_per_iter,
        4096,
        Some(base.ns_per_iter),
    ));
}

fn ptw_bench(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Translate 8 pages with the TLB flushed per pass: warm walk cache vs
    // fully cold walks (the pre-PR behaviour, where every walk read all
    // three levels).
    let n = iters(cfg, 2_000, 50);
    let pages = 8u64;
    let base_va = VirtAddr(0x40_0000);
    // One identical (memory system, MMU) pair per arm so the batches can
    // interleave: the warm arm keeps its walk cache, the cold arm runs the
    // pre-walk-cache trajectory via the bypass flag.
    let setup = || {
        let mut sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
        let mut alloc = FrameAllocator::new(Ppn(64), Ppn(16000));
        let pt = PageTable::new(&mut alloc, &mut sys.phys);
        for i in 0..pages {
            let frame = alloc.alloc().expect("bench frame");
            pt.map(
                VirtAddr(base_va.0 + i * PAGE_SIZE),
                frame,
                Perms::RW,
                KeyId::HOST,
                &mut alloc,
                &mut sys.phys,
            )
            .expect("bench map");
        }
        let mut mmu = CoreMmu::new(32);
        mmu.switch_table(Some(pt), false);
        (sys, mmu)
    };
    let (mut sys, mut mmu) = setup();
    let (mut sys_cold, mut mmu_cold) = setup();
    mmu_cold.walk_cache.bypass = true; // pre-walk-cache trajectory

    let (opt, base) = bench_pair(
        "ptw_translate_walk",
        "ptw_translate_walk_cold",
        n,
        0,
        || {
            mmu.tlb.flush_all(); // force walks, keep the walk cache warm
            for i in 0..pages {
                black_box(
                    mmu.load_u64(&mut sys, VirtAddr(base_va.0 + i * PAGE_SIZE))
                        .expect("bench walk"),
                );
            }
        },
        || {
            mmu_cold.flush_translations();
            for i in 0..pages {
                black_box(
                    mmu_cold
                        .load_u64(&mut sys_cold, VirtAddr(base_va.0 + i * PAGE_SIZE))
                        .expect("bench walk"),
                );
            }
        },
    );
    rows.push(PerfBench::from_timings(
        "ptw_translate_walk",
        opt.ns_per_iter / pages as f64,
        0,
        Some(base.ns_per_iter / pages as f64),
    ));
}

fn memstream_pass(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Pointer-chase through encrypted enclave memory: the full
    // TLB → PTW → MKTME data plane per step. The reference arm rides the
    // same translations but the byte-for-byte MKTME spec data plane.
    let slots = 4096usize; // 32 KiB of u64 slots = 8 pages
    let steps = 2048usize;
    let n = iters(cfg, 10, 3);
    let chain = memstream::build_chain(slots, 0xfeed_5eed);

    let mut sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
    sys.engine.program_key(BENCH_KEY, &[3; 16], &[4; 32]);
    let mut alloc = FrameAllocator::new(Ppn(64), Ppn(16000));
    let pt = PageTable::new(&mut alloc, &mut sys.phys);
    let base_va = VirtAddr(0x80_0000);
    for i in 0..(slots as u64 * 8 / PAGE_SIZE) {
        let frame = alloc.alloc().expect("bench frame");
        sys.bitmap.set(frame, true, &mut sys.phys).expect("bitmap");
        pt.map(
            VirtAddr(base_va.0 + i * PAGE_SIZE),
            frame,
            Perms::RW,
            BENCH_KEY,
            &mut alloc,
            &mut sys.phys,
        )
        .expect("bench map");
    }
    let mut mmu = CoreMmu::new(32);
    mmu.switch_table(Some(pt), true);
    for (i, &next) in chain.iter().enumerate() {
        mmu.store_u64(
            &mut sys,
            VirtAddr(base_va.0 + i as u64 * 8),
            u64::from(next),
        )
        .expect("seed chain");
    }

    let chase = |mmu: &mut CoreMmu, sys: &mut MemorySystem| {
        let mut idx = 0u64;
        for _ in 0..steps {
            idx = mmu
                .load_u64(sys, VirtAddr(base_va.0 + idx * 8))
                .expect("chase");
        }
        idx
    };
    let r = bench("memstream_pass", n, steps as u64 * 8, || {
        black_box(chase(&mut mmu, &mut sys));
    });
    mmu.data_path_ref = true;
    let base = bench("memstream_pass_ref", n, steps as u64 * 8, || {
        black_box(chase(&mut mmu, &mut sys));
    });
    mmu.data_path_ref = false;
    assert_eq!(
        chase(&mut mmu, &mut sys),
        {
            mmu.data_path_ref = true;
            chase(&mut mmu, &mut sys)
        },
        "data planes must agree"
    );
    rows.push(PerfBench::from_timings(
        "memstream_pass",
        r.ns_per_iter,
        steps as u64 * 8,
        Some(base.ns_per_iter),
    ));
}

fn wolfssl_pass(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Full TLS-style session: handshake + 4 encrypted 1 KiB records. The
    // AES-CTR record path rides the optimized kernels; the reference arm
    // runs the same session on the spec CTR baseline (bit-identical
    // transcript, asserted below).
    let records = 4usize;
    let record_len = 1024usize;
    let n = iters(cfg, 10, 3);
    let (r, base) = bench_pair(
        "wolfssl_pass",
        "wolfssl_pass_ref",
        n,
        (records * record_len) as u64,
        || {
            let s = wolfssl::run_session(0x5e55_10eb, records, record_len);
            assert!(s.cert_ok, "handshake must verify");
            black_box(s.transcript);
        },
        || {
            let s = wolfssl::run_session_ref(0x5e55_10eb, records, record_len);
            assert!(s.cert_ok, "handshake must verify");
            black_box(s.transcript);
        },
    );
    assert_eq!(
        wolfssl::run_session(0x5e55_10eb, records, record_len),
        wolfssl::run_session_ref(0x5e55_10eb, records, record_len),
        "CTR kernels must agree"
    );
    rows.push(PerfBench::from_timings(
        "wolfssl_pass",
        r.ns_per_iter,
        (records * record_len) as u64,
        Some(base.ns_per_iter),
    ));
}

/// CS harts driven by the pump benchmark rows (SocConfig default).
const PUMP_HARTS: usize = 4;

/// Boots a machine with one enclave per CS hart for the pump rows. The
/// harts stay outside their enclaves: the storm replays OS-privilege
/// `EMEAS` calls, which read the measurement without mutating enclave
/// state, so one machine can be reused across timed iterations.
fn pump_tenants() -> (Machine, Vec<u64>) {
    let mut m = Machine::boot_default();
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 32K\nhost_shared = 16K").expect("manifest");
    let eids = (0..PUMP_HARTS)
        .map(|h| {
            let image = format!("pump tenant {h}");
            m.create_enclave(h, &manifest, image.as_bytes())
                .expect("bench create")
                .0
        })
        .collect();
    (m, eids)
}

/// Drains every collectable completion into `digest` (id, hart, outcome,
/// latency, attempts — the same fields the differential suite compares).
fn pump_drain(m: &mut Machine, digest: &mut u64) {
    for done in m.drain_completions() {
        fnv1a_words(
            digest,
            &[
                done.call.id,
                done.hart_id as u64,
                if done.result.is_ok() { 1 } else { 2 },
                done.latency.0,
                done.attempts as u64,
            ],
        );
    }
}

/// Pumps until the pipeline is idle, folding completions as they land.
fn pump_to_idle(m: &mut Machine, digest: &mut u64) {
    for _ in 0..500_000u32 {
        if m.pipeline_stats().in_flight == 0 {
            return;
        }
        m.pump();
        pump_drain(m, digest);
    }
    panic!("pump bench failed to drain: {:?}", m.pipeline_stats());
}

/// One churn batch: `calls` EMEAS submissions round-robined across the
/// harts up front, then pump to drain. With the whole batch in flight and
/// asleep on the timer wheel, the scan oracle walks every call each round
/// while the event pump touches only the handful the EMS woke.
fn pump_churn_batch(m: &mut Machine, eids: &[u64], calls: usize) -> u64 {
    let mut digest = FNV_OFFSET;
    for i in 0..calls {
        let h = i % PUMP_HARTS;
        m.submit_as(h, Privilege::Os, Primitive::Emeas, vec![eids[h]], vec![])
            .expect("bench submit");
    }
    pump_to_idle(m, &mut digest);
    digest
}

/// One fleet round-trip: an open-loop storm that tops the pipeline back up
/// to `live` in-flight EMEAS calls every round for `rounds` rounds, then
/// drains the tail.
fn pump_fleet_storm(m: &mut Machine, eids: &[u64], rounds: u64, live: usize) -> u64 {
    let mut digest = FNV_OFFSET;
    let mut next_hart = 0usize;
    for _ in 0..rounds {
        while m.pipeline_stats().in_flight < live {
            let h = next_hart % PUMP_HARTS;
            m.submit_as(h, Privilege::Os, Primitive::Emeas, vec![eids[h]], vec![])
                .expect("bench submit");
            next_hart += 1;
        }
        m.pump();
        pump_drain(m, &mut digest);
    }
    pump_to_idle(m, &mut digest);
    digest
}

fn pump_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Control-plane scheduler rows (DESIGN.md §15): the event-driven pump
    // (ready queues + timer wheel) against the retained O(n) scan oracle.
    // Both arms run the identical storm; the traces are proven equal on
    // fresh machines before any clock starts, so the timed delta is pure
    // scheduler overhead.
    let churn_calls = iters(cfg, 1_024, 128) as usize;
    let fleet_live = iters(cfg, 1_200, 256) as usize;
    let fleet_rounds = iters(cfg, 400, 60) as u64;

    // pump_churn: a full batch submitted up front, pumped to drain.
    {
        let (mut fresh_evt, eids) = pump_tenants();
        let (mut fresh_scan, scan_eids) = pump_tenants();
        fresh_scan.set_scan_scheduler(true);
        assert_eq!(
            pump_churn_batch(&mut fresh_evt, &eids, churn_calls),
            pump_churn_batch(&mut fresh_scan, &scan_eids, churn_calls),
            "pump flavours diverged on the churn batch"
        );

        let n = iters(cfg, 6, 2);
        let (mut evt, eids) = pump_tenants();
        let (mut scan, scan_eids) = pump_tenants();
        scan.set_scan_scheduler(true);
        let (opt, base) = bench_pair(
            "pump_churn_1k",
            "pump_churn_1k_scan",
            n,
            0,
            || {
                black_box(pump_churn_batch(&mut evt, &eids, churn_calls));
            },
            || {
                black_box(pump_churn_batch(&mut scan, &scan_eids, churn_calls));
            },
        );
        rows.push(PerfBench::from_timings(
            "pump_churn_1k",
            opt.ns_per_iter / churn_calls as f64,
            0,
            Some(base.ns_per_iter / churn_calls as f64),
        ));
    }

    // fleet_wallclock: sustained open-loop load under a light fault
    // campaign — the ISSUE's fleet-throughput headline (≥3x at 1,000+
    // live sessions).
    {
        let plan = FaultPlan::new(0xF1EE_75ED, FaultConfig::light());
        let (mut fresh_evt, eids) = pump_tenants();
        fresh_evt.arm_faults(&plan);
        let (mut fresh_scan, scan_eids) = pump_tenants();
        fresh_scan.arm_faults(&plan);
        fresh_scan.set_scan_scheduler(true);
        assert_eq!(
            pump_fleet_storm(&mut fresh_evt, &eids, fleet_rounds, fleet_live),
            pump_fleet_storm(&mut fresh_scan, &scan_eids, fleet_rounds, fleet_live),
            "pump flavours diverged on the fleet storm"
        );

        let n = iters(cfg, 3, 1);
        let (mut evt, eids) = pump_tenants();
        evt.arm_faults(&plan);
        let (mut scan, scan_eids) = pump_tenants();
        scan.arm_faults(&plan);
        scan.set_scan_scheduler(true);
        let (opt, base) = bench_pair(
            "fleet_wallclock_1200",
            "fleet_wallclock_1200_scan",
            n,
            0,
            || {
                black_box(pump_fleet_storm(&mut evt, &eids, fleet_rounds, fleet_live));
            },
            || {
                black_box(pump_fleet_storm(
                    &mut scan,
                    &scan_eids,
                    fleet_rounds,
                    fleet_live,
                ));
            },
        );
        rows.push(PerfBench::from_timings(
            "fleet_wallclock_1200",
            opt.ns_per_iter / fleet_rounds as f64,
            0,
            Some(base.ns_per_iter / fleet_rounds as f64),
        ));
    }
}

/// Boots a fresh machine, runs `image` as an enclave program under `mode`,
/// and returns `(exit_code, hart_clock_cycles)`.
fn run_interp(image: &[u8], mode: InterpMode, max_steps: u64) -> (u64, u64) {
    let mut m = Machine::boot_default();
    m.interp = mode;
    let manifest =
        EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").expect("manifest");
    let e = m.create_enclave(0, &manifest, image).expect("bench create");
    m.enter(0, e).expect("bench enter");
    let code = match m.run_enclave_program(0, max_steps).expect("bench run") {
        RunOutcome::Exited { code, .. } => code,
        other => panic!("interp bench did not exit: {other:?}"),
    };
    (code, m.hart_clock(0).0)
}

fn interp_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Decoded-block interpreter vs the seed fetch-decode-execute oracle
    // (`Cpu::step_ref`), over the two workload-pass shapes the report
    // already tracks: a memstream-style pointer chase and a wolfSSL-style
    // record-XOR pipeline, assembled as real enclave programs. Both modes
    // run in the same process on the same host; before timing, exit codes
    // and simulated hart clocks are asserted bit-identical — the fast path
    // must change wall-clock only, never architecture or charges.
    let max_steps = 10_000_000;
    let (nodes, hops) = if cfg.smoke { (64, 256) } else { (256, 8192) };
    let (records, passes) = if cfg.smoke { (1, 1) } else { (4, 16) };
    let specs: [(&str, Vec<u8>, u64, u64); 2] = [
        (
            "interp_memstream_pass",
            programs::chase(nodes, hops),
            hops as u64 * 8,
            programs::chase_reference(nodes, hops),
        ),
        (
            "interp_wolfssl_pass",
            programs::record_xor(records, passes),
            records as u64 * 1024 * passes as u64,
            programs::record_xor_reference(records, passes),
        ),
    ];
    let n = iters(cfg, 8, 2);
    for (name, image, bytes, expected) in specs {
        let (fast_code, fast_clock) = run_interp(&image, InterpMode::Fast, max_steps);
        let (ref_code, ref_clock) = run_interp(&image, InterpMode::Reference, max_steps);
        assert_eq!(
            fast_code, expected,
            "{name}: fast path computed wrong result"
        );
        assert_eq!(
            ref_code, expected,
            "{name}: reference path computed wrong result"
        );
        assert_eq!(
            fast_clock, ref_clock,
            "{name}: cycle charges diverge between interpreter modes"
        );
        let opt = bench(name, n, bytes, || {
            black_box(run_interp(black_box(&image), InterpMode::Fast, max_steps));
        });
        let base = bench(&format!("{name}_ref"), n, bytes, || {
            black_box(run_interp(
                black_box(&image),
                InterpMode::Reference,
                max_steps,
            ));
        });
        rows.push(PerfBench::from_timings(
            name,
            opt.ns_per_iter,
            bytes,
            Some(base.ns_per_iter),
        ));
    }
}

/// Jobs per fan-out row. Fixed so row names stay schema-stable; only the
/// worker-pool width (`--threads`) varies.
const FANOUT: usize = 4;

/// Seed for the scaling rows; per-job streams derive from it.
const THREADS_SEED: u64 = 0xBE4C_5EED;

fn threads_wallclock_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Wall-clock fan-out of four independent multi-hart lockstep campaigns
    // (real machine vs reference model, §PR 3): sequential baseline and
    // pooled run measured back to back in the same process. This is the
    // honest host-parallelism number — on a single-core container it is
    // ~1x, and the report says so rather than inventing scaling.
    let n = iters(cfg, 3, 1);
    let cmds = iters(cfg, 96, 24) as usize;
    let run_fanout = |threads: usize| {
        let seeds: Vec<u64> = (0..FANOUT as u64)
            .map(|i| derive_stream(THREADS_SEED, i))
            .collect();
        let outcomes = par_run(seeds, threads, |_, seed| {
            let commands = generate(seed, cmds, 4);
            run_campaign(&Campaign::new(seed), &commands)
        });
        let mut executed = 0u64;
        for o in &outcomes {
            assert!(
                !o.diverged(),
                "lockstep fan-out diverged: {:?}",
                o.divergence
            );
            executed += o.executed as u64;
        }
        executed
    };
    let opt = bench("threads_lockstep_x4", n, 0, || {
        black_box(run_fanout(cfg.threads));
    });
    let base = bench("threads_lockstep_x4_seq", n, 0, || {
        black_box(run_fanout(1));
    });
    rows.push(PerfBench::from_timings(
        "threads_lockstep_x4",
        opt.ns_per_iter,
        0,
        Some(base.ns_per_iter),
    ));

    // Wall-clock fan-out of four independent wolfSSL workload passes
    // (handshake + 4 encrypted 1 KiB records each).
    let records = 4usize;
    let record_len = 1024usize;
    let n = iters(cfg, 6, 2);
    let run_fanout = |threads: usize| {
        let seeds: Vec<u64> = (0..FANOUT as u64)
            .map(|i| derive_stream(THREADS_SEED ^ 0x77, i))
            .collect();
        let sessions = par_run(seeds, threads, |_, seed| {
            wolfssl::run_session(seed, records, record_len)
        });
        for s in &sessions {
            assert!(s.cert_ok, "fan-out handshake must verify");
        }
        sessions.len()
    };
    let opt = bench(
        "threads_wolfssl_x4",
        n,
        (FANOUT * records * record_len) as u64,
        || {
            black_box(run_fanout(cfg.threads));
        },
    );
    let base = bench(
        "threads_wolfssl_x4_seq",
        n,
        (FANOUT * records * record_len) as u64,
        || {
            black_box(run_fanout(1));
        },
    );
    rows.push(PerfBench::from_timings(
        "threads_wolfssl_x4",
        opt.ns_per_iter,
        (FANOUT * records * record_len) as u64,
        Some(base.ns_per_iter),
    ));
}

/// Runs `f` on every shard of a fresh 4-shard machine and returns
/// `(sum, max)` of the per-shard simulated clocks: the sequential-schedule
/// cost and the parallel-composition makespan, in cycles.
fn sharded_simclock<F>(cfg: &ReportArgs, salt: u64, f: F) -> (u64, u64)
where
    F: Fn(&mut hypertee::shard::ShardDomain) + Sync,
{
    let spec = ShardSpec::new(FANOUT, cfg.threads, THREADS_SEED ^ salt);
    let mut m = ShardedMachine::boot(spec).expect("shard boot");
    m.par_map(|d| f(d));
    let audit = m.audit_all().expect("post-workload shard audit");
    assert_eq!(audit.audits.len(), FANOUT);
    let sum: u64 = m.domains().iter().map(|d| d.machine.clock.0).sum();
    (sum, m.merged_clock().0)
}

fn threads_simclock_benches(cfg: &ReportArgs, rows: &mut Vec<PerfBench>) {
    // Deterministic simulated-clock scaling rows: both numbers are cycle
    // counts from the sharded machine (not nanoseconds), so the recorded
    // speedup — sequential schedule over parallel makespan — is a property
    // of the shard composition, identical on any host. Shards carry
    // deliberately unequal session counts so the makespan is set by the
    // heaviest shard, not by a trivially balanced split.
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let sessions = iters(cfg, 6, 2) as usize;
    let (sum, max) = sharded_simclock(cfg, 0x51, |d| {
        for s in 0..sessions + (d.shard_id & 1) {
            let image = [d.shard_id as u8, s as u8, 0x5a];
            let e = d
                .machine
                .create_enclave(0, &manifest, &image)
                .expect("shard create");
            d.machine.enter(0, e).expect("shard enter");
            let quote = d
                .machine
                .attest(0, e, b"threads-bench")
                .expect("shard attest");
            black_box(quote);
            d.machine.exit(0).expect("shard exit");
            d.machine.destroy(0, e).expect("shard destroy");
        }
    });
    rows.push(PerfBench::from_timings(
        "threads_simclock_enclave_x4",
        max as f64,
        0,
        Some(sum as f64),
    ));

    // Same shape over the paging path: each shard grows one enclave's heap,
    // writes enclave memory through the encrypted data plane, and evicts
    // pages with EWB.
    let pages = iters(cfg, 24, 8) as u64;
    let (sum, max) = sharded_simclock(cfg, 0x52, |d| {
        let image = [d.shard_id as u8, 0xe1];
        let e = d
            .machine
            .create_enclave(0, &manifest, &image)
            .expect("shard create");
        d.machine.enter(0, e).expect("shard enter");
        let extra = (d.shard_id & 1) as u64 * 4;
        let va = d
            .machine
            .ealloc(0, (pages + extra) * 4096)
            .expect("shard ealloc");
        for p in 0..pages + extra {
            let word = (0x5eed_u64 ^ p).to_le_bytes();
            d.machine
                .enclave_store(0, VirtAddr(va.0 + p * PAGE_SIZE), &word)
                .expect("shard store");
        }
        let evicted = d.machine.ewb(0, 4).expect("shard ewb");
        black_box(evicted);
        d.machine.exit(0).expect("shard exit");
    });
    rows.push(PerfBench::from_timings(
        "threads_simclock_paging_x4",
        max as f64,
        0,
        Some(sum as f64),
    ));
}

fn run(cfg: &ReportArgs) -> Result<(), String> {
    let mut rows = Vec::new();
    crypto_benches(cfg, &mut rows);
    mktme_bench(cfg, &mut rows);
    ptw_bench(cfg, &mut rows);
    memstream_pass(cfg, &mut rows);
    wolfssl_pass(cfg, &mut rows);
    pump_benches(cfg, &mut rows);
    interp_benches(cfg, &mut rows);
    threads_wallclock_benches(cfg, &mut rows);
    threads_simclock_benches(cfg, &mut rows);

    let report = PerfReport {
        mode: if cfg.smoke { "smoke" } else { "full" }.to_string(),
        threads: Some(cfg.threads as u64),
        benches: rows,
    };
    let json = report.to_json();
    validate(&json).map_err(|e| format!("emitted report failed validation: {e}"))?;
    std::fs::write(&cfg.out, &json).map_err(|e| format!("writing {}: {e}", cfg.out))?;

    println!("\nwrote {} ({} benches)", cfg.out, report.benches.len());
    for b in &report.benches {
        if let Some(s) = b.speedup {
            println!("  {:24} {s:>6.2}x vs reference", b.name);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut defaults = ReportArgs::new(0, "BENCH_perf.json");
    defaults.threads = 4;
    let cfg = match defaults.parse(&["--smoke", "--threads", "--out", "--check"]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_report: {e}");
            eprintln!("usage: bench_report [--smoke] [--threads N] [--out PATH] | --check PATH");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cfg.check {
        return check_file(path, validate);
    }

    match run(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_report failed: {e}");
            ExitCode::FAILURE
        }
    }
}
