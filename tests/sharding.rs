//! Parallel-determinism tests for the sharded execution refactor: fixed
//! logical shards, variable physical threads. The shard count is seeded
//! configuration; `threads` only sizes the worker pool, so every observable
//! — merged chaos outcome, rendered `BENCH_chaos.json` text, lockstep
//! verdicts, audit verdicts — must be bit-identical at 1/2/4/8 threads.

use hypertee_repro::chaos::campaign::ChaosConfig;
use hypertee_repro::chaos::report::render_sharded_report;
use hypertee_repro::chaos::sharded::{run_sharded, shard_config, ShardedChaosConfig};
use hypertee_repro::crypto::util::{fnv1a_words, FNV_OFFSET};
use hypertee_repro::hypertee::machine::MachineError;
use hypertee_repro::hypertee::shard::{
    assert_send, par_run, BarrierReport, ShardDomain, ShardPumpReport, ShardSpec, ShardedMachine,
};
use hypertee_repro::hypertee::EnclaveManifest;
use hypertee_repro::mem::addr::{Ppn, PAGE_SIZE};
use hypertee_repro::mem::partition::{MemPartition, PartitionError};
use hypertee_repro::model::harness::{run_campaign, Campaign};
use hypertee_repro::model::ops::generate;
use hypertee_repro::sim::rng::derive_stream;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A chaos campaign small enough for debug-mode CI but still exercising
/// faults, crash-restarts, migrations, and a lockstep round per shard.
fn small_base(seed: u64) -> ChaosConfig {
    let mut base = ChaosConfig::smoke(seed);
    base.traffic.sessions = 48;
    base.traffic.max_live = 12;
    base.scripted_crashes = 1;
    base.migrations = 2;
    base.lockstep_rounds = 1;
    base.lockstep_commands = 24;
    base
}

#[test]
fn shard_payload_types_are_send() {
    // Compile-time: the domain and every barrier-merge payload must cross
    // the pool boundary. (The same bounds are also asserted in
    // `hypertee::shard` itself; this pins them at the workspace surface.)
    assert_send::<ShardDomain>();
    assert_send::<ShardPumpReport>();
    assert_send::<BarrierReport>();
    assert_send::<ShardedMachine>();
}

#[test]
fn sharded_chaos_campaign_is_identical_at_every_thread_width() {
    let base = small_base(0x5A4D_0001);
    let mut outcomes = Vec::new();
    let mut reports = Vec::new();
    for threads in WIDTHS {
        let out = run_sharded(&ShardedChaosConfig {
            base: base.clone(),
            shards: 4,
            threads,
        });
        assert!(
            out.merged.audit_ok,
            "threads={threads}: audit must stay green: {:?}",
            out.merged.first_audit_error
        );
        assert!(
            out.merged.lockstep_ok,
            "threads={threads}: lockstep must stay green: {:?}",
            out.merged.first_divergence
        );
        reports.push(render_sharded_report(&out));
        outcomes.push(out);
    }
    for (i, threads) in WIDTHS.iter().enumerate().skip(1) {
        assert_eq!(
            outcomes[0].merged.trace_hash, outcomes[i].merged.trace_hash,
            "merged trace hash must not depend on threads={threads}"
        );
        assert_eq!(
            outcomes[0].merged, outcomes[i].merged,
            "every merged counter must be identical at threads={threads}"
        );
        assert_eq!(
            outcomes[0].per_shard, outcomes[i].per_shard,
            "per-shard outcomes must be identical at threads={threads}"
        );
        assert_eq!(
            reports[0], reports[i],
            "rendered BENCH_chaos.json must be byte-identical at threads={threads}"
        );
    }
}

#[test]
fn shard_configs_derive_decorrelated_seeds_and_partition_the_load() {
    let base = small_base(0xDEC0_0002);
    let per: Vec<ChaosConfig> = (0..4).map(|s| shard_config(&base, 4, s)).collect();
    let total: usize = per.iter().map(|c| c.traffic.sessions).sum();
    assert_eq!(total, base.traffic.sessions, "sessions must split exactly");
    for (s, cfg) in per.iter().enumerate() {
        assert_eq!(cfg.seed, derive_stream(base.seed, s as u64));
        assert!(cfg.traffic.max_live >= 1);
    }
    let mut seeds: Vec<u64> = per.iter().map(|c| c.seed).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), 4, "per-shard seeds must be distinct");
}

#[test]
fn lockstep_campaign_fanout_is_identical_at_every_thread_width() {
    // Four independent multi-hart lockstep campaigns against the reference
    // model, fanned out over the pool: the folded verdicts must not depend
    // on the worker width, and no width may surface a divergence.
    let fold = |threads: usize| -> u64 {
        let seeds: Vec<u64> = (0..4u64).map(|i| derive_stream(0x10C4_0003, i)).collect();
        let outcomes = par_run(seeds, threads, |_, seed| {
            let commands = generate(seed, 32, 4);
            run_campaign(&Campaign::new(seed), &commands)
        });
        let mut hash = FNV_OFFSET;
        for o in &outcomes {
            assert!(!o.diverged(), "model diverged: {:?}", o.divergence);
            let row = [
                o.executed,
                o.completions,
                o.ok_responses,
                o.rejections,
                o.checkpoints,
            ];
            fnv1a_words(&mut hash, &row.map(|v| v as u64));
        }
        hash
    };
    let reference = fold(1);
    for threads in WIDTHS {
        assert_eq!(
            fold(threads),
            reference,
            "lockstep fan-out verdicts must be identical at threads={threads}"
        );
    }
}

#[test]
fn overlapping_partitions_cannot_boot() {
    let spec = ShardSpec::new(2, 1, 0xBAD_0004);
    let frames = spec.soc.phys_mem_bytes / PAGE_SIZE;
    let parts = vec![
        MemPartition {
            shard_id: 0,
            base: Ppn(0),
            frames,
        },
        MemPartition {
            shard_id: 1,
            base: Ppn(frames / 2), // overlaps shard 0's tail
            frames,
        },
    ];
    match ShardedMachine::boot_with_partitions(spec, parts) {
        Err(MachineError::Partition(PartitionError::Overlap(0, 1))) => {}
        other => panic!("overlapping partitions must be rejected, got {other:?}"),
    }
}

#[test]
fn sharded_machine_workload_audits_green_and_merges_deterministically() {
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let run_width = |threads: usize| {
        let mut m = ShardedMachine::boot(ShardSpec::new(4, threads, 0xF1E7_0005)).expect("boot");
        m.par_map(|d| {
            let image = [d.shard_id as u8, 0xaa];
            let e = d
                .machine
                .create_enclave(0, &manifest, &image)
                .expect("create");
            d.machine.enter(0, e).expect("enter");
            let quote = d.machine.attest(0, e, b"sharding-test").expect("attest");
            assert!(quote.verify(&d.machine.ek_public()));
            d.machine.exit(0).expect("exit");
        });
        let barrier = m.pump_barrier();
        assert_eq!(barrier.per_shard.len(), 4);
        for (i, r) in barrier.per_shard.iter().enumerate() {
            assert_eq!(r.shard_id, i, "barrier merge must be in shard order");
        }
        assert_eq!(barrier.clock, m.merged_clock());
        let audit = m.audit_all().expect("audit must stay green");
        assert_eq!(audit.audits.len(), 4);
        let clocks: Vec<u64> = m.domains().iter().map(|d| d.machine.clock.0).collect();
        let stats = m.merged_stats();
        (clocks, stats)
    };
    let reference = run_width(1);
    for threads in WIDTHS {
        assert_eq!(
            run_width(threads),
            reference,
            "shard clocks and merged stats must be identical at threads={threads}"
        );
    }
}
