//! Chaos campaign runner: seeded fault campaigns under live open-loop
//! traffic, emitting the schema-stable `BENCH_chaos.json` (see
//! `hypertee_chaos::report`).
//!
//! The full campaign drives ≥ 10,000 requests across ≥ 1,000 enclaves
//! with live faults, scripted EMS crash-restarts, and mid-traffic CVM
//! migrations, then re-runs the same seed and insists on a bit-identical
//! trace hash. `--smoke` is the seconds-scale CI slice with the same
//! structure and the same determinism check.
//!
//! ```text
//! chaos_campaign [--smoke] [--seed N] [--out PATH]   # run + emit
//! chaos_campaign --ref-pump [...]                    # scan-scheduler oracle
//! chaos_campaign --shards 4 --threads 4 [...]        # sharded campaign
//! chaos_campaign --check PATH                        # validate a report
//! ```
//!
//! `--shards` fixes the logical split (part of the seeded configuration);
//! `--threads` only sizes the worker pool, so the emitted report is
//! byte-identical at any thread count. Wall-clock timing goes to stderr
//! and never into the report.

use std::process::ExitCode;
use std::time::Instant;

use hypertee_bench::report::{check_file, ReportArgs};
use hypertee_chaos::campaign::{run, ChaosConfig, ChaosOutcome};
use hypertee_chaos::report::{finish_run, render_report, render_sharded_report, validate};
use hypertee_chaos::sharded::{run_sharded, ShardedChaosConfig};

fn main() -> ExitCode {
    let takes = [
        "--smoke",
        "--ref-pump",
        "--seed",
        "--out",
        "--check",
        "--shards",
        "--threads",
    ];
    let cli = match ReportArgs::new(0xC4A0_5EED, "BENCH_chaos.json").parse(&takes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos_campaign: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &cli.check {
        return check_file(path, validate);
    }

    let mut cfg = if cli.smoke {
        ChaosConfig::smoke(cli.seed)
    } else {
        ChaosConfig::fleet(cli.seed)
    };
    cfg.ref_pump = cli.ref_pump;
    eprintln!(
        "chaos_campaign: mode={} seed={:#x} sessions={} shards={} threads={} \
         (faults, {} crashes, {} migrations)",
        cfg.label,
        cfg.seed,
        cfg.traffic.sessions,
        cli.shards,
        cli.threads,
        cfg.scripted_crashes,
        cfg.migrations
    );
    // Wall-clock timing is observability only: it goes to stderr, never
    // into the report, which stays byte-identical at any --threads width.
    let started = Instant::now();
    let (out, text): (ChaosOutcome, String) = if cli.shards > 1 {
        let scfg = ShardedChaosConfig {
            base: cfg.clone(),
            shards: cli.shards,
            threads: cli.threads,
        };
        let sharded = run_sharded(&scfg);
        eprintln!(
            "chaos_campaign: {} shards on {} threads in {:.2}s wall, \
             simulated speedup {:.2}x (sum {} / max {} cycles)",
            sharded.shards,
            sharded.threads,
            started.elapsed().as_secs_f64(),
            sharded.simulated_speedup(),
            sharded.sequential_clock_cycles(),
            sharded.merged.clock_cycles,
        );
        // Determinism gate: the identical seed must reproduce the
        // identical merged event stream at any worker width — replay on
        // one inline thread and insist on a bit-identical hash.
        let mut replay_cfg = scfg.clone();
        replay_cfg.threads = 1;
        let replay = run_sharded(&replay_cfg);
        if replay.merged.trace_hash != sharded.merged.trace_hash {
            eprintln!(
                "chaos_campaign: NON-DETERMINISTIC across widths: trace {:#x} != replay {:#x}",
                sharded.merged.trace_hash, replay.merged.trace_hash
            );
            return ExitCode::FAILURE;
        }
        let text = render_sharded_report(&sharded);
        (sharded.merged, text)
    } else {
        let out = run(&cfg);
        // Determinism gate: the identical seed must reproduce the
        // identical event stream, bit for bit.
        let replay = run(&cfg);
        if replay.trace_hash != out.trace_hash {
            eprintln!(
                "chaos_campaign: NON-DETERMINISTIC: trace {:#x} != replay {:#x}",
                out.trace_hash, replay.trace_hash
            );
            return ExitCode::FAILURE;
        }
        let text = render_report(&out);
        (out, text)
    };
    eprintln!(
        "chaos_campaign: {} requests, {} ok ({} recovered), shed={} expired={} timeouts={}, \
         {} enclaves created, {} crash-restarts, blackout p50/p99 = {}/{} cycles, \
         audits={} ({}), lockstep={}",
        out.requests,
        out.ok_responses,
        out.recovered,
        out.shed,
        out.expired,
        out.timeouts,
        out.enclaves_created,
        out.crash_restarts,
        out.blackout_percentile(50),
        out.blackout_percentile(99),
        out.audits,
        if out.audit_ok { "green" } else { "RED" },
        if out.lockstep_ok { "green" } else { "DIVERGED" },
    );
    // Acceptance floors for the committed fleet campaign.
    let floors = [
        ("requests", out.requests, 10_000),
        ("enclaves", out.enclaves_created, 1_000),
    ];
    let floors = if cli.smoke { &[][..] } else { &floors[..] };
    finish_run(
        "chaos_campaign",
        &out,
        &text,
        &cli.out,
        validate,
        floors,
        Vec::new(),
    )
}
