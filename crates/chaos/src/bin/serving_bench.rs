//! Serving benchmark runner: the attestation-storm campaign, emitting the
//! schema-stable `BENCH_serving.json` (see `hypertee_chaos::serving_report`).
//!
//! The full campaign layers thousands of challenge-response handshakes and
//! authenticated calls — with seeded service-transport faults (dropped /
//! duplicated / delayed / replayed frames, stale-quote substitution, token
//! forgery) — on top of the fleet chaos campaign, through scripted EMS
//! crash-restarts and live migrations. The run fails unless the facade
//! refused **every** attack, the consistency audit and lockstep verdicts
//! stayed green, and the identical seed reproduces a bit-identical trace.
//!
//! ```text
//! serving_bench [--smoke] [--seed N] [--out PATH]   # run + emit
//! serving_bench --ref-pump [...]                    # scan-scheduler oracle
//! serving_bench --check PATH                        # validate a report
//! ```

use std::process::ExitCode;
use std::time::Instant;

use hypertee_bench::report::{check_file, ReportArgs};
use hypertee_chaos::campaign::{run, ChaosConfig};
use hypertee_chaos::report::finish_run;
use hypertee_chaos::serving_report::{render_serving_report, validate_serving};

fn main() -> ExitCode {
    let takes = ["--smoke", "--ref-pump", "--seed", "--out", "--check"];
    let cli = match ReportArgs::new(0x5E11_F00D, "BENCH_serving.json").parse(&takes) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serving_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &cli.check {
        return check_file(path, validate_serving);
    }

    let mut cfg = if cli.smoke {
        ChaosConfig::serving_smoke(cli.seed)
    } else {
        ChaosConfig::serving_fleet(cli.seed)
    };
    cfg.ref_pump = cli.ref_pump;
    let storm_cfg = cfg.storm.clone().expect("serving presets carry a storm");
    eprintln!(
        "serving_bench: mode={} seed={:#x} clients={} target {} handshakes \
         over {} sessions ({} crashes, {} migrations)",
        cfg.label,
        cfg.seed,
        storm_cfg.clients,
        storm_cfg.clients * storm_cfg.handshakes_per_client as usize,
        cfg.traffic.sessions,
        cfg.scripted_crashes,
        cfg.migrations
    );
    // Wall-clock timing is observability only: stderr, never the report.
    let started = Instant::now();
    let out = run(&cfg);
    // Determinism gate: the identical seed must reproduce the identical
    // event stream — storm, faults, and attacks included — bit for bit.
    let replay = run(&cfg);
    if replay.trace_hash != out.trace_hash {
        eprintln!(
            "serving_bench: NON-DETERMINISTIC: trace {:#x} != replay {:#x}",
            out.trace_hash, replay.trace_hash
        );
        return ExitCode::FAILURE;
    }
    let storm = out.storm.as_ref().expect("storm campaign yields a storm");
    eprintln!(
        "serving_bench: {} handshakes attempted, {} completed, {} calls ok, \
         {} re-attestations, {} service faults, {} attacks accepted, \
         breaker open/half/closed = {}/{}/{}, p50/p99 = {}/{} ticks ({:.2}s wall)",
        storm.handshakes_attempted,
        storm.handshakes_completed,
        storm.calls_ok,
        storm.reattestations,
        storm.service_faults_injected,
        storm.accepted_attacks(),
        storm.breaker_to_open,
        storm.breaker_to_half_open,
        storm.breaker_to_closed,
        storm.handshake_p50_ticks,
        storm.handshake_p99_ticks,
        started.elapsed().as_secs_f64(),
    );
    let mut red = Vec::new();
    if storm.accepted_attacks() > 0 {
        let served = storm.accepted_attacks();
        red.push(format!("FAIL-CLOSED VIOLATED: {served} attacks served"));
    }
    // Acceptance floors for the committed serving campaign: a real storm
    // (1,000+ handshakes) under a real fault campaign (1,000+
    // service-transport injections).
    let floors = [
        ("handshakes", storm.handshakes_attempted, 1_000),
        ("service faults", storm.service_faults_injected, 1_000),
    ];
    let floors = if cli.smoke { &[][..] } else { &floors[..] };
    let text = render_serving_report(&out);
    finish_run(
        "serving_bench",
        &out,
        &text,
        &cli.out,
        validate_serving,
        floors,
        red,
    )
}
