//! `BENCH_chaos.json`: schema-stable serialization of a campaign outcome,
//! plus the validator `scripts/verify.sh` gates on.
//!
//! `FIELDS` lists every top-level field once; the renderer and the
//! validator both walk it through `hypertee_bench::report`, which also
//! holds the JSON helpers every suite shares. Renaming or removing a key,
//! or bumping [`SCHEMA_VERSION`], is a breaking change and must be called
//! out in the PR description.

use hypertee_bench::report::{
    check_fields, check_slo_cdf, push_slo_cdf, render_fields, req_counter as counter, req_hex_u64,
    Field, Json, Kind::*, AUDIT_OK, LOCKSTEP_OK, STALLED,
};

use std::process::ExitCode;

use crate::campaign::ChaosOutcome;
use crate::sharded::ShardedChaosOutcome;

/// Version of the emitted JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub const SUITE: &str = "hypertee-chaos";

/// The suite's field table, in emission order (after the header).
const FIELDS: &[Field<ChaosOutcome>] = &[
    ("seed", HexU64, |o| o.seed),
    ("trace_hash", HexU64, |o| o.trace_hash),
    ("ticks", Counter, |o| o.ticks),
    ("requests", Counter, |o| o.requests),
    ("completions", Counter, |o| o.completions),
    ("ok_responses", Counter, |o| o.ok_responses),
    ("recovered", Counter, |o| o.recovered),
    ("rejections", Counter, |o| o.rejections),
    ("timeouts", Counter, |o| o.timeouts),
    ("shed", Counter, |o| o.shed),
    ("expired", Counter, |o| o.expired),
    ("retries", Counter, |o| o.retries),
    ("sessions", Counter, |o| o.sessions as u64),
    ("sessions_done", Counter, |o| o.sessions_done as u64),
    ("sessions_failed", Counter, |o| o.sessions_failed as u64),
    ("enclaves_created", Counter, |o| o.enclaves_created),
    ("enclaves_destroyed", Counter, |o| o.enclaves_destroyed),
    ("leaked_enclaves", Counter, |o| o.leaked_enclaves),
    ("reclaimed_enclaves", Counter, |o| o.reclaimed_enclaves),
    ("faults_injected", Counter, |o| o.faults_injected),
    ("crash_restarts", Counter, |o| o.crash_restarts),
    ("crash_dropped_requests", Counter, |o| {
        o.crash_dropped_requests
    }),
    ("queue_depth_hwm", Counter, |o| o.queue_depth_hwm as u64),
    ("in_flight_hwm", Counter, |o| o.in_flight_hwm as u64),
    ("audits", Counter, |o| o.audits),
    ("audit_ok", AUDIT_OK, |o| u64::from(o.audit_ok)),
    ("lockstep_rounds", Counter, |o| u64::from(o.lockstep_rounds)),
    ("lockstep_ok", LOCKSTEP_OK, |o| u64::from(o.lockstep_ok)),
    ("migrations_completed", Counter, |o| {
        u64::from(o.migrations_completed)
    }),
    ("migrations_failed", Counter, |o| {
        u64::from(o.migrations_failed)
    }),
    ("blackout_p50_cycles", Counter, |o| {
        o.blackout_percentile(50)
    }),
    ("blackout_p99_cycles", Counter, |o| {
        o.blackout_percentile(99)
    }),
    ("clock_cycles", Counter, |o| o.clock_cycles),
    ("stalled", STALLED, |o| u64::from(o.stalled)),
];

/// Serializes a campaign outcome as `BENCH_chaos.json`.
pub fn render_report(out: &ChaosOutcome) -> String {
    render(out, None)
}

/// Serializes a *sharded* campaign outcome: the merged counters plus a
/// `sharding` section of per-shard seeds and trace hashes. Every emitted
/// field is deterministic in `(seed, shards)` — the worker-thread count and
/// wall-clock time are deliberately excluded, so reports produced at
/// different `--threads` widths are byte-identical (the parallel-determinism
/// smoke in `scripts/verify.sh` compares them with `cmp`).
pub fn render_sharded_report(out: &ShardedChaosOutcome) -> String {
    render(&out.merged, Some(out))
}

fn render(out: &ChaosOutcome, sharding: Option<&ShardedChaosOutcome>) -> String {
    let mut s = render_fields(SCHEMA_VERSION, SUITE, out.label, FIELDS, out);
    if let Some(sh) = sharding {
        s.push_str("  \"sharding\": {\n");
        s.push_str(&format!("    \"shards\": {},\n", sh.shards));
        s.push_str(&format!(
            "    \"simulated_speedup\": {:.4},\n",
            sh.simulated_speedup()
        ));
        s.push_str("    \"per_shard\": [\n");
        for (i, p) in sh.per_shard.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"shard\": {i}, \"seed\": \"0x{:016x}\", \
                 \"trace_hash\": \"0x{:016x}\", \"requests\": {}, \
                 \"clock_cycles\": {} }}",
                p.seed, p.trace_hash, p.requests, p.clock_cycles
            ));
            if i + 1 < sh.per_shard.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("    ]\n  },\n");
    }
    push_slo_cdf(&mut s, "round_trip_multiple", &out.slo_cdf);
    s
}

/// Validates a `BENCH_chaos.json` document: the header and every
/// `FIELDS` row (counters finite, audit and lockstep verdicts green, the
/// campaign drained), session conservation, ordered blackout percentiles,
/// the optional sharding section, and a sane (monotone, `[0, 1]`-bounded)
/// SLO CDF. This is the gate `scripts/verify.sh` runs against the smoke
/// and committed reports.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = check_fields(text, SCHEMA_VERSION, SUITE, FIELDS)?;
    // Conservation: every offered session must have terminated.
    let sessions = counter(&doc, "sessions")?;
    let done = counter(&doc, "sessions_done")?;
    let failed = counter(&doc, "sessions_failed")?;
    if done + failed != sessions {
        return Err(format!(
            "session conservation violated: {done} done + {failed} failed != {sessions}"
        ));
    }
    if counter(&doc, "blackout_p99_cycles")? < counter(&doc, "blackout_p50_cycles")? {
        return Err("blackout p99 < p50".to_string());
    }
    // Optional sharded-campaign section: shard count must match the
    // per-shard rows, every row well-formed, and the shard requests must
    // sum to the merged counter (the merge is a plain sum).
    if let Some(sharding) = doc.get("sharding") {
        let shards = counter(sharding, "shards")?;
        counter(sharding, "simulated_speedup")?;
        let Some(Json::Arr(rows)) = sharding.get("per_shard") else {
            return Err("sharding.per_shard missing or not an array".to_string());
        };
        if rows.len() as f64 != shards {
            return Err(format!(
                "sharding.shards = {shards} but {} per_shard rows",
                rows.len()
            ));
        }
        let mut shard_requests = 0.0f64;
        for (i, row) in rows.iter().enumerate() {
            if counter(row, "shard")? != i as f64 {
                return Err(format!("per_shard row {i} out of shard order"));
            }
            for key in ["seed", "trace_hash"] {
                req_hex_u64(row, key).map_err(|e| format!("per_shard row {i}: {e}"))?;
            }
            counter(row, "clock_cycles")?;
            shard_requests += counter(row, "requests")?;
        }
        if shard_requests != counter(&doc, "requests")? {
            return Err(format!(
                "shard requests sum to {shard_requests}, merged counter says {}",
                counter(&doc, "requests")?
            ));
        }
    }
    check_slo_cdf(&doc, "round_trip_multiple", "multiples")
}

/// The closing gates both campaign runners share. `red` carries the
/// runner's own failed gates; to them this adds every `(what, value,
/// floor)` acceptance floor not met, each red campaign verdict (audit,
/// lockstep, drain) with its first cause, and a failed re-validation of
/// the emitted report `text`. Prints every cause, writes `text` to `path`,
/// and fails the exit code if any gate failed.
pub fn finish_run(
    tool: &str,
    out: &ChaosOutcome,
    text: &str,
    path: &str,
    validate: fn(&str) -> Result<(), String>,
    floors: &[(&str, u64, u64)],
    mut red: Vec<String>,
) -> ExitCode {
    eprintln!("{tool}: replay reproduced trace {:#018x}", out.trace_hash);
    for &(what, v, floor) in floors.iter().filter(|(_, v, floor)| v < floor) {
        red.push(format!("only {v} {what} (< {floor} floor)"));
    }
    let verdicts = [
        (!out.audit_ok).then(|| format!("consistency audit failed: {:?}", out.first_audit_error)),
        (!out.lockstep_ok).then(|| format!("lockstep divergence: {:?}", out.first_divergence)),
        out.stalled
            .then(|| "campaign stalled before draining".to_string()),
        validate(text)
            .err()
            .map(|e| format!("emitted report fails validation: {e}")),
    ];
    red.extend(verdicts.into_iter().flatten());
    for cause in &red {
        eprintln!("{tool}: {cause}");
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("{tool}: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} mode)", out.label);
    if red.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run, ChaosConfig};
    use crate::sharded::{run_sharded, ShardedChaosConfig};
    use crate::traffic::TrafficConfig;
    use hypertee_bench::report::without_each_key;

    fn tiny_outcome() -> ChaosOutcome {
        run(&tiny_outcome_config())
    }

    fn tiny_outcome_config() -> ChaosConfig {
        ChaosConfig {
            seed: 0x7e57,
            label: "tiny",
            traffic: TrafficConfig {
                sessions: 10,
                mean_interarrival_ticks: 4.0,
                burst_pm: 100,
                burst_size_max: 2,
                max_live: 8,
                tenants: TrafficConfig::default_tenants(),
            },
            faults: Some(ChaosConfig::chaos_faults()),
            deadline_cycles: Some(20_000_000),
            shed_backlog_limit: Some(10),
            scripted_crashes: 1,
            migrations: 1,
            audit_every_ticks: 64,
            ewb_every_ticks: 0,
            lockstep_rounds: 0,
            lockstep_commands: 0,
            max_ticks: 60_000,
            storm: None,
            ref_pump: false,
        }
    }

    #[test]
    fn report_round_trips_the_validator() {
        let out = tiny_outcome();
        let text = render_report(&out);
        validate(&text).expect("fresh report must validate");
    }

    #[test]
    fn validator_rejects_red_verdicts() {
        let out = tiny_outcome();
        let text = render_report(&out);
        let broken = text.replace("\"audit_ok\": true", "\"audit_ok\": false");
        assert!(validate(&broken).unwrap_err().contains("audit_ok"));
        let broken = text.replace("\"lockstep_ok\": true", "\"lockstep_ok\": false");
        assert!(validate(&broken).unwrap_err().contains("lockstep_ok"));
        let broken = text.replace("\"suite\": \"hypertee-chaos\"", "\"suite\": \"nope\"");
        assert!(validate(&broken).unwrap_err().contains("suite"));
    }

    #[test]
    fn validator_rejects_missing_counter() {
        let out = tiny_outcome();
        let text = render_report(&out);
        // Drift guard: deleting any key the renderer emits must fail the
        // validator with an error that names the key.
        let cases = without_each_key(&text);
        assert_eq!(cases.len(), FIELDS.len() + 4, "header + table + slo_cdf");
        for (key, broken) in cases {
            let err = validate(&broken).expect_err(&key);
            assert!(err.contains(&key), "deleting '{key}' gave: {err}");
        }
    }

    #[test]
    fn validator_rejects_missing_sharding_key() {
        let out = run_sharded(&ShardedChaosConfig {
            base: tiny_outcome_config(),
            shards: 2,
            threads: 1,
        });
        let text = render_sharded_report(&out);
        validate(&text).expect("fresh sharded report must validate");
        // Drift guard for the `sharding` section: deleting the shard count,
        // the speedup, or any per-shard key must fail the validator with an
        // error that names the key.
        for key in ["shards", "simulated_speedup"] {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("\"{key}\":")))
                .expect("sharding entry");
            let broken = text.replace(&format!("{line}\n"), "");
            let err = validate(&broken).expect_err(key);
            assert!(err.contains(key), "deleting '{key}' gave: {err}");
        }
        let row = text
            .lines()
            .find(|l| l.contains("{ \"shard\": 1,"))
            .expect("per-shard row 1");
        let indent = &row[..row.find('{').expect("row opens")];
        let tail = if row.ends_with(',') { "," } else { "" };
        let entries = row
            .trim()
            .trim_end_matches(',')
            .trim_start_matches("{ ")
            .trim_end_matches(" }");
        for key in ["shard", "seed", "trace_hash", "requests", "clock_cycles"] {
            let kept: Vec<&str> = entries
                .split(", ")
                .filter(|e| !e.starts_with(&format!("\"{key}\":")))
                .collect();
            let cut = format!("{indent}{{ {} }}{tail}", kept.join(", "));
            let broken = text.replace(row, &cut);
            let err = validate(&broken).expect_err(key);
            assert!(err.contains(key), "deleting per-shard '{key}' gave: {err}");
        }
    }
}
