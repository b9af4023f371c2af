//! `BENCH_serving.json`: schema-stable serialization of an attestation-storm
//! campaign, plus the validator `scripts/verify.sh` gates on.
//!
//! The report is the artifact form of the fail-closed proof: every
//! `*_accepted` attack counter is emitted **and pinned to zero by the
//! validator**, alongside handshake latency percentiles, breaker
//! transitions, and the storm SLO CDF. `FIELDS` lists every top-level
//! field once; the renderer and the validator both walk it through
//! `hypertee_bench::report`.

use hypertee_bench::report::{
    check_fields, check_slo_cdf, push_slo_cdf, render_fields, req_counter as counter, Field, Kind,
    Kind::*, AUDIT_OK, LOCKSTEP_OK, STALLED,
};

use crate::campaign::ChaosOutcome;
use crate::storm::StormOutcome;

/// Version of the emitted JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub const SUITE: &str = "hypertee-serving";

/// Accepted-attack counters are pinned to zero: any non-zero value means
/// the facade served an attack — before readiness, stale, replayed,
/// duplicated, or forged — and the artifact is rejected.
const ACCEPTED: Kind = MustBeZero("the facade served an attack (fail-closed violated)");

fn storm(o: &ChaosOutcome) -> &StormOutcome {
    o.storm
        .as_ref()
        .expect("serving report requires a storm campaign outcome")
}

/// The suite's field table, in emission order (after the header): the
/// storm's counters, then the campaign context the storm rode through.
const FIELDS: &[Field<ChaosOutcome>] = &[
    ("seed", HexU64, |o| o.seed),
    ("trace_hash", HexU64, |o| o.trace_hash),
    ("clients", Counter, |o| storm(o).clients as u64),
    ("handshakes_attempted", Counter, |o| {
        storm(o).handshakes_attempted
    }),
    ("handshakes_completed", Counter, |o| {
        storm(o).handshakes_completed
    }),
    ("handshake_retries", Counter, |o| storm(o).handshake_retries),
    ("calls_attempted", Counter, |o| storm(o).calls_attempted),
    ("calls_ok", Counter, |o| storm(o).calls_ok),
    ("reattestations", Counter, |o| storm(o).reattestations),
    ("pre_ready_attempts", Counter, |o| {
        storm(o).pre_ready_attempts
    }),
    ("pre_ready_accepted", ACCEPTED, |o| {
        storm(o).pre_ready_accepted
    }),
    ("stale_quote_attempts", Counter, |o| {
        storm(o).stale_quote_attempts
    }),
    ("stale_quote_accepted", ACCEPTED, |o| {
        storm(o).stale_quote_accepted
    }),
    ("replay_attempts", Counter, |o| storm(o).replay_attempts),
    ("replay_accepted", ACCEPTED, |o| storm(o).replay_accepted),
    ("duplicate_attempts", Counter, |o| {
        storm(o).duplicate_attempts
    }),
    ("duplicate_accepted", ACCEPTED, |o| {
        storm(o).duplicate_accepted
    }),
    ("forged_token_attempts", Counter, |o| {
        storm(o).forged_token_attempts
    }),
    ("forged_token_accepted", ACCEPTED, |o| {
        storm(o).forged_token_accepted
    }),
    ("breaker_to_open", Counter, |o| storm(o).breaker_to_open),
    ("breaker_to_half_open", Counter, |o| {
        storm(o).breaker_to_half_open
    }),
    ("breaker_to_closed", Counter, |o| storm(o).breaker_to_closed),
    ("breaker_shed", Counter, |o| storm(o).breaker_shed),
    ("reprobes", Counter, |o| storm(o).reprobes),
    ("sessions_revoked", Counter, |o| storm(o).sessions_revoked),
    ("not_ready_rejects", Counter, |o| storm(o).not_ready_rejects),
    ("stale_challenge_rejects", Counter, |o| {
        storm(o).stale_challenge_rejects
    }),
    ("epoch_rejects", Counter, |o| storm(o).epoch_rejects),
    ("expired_token_rejects", Counter, |o| {
        storm(o).expired_token_rejects
    }),
    ("service_faults_injected", Counter, |o| {
        storm(o).service_faults_injected
    }),
    ("handshake_p50_ticks", Counter, |o| {
        storm(o).handshake_p50_ticks
    }),
    ("handshake_p99_ticks", Counter, |o| {
        storm(o).handshake_p99_ticks
    }),
    ("crash_restarts", Counter, |o| o.crash_restarts),
    ("migrations_completed", Counter, |o| {
        u64::from(o.migrations_completed)
    }),
    ("fleet_requests", Counter, |o| o.requests),
    ("reclaimed_enclaves", Counter, |o| o.reclaimed_enclaves),
    ("audit_ok", AUDIT_OK, |o| u64::from(o.audit_ok)),
    ("lockstep_ok", LOCKSTEP_OK, |o| u64::from(o.lockstep_ok)),
    ("stalled", STALLED, |o| u64::from(o.stalled)),
];

/// Serializes a storm campaign outcome as `BENCH_serving.json`.
///
/// # Panics
///
/// Panics when the outcome carries no storm (the campaign was run without
/// `ChaosConfig::storm`) — a serving report without a storm is meaningless.
pub fn render_serving_report(out: &ChaosOutcome) -> String {
    let mut s = render_fields(SCHEMA_VERSION, SUITE, out.label, FIELDS, out);
    push_slo_cdf(&mut s, "tick_bound", &storm(out).slo_cdf);
    s
}

/// Validates a `BENCH_serving.json` document: the header and every
/// `FIELDS` row (counters present, **every accepted-attack counter
/// exactly zero**, green audit/lockstep verdicts, a drained campaign),
/// consistent handshake accounting, ordered percentiles, and a sane SLO
/// CDF.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_serving(text: &str) -> Result<(), String> {
    let doc = check_fields(text, SCHEMA_VERSION, SUITE, FIELDS)?;
    // Handshake accounting: completions never exceed attempts, and the
    // storm must actually have attested something.
    let attempted = counter(&doc, "handshakes_attempted")?;
    let completed = counter(&doc, "handshakes_completed")?;
    if completed > attempted {
        return Err(format!(
            "handshakes_completed {completed} > handshakes_attempted {attempted}"
        ));
    }
    if completed == 0.0 {
        return Err("handshakes_completed is zero: the storm never attested".to_string());
    }
    if counter(&doc, "pre_ready_attempts")? == 0.0 {
        return Err("pre_ready_attempts is zero: fail-closed startup untested".to_string());
    }
    if counter(&doc, "handshake_p99_ticks")? < counter(&doc, "handshake_p50_ticks")? {
        return Err("handshake p99 < p50".to_string());
    }
    check_slo_cdf(&doc, "tick_bound", "tick bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run, ChaosConfig};
    use crate::storm::StormConfig;
    use hypertee_bench::report::without_each_key;

    fn tiny_serving_outcome() -> ChaosOutcome {
        let mut cfg = ChaosConfig::serving_smoke(0x5e71);
        cfg.traffic.sessions = 24;
        cfg.scripted_crashes = 1;
        cfg.migrations = 0;
        cfg.lockstep_rounds = 0;
        cfg.storm = Some(StormConfig {
            clients: 4,
            handshakes_per_client: 2,
            calls_per_handshake: 2,
            ..StormConfig::smoke()
        });
        run(&cfg)
    }

    #[test]
    fn serving_report_round_trips_the_validator() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        validate_serving(&text).expect("fresh serving report must validate");
    }

    #[test]
    fn serving_validator_rejects_accepted_attacks() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        let pinned: Vec<_> = FIELDS
            .iter()
            .filter(|(_, kind, _)| matches!(kind, MustBeZero(_)))
            .map(|(key, _, _)| key)
            .collect();
        assert_eq!(pinned.len(), 5);
        for key in pinned {
            let broken = text.replace(&format!("\"{key}\": 0,"), &format!("\"{key}\": 1,"));
            let err = validate_serving(&broken).unwrap_err();
            assert!(err.contains(key), "want {key} in error, got: {err}");
            assert!(err.contains("fail-closed"), "got: {err}");
        }
    }

    #[test]
    fn serving_validator_rejects_wrong_suite_and_missing_counter() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        let broken = text.replace("\"suite\": \"hypertee-serving\"", "\"suite\": \"nope\"");
        assert!(validate_serving(&broken).unwrap_err().contains("suite"));
        // Drift guard: deleting any key the renderer emits must fail the
        // validator with an error that names the key.
        let cases = without_each_key(&text);
        assert_eq!(cases.len(), FIELDS.len() + 4, "header + table + slo_cdf");
        for (key, broken) in cases {
            let err = validate_serving(&broken).expect_err(&key);
            assert!(err.contains(&key), "deleting '{key}' gave: {err}");
        }
    }
}
