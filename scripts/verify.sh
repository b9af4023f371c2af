#!/usr/bin/env bash
# Tier-1 verification: offline build, full test suite, and (when available)
# clippy with warnings denied. Run from anywhere; operates on the repo root.
#
#   ./scripts/verify.sh          # fmt + build + test + smoke + clippy
#   SKIP_CLIPPY=1 ./scripts/verify.sh
#   SKIP_FMT=1 ./scripts/verify.sh
#
# Everything runs --offline: the workspace has no external registry
# dependencies by policy (see DESIGN.md §6), so a network-less container
# must pass identically.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${SKIP_FMT:-0}" != "1" ]; then
    if cargo fmt --version >/dev/null 2>&1; then
        echo "==> cargo fmt --check"
        cargo fmt --all -- --check
    else
        echo "==> rustfmt not installed; skipping format check (set SKIP_FMT=1 to silence)"
    fi
fi

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline)"
cargo test --offline --workspace -q

echo "==> fig6_slo --live smoke (release, reduced workload)"
cargo run --release --offline -p hypertee-bench --bin fig6_slo -- --live --smoke --allocs 32 \
    > /dev/null

echo "==> lockstep model-check smoke (release, fixed seed)"
cargo run --release --offline --example model_smoke

echo "==> interp-diff smoke (decoded-block fast path vs step_ref oracle, fixed seed)"
cargo run --release --offline --example interp_smoke

echo "==> crypto smoke (Curve25519 fast paths vs mul_ref oracle, fixed seed)"
cargo run --release --offline --example crypto_smoke

echo "==> mktme smoke (zero_page and fast data plane vs the *_ref data plane, fixed seed)"
cargo run --release --offline --example mktme_smoke

echo "==> bench_report smoke (release, reduced iterations, schema-validated)"
cargo run --release --offline -p hypertee-bench --bin bench_report -- --smoke \
    --out target/BENCH_perf_smoke.json > /dev/null
cargo run --release --offline -p hypertee-bench --bin bench_report -- \
    --check target/BENCH_perf_smoke.json
cargo run --release --offline -p hypertee-bench --bin bench_report -- \
    --check BENCH_perf.json

echo "==> pump equivalence smoke (event scheduler vs scan oracle, fixed seeds)"
cargo run --release --offline --example pump_smoke

echo "==> chaos campaign smoke (release, seeded, schema-validated)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke \
    --out target/BENCH_chaos_smoke.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check target/BENCH_chaos_smoke.json
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check BENCH_chaos.json

echo "==> scan-oracle campaign replay (--ref-pump, byte-compared against the event pump)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --ref-pump \
    --out target/BENCH_chaos_smoke_refpump.json > /dev/null
cmp target/BENCH_chaos_smoke.json target/BENCH_chaos_smoke_refpump.json

echo "==> committed chaos replay (full fleet campaign, byte-compared against BENCH_chaos.json)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --out target/BENCH_chaos_replay.json > /dev/null
cmp target/BENCH_chaos_replay.json BENCH_chaos.json

echo "==> service facade smoke (boot, fail closed, attest, crash, re-attest)"
cargo run --release --offline --example service_quickstart > /dev/null

echo "==> serving storm smoke (release, seeded, fail-closed gated, schema-validated)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- --smoke \
    --out target/BENCH_serving_smoke.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --check target/BENCH_serving_smoke.json
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --check BENCH_serving.json

echo "==> scan-oracle serving replay (--ref-pump, byte-compared against the event pump)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- --smoke --ref-pump \
    --out target/BENCH_serving_smoke_refpump.json > /dev/null
cmp target/BENCH_serving_smoke.json target/BENCH_serving_smoke_refpump.json

echo "==> committed serving replay (full attestation storm, byte-compared against BENCH_serving.json)"
cargo run --release --offline -p hypertee-chaos --bin serving_bench -- \
    --out target/BENCH_serving_replay.json > /dev/null
cmp target/BENCH_serving_replay.json BENCH_serving.json

echo "==> parallel determinism smoke (sharded chaos, 1 vs 4 threads, byte-compared)"
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --shards 4 \
    --threads 1 --out target/BENCH_chaos_shard_t1.json > /dev/null
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- --smoke --shards 4 \
    --threads 4 --out target/BENCH_chaos_shard_t4.json > /dev/null
cmp target/BENCH_chaos_shard_t1.json target/BENCH_chaos_shard_t4.json
cargo run --release --offline -p hypertee-chaos --bin chaos_campaign -- \
    --check target/BENCH_chaos_shard_t4.json

echo "==> cargo doc --no-deps (warnings denied, offline)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

if [ "${SKIP_CLIPPY:-0}" != "1" ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -D warnings (offline)"
        cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping lint (set SKIP_CLIPPY=1 to silence)"
    fi
fi

echo "==> verify OK"
