#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, formatting, lints.
# Everything a change must keep green before it lands.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The root manifest's default-members cover the root package, every
# crate under crates/ and the vendored JSON parser (every cache line,
# trace event and serve request goes through it), so this runs their
# unit, integration and doc tests.
cargo test -q
# The other vendored dependency subsets' own tests, which the line above
# leaves out: the serde traits and derive, the RNG, and the test
# harness itself.
cargo test -q -p serde -p serde_derive -p rand -p proptest
# The simulator differentials again against release codegen, where the
# cycle loop's debug_assert! bound checks are compiled out and the
# unchecked indexing that ships is what runs: the replay warm-up
# differential, and the timing unit tests that pin the prepared path
# to the test-only reference pipeline.
cargo test -q --release -p bhive-sim --test differential
cargo test -q --release -p bhive-sim --lib timing::
# The host CPU refereeing the functional executor that ships, in
# release codegen.
cargo test -q --release -p bhive-sim --test native_oracle
# The pinned measurement hash and the resuming-versus-restarting monitor
# differential, also against release codegen.
cargo test -q --release -p bhive-harness --test pinned
cargo test -q --release -p bhive-harness --test monitor_resume
cargo build --examples
# CLI smoke: a supervised run with a retry budget exits 0 and reports.
cargo run -q --release -p bhive -- profile --retries 2 <<'EOF'
add rax, 1
imul rbx, rcx
EOF
# Trace smoke: a measured run with --trace/--metrics writes a checksummed
# JSONL trace and a deterministic run_report.json next to it.
trace_dir="$(mktemp -d)"
resume_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$resume_dir"' EXIT
cargo run -q --release -p bhive -- measure --scale 3 --no-cache \
    --trace "$trace_dir/trace.jsonl" --metrics >/dev/null
test -s "$trace_dir/trace.jsonl"
test -s "$trace_dir/run_report.json"
grep -q 'bhive-run-report/v1' "$trace_dir/run_report.json"
# Kill-and-resume smoke: a cached measure run kill -9'd mid-flight
# (once its cache log holds a record), then rerun on the same cache,
# emits a CSV byte-identical to an uncached run.
# (crates/core/tests/cli.rs also checks that the rerun is served partly
# from disk, and the SIGTERM path's exit 130.)
bhive=target/release/bhive
"$bhive" measure --scale 200 --seed 7 --threads 2 --no-cache \
    >"$resume_dir/reference.csv" 2>/dev/null
"$bhive" measure --scale 200 --seed 7 --threads 2 \
    --cache "$resume_dir/cache" >/dev/null 2>&1 &
victim=$!
for _ in $(seq 5000); do
    [ -s "$resume_dir/cache/measurements-hsw.jsonl" ] && break
    sleep 0.001
done
kill -9 "$victim"
status=0
wait "$victim" 2>/dev/null || status=$?
test "$status" -eq 137 # killed, not finished
"$bhive" measure --scale 200 --seed 7 --threads 2 \
    --cache "$resume_dir/cache" >"$resume_dir/resumed.csv" 2>/dev/null
cmp "$resume_dir/reference.csv" "$resume_dir/resumed.csv"
# Serve smoke: spawn the daemon on a unix socket, roundtrip a cold
# miss, a warm hit, and a malformed request through the protocol
# client, then SIGTERM it and assert a clean drain (exit 0).
serve_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$resume_dir" "$serve_dir"' EXIT
cargo build -q --release -p bhive-serve --example serve_probe
"$bhive" serve --listen "unix:$serve_dir/bhive.sock" --no-cache \
    --drain-ms 2000 2>/dev/null &
serve_pid=$!
for _ in $(seq 50); do
    [ -S "$serve_dir/bhive.sock" ] && break
    sleep 0.1
done
probe=target/release/examples/serve_probe
"$probe" --addr "unix:$serve_dir/bhive.sock" \
    '{"op":"predict","id":1,"hex":"4801d8"}' \
    '{"op":"predict","id":2,"hex":"4801d8"}' \
    'this is not json' \
    '{"op":"health"}' >"$serve_dir/answers"
grep -q '"id":1,"status":"ok".*"source":"measured"' "$serve_dir/answers"
grep -q '"id":2,"status":"ok".*"source":"cache"' "$serve_dir/answers"
grep -q '"status":"error","reason":"malformed"' "$serve_dir/answers"
grep -q '"status":"health","state":"serving"' "$serve_dir/answers"
# The health counts come from the one serve.* registry: two predicts,
# one miss measured, one warm hit; the malformed line is no request.
grep -q '"requests":2,"hits":1,"misses":1,"measured":1,"rejected":0' "$serve_dir/answers"
kill -TERM "$serve_pid"
wait "$serve_pid"
test ! -e "$serve_dir/bhive.sock" # drain unlinks the socket
# Calibration smoke: a quick calibrate against the shipped Ivy Bridge
# tables must measure every probe, report zero drift (--diff exits 0),
# and write the versioned report.
calib_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$resume_dir" "$serve_dir" "$calib_dir"' EXIT
"$bhive" calibrate --uarch ivb --quick --no-cache \
    --report "$calib_dir/calibration_report.json" --diff >/dev/null
grep -q 'bhive-calibration-report/v1' "$calib_dir/calibration_report.json"
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "warning: rustfmt not installed; skipping format check" >&2
fi
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "warning: clippy not installed; skipping lint check" >&2
fi
echo "tier-1 gate: OK"
