#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, then a smoke run of
# every workload end to end and traced. Offline; under 90 s on two cores.
# Run from anywhere; it moves to the repository root, where the benchmark
# expects to run (socket and trace files go under benchmark/out/).
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest" --quiet
cargo build --offline --release --manifest-path "$manifest" --quiet

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/storm-e2e"
for mode in run trace; do
    out="$("$bin" "$mode" --smoke)"
    # One result line per workload; none may report a failed operation.
    lines="$(grep -c '^{"attempted"' <<<"$out")"
    clean="$(grep -c '^{"attempted":[0-9]*,"correct":true,"failed":0,' <<<"$out")"
    if [[ "$lines" -ne 4 || "$clean" -ne 4 ]]; then
        echo "$out"
        echo "check.sh: '$mode --smoke' reported failures ($clean of $lines workloads clean)" >&2
        exit 1
    fi
    echo "$mode --smoke: $clean workloads, no failed operation"
done
