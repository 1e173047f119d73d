#!/usr/bin/env bash
# Build the repository's `slo` binary and the benchmark from source, then
# run one benchmark invocation. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
# CARGO_TARGET_DIR (default .bench_build) holds both builds.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/slo-cli || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a full checkout (crates/ is missing here)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"

cargo build --release --offline --quiet -p slo-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# glibc malloc keeps freed memory in the process (no trimming, and blocks
# up to 32 MiB come from the heap rather than from mmap/munmap), for the
# benchmark and the `slo serve` processes it starts. Otherwise every VM
# run hands its simulated memory back to the kernel and faults it in
# again, and on a virtual machine the cost of those faults follows the
# host's load rather than the program. See NOTES.md, "Noise".
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967295"

exec "$CARGO_TARGET_DIR/release/perfbench" --slo "$CARGO_TARGET_DIR/release/slo" "$@"
