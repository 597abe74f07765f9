#!/usr/bin/env bash
# The benchmark's one entry point. Builds the package on first use
# (offline, locked; build time is outside every metric), pins the
# environment the numbers depend on, and forwards its arguments to the
# binary. See README.md for the modes:
#
#   run.sh --workload W --seed N [--seconds S] [--trace 0|1] [--out-dir D]
#   run.sh --manifest | --selfcheck | --agree K [--hog N] | --compare A B
set -euo pipefail

start_dir=$PWD
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# The pace reference and the solvers share one busy thread; a second
# vCPU must be free for the service's clients, the load generator and a
# neighbour, or the single-compute-thread design does not hold.
cpus=$(nproc)
if [ "$cpus" -lt 2 ]; then
    echo "run.sh: needs at least 2 CPUs, found $cpus" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR means "relative to where we were called".
target=${CARGO_TARGET_DIR:-$root/benchmark/target}
case $target in
    /*) ;;
    *) target=$start_dir/$target ;;
esac
export CARGO_TARGET_DIR=$target

cd "$root"
bin=$target/release/mrhs-benchmark
# cargo decides whether anything is stale; its chatter stays off stdout,
# whose last line is the result.
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml >&2

# One compute thread: the kernels' pool, like the service, gets one.
export RAYON_NUM_THREADS=1
# The kernel backend is whatever the repo selects on this CPU.
unset MRHS_KERNEL_BACKEND
# Telemetry and tracing are switched by the benchmark itself.
unset MRHS_TELEMETRY MRHS_TRACE

# Flight-recorder dumps land beside the run's other outputs (the binary
# creates the directory).
out_dir=benchmark/out
prev=
for arg in "$@"; do
    if [ "$prev" = "--out-dir" ]; then out_dir=$arg; fi
    prev=$arg
done
export MRHS_FLIGHT_DIR=$out_dir

exec "$bin" "$@"
