#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"), run from the
# root of a checkout:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Builds the one binary the run needs from source, then hands it the
# flags: --trace 0 is `mmbench` (the gated end-to-end numbers), --trace 1
# is `mmbench-trace` (the per-layer ledger). Each builds alone, so an API
# change below the Engine facade can break the trace without breaking
# the gated numbers.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=mmbench
prev=
for arg in "$@"; do
  if [[ "$prev" == --trace && "$arg" == 1 ]]; then bin=mmbench-trace; fi
  prev="$arg"
done
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin"
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
