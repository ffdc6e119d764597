#!/usr/bin/env bash
# Golden-output check (CI "systolic-backend" job; run from the repo root
# after building everything into build/):
#
# Re-runs every bench and example binary that has a golden and byte-compares
#
#   1. its stdout against tests/golden/stdout/<bin>.stdout, and
#   2. every CSV/JSON it exports against tests/golden/exports/
#
# Most goldens were captured from the tree immediately before the cycle-level
# systolic backend merged; backend_compare's, which print that backend's
# results, were captured before its fold accounting moved to closed form.
# Any diff here means a change perturbed an existing result.
set -u

[ -f CMakeLists.txt ] || { echo "run from the repo root" >&2; exit 2; }
build="${1:-build}"

# Engine env vars would legitimately change output (the systolic knobs
# change results; stats add stderr noise, fine but keep it quiet) — run
# clean.
unset MBS_CACHE_DIR MBS_ENGINE_STATS MBS_THREADS \
      MBS_RESULT_DIR MBS_SYSTOLIC_DATAFLOW MBS_SYSTOLIC_SPAD 2>/dev/null

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/stdout" "$work/results"

fail=0
for golden in tests/golden/stdout/*.stdout; do
  bin="$(basename "$golden" .stdout)"
  if [ ! -x "$build/$bin" ]; then
    echo "check_goldens: $build/$bin not built" >&2
    fail=1
    continue
  fi
  if ! MBS_RESULT_DIR="$work/results" "$build/$bin" \
       > "$work/stdout/$bin.stdout" 2>/dev/null; then
    echo "check_goldens: $bin exited nonzero" >&2
    fail=1
  fi
  if ! cmp -s "$golden" "$work/stdout/$bin.stdout"; then
    echo "check_goldens: stdout of $bin differs from $golden" >&2
    diff "$golden" "$work/stdout/$bin.stdout" | head -20 >&2
    fail=1
  fi
done

for golden in tests/golden/exports/*; do
  name="$(basename "$golden")"
  if [ ! -f "$work/results/$name" ]; then
    echo "check_goldens: export $name was not produced" >&2
    fail=1
  elif ! cmp -s "$golden" "$work/results/$name"; then
    echo "check_goldens: export $name differs from its golden" >&2
    diff "$golden" "$work/results/$name" | head -20 >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_goldens: OK ($(ls tests/golden/stdout | wc -l | tr -d ' ') stdouts," \
       "$(ls tests/golden/exports | wc -l | tr -d ' ') exports byte-identical)"
fi
exit "$fail"
