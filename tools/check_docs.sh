#!/usr/bin/env bash
# Docs-consistency check (CI "docs" step; run from the repo root):
#
#   1. every bench binary (the MBS_BENCHES list in CMakeLists.txt, plus
#      micro_benchmarks) appears backticked in the README repro table;
#   2. every example binary (the add_executable(...) calls under the
#      Examples section) is mentioned in README.md or docs/REPRODUCING.md;
#   3. every MBS_* environment variable read by any source (getenv or
#      util::env_int; the test-only MBS_TEST_* names are exempt) has a row
#      in docs/REPRODUCING.md's consolidated table, and every MBS_* row in
#      that table is read by some source, so removed switches cannot leave
#      stale rows behind;
#   4. the workload guide exists and README links to it.
#
# Pure grep — no build needed — so stale docs fail fast on any machine.
set -u

fail=0
err() {
  echo "check_docs: $*" >&2
  fail=1
}

[ -f CMakeLists.txt ] || { echo "run from the repo root" >&2; exit 2; }

# 1. Bench binaries in the README repro table.
benches="$(sed -n '/^set(MBS_BENCHES/,/^)/p' CMakeLists.txt \
           | grep -Eo '^  [a-z0-9_]+' | tr -d ' ') micro_benchmarks"
for b in $benches; do
  grep -q "\`$b\`" README.md || err "README.md repro table is missing \`$b\`"
done

# 2. Example binaries mentioned in README or the repro guide.
examples="$(grep -Eo 'add_executable\([a-z0-9_]+ examples/' CMakeLists.txt \
            | sed -E 's/add_executable\(([a-z0-9_]+) .*/\1/')"
for e in $examples; do
  grep -q "$e" README.md docs/REPRODUCING.md ||
    err "example '$e' appears in neither README.md nor docs/REPRODUCING.md"
done

# 3. The env vars the code reads and REPRODUCING.md's table rows agree.
vars="$(grep -rhoE '(getenv|env_int)\([[:space:]]*"MBS_[A-Z0-9_]+"' \
          src bench examples tools tests 2>/dev/null |
        grep -oE 'MBS_[A-Z0-9_]+' | grep -v '^MBS_TEST_' | sort -u)"
rows="$(grep -oE '^\| `MBS_[A-Z0-9_]+' docs/REPRODUCING.md |
        grep -oE 'MBS_[A-Z0-9_]+' | sort -u)"
for v in $vars; do
  echo "$rows" | grep -qx "$v" ||
    err "env var $v is read by the code but has no row in docs/REPRODUCING.md"
done
for v in $rows; do
  echo "$vars" | grep -qx "$v" ||
    err "docs/REPRODUCING.md documents $v, which no source reads"
done

# 4. The workload guide is present and reachable from the README.
[ -f docs/WORKLOADS.md ] || err "docs/WORKLOADS.md is missing"
grep -q 'WORKLOADS.md' README.md || err "README.md does not link docs/WORKLOADS.md"

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK ($(echo "$benches" | wc -w | tr -d ' ') benches," \
       "$(echo "$examples" | wc -w | tr -d ' ') examples," \
       "$(echo "$vars" | wc -w | tr -d ' ') env vars)"
fi
exit "$fail"
