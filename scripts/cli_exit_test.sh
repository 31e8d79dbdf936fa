#!/usr/bin/env bash
# CLI exit-code contract tests (wired into ctest as `cli_exit_codes`):
#
#   1. snapshot-load / evaluate / serve-tcp (--mmap) on a corrupt,
#      truncated, or missing .rpsn must exit nonzero with the Status on
#      stderr — and must fail fast, before any workload runs.
#   2. Malformed or out-of-range numeric flags, and a `run --out` that
#      is not a .rpsn path, exit 2 with "invalid --<flag>", before any
#      workload runs. `run` -> `inspect` -> `snapshot-load --out x.csv`
#      round-trips the record count through the one CSV export.
#   3. serve-tcp with the snapshot-write failpoint armed at 100% via
#      RPE_FAILPOINTS, driven by rpe_loadgen until a retrain is
#      published, must still drain to exit zero, keep serving on the
#      published generations, and report exact nonzero failure/retry
#      counts.
#   4. A malformed RPE_FAILPOINTS spec is diagnosed, ignored, and must
#      not turn into silent fault injection.
#
# Usage: cli_exit_test.sh <path-to-rpe_cli> <path-to-rpe_loadgen>
set -u

CLI="${1:?usage: cli_exit_test.sh <rpe_cli> <rpe_loadgen>}"
LOADGEN="${2:?usage: cli_exit_test.sh <rpe_cli> <rpe_loadgen>}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/rpe_cli_exit.XXXXXX")"
SRV_PID=""
cleanup() {
  [ -n "$SRV_PID" ] && kill -9 "$SRV_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fails=0
note() { printf '%s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*"; fails=$((fails + 1)); }

# expect_err <expected-status-substr> <cmd...>: nonzero exit + Status text
# on stderr.
expect_err() {
  local needle="$1"; shift
  local err="$WORK/stderr.txt"
  if "$@" >"$WORK/stdout.txt" 2>"$err"; then
    fail "exit 0 from: $*"
    return
  fi
  if ! grep -q "$needle" "$err"; then
    fail "stderr of '$*' lacks '$needle': $(cat "$err")"
  fi
}

# --- corrupt / truncated / missing snapshot inputs ------------------------
CORRUPT="$WORK/corrupt.rpsn"
printf 'RPSN garbage garbage garbage garbage garbage' > "$CORRUPT"
TRUNC="$WORK/trunc.rpsn"
head -c 20 "$CORRUPT" > "$TRUNC"
MISSING="$WORK/no_such_file.rpsn"

for f in "$CORRUPT" "$TRUNC"; do
  expect_err "InvalidArgument" "$CLI" snapshot-load --in "$f"
done
expect_err "IOError" "$CLI" snapshot-load --in "$MISSING"
expect_err "IOError" "$CLI" evaluate --train "$MISSING" --test "$MISSING"

# serve-tcp must reject a bad --model up front (fail-fast: it returns
# within the preload, so a tiny workload config keeps it honest): a
# corrupt model must fail before the socket ever binds, so nothing is
# listening when the Status lands on stderr.
expect_err "InvalidArgument" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --model "$CORRUPT" --mmap
expect_err "IOError" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --model "$MISSING" --mmap
expect_err "InvalidArgument" \
  "$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --model "$CORRUPT"

# --mmap without --model is a flag error (exit 2), also pre-workload.
"$CLI" serve-tcp --kind tpch --queries 2 --scale 1 --mmap >/dev/null 2>&1
[ $? -eq 2 ] || fail "serve-tcp: --mmap without --model did not exit 2"

# Flag contract: malformed or out-of-range values exit 2 with
# "invalid --<flag>" and a pointer at the docs, before any workload work
# starts (a typo'd flag must not cost a workload run).
# expect_usage <flag> <cmd...>: exit 2 + "invalid --<flag>" on stderr.
# The timeout turns an accepted serve-tcp flag (it would serve until
# SIGTERM) into a failure instead of a hang.
expect_usage() {
  local flag="$1"; shift
  local rc=0
  timeout 60 "$@" >"$WORK/stdout.txt" 2>"$WORK/stderr.txt" || rc=$?
  [ "$rc" -eq 2 ] || fail "exit $rc (want 2) from: $*"
  grep -q "invalid --$flag" "$WORK/stderr.txt" \
    || fail "stderr of '$*' lacks 'invalid --$flag': $(cat "$WORK/stderr.txt")"
}
SERVE=("$CLI" serve-tcp --kind tpch --queries 2 --scale 1)
expect_usage port "${SERVE[@]}" --port 70000
expect_usage port "${SERVE[@]}" --port banana
expect_usage io-threads "${SERVE[@]}" --io-threads 9999
expect_usage shards "${SERVE[@]}" --shards 0
expect_usage trees "${SERVE[@]}" --trees banana
expect_usage trees "${SERVE[@]}" --trees -3
expect_usage scale "$CLI" run --queries 2 --scale banana --out "$WORK/r.rpsn"
expect_usage threads "$CLI" run --queries 2 --scale 1 --threads banana \
  --out "$WORK/r.rpsn"
expect_usage queries "$CLI" run --queries -1 --scale 1 --out "$WORK/r.rpsn"
expect_usage seed "$CLI" run --queries 2 --scale 1 --seed 1x \
  --out "$WORK/r.rpsn"
expect_usage zipf "$CLI" run --queries 2 --scale 1 --zipf inf \
  --out "$WORK/r.rpsn"
expect_usage trees "$CLI" train --records "$MISSING" --trees 2.5
# Records are written only as .rpsn: any other --out is a flag error,
# raised before the workload is built.
expect_usage out "$CLI" run --queries 2 --scale 1 --out "$WORK/r.csv"
grep -q "building" "$WORK/stderr.txt" \
  && fail "run with a non-.rpsn --out started its workload"
[ -e "$WORK/r.rpsn" ] && fail "a rejected run still wrote its records"
[ -e "$WORK/r.csv" ] && fail "a rejected run still wrote its records"

# --- run -> .rpsn -> CSV export ---------------------------------------------
# `run` writes a record snapshot, `inspect` reads it back, and
# `snapshot-load --out x.csv` (the one CSV output) writes a header plus
# one line per record.
if "$CLI" run --kind tpch --queries 4 --scale 1 --seed 3 \
    --out "$WORK/r.rpsn" >"$WORK/run.txt" 2>"$WORK/run_err.txt"; then
  N="$(sed -n 's/^\([0-9]*\) pipeline records -> .*/\1/p' "$WORK/run.txt")"
  [ -n "$N" ] && [ "$N" -gt 0 ] \
    || fail "run reported no records: $(cat "$WORK/run.txt")"
  "$CLI" inspect --records "$WORK/r.rpsn" >"$WORK/inspect.txt" 2>&1 \
    || fail "inspect could not read the run's .rpsn"
  grep -q "^$N pipeline records" "$WORK/inspect.txt" \
    || fail "inspect disagrees with run on the record count"
  if "$CLI" snapshot-load --in "$WORK/r.rpsn" --out "$WORK/r.csv" \
      >"$WORK/load.txt" 2>&1; then
    [ "$(wc -l < "$WORK/r.csv")" -eq $((N + 1)) ] \
      || fail "CSV export has $(wc -l < "$WORK/r.csv") lines, want $((N + 1))"
    head -n 1 "$WORK/r.csv" | grep -q '^workload,query,pipeline,tag,total_n,' \
      || fail "CSV export lacks its header line"
    # The export is not an input: reading it back is a decode error.
    expect_err "InvalidArgument" "$CLI" inspect --records "$WORK/r.csv"
  else
    fail "snapshot-load --out x.csv failed: $(cat "$WORK/load.txt")"
  fi
else
  fail "run --out x.rpsn failed: $(cat "$WORK/run_err.txt")"
fi

# --- serve-tcp under a 100% snapshot-write fault --------------------------
OUT="$WORK/serve_tcp.txt"
ERR="$WORK/serve_tcp_err.txt"
RPE_FAILPOINTS="snapshot.write=always" \
  "$CLI" serve-tcp --kind tpch --queries 8 --scale 2 --retrain-every 8 \
  --trees 5 --snapshot-out "$WORK/snap.rpsn" >"$OUT" 2>"$ERR" &
SRV_PID=$!
PORT=""
for _ in $(seq 1 600); do
  kill -0 "$SRV_PID" 2>/dev/null || break
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$OUT" \
          | head -n 1)"
  [ -n "$PORT" ] && break
  sleep 0.5
done
SRV_RC=1
if [ -z "$PORT" ]; then
  fail "serve-tcp never listened under snapshot.write=always: $(cat "$ERR")"
else
  # Sessions plus an ingest stream until a retrain is published; --check
  # reconciles client and server counters exactly.
  "$LOADGEN" --port "$PORT" --connections 2 --sessions 8 --steps 16 \
    --ingest-batch 8 --ingest-until-swap --check \
    >"$WORK/loadgen.json" 2>"$WORK/loadgen_err.txt" \
    || fail "loadgen failed under snapshot.write=always:
$(cat "$WORK/loadgen_err.txt")"
  kill -TERM "$SRV_PID"
  SRV_RC=0
  wait "$SRV_PID" || SRV_RC=$?
fi
SRV_PID=""
if [ "$SRV_RC" -ne 0 ]; then
  fail "serve-tcp exited $SRV_RC under snapshot.write=always:
$(cat "$ERR")"
else
  grep -q "failpoints armed: snapshot.write" "$ERR" \
    || fail "armed-failpoint banner missing from stderr"
  # The summary must carry exact, nonzero failure and retry counts, and
  # retrains must still have been published (serving degraded, not down).
  awk -F'|' '/snapshot write failures/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "snapshot write failures not reported nonzero: $(cat "$OUT")"
  awk -F'|' '/snapshot write retries/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "snapshot write retries not reported nonzero"
  awk -F'|' '/retrains published/ {gsub(/ /,"",$3); print $3}' "$OUT" \
    | grep -qE '^[1-9][0-9]*$' \
    || fail "no retrain published under snapshot-write fault"
  [ -e "$WORK/snap.rpsn" ] && fail "failed snapshot write left a file"
fi

# --- malformed RPE_FAILPOINTS is diagnosed and ignored --------------------
if ! RPE_FAILPOINTS="snapshot.write=exploded" \
    "$CLI" snapshot-load --in "$MISSING" 2>"$ERR"; then
  grep -q "RPE_FAILPOINTS ignored" "$ERR" \
    || fail "malformed RPE_FAILPOINTS not diagnosed: $(cat "$ERR")"
  grep -q "failpoints armed" "$ERR" \
    && fail "malformed RPE_FAILPOINTS still armed something"
else
  fail "snapshot-load on a missing file exited zero"
fi

if [ "$fails" -ne 0 ]; then
  note "$fails CLI exit-code check(s) failed"
  exit 1
fi
note "all CLI exit-code checks passed"
