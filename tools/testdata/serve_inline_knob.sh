#!/bin/sh
# serve_inline_knob.sh <mha-serve> <mha-client> <socket-path> <mlir-file>
#
# CLI smoke test for a knob that does not apply: start the daemon, send
# the inline module once with default knobs (must succeed) and once with
# --unroll=4, shut down, and exit with the second client's status. The
# test is registered WILL_FAIL: it passes only when that client exits 1
# (typed server-side error) and printed a bad_request naming the knob.
# Any other outcome exits 0, which fails the test.
SERVE=$1
CLIENT=$2
SOCK=$3
MLIR=$4

rm -f "$SOCK"
"$SERVE" --socket="$SOCK" --max-inflight=1 --max-queue=4 &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

i=0
while [ $i -lt 100 ] && [ ! -S "$SOCK" ]; do
  sleep 0.1
  i=$((i + 1))
done
[ -S "$SOCK" ] || { echo "daemon socket never appeared"; exit 0; }

if ! "$CLIENT" --socket="$SOCK" --mlir-file="$MLIR" --quiet > /dev/null; then
  echo "inline module with default knobs failed"
  exit 0
fi
OUT=$("$CLIENT" --socket="$SOCK" --mlir-file="$MLIR" --unroll=4 --quiet)
STATUS=$?
echo "$OUT"
"$CLIENT" --socket="$SOCK" --shutdown > /dev/null
wait "$PID"
trap - EXIT

case "$OUT" in
  *'"code": "bad_request"'*unroll*) ;;
  *) echo "expected a bad_request naming 'unroll'"; exit 0 ;;
esac
exit "$STATUS"
