#!/usr/bin/env bash
# Invalid-input contract of mflb_cli: values the flag parser accepts but the
# model rejects (a non-positive or non-finite delay, zero queues, zero
# episodes, a zero-length horizon, an unknown mode) and unknown flags (the
# removed --fel) must exit 2 with a diagnostic on stderr, and must never
# hang or abort.
#
# Usage: scripts/check-cli-invalid-input.sh path/to/mflb_cli
set -u

cli=${1:?usage: $0 path/to/mflb_cli}
limit=60 # seconds per input; a rejection is immediate, so only a hang reaches it
err=$(mktemp)
trap 'rm -f "$err"' EXIT
failures=0

expect_usage_error() {
    timeout "$limit" "$cli" "$@" >/dev/null 2>"$err"
    local code=$?
    if [[ $code -eq 124 ]]; then
        echo "FAIL (timed out after ${limit}s): mflb_cli $*"
        failures=$((failures + 1))
    elif [[ $code -ne 2 ]]; then
        echo "FAIL (exit $code, want 2): mflb_cli $*"
        failures=$((failures + 1))
    elif [[ ! -s $err ]]; then
        echo "FAIL (exit 2 but empty stderr): mflb_cli $*"
        failures=$((failures + 1))
    else
        echo "ok: mflb_cli $* -> $(head -n 1 "$err")"
    fi
}

for backend in finite des sharded-des; do
    expect_usage_error --mode eval --backend "$backend" --m 0
    expect_usage_error --mode eval --backend "$backend" --dt -1
    expect_usage_error --mode eval --backend "$backend" --dt nan
    expect_usage_error --mode eval --backend "$backend" --dt inf
    expect_usage_error --mode eval --backend "$backend" --episodes 0
done
expect_usage_error --mode train --trainer ppo --horizon 0
expect_usage_error --mode train --trainer cem --dt nan
expect_usage_error --mode train --trainer ppo --dt inf
expect_usage_error --mode dp --dt nan
expect_usage_error --mode bogus
expect_usage_error --mode eval --backend des --fel heap

if [[ $failures -ne 0 ]]; then
    echo "$failures invalid input(s) not rejected with exit 2"
    exit 1
fi
