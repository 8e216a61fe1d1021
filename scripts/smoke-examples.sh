#!/bin/sh
# smoke-examples: build and run every example program, failing on a
# non-zero exit, and check the scenario outcomes the paper reports: the
# scenario B tracker gets its spoofed readings acknowledged, and on the
# hardened (CCM*-secured) network both the AT injection and the spoof
# are rejected while they succeed on the open one.
#
# Usage: scripts/smoke-examples.sh
set -eu

GO="${GO:-go}"
WORKDIR="$(mktemp -d)"

cleanup() {
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke-examples: FAIL — $1" >&2
    exit 1
}

for EX in tracker smartphone hardened watchdog quickstart lamp thread sniffer; do
    $GO build -o "$WORKDIR/$EX" "./examples/$EX"
    ARGS=""
    if [ "$EX" = sniffer ]; then
        ARGS="-periods 3 -o $WORKDIR/sniffer.pcap"
    fi
    echo "smoke-examples: $EX $ARGS"
    # shellcheck disable=SC2086 # ARGS is a word list
    (cd "$WORKDIR" && "./$EX" $ARGS) >"$WORKDIR/$EX.out" 2>&1 || {
        cat "$WORKDIR/$EX.out" >&2
        fail "$EX exited non-zero"
    }
done

grep -q "step 4 — spoofed readings acknowledged" "$WORKDIR/tracker.out" ||
    fail "tracker: spoofed readings not acknowledged"

sed -n '/^--- open/,/^--- secured/p' "$WORKDIR/hardened.out" >"$WORKDIR/open.out"
sed -n '/^--- secured/,$p' "$WORKDIR/hardened.out" >"$WORKDIR/secured.out"
for STEP in "AT inject" "spoof"; do
    grep -q "^$STEP: *REJECTED" "$WORKDIR/secured.out" ||
        fail "hardened: $STEP not rejected on the secured network"
    if grep -q "^$STEP: *REJECTED" "$WORKDIR/open.out"; then
        fail "hardened: $STEP rejected on the open network"
    fi
done

echo "smoke-examples: all examples ran, scenario outcomes as expected — PASS"
