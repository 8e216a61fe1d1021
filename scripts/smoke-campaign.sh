#!/bin/sh
# smoke-campaign: run the attack/defense campaign engine end-to-end on a
# small sweep — two attack scenarios (plus the benign baseline that
# rides along) at 20 trials per scenario, each trial scored at every
# threshold — and assert the ROC matrix digest matches the pinned value
# at two different worker counts. The digest is
# a sha256 over the matrix JSON, so this checks the scenario plans, the
# mesh, the frame-tier IDS model, the Monte-Carlo runner and the
# reduction all at once, including worker-count independence.
#
# Usage: scripts/smoke-campaign.sh
set -eu

GO="${GO:-go}"
WORKDIR="$(mktemp -d)"
BIN="$WORKDIR/wazabeecampaign"

# Pinned for: -scenarios scenario-a-injection,channel-migration
#             -trials 20 -seed 7 (default thresholds).
# Update only for an intended campaign/simulator behavior change, in
# lockstep with the goldens in internal/campaign/campaign_test.go.
WANT="4570f67983f1968a35ab1902d2f5ad6deb46299a688c204cbab02667bb7c0d4d"

cleanup() {
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

echo "smoke-campaign: building wazabeecampaign"
$GO build -o "$BIN" ./cmd/wazabeecampaign

for WORKERS in 1 4; do
    echo "smoke-campaign: 2 attack scenarios x 20 trials, workers=$WORKERS"
    "$BIN" -scenarios scenario-a-injection,channel-migration \
        -trials 20 -seed 7 -workers "$WORKERS" \
        -quiet -out "$WORKDIR/roc-$WORKERS.json" >"$WORKDIR/digest-$WORKERS.txt"
    GOT="$(sed -n 's/^digest sha256:\([0-9a-f]*\)$/\1/p' "$WORKDIR/digest-$WORKERS.txt")"
    if [ -z "$GOT" ]; then
        echo "smoke-campaign: FAIL — no digest in output:" >&2
        cat "$WORKDIR/digest-$WORKERS.txt" >&2
        exit 1
    fi
    if [ "$GOT" != "$WANT" ]; then
        echo "smoke-campaign: FAIL — workers=$WORKERS digest $GOT, want $WANT" >&2
        exit 1
    fi
done

if ! cmp -s "$WORKDIR/roc-1.json" "$WORKDIR/roc-4.json"; then
    echo "smoke-campaign: FAIL — matrix JSON differs across worker counts" >&2
    exit 1
fi

# The JSON must carry the full ROC shape: every cell with per-detector
# rows and Wilson bounds, and the impact table.
for FIELD in '"cells"' '"detector"' '"lo"' '"hi"' '"impacts"' '"benign-baseline"'; do
    if ! grep -q "$FIELD" "$WORKDIR/roc-1.json"; then
        echo "smoke-campaign: FAIL — matrix JSON missing $FIELD" >&2
        exit 1
    fi
done

echo "smoke-campaign: digest pinned and worker-independent — PASS"
