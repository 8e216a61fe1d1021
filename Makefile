GO ?= go
FUZZTIME ?= 5s

.PHONY: build vet test race racestream racerunner racesim determinism bench fuzz smoke smoke-health smoke-sim campaign-smoke examples calibrate calibrate-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark sweep with allocation counts, repeated for statistical
# stability, persisted both as raw text (bench.out — feed two of these to
# benchstat to compare revisions) and as machine-readable BENCH.json.
# BenchmarkWazaBeeRX/TX run one whole capture or frame per call;
# BenchmarkRxStream/BenchmarkTxPooled reuse one stream and pooled
# buffers across calls; BenchmarkZigbeeRX is the stick demodulating the
# frame BenchmarkWazaBeeRX receives, through the same receive chain.
BENCHCOUNT ?= 5
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCHCOUNT) . | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -out BENCH.json -history BENCH_history.jsonl

# Short smoke runs of the native fuzzers: the capture readers must never
# panic on corrupt pcap/ZEP/TCP-record input, the streaming receiver must
# decode byte-identically for any fuzzed chunking of a capture (the
# WazaBee Access Address and the stick's O-QPSK preamble alike), and the
# BLE advertising, 802.15.4, Zigbee NWK/APS/ZCL and 6LoWPAN parsers must
# reject hostile input without panicking, and the mesh simulator must
# absorb any intruder-injected MAC frame with its energy ledger,
# counters and digest intact.
fuzz:
	$(GO) test ./internal/ble -run '^$$' -fuzz FuzzParseAuxAdvInd -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzPCAPRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzZEPDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -run '^$$' -fuzz FuzzReadRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzStreamChunks -fuzztime $(FUZZTIME)
	$(GO) test ./internal/experiment/runner -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzParseMACFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzParsePPDU -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzOpenFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ieee802154 -run '^$$' -fuzz FuzzOQPSKStreamChunks -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sixlowpan -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sixlowpan -run '^$$' -fuzz FuzzReassembler -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee -run '^$$' -fuzz FuzzParseZigbeeDataFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/zigbee/sim -run '^$$' -fuzz FuzzIntruderFrame -fuzztime $(FUZZTIME)

# The concurrent receiver tests under the race detector: many RxStreams
# plus whole-capture calls sharing one Receiver/registry, and the stick's
# DemodulateStats and the BLE DemodulateFrame called concurrently on one
# shared PHY each and one registry.
racestream:
	$(GO) test -race -run 'TestStreamConcurrentChannels|TestSharedReceiversConcurrent' -count 4 ./internal/core

# The Monte-Carlo runner hammered under the race detector: worker-pool
# churn and concurrent sweeps on one shared registry, with exact shard
# and trial accounting checked afterwards.
racerunner:
	$(GO) test -race -run 'TestRunnerHammer' -count 2 ./internal/experiment/runner

# The discrete-event simulator's concurrency surface under the race
# detector: multiple observers draining blocking capture channels while
# the event loop runs and the health registry is polled.
racesim:
	$(GO) test -race -run 'TestSimConcurrentObservers' -count 4 ./internal/zigbee/sim

# The reproducibility contracts: Monte-Carlo results bit-identical across
# worker counts {1,4,8}, sweep-order permutations, and checkpoint/resume
# boundaries; simulator capture sequences bit-identical across same-seed
# runs and event-batch sizes; campaign matrices identical across worker
# counts and checkpoint resumes, with every scenario's seed-1 outcome
# (and so the frame-tier IDS sampler) pinned.
determinism:
	$(GO) test -run 'DeterministicAcrossWorkers|OrderIndependent|CheckpointResume|CancellationAndResume|ShuffledPointOrder' -count 1 ./internal/experiment ./internal/experiment/runner
	$(GO) test -run 'TestSimDeterministic|TestSimSeedsDiverge|TestRunDeterministicDigest' -count 1 ./internal/zigbee/sim ./cmd/wazabeesim
	$(GO) test -run 'TestFidelity' -count 1 ./internal/experiment
	$(GO) test -run 'TestMatrixWorkerCountIndependence|TestMatrixCheckpointResume|TestScenarioGoldenOutcomes' -count 1 ./internal/campaign

# Refit the symbol/frame-tier calibration tables from the IQ ground
# truth (internal/calib; ~20 s) and embed them. calibrate-check refits
# into memory and fails when the checked-in table has drifted from what
# the current DSP chain produces — the guard that keeps the cheap tiers
# honest as the IQ path evolves.
calibrate:
	$(GO) run ./cmd/calibrate
calibrate-check:
	$(GO) run ./cmd/calibrate -check

# One-shot link diagnostics over the simulated medium: exercises the
# whole TX → medium → RX → LinkStats path from the CLI, then Table III and
# the PER sweep end to end on the frame tier.
smoke:
	$(GO) run ./cmd/wazabee link -frames 5
	$(GO) run ./cmd/table3 -frames 2 -fidelity frame
	$(GO) run ./cmd/persweep -frames 2 -fidelity frame

# End-to-end health smoke: boot wazabeed, wait for /readyz to go 200,
# assert the flight recorder is non-empty, then check the daemon shuts
# down cleanly on SIGTERM.
SMOKE_HEALTH_ADDR ?= 127.0.0.1:19753
smoke-health:
	./scripts/smoke-health.sh "$(SMOKE_HEALTH_ADDR)"

# End-to-end observatory smoke: a small simulated tree with -trace and
# -energy, validating the Chrome trace parses, energy totals are nonzero
# and same-seed traces stay byte-identical.
smoke-sim:
	./scripts/smoke-sim.sh

# End-to-end campaign smoke: two attack scenarios (plus the benign
# baseline) at 20 trials per scenario through wazabeecampaign, asserting
# the ROC matrix digest matches the pinned value at two worker counts.
campaign-smoke:
	./scripts/smoke-campaign.sh

# Every example program end to end, checking the scenario outcomes: the
# tracker's spoofed readings are acknowledged, and the hardened network
# rejects both the AT injection and the spoof once secured.
examples:
	./scripts/smoke-examples.sh

ci: vet build test race racestream racerunner racesim determinism calibrate-check fuzz smoke smoke-health smoke-sim campaign-smoke examples
