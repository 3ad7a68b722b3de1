GO ?= go

.PHONY: check build fmt vet test race checked fuzz-smoke bench-smoke bench bench-compare bench-gate bench-obs health-golden fleet-smoke intangd-smoke loc

# check is the fast gate: build, formatting, vet, tests (which include
# the health-report golden and the hot-path alloc gate), the fuzz seed
# corpora (see fuzz-smoke), and a single-iteration pass over
# the hot-path benchmarks so a broken benchmark can't sit unnoticed
# until the next `make bench`. The race detector runs as its own target
# (and its own CI job) because it multiplies test time severalfold.
check: build fmt vet test health-golden fuzz-smoke bench-smoke fleet-smoke intangd-smoke

build:
	$(GO) build ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector, then repeats ten times
# the tests of state that parallel campaign workers share: the one DPI
# automaton every censor device scans, and serial/parallel determinism
# of the campaign executor — Table 1, then Table 4, the censor matrix,
# the ablation and Table 5 — and five times the journaled executor's
# kill/resume drill over its second cube, the §8 ablation (workers
# restoring, journaling and stopping shards while the tracker samples
# them), the live-snapshot consistency test (every mid-campaign
# /progress scrape reads one state of the shards the workers fold
# trials into), and the tests of a live world's one lock and its
# per-connection wait queues: five times the daemon under concurrent
# flows, expiry and plane scrapes, and ten times the userspace-stack
# tests (blocked reads, dials and accepts woken only by their own
# connection's events, deadline timers, cancelled contexts and a closing
# device) and the daemon's served-connection teardown.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run '^TestSharedMatcher$$' ./internal/dpi
	$(GO) test -race -count=10 -run '^TestObsSerialParallelDeterminism$$' ./internal/experiment
	$(GO) test -race -count=10 -run '^TestCampaignSerialParallelDeterminism$$' ./internal/experiment
	$(GO) test -race -count=5 -run '^TestFleetKillResumeBitIdentical$$/^ablation$$' ./internal/fleet
	$(GO) test -race -count=5 -run '^TestFleetPlaneLiveSnapshotsConsistent$$' ./internal/experiment/progresshttp
	$(GO) test -race -count=5 -run '^TestProxyConcurrentFlowsWithPlaneScrape$$' ./internal/intangd
	$(GO) test -race -count=10 ./internal/device/uis
	$(GO) test -race -count=10 -run '^TestServedConnectionsClose$$' ./internal/intangd

# checked runs the suite in the checked build (the intango_checked
# tag): a released packet is poisoned and never recycled, the bytes
# a simulator's Reset takes back, a connection's out-of-order buffer
# when its queue drains and a GFW stream's buffers when they restart
# are scribbled and never handed out again, and so are the
# connections, flows, TCBs, devices and middleboxes a recycled rig
# takes back (zeroed). A premature release, or a view or reference
# that outlives its trial, then moves a golden instead of reading the
# next owner's data. Normal builds pay nothing for it. The tests
# that measure recycling itself skip here and run in the normal suite.
checked:
	$(GO) test -tags intango_checked ./...

# fuzz-smoke replays the checked-in seed corpora of the topology,
# censor and strategy spec parsers (the strategy grammar's parser also
# builds every registered strategy from its text), of the daemon's
# /strategy POST body over loopback, of the checkpoint journal and
# manifest loaders,
# of the differential tests that hold the GFW's stream reassembly and
# IP fragment assembly to their per-byte reference models, a TCP
# connection's out-of-order queue to the copy-per-segment one it
# replaced, the pooled
# datagram decoder and fragmenter to the heap ones they replaced, the
# keyword automaton to a case-folded naive search over chunked
# streams, and the simulator's event order to a sorted reference, as
# ordinary tests (no -fuzz: that would fuzz indefinitely).
fuzz-smoke:
	$(GO) test -run '^FuzzParseTopo$$' ./internal/topo
	$(GO) test -run '^FuzzParseCensor$$' ./internal/censor
	$(GO) test -run '^FuzzParseSpec$$' ./internal/core
	$(GO) test -run '^FuzzStrategyPOST$$' ./internal/intangd
	$(GO) test -run '^(FuzzJournal|FuzzManifest)$$' ./internal/experiment
	$(GO) test -run '^FuzzStreamInsert$$' ./internal/gfw
	$(GO) test -run '^FuzzOOOReassembly$$' ./internal/tcpstack
	$(GO) test -run '^FuzzMatcherStream$$' ./internal/dpi
	$(GO) test -run '^(FuzzFragmentAssemble|FuzzFragmentPooled)$$' ./internal/packet
	$(GO) test -run '^FuzzSimulatorOrder$$' ./internal/netem

# bench measures the trial hot path, the bandwidth-constrained goodput
# path (shaper + congestion control live, allocs recorded), the
# serial/parallel campaign loops and the layer benchmarks (the netem
# event loop at a campaign's queue shape, the trial RNG's reseed and
# draws, a plain-router hop, a GFW blocklist volley, the DPI keyword
# scan and stream feed, one fetch between two userspace stacks on a
# pipe, one segment cut by ooo-ipfrag and reassembled, one segment
# received by a TCP connection, in order or out of it, and one trial
# rig rebuilt on a recycled arena), five runs
# of 400 ms each, writing
# BENCH_netem.json (the median ns/op with its min and max, B/op and
# allocs/op, trials/sec, pool traffic, the layers section, and the
# recorded pre-pooling baseline for comparison). It takes about 30 s.
bench:
	$(GO) run ./cmd/tables -what bench -bench-out BENCH_netem.json

# bench-smoke runs each hot-path benchmark exactly once — the trial,
# the campaigns, the trial rig build on its own on a fresh arena, and
# the layer benchmarks `make bench` records (the recycled rig build
# among them) — a correctness pass, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTrialHotPath|BenchmarkCampaign' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkRigBuild|BenchmarkLayers' -benchtime 1x ./internal/experiment/

# bench-compare diffs two BENCH_netem.json artifacts:
#   make bench-compare OLD=old.json NEW=BENCH_netem.json
OLD ?= BENCH_netem.json.old
NEW ?= BENCH_netem.json
bench-compare:
	$(GO) run ./cmd/tables -what bench-compare $(OLD) $(NEW)

# bench-gate is the CI allocation-regression gate: re-measure the trial
# hot path, the goodput trial (one 64 KiB upload over the shaped link),
# the parallel campaign executor and each layer benchmark, and fail if
# any one's allocs/op, or the goodput trial's B/op, exceeds the
# committed BENCH_netem.json baseline by more than 5% (the other
# layers commit 0, so they must stay at 0; the userspace-stack fetch
# commits its count). Allocation varies far less than timing on shared
# CI runners: the trial's, the goodput trial's and the layers' counts
# repeat exactly (the goodput trial's B/op moves by a few hundred
# bytes), and the parallel campaign's varies a little at GOMAXPROCS 2
# (four runs read 837-864), which the 5% tolerance absorbs.
# Timing drift is diagnosed with bench-compare instead, which prints
# each side's ns/op spread.
bench-gate:
	$(GO) run ./cmd/tables -what bench-gate BENCH_netem.json

# bench-obs gates the disabled arm only: it fails if the
# uninstrumented, unshaped trial — telemetry off, congestion machinery
# dormant, checkpoint journal linked — exceeds the hot-path allocation
# budgets, one-shot or on a warmed campaign arena. The benchmark that
# follows reports the enabled arm's overhead without gating it; on 2
# vCPUs it last read +29 % to +58 % (disabled ~41-51 µs, enabled
# ~56-80 µs per trial).
bench-obs:
	$(GO) test -run '^TestTelemetryDisabledZeroAlloc$$' -count=1 ./internal/experiment/
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchtime 2s ./internal/experiment/

# health-golden replays the post-campaign health report against its
# checked-in golden rendering (byte-identical).
health-golden:
	$(GO) test -run '^TestHealth' -count=1 ./internal/experiment/

# fleet-smoke proves checkpoint/resume end to end with a real SIGKILL:
# run a journaled campaign that kills itself (-fleet-kill-after) two
# checkpoint frames in, resume it from the same checkpoint dir, and
# require the resumed result document to be byte-identical to a fresh
# unjournaled single-worker run. Exercises the exact crash path the
# in-test OnFrame hook cannot: a process that dies without deferred
# cleanup. Its scratch directory is made here and removed on every
# exit, failure included, so no other target leaves one behind.
fleet-smoke:
	tmp=$$(mktemp -d /tmp/fleet-smoke.XXXXXX) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/tables ./cmd/tables && \
	{ $$tmp/tables -what fleet -scale quick -shards 4 -shard-procs 2 \
		-checkpoint-dir $$tmp/ckpt -checkpoint-every 8 \
		-fleet-kill-after 2 -result-out $$tmp/killed.json >/dev/null 2>&1 || true; } && \
	$$tmp/tables -what fleet -scale quick -shards 4 -shard-procs 2 \
		-checkpoint-dir $$tmp/ckpt -checkpoint-every 8 \
		-result-out $$tmp/resumed.json >/dev/null && \
	$$tmp/tables -what fleet -scale quick -shards 1 -shard-procs 1 \
		-result-out $$tmp/serial.json >/dev/null && \
	cmp $$tmp/resumed.json $$tmp/serial.json
	@echo "fleet-smoke: kill/resume result is bit-identical to serial"

# intangd-smoke boots the live evasion daemon against a fully pinned
# gfw2017 (no sampled probabilities), then drives the whole loop from
# the outside: a keyword fetch that must evade under teardown-reversal,
# a live strategy switch to passthrough over the plane, the same fetch
# now censored, and a /flows scrape that must show both flows — the
# evaded one under its strategy and the censored one with got_rst. The
# censored fetch runs last so its 90-second pair blocklist never sits
# in the smoke's way. Like fleet-smoke, it removes its scratch
# directory on every exit.
INTANGD_CENSOR := tcb:evolved detect:keywords(ultrasurf) react:reset(type1) react:reset(type2) react:block(dur=1m30s) param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)
intangd-smoke:
	tmp=$$(mktemp -d /tmp/intangd-smoke.XXXXXX) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/intangd ./cmd/intangd || exit 1; \
	$$tmp/intangd serve -ports-file $$tmp/ports.env \
		-strategy teardown-reversal -censor '$(INTANGD_CENSOR)' \
		> $$tmp/serve.log 2>&1 & \
	pid=$$!; \
	for i in $$(seq 100); do [ -s $$tmp/ports.env ] && break; sleep 0.1; done; \
	. $$tmp/ports.env; \
	$$tmp/intangd fetch -addr $$proxy -uri '/search?q=ultrasurf' -expect ok && \
	$$tmp/intangd strategy -plane $$plane pass >/dev/null && \
	$$tmp/intangd fetch -addr $$proxy -uri '/search?q=ultrasurf' -expect blocked && \
	$$tmp/intangd flows -plane $$plane > $$tmp/flows.json; \
	status=$$?; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	[ $$status -eq 0 ] || { cat $$tmp/serve.log; exit $$status; }; \
	grep -q 'teardown-reversal' $$tmp/flows.json && \
	grep -q '"got_rst":true' $$tmp/flows.json
	@echo "intangd-smoke: evaded, switched live, censored, flows observed"

# loc prints the tracked size of the code: lines of non-test Go outside
# perfbench/, then the same count without blank and comment-only lines.
LOC_GO = find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} +
loc:
	@echo "non-test Go lines: $$($(LOC_GO) | wc -l)"
	@echo "without blank and comment-only lines: $$($(LOC_GO) | grep -cvE '^[[:space:]]*(//.*)?$$')"
