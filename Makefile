GO ?= go
GOFMT ?= gofmt

.PHONY: build vet lint test race shardrace stress bench bench-smoke smoke fuzz ci clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the project gate beyond go vet: gofmt drift, vet, and the
# project-specific analyzers in cmd/datacronlint (atomicsafety, boundedchan,
# determinism, errdrop, goroleak, hotalloc, httpserver, lockblock, locksafety,
# obsclock, sharddeterminism, snapshotpair, spanend). Any finding fails; a
# finding is accepted only by a //lint:ignore <analyzer> <reason> at its site.
lint:
	@drift=$$($(GOFMT) -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/datacronlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# shardrace is the focused race gate for the parallel execution plane: the
# shard package under the race detector, where every worker/coordinator
# interleaving matters most, the broker whose partition logs are the plane's
# input and output, and core's sharded, recovery, cancel and look-ahead
# tests, whose run loop keeps two poll batches in the plane at once, and the
# finished-points test, whose workers share the read-only weather field and
# each encode synopsis records into their own arena, and the staged-emit
# tests, whose merge produces each output topic once per poll batch while
# the next batch is in the plane, and the mover-table tests, whose worker
# state is snapshotted at the barrier and restored before the plane starts,
# and the Dashboard tests, whose workers write each mover's slot while the
# merge and a reader share the Dashboard (the va run covers the slots
# themselves). Part of
# ci (and of race, via ./...); kept as its own target for quick iteration on
# the plane.
shardrace:
	$(GO) test -race ./internal/shard/...
	$(GO) test -race ./internal/msg/...
	$(GO) test -race -run 'Shard|Recovery|Cancel|Prefetch|BlockLimited|FinishedPoints|StagedEmit|Movers|OldLayout|WorkerArea|Dashboard' ./internal/core
	$(GO) test -race ./internal/va

# stress reruns the packages whose tests draw from seeded random sources,
# twenty times in shuffled test order, so a test whose draws follow map
# order, or that leans on state a previous test left, fails here where a
# single run may pass. Each package's run is cut at 10 minutes. Not part of
# ci.
stress:
	$(GO) test -count=20 -shuffle=on -timeout 10m ./internal/checkpoint ./internal/core \
		./internal/flp ./internal/gen ./internal/lowlevel ./internal/shard \
		./internal/synopses ./internal/tp

# bench runs the go micro-benchmarks once each. End-to-end numbers come
# from bench/run.sh (see BENCHMARK.json).
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# bench-smoke runs the benchmark's own tiny-scale tests. bench/ is a module of
# its own, so the root `go test ./...` does not descend into it; its shadow
# run loop is built from the layers' exported functions and must reproduce
# core's output digests, so an API or output drift in the real-time layer
# fails here.
bench-smoke:
	cd bench && $(GO) test ./...

# smoke exercises the real binaries end to end on small workloads: a short
# datacron run with the metric dump enabled, one at four shards, one
# benchrunner experiment with its metric row, and an admin-plane probe —
# datacron is started with -admin, /metrics and /healthz are curled, and
# the exposition output is asserted non-empty.
smoke:
	$(GO) run ./cmd/datacron -duration 30m -vessels 8 -metrics
	$(GO) run ./cmd/datacron -duration 30m -vessels 8 -shards 4
	$(GO) run ./cmd/benchrunner -exp dashboard -scale small -metrics
	./scripts/smoke_admin.sh

# fuzz runs every fuzzer for 10 s each: the wire codecs (reports and
# synopsis records), the triple encoder and the critical-point graph
# renderer, the checkpoint frame, and every operator Restore. `go test` runs their seed corpora (testdata/fuzz/<name>/
# plus the f.Add seeds) on every invocation; this target searches beyond
# them. Not part of ci. Minimisation is capped at 2 s per input: without a
# cap, FuzzMoversRestore minimises every new input of its 47 KB seed byte
# by byte and spends the whole run on a few dozen execs (28 in 60 s,
# against 14 k with the cap).
FUZZERS = \
	internal/mobility:FuzzReportCodec \
	internal/rdf:FuzzTripleAppend \
	internal/rdfgen:FuzzCriticalPointGraph \
	internal/checkpoint:FuzzCheckpointDecode \
	internal/checkpoint:FuzzShardMetaRestore \
	internal/lowlevel:FuzzProfilerRestore \
	internal/lowlevel:FuzzAreaRestore \
	internal/synopses:FuzzSynopsesRestore \
	internal/synopses:FuzzCriticalPointCodec \
	internal/linkdisc:FuzzLinkdiscRestore \
	internal/cer:FuzzCERRestore \
	internal/core:FuzzRunStateRestore \
	internal/core:FuzzMoversRestore

fuzz:
	@for f in $(FUZZERS); do \
		pkg=$${f%%:*}; name=$${f##*:}; \
		echo "== $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime 10s -fuzzminimizetime 2s ./$$pkg || exit 1; \
	done

# ci is the full gate: compile everything, run go vet, run the static
# analysis suite, the test suite twice — plain and under the race detector —
# the benchmark's smoke tests, then the CLI smoke runs.
ci: build vet lint test shardrace race bench-smoke smoke
