# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: test race bench fuzz fmt vet lint

test:
	$(GO) build ./...
	$(GO) test -shuffle=on -timeout 600s ./...

# Static gates: formatting, go vet, and the determinism-lint suite
# (cmd/lifting-lint) that mechanically enforces the byte-identical
# document contract — wall-clock reads, global rand, unordered map
# iteration and float/time-typed document fields (see DESIGN.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lifting-lint ./...

# The concurrent halves of the runtime seam under the race detector, plus
# the reputation substrate (manager boards are hit from node goroutines
# while the harness ticks periods and hands state off), the sharded
# discrete-event engine (node events run on shard goroutines inside
# lookahead windows), the metrics collector (striped atomic counters
# hammered from sender goroutines while scrapers render the exposition)
# and the content plane (chunk stores and the HTTP gateway serve shared
# payload slices to concurrent readers).
race:
	$(GO) test -race -timeout 600s ./internal/cluster/ ./internal/transport/ ./internal/reputation/ ./internal/membership/ ./internal/sim/ ./internal/metrics/ ./internal/content/ ./internal/gateway/

# Regenerate the perf trajectory document for this PR, gating on the
# previous PR's baseline (normalized by the calibration loop, so a slower
# machine does not read as a regression).
bench:
	$(GO) run ./cmd/lifting-bench -check -baseline BENCH_PR8.json -out BENCH_PR10.json

# Extended fuzzing of the network-facing decoder (the committed seed corpus
# replays on every plain `go test`).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 60s ./internal/msg/

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
