GO ?= go
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3
COVER_THRESHOLD ?= 75.0
FUZZTIME ?= 30s
BENCH_THRESHOLD ?= 30

.PHONY: all build test race bench bench-ci bench-check bench-baseline bench-harness cover fuzz vet fmt lint vulncheck apicheck api ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race mirrors the CI `race` job: the sharded engine and striped compliance
# layer must stay race-clean.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/audit -run 'Pipeline|Strict|Backpressure|Drop|Close|Order'
	$(GO) test -race -count=5 ./internal/store ./internal/cryptoutil -run 'Differential|CipherCache'
	$(GO) test -race -count=10 ./internal/core -run 'CipherCache|ForgetCountsOnlyUnexpiredRecords|ResidentBytesPerRecord'

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# bench-ci mirrors the CI `bench-smoke` job: the quick microbenchmarks with
# machine-readable output in BENCH_ci.json. Output goes straight to the
# file (not through tee) so a failing `go test` fails the target.
# 1000x iterations, best of 5 counts: the regression gate compares each
# side's best run, and single short runs swing well past the 30% gate on
# a shared box while minima are stable.
bench-ci:
	$(GO) test -run '^$$' \
		-bench 'Engine_|Core_G|RESPRoundTrip|Resp_|FsyncSpectrum|ComplianceSpectrum|Audit_' \
		-benchtime 1000x -count 5 -benchmem -json . > BENCH_ci.json
	$(GO) test -run '^$$' -bench 'Forget_KeysPerOwner/keys=(16|256)/' \
		-benchtime 1000x -count 5 -benchmem -json . >> BENCH_ci.json
	$(GO) test -run '^$$' -bench . -benchtime 1000x -count 5 -benchmem -json \
		./internal/server >> BENCH_ci.json
	$(GO) test -run '^$$' -bench . -benchtime 1000x -count 5 -benchmem -json \
		./internal/ops >> BENCH_ci.json

# bench-check mirrors the CI `bench regression gate` step: fresh smoke
# numbers diffed against the committed baseline, failing on any matching
# benchmark whose throughput dropped more than BENCH_THRESHOLD percent.
bench-check: bench-ci
	$(GO) run ./tools/benchdiff -baseline BENCH_baseline.json -current BENCH_ci.json \
		-threshold $(BENCH_THRESHOLD) -skip 'Parallel$$'

# bench-baseline refreshes the committed baseline after an INTENDED perf
# change (or a benchmark-set change). Commit the result with the change
# that explains it.
bench-baseline: bench-ci
	cp BENCH_ci.json BENCH_baseline.json
	@echo "BENCH_baseline.json refreshed; commit it with the change that moved the numbers"

# bench-harness mirrors the CI `bench-harness` job: bench/ is its own
# module, invisible to `go build ./...` and `go test ./...`, so this is the
# only target that compiles it, runs its tests and smoke-runs every
# workload of the repository benchmark.
bench-harness:
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

# cover mirrors the CI `cover` job: coverage profile + ratchet threshold.
cover:
	$(GO) test -coverprofile=cover.out ./internal/... ./pkg/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v min="$(COVER_THRESHOLD)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' \
		|| { echo "coverage $$total% fell below the $(COVER_THRESHOLD)% ratchet"; exit 1; }

# fuzz mirrors the CI `fuzz-smoke` job: a bounded mutation run per target.
fuzz:
	$(GO) test ./internal/resp -run '^$$' -fuzz '^FuzzReadValue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/resp -run '^$$' -fuzz '^FuzzReadCommand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzDecodeAuditRecord$$' -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

# apicheck mirrors the CI `api surface` step: the exported surface of the
# public SDK must match the checked-in golden, so accidental breaking
# changes are caught in review. After an INTENDED surface change, run
# `make api` to regenerate the golden and commit it with the change.
apicheck:
	$(GO) run ./tools/apidump ./pkg/gdprkv | diff -u api/gdprkv.golden - \
		|| { echo "public API surface of pkg/gdprkv changed; if intended, run 'make api' and commit the golden"; exit 1; }

api:
	$(GO) run ./tools/apidump ./pkg/gdprkv > api/gdprkv.golden

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint mirrors the CI `staticcheck` job (pinned version; installed on demand).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# vulncheck mirrors the CI `govulncheck` job (pinned version).
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

ci: fmt vet apicheck build test race lint
