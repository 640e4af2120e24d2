GO ?= go
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3
COVER_THRESHOLD ?= 85.0
FUZZTIME ?= 30s

.PHONY: all build test smoke race bench bench-harness e2e loc cover fuzz vet fmt lint vulncheck apicheck api ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# smoke runs the rights-read benchmarks once (DESIGN.md §16 gives their stage
# split) and the experiments command at tiny scale on the two targets it
# drives by hand, so neither rots behind a green build.
smoke:
	$(GO) test -run '^$$' -bench GetUser -benchtime 1x ./internal/core ./internal/server
	$(GO) run ./cmd/experiments -run ycsb -workload A -records 300 -ops 1000 -workers 2 -mode gdpr -batch 8
	$(GO) run ./cmd/experiments -run personas -subjects 20 -records 4 -ops 300 -batch 4

# race runs the whole module once under the race detector, then
# race-drills.txt, one `go test` per count and package of its lines.
race:
	$(GO) test -race ./...
	@awk '!/^#/ && NF == 3 { k = $$1 " " $$2; if (k in run) run[k] = run[k] "|" $$3; else { keys[n++] = k; run[k] = $$3 } } \
		END { for (i = 0; i < n; i++) print keys[i], run[keys[i]] }' race-drills.txt | \
	while read count pkg run; do \
		echo "$(GO) test -race -count=$$count -run '$$run' $$pkg"; \
		$(GO) test -race -count=$$count -run "$$run" $$pkg || exit 1; \
	done

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# bench/ is its own module, invisible to `go build ./...` and `go test
# ./...`, so bench-harness is the only target that compiles it, runs its
# tests and smoke-runs every workload of the repository benchmark.
bench-harness:
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

# e2e runs every example (the guard test fails on an examples/ directory
# with no line here), then asks a compliant server with -ops-addr for /info
# and /metrics over real HTTP: the compliance-lag gauges must be there even
# on an idle store.
e2e:
	$(GO) run ./examples/clustertour
	$(GO) run ./examples/sdktour
	$(GO) run ./examples/opstour
	set -e; dir=$$(mktemp -d); $(GO) build -o $$dir/gdprkv-server ./cmd/gdprkv-server; \
	$$dir/gdprkv-server -addr 127.0.0.1:16380 -compliant -ops-addr 127.0.0.1:17071 & srv=$$!; \
	trap 'rm -rf $$dir; kill $$srv' EXIT; \
	for i in $$(seq 1 50); do curl -sf http://127.0.0.1:17071/info >/dev/null && break; sleep 0.1; done; \
	curl -sf http://127.0.0.1:17071/info | grep -q '"gdprstore"'; \
	curl -sf http://127.0.0.1:17071/info/retention | grep -q 'retention_lag_ms'; \
	curl -sf http://127.0.0.1:17071/metrics > $$dir/metrics.txt; head -40 $$dir/metrics.txt; \
	grep -q '^gdprkv_erasure_lag_seconds ' $$dir/metrics.txt; \
	grep -q '^gdprkv_retention_lag_seconds ' $$dir/metrics.txt

# loc prints the Go lines of the root module per package directory, non-test
# and test, then the module's totals. bench/ is a module of its own and is
# left out, as are dot-directories (the benchmark's build cache).
loc:
	@find . \( -path ./bench -o -name '.?*' \) -prune -o -name '*.go' -print0 | xargs -0 wc -l | \
	awk '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); dirs[d] = 1; \
		if ($$2 ~ /_test\.go$$/) { test[d] += $$1; T += $$1 } else { src[d] += $$1; S += $$1 } \
	} \
	END { \
		printf "%-28s %9s %6s\n", "package", "non-test", "test"; \
		for (d in dirs) printf "%-28s %9d %6d\n", d, src[d], test[d] | "sort"; \
		close("sort"); \
		printf "%-28s %9d %6d\n", "root module", S, T \
	}'

# cover writes cover.out and fails if total statement coverage is below
# COVER_THRESHOLD. Raise the threshold when coverage rises, never lower it:
# that is the ratchet.
cover:
	$(GO) test -coverprofile=cover.out ./internal/... ./pkg/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v min="$(COVER_THRESHOLD)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' \
		|| { echo "coverage $$total% fell below the $(COVER_THRESHOLD)% ratchet"; exit 1; }

# fuzz is a bounded mutation run per fuzz target, one at a time (go test
# takes one -fuzz pattern per package). The guard test fails on a Fuzz
# function with no line here.
fuzz:
	$(GO) test ./internal/resp -run '^$$' -fuzz '^FuzzReadValue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/resp -run '^$$' -fuzz '^FuzzReadCommand$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzDecodeAuditFrame$$' -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

# apicheck fails when the exported surface of the public SDK differs from
# the checked-in golden, so accidental breaking changes are caught in
# review. After an INTENDED surface change, run `make api` to regenerate
# the golden and commit it with the change.
apicheck:
	$(GO) run ./tools/apidump ./pkg/gdprkv | diff -u api/gdprkv.golden - \
		|| { echo "public API surface of pkg/gdprkv changed; if intended, run 'make api' and commit the golden"; exit 1; }

api:
	$(GO) run ./tools/apidump ./pkg/gdprkv > api/gdprkv.golden

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint and vulncheck run pinned tool versions, fetched on demand.
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# ci is every target CI runs; the guard test fails on one that CI does not.
ci: fmt vet apicheck build test smoke race lint vulncheck cover fuzz bench-harness e2e
