GO ?= go
STATICCHECK_VERSION ?= 2023.1.7
GOVULNCHECK_VERSION ?= v1.1.3
COVER_THRESHOLD ?= 75.0
FUZZTIME ?= 30s

.PHONY: all build test race bench bench-harness loc cover fuzz vet fmt lint vulncheck apicheck api ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race mirrors the CI `race` job: the sharded engine and striped compliance
# layer must stay race-clean. Its last four lines are the cluster-e2e job's
# SDK dispatch drill and its peer-link and replica-resync drills.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/audit -run 'Pipeline|Strict|Backpressure|Drop|Close|Order'
	$(GO) test -race -count=5 ./internal/store ./internal/cryptoutil -run 'Differential|Expiry|Heap|CipherCache'
	$(GO) test -race -count=10 ./internal/core -run 'CipherCache|ForgetCountsOnlyUnexpiredRecords|ResidentBytesPerRecord'
	$(GO) test -race -count=10 ./internal/core -run 'TestGetUserConcurrentWithWrites|TestGetUserRacingForget|TestUnobjectDuringRightsReads|TestReadsReturnAfterJournalHandOff|TestCloseWaitsOutCallsInFlight|TestDeleteRacingCompactStaysDeleted|TestReplayKeepsRecordsWithTheirWriter|TestBackupIsCompliantSnapshot|TestRestoreKeepsLaterObjection|TestEventualForgetThenRestoreStaysErased|TestRestoreRefusesKeyMaterial|TestRestoreRefusesShortGeneration|TestRestoreReplacesLiveState|TestBackgroundExpiryIsAudited|TestReplicaKeepsNoErasureBacklog|TestForgetLeavesNoKeyOnDisk|TestInterruptedShredZeroesSlot|TestZeroedSlotWithoutShred|TestMissingKeyFileRefused|TestTornKeySlotZeroed|TestOwnerTooLongForKeySlot|TestEnvelopeGKEYRefused|TestFullSyncDropsStaleObjection|TestObjectionWithoutRecords|TestOwnerKeyReserved|TestObjectionSurvivesForget|TestRestoreRefusesLegacyObjection|TestOwnerRecordCutBeforeRestamps|TestLegacyObjectionsRefused|TestFullSyncZeroesReplicaStaleKey|TestRetiredAOFFormsRefused|TestRetiredObjectionFormsRefused|TestObjectionJournalsOneRecord|TestErasureSurvivesFlushAll'
	$(GO) test -race -count=3 ./pkg/gdprkv
	$(GO) test -race -count=3 -run 'TestClusterClient|TestClusterPipeline|TestClusterFailover' ./internal/server
	$(GO) test -race -run 'TestClusterSlotMigrationWithAsk|TestClusterMigration|TestClusterForgetMidMigration|TestClusterForgetDuringMigrationRace|TestClusterGetUserRacingMigration|TestClusterUnobjectDuringMigration|TestClusterFailoverPromoteReplica|TestClusterPeer|TestClusterPlacementRefusesOffSlotWrite|TestClusterRightsRouteToOwnerSlot|TestClusterRefusesMisplacedData|TestClusterUnreadReplyDoesNotBlockMigration|TestRestoreKeyWithdrawalNeedsRights|TestClusterForgetWithNodeDown|TestClusterGetUserSkipsLaggingReplica|TestClusterReplicaRedirects|TestDemotedPrimaryStopsExpiring|TestPromotionResumesDuties' ./internal/server
	$(GO) test -race -count=5 -run 'LastErr|PartialResync|FullSync' ./internal/replica

bench:
	$(GO) test -run NONE -bench . -benchmem ./...

# bench-harness mirrors the CI `bench-harness` job: bench/ is its own
# module, invisible to `go build ./...` and `go test ./...`, so this is the
# only target that compiles it, runs its tests and smoke-runs every
# workload of the repository benchmark.
bench-harness:
	$(GO) test -C bench ./...
	bash bench/run.sh -smoke

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
	$(GO) test ./internal/audit -run '^$$' -fuzz '^FuzzDecodeAuditFrame$$' -fuzztime $(FUZZTIME)

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
