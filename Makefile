GO ?= go

.PHONY: build test vet bench bench-build bench-query bench-update chaos fuzz loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Full benchmark sweep (one iteration each; see DESIGN.md §4 for E-numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Construction hot-path grid + BENCH_build.json (E14).
bench-build:
	$(GO) run ./cmd/ftcbench build -json

# Probe-path grid (per-call vs compiled FaultSet) + BENCH_query.json (E15).
bench-query:
	$(GO) run ./cmd/ftcbench query -json

# Dynamic-network update path (incremental Commit vs full rebuild) +
# BENCH_update.json (E17).
bench-update:
	$(GO) run ./cmd/ftcbench update -json

# Chaos drill (E22): seeded fault injection over the full serving tier —
# conn resets, snapshot failures, a replica kill/restart — with every
# answer checked against a per-generation oracle and the front's
# ejection/readmit counters asserted. Two fixed seeds, smoke-sized;
# writes the chaos sections of BENCH_serve.json.
chaos:
	$(GO) run ./cmd/ftcbench chaos -smoke -json -seed=1
	$(GO) run ./cmd/ftcbench chaos -smoke -json -seed=2

# Short fuzz runs of the label and snapshot codecs, of the replica's
# record decoder, checkpoint header and delta replay, of the syndrome
# decoder against its reference, and of the field kernels against the
# pure-Go arithmetic (the CI smoke; drop the -fuzztime to explore for
# real).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalVertexLabel' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalEdgeLabel' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeOutgoing' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzUnmarshalScheme' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzApplyDelta' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeDelta' -fuzztime 10s ./internal/serve/genlog
	$(GO) test -run '^$$' -fuzz 'FuzzParseCheckpoint' -fuzztime 10s ./internal/serve/genlog
	$(GO) test -run '^$$' -fuzz 'FuzzWireFrame' -fuzztime 10s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz 'FuzzSketchDecode' -fuzztime 10s ./internal/rs
	$(GO) test -run '^$$' -fuzz 'FuzzKernels' -fuzztime 10s ./internal/gf

# Non-test lines per package of the root module (`wc -l` of the package's
# non-test .go files, subpackages counted on their own rows), then the
# perfbench module as one row, then the total.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | { \
		total=0; \
		while read -r pkg dir; do \
			n=$$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
			printf '%7d  %s\n' "$$n" "$$pkg"; total=$$((total + n)); \
		done; \
		n=$$(find perfbench -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%7d  %s\n' "$$n" "perfbench (module)"; total=$$((total + n)); \
		printf '%7d  total\n' "$$total"; \
	}

clean:
	$(GO) clean ./...
