# Build, test and race-check targets for the reproduction.
#
#   make build   compile everything
#   make test    tier-1 suite (what CI must keep green)
#   make race    vet + gofmt + race-detector pass over the concurrent packages
#                (the game harness, the embeddings, parallel training, and
#                the passes, obfuscators and compiler that arena workers run
#                on private thawed copies, plus the source obfuscators that
#                coevo evolves on worker goroutines and the determinism and
#                crasher tests of the concurrent difftest campaign), then
#                the serve batcher tests 20 times over to shake out
#                close/enqueue interleavings — run on every PR
#   make bench-figures  regenerate the paper figures as benchmark metrics
#   make cross   cross-compile for non-amd64 targets (portable kernel paths
#                must build — no panic stubs allowed to hide there), then
#                run the interpreter, optimizer and front-end tests as 386
#                binaries, so the IR's scalar semantics (ir.Eval,
#                ir.FPToInt64) are checked on a 32-bit word size too
#   make serve-smoke  boot `arena serve` on a scratch snapshot dir, push one
#                loadgen round through /v1/classify, then SIGTERM and require
#                a clean drain (exit 0)
#   make gateway-smoke  boot `arena gateway -spawn 3`, run strict loadgen
#                through it while killing one replica and hot-swapping a
#                snapshot across the surviving fleet; requires zero non-429
#                loss, a reportable per-replica latency manifest and a clean
#                SIGTERM drain — run on every PR
#   make fuzz-smoke  short deterministic differential-fuzz campaign: 200
#                generated programs through every module-level transform
#                (passes, pipelines, obfuscators and composed evader
#                pipelines), each applied to a thawed copy and to a clone
#                that must match it, the thawed copy run on the bytecode VM
#                and the tree interpreter and checked against the O0 oracle
#                — run on every PR
#   make fuzz    long local campaign over the full transform set (composed
#                evader pipelines included); shrunk failing programs land
#                in testdata/crashers/
#   make coevo-smoke  fixed-seed 3-generation adversarial arena at two
#                worker counts, manifests diffed at zero tolerance, then a
#                second arena run pushing every checkpoint into a spawned
#                3-replica gateway fleet that must stay fully healthy —
#                run on every PR
#   make perfbench-check  vet and test the perfbench module (a nested
#                module, so `go test ./...` at the root never compiles it);
#                perfbench is the repository's one benchmark ledger, see
#                perfbench/README.md
#   make results-check  re-run the command behind each committed figure
#                that has a run manifest in results/, and require the text
#                to match byte for byte and the manifest at `report -tol 0`
#   make check   everything CI runs: build + test + race + cross +
#                serve-smoke + gateway-smoke + coevo-smoke + fuzz-smoke +
#                perfbench-check + results-check

GO ?= go

.PHONY: build test race bench-figures perfbench-check cross serve-smoke gateway-smoke coevo-smoke fuzz-smoke fuzz results-check check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./internal/coevo/... ./internal/core/... ./internal/embed/... \
		./internal/ir/... ./internal/linalg/... ./internal/ml/... ./internal/obs/... \
		./internal/progcache/... ./internal/serve/... ./internal/gateway/... \
		./internal/vm/... ./internal/passes/... ./internal/obfus/... \
		./internal/minic/... ./internal/srcobf/... ./cmd/arena/...
	$(GO) test -race -run 'Deterministic|WritesCrashers' ./internal/difftest/
	$(GO) test -race -count=20 -run 'TestBatcher' ./internal/serve/

# arm64 covers the !amd64 dispatch build; 386 additionally shakes out
# 64-bit-assuming code on a 32-bit word size, and runs there the tests that
# pin every evaluation of the IR's scalar semantics (engines, folder, front
# end) to one definition.
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/interp/ ./internal/passes/ ./internal/minic/

bench-figures:
	$(GO) test -run xxx -bench . -benchmem .

# End-to-end serving smoke: train-on-first-boot snapshots in a temp dir,
# one loadgen round against the live server, then a SIGTERM drain that must
# exit 0. Fails loudly if the round trip or the drain hangs.
serve-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/arena" ./cmd/arena || exit 1; \
	"$$tmp/arena" serve -addr 127.0.0.1:18873 -snapshots "$$tmp/snap" \
		-models rf,lr -classes 4 -per 6 2>"$$tmp/serve.log" & \
	pid=$$!; \
	if ! "$$tmp/arena" loadgen -addr http://127.0.0.1:18873 -wait 30s \
		-qps 20 -dur 1s -conc 2 -classes 4 -per 2 ; then \
		echo "serve-smoke: loadgen failed; server log:" ; cat "$$tmp/serve.log" ; \
		kill "$$pid" 2>/dev/null ; exit 1 ; fi ; \
	kill -TERM "$$pid" && wait "$$pid" && echo "serve-smoke: clean drain"

# Sharded-tier smoke: gateway spawns 3 serve replicas, strict loadgen runs
# through the gateway while one replica is killed and a snapshot is
# hot-swapped across the surviving fleet; zero non-429 loss is required
# (-strict), the per-replica latency manifest must survive `arena report`,
# and the SIGTERM drain must exit 0.
gateway-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/arena" ./cmd/arena || exit 1; \
	"$$tmp/arena" gateway -addr 127.0.0.1:18960 -spawn 3 -snapshots "$$tmp/snap" \
		-models rf -classes 4 -per 6 2>"$$tmp/gw.log" & \
	gpid=$$!; \
	if ! "$$tmp/arena" loadgen -addr http://127.0.0.1:18960 -wait 60s \
		-qps 20 -dur 1s -conc 2 -classes 4 -per 2 ; then \
		echo "gateway-smoke: warmup loadgen failed; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	"$$tmp/arena" loadgen -addr http://127.0.0.1:18960 -strict \
		-qps 150 -dur 6s -conc 8 -classes 4 -per 2 -out "$$tmp/load.json" & \
	lpid=$$!; \
	sleep 2; \
	rpid=$$(sed -n 's/.*spawned replica .*pid \([0-9]*\)).*/\1/p' "$$tmp/gw.log" | head -1); \
	if [ -n "$$rpid" ]; then kill -9 "$$rpid" && echo "gateway-smoke: killed replica pid $$rpid"; fi; \
	sleep 1; \
	if ! "$$tmp/arena" push -addr http://127.0.0.1:18960 -model rf -snap "$$tmp/snap/rf.snap"; then \
		echo "gateway-smoke: snapshot push failed; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" "$$lpid" 2>/dev/null ; exit 1 ; fi ; \
	if ! wait "$$lpid"; then \
		echo "gateway-smoke: strict loadgen lost requests; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	"$$tmp/arena" report -tol 0 "$$tmp/load.json" "$$tmp/load.json" || { kill "$$gpid" 2>/dev/null ; exit 1 ; }; \
	if ! "$$tmp/arena" healthz -addr http://127.0.0.1:18960 -want ok -healthy 3 -wait 45s; then \
		echo "gateway-smoke: killed replica never rejoined; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	echo "gateway-smoke: killed replica rejoined"; \
	kill -TERM "$$gpid" && wait "$$gpid" && echo "gateway-smoke: clean drain"

# Adversarial-arena smoke: the same fixed-seed 3-generation co-evolution run
# at two worker counts must produce identical manifests (volatile timing
# cells excluded by `arena report` itself), and a run pushing every accepted
# checkpoint into a spawned 3-replica gateway must leave the fleet fully
# healthy with a clean drain.
coevo-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/arena" ./cmd/arena || exit 1; \
	"$$tmp/arena" coevo -gens 3 -classes 4 -per 8 -seed 5 -j 4 -out "$$tmp/a.json" || exit 1; \
	"$$tmp/arena" coevo -gens 3 -classes 4 -per 8 -seed 5 -j 8 -out "$$tmp/b.json" || exit 1; \
	"$$tmp/arena" report -tol 0 "$$tmp/a.json" "$$tmp/b.json" \
		|| { echo "coevo-smoke: manifests diverged across worker counts" ; exit 1 ; }; \
	"$$tmp/arena" gateway -addr 127.0.0.1:18970 -spawn 3 -snapshots "$$tmp/snap" \
		-models lr -classes 4 -per 6 2>"$$tmp/gw.log" & \
	gpid=$$!; \
	if ! "$$tmp/arena" healthz -addr http://127.0.0.1:18970 -want ok -healthy 3 -wait 60s; then \
		echo "coevo-smoke: fleet never became healthy; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	if ! "$$tmp/arena" coevo -gens 3 -classes 4 -per 8 -seed 5 -j 4 -model lr \
		-push http://127.0.0.1:18970; then \
		echo "coevo-smoke: arena push run failed; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	if ! "$$tmp/arena" healthz -addr http://127.0.0.1:18970 -want ok -healthy 3 -wait 10s; then \
		echo "coevo-smoke: fleet unhealthy after checkpoint pushes; gateway log:" ; cat "$$tmp/gw.log" ; \
		kill "$$gpid" 2>/dev/null ; exit 1 ; fi ; \
	kill -TERM "$$gpid" && wait "$$gpid" && echo "coevo-smoke: clean drain"

# Deterministic for the fixed seed: same verdict counts on every run and
# worker count. Each cell transforms a thawed copy and a clone with the same
# seed; they must verify, print and behave the same, the thawed copy must
# match the tree interpreter bit-for-bit on the bytecode VM (return, output,
# trap kind, step count), and the shared master must be left untouched.
# Fails (exit 1) on any semantic mismatch, engine or thaw divergence or
# verifier break.
fuzz-smoke:
	$(GO) run ./cmd/arena fuzz -n 200 -seed 1 -set module -small

# Open-ended local campaign: bigger programs, composed evader pipelines,
# repeated batches for 2 minutes. Crashers are shrunk automatically.
fuzz:
	$(GO) run ./cmd/arena fuzz -n 200 -dur 2m -set module -v

# perfbench is its own Go module importing the root module's internal
# packages (embed, progcache, ml, vm, ...); the root `./...` pattern does
# not reach it, so this is the step that catches an API break there.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# Committed figures regenerate: one line per results/ file with a manifest,
# re-running the command that wrote it (see results/README.md).
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/arena" ./cmd/arena || exit 1; \
	check() { name=$$1; shift; \
		"$$tmp/arena" "$$@" -out "$$tmp/$$name.json" > "$$tmp/$$name.txt" \
		&& diff -u "results/$$name.txt" "$$tmp/$$name.txt" \
		&& "$$tmp/arena" report -tol 0 "results/$$name.json" "$$tmp/$$name.json" > /dev/null \
		|| { echo "results-check: results/$$name.txt does not regenerate" ; exit 1 ; } ; } ; \
	check speedup speedup -seed 1; \
	check game1_rs game1 -classes 12 -per 20 -rounds 2 -evader rs; \
	check game1_mcmc game1 -classes 12 -per 20 -rounds 2 -evader mcmc; \
	check game1_drlsg game1 -classes 12 -per 20 -rounds 2 -evader drlsg; \
	check game2_rs game2 -classes 12 -per 20 -rounds 2 -evader rs; \
	check game1_none game1 -classes 12 -per 20 -rounds 2 -evader none; \
	check game1_bcf game1 -classes 12 -per 20 -rounds 2 -evader bcf; \
	check game1_fla game1 -classes 12 -per 20 -rounds 2 -evader fla; \
	check game1_sub game1 -classes 12 -per 20 -rounds 2 -evader sub; \
	check game1_ollvm game1 -classes 12 -per 20 -rounds 2 -evader ollvm; \
	check game2_bcf game2 -classes 12 -per 20 -rounds 2 -evader bcf; \
	check game2_fla game2 -classes 12 -per 20 -rounds 2 -evader fla; \
	check game2_sub game2 -classes 12 -per 20 -rounds 2 -evader sub; \
	check game2_ollvm game2 -classes 12 -per 20 -rounds 2 -evader ollvm; \
	echo "results-check: committed figures regenerate"

check: build test race cross serve-smoke gateway-smoke coevo-smoke fuzz-smoke perfbench-check results-check
