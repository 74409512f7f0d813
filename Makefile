# Convenience targets for the Dolos reproduction.

PYTHON ?= python
# Worker processes for experiment run units (0 = all cores).
JOBS ?= 0

.PHONY: install test test-slow check-oracle fault-smoke fleet-smoke \
	chaos-smoke bench bench-perf perf-gate profile-kernel trace-smoke \
	service-smoke loadcurve-smoke golden golden-update coverage \
	experiments examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# The slow tier outside the oracle sweeps (docs/testing.md): the
# `--jobs 2` service soak, the 3-worker fleet kill and the run-ahead
# sweep over every workload.  The oracle sweeps stay behind
# `make check-oracle`.
test-slow:
	$(PYTHON) -m pytest tests/ -m "slow and not oracle"

# Differential crash-consistency oracle (docs/testing.md): the full
# 200-transaction crash-site sweep over the whole controller matrix
# (labels come from the shared registry, `repro.harness matrix`), then
# the seeded-divergence self-test (exit 0 only if the deliberately
# injected corruption is caught).
check-oracle:
	mkdir -p results
	$(PYTHON) -m repro.harness check --workloads hashmap,btree \
		--controllers $$($(PYTHON) -m repro.harness matrix --group all) \
		--transactions 200 --jobs $(JOBS) --report results/oracle.json
	$(PYTHON) -m repro.harness check --workloads hashmap \
		--controllers dolos-partial --transactions 20 --site-budget 8 \
		--inject-divergence

# Fault-injection campaign (docs/robustness.md): seeded media/metadata
# corruption + degraded-ADR partial drains at interior crash sites over
# the whole controller matrix.  Exits non-zero if any injected fault
# goes undetected AND unreconciled (a "silent" outcome).
fault-smoke:
	mkdir -p results
	$(PYTHON) -m repro.harness faults --workloads hashmap \
		--controllers $$($(PYTHON) -m repro.harness matrix --group all) \
		--transactions 30 --sites 2 --jobs $(JOBS) \
		--report results/faults.json

# Distributed fleet smoke (docs/fleet.md): the tier-1 integration
# variants (2-worker bit-identical-to-serial + worker-kill
# re-dispatch), then a real multi-worker CLI campaign whose JSON/HTML
# report lands under results/fleet/.
fleet-smoke:
	mkdir -p results/fleet
	$(PYTHON) -m pytest tests/test_fleet_integration.py -q
	REPRO_FLEET_DB=results/fleet/fleet.sqlite \
	$(PYTHON) -m repro.harness fleet run --name fleet-smoke \
		--workloads hashmap \
		--designs $$($(PYTHON) -m repro.harness matrix --group pair) \
		--seeds 1,2 --transactions 30 --fault-sites 1 --workers 2 \
		--report-dir results/fleet
	REPRO_FLEET_DB=results/fleet/fleet.sqlite \
	$(PYTHON) -m repro.harness fleet status

# Chaos-hardened fleet smoke (docs/robustness.md): run a real
# multi-worker campaign under three seeded fault schedules (wire
# resets/garbles/stalls, SIGSTOP/SIGKILL workers, torn-WAL,
# killed-writer and store-corrupt drills on the one results database)
# and assert the zero-loss invariant —
# every unit recorded exactly once, digests bit-identical to a calm
# baseline, no silent fault.  JSON report under results/chaos/.
chaos-smoke:
	mkdir -p results/chaos
	$(PYTHON) -m repro.harness chaos --chaos-seeds 1,2,3 \
		--workers 2 --transactions 8 --out results/chaos

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Kernel/run-unit perf trajectory: writes BENCH_kernel.json at the root.
bench-perf:
	$(PYTHON) benchmarks/test_perf_kernel.py

# CI regression gate: fresh best-of-3 run-unit time vs the committed
# BENCH_kernel.json (fails on >15% regression; PERF_GATE_THRESHOLD
# overrides, as a fraction).
perf-gate:
	$(PYTHON) benchmarks/check_perf_gate.py

# cProfile one batched run unit: top-20 cumulative hotspots on stdout,
# full ranking as JSON under results/ (uploaded as a CI artifact).
profile-kernel:
	$(PYTHON) tools/profile_kernel.py

# Span-tracing smoke (docs/performance.md): per-stage latency tables
# on a 200-transaction hashmap run, with span logs under
# results/trace/.  Exits non-zero if the traced fence-stall cycles
# fail to reconcile with the breakdown.
trace-smoke:
	$(PYTHON) -m repro.harness trace hashmap --config dolos_full \
		--transactions 200 --out results/trace

# Experiment-service smoke (docs/performance.md): concurrent clients
# submit the full controller matrix against a real server subprocess;
# results must be bit-identical to direct runs, dedup must fire, and
# SIGTERM must drain every accepted job.
service-smoke:
	mkdir -p results
	$(PYTHON) -m repro.service.smoke --clients 4 --jobs 2 \
		--report results/service-smoke.json

# Open-loop load-curve smoke (docs/scenarios.md): a tiny rate sweep
# across the whole controller matrix — p50/p95/p99 sojourn per offered
# load, per-config saturation knees, and the open-vs-closed p99 ratio
# at matched throughput.  JSON artifact under results/.
loadcurve-smoke:
	mkdir -p results
	$(PYTHON) -m repro.harness loadcurve --transactions 40 \
		--rates 0.02,0.06,0.18 --out results/loadcurve-smoke.json

# Golden-result gate (docs/testing.md): recompute the headline metrics
# at tier-1 scale and compare against tests/data/golden.json, then prove
# the gate catches a ±10% drift of any single metric.
golden:
	$(PYTHON) -m repro.harness golden
	$(PYTHON) -m repro.harness golden --perturb 0.1

# Refresh the snapshot after a deliberate, reviewed model change.
golden-update:
	$(PYTHON) -m repro.harness golden --update
	$(PYTHON) -m repro.harness golden --perturb 0.1

# Local (stdlib-only) statement-coverage measurement; the CI gate uses
# pytest-cov, whose fail-under baseline this measures.
coverage:
	$(PYTHON) tools/measure_coverage.py

# Regenerate every paper table/figure (plus CSV/JSON under results/).
experiments:
	$(PYTHON) -m repro.harness all --jobs $(JOBS) --export results

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .hypothesis results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
