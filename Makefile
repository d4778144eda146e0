# Convenience targets for the DC-L1 reproduction.

PYTHON ?= python
SCALE ?= 1.0

.PHONY: install test bench bench-quick figures characterize clean loc lint sanitize-test race purity analyze profile perf-smoke

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-out:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-out:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-quick:
	REPRO_SCALE=0.25 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Static analysis: ruff and mypy run when installed (pip install -e .[dev])
# and are skipped with a notice otherwise, so the target works in minimal
# containers.  The simulator's own static analyzers run under `make analyze`.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else echo "ruff not installed - skipping (pip install -e .[dev])"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else echo "mypy not installed - skipping (pip install -e .[dev])"; fi

# SimRace: static same-cycle ordering-hazard pass over the package, then a
# small shadow-shuffle replay that confirms the shipped model is order-free.
race:
	PYTHONPATH=src $(PYTHON) -m repro.cli race src/repro
	PYTHONPATH=src $(PYTHON) -m repro.cli race --confirm --app P-2MM --design pr40 --scale 0.1 -k 3

# SimPure: static cache-key & fingerprint soundness pass, then a
# mutate-and-replay confirmation that every keyed field changes the key
# and every excluded input leaves results bit-identical.
purity:
	PYTHONPATH=src $(PYTHON) -m repro.cli purity --strict src/repro
	PYTHONPATH=src $(PYTHON) -m repro.cli purity --confirm --scale 0.1

# Both static analyzers (SimRace + SimPure) with
# a unified summary table and combined exit code, then the cheap dynamic
# confirmation (SimPure mutate-and-replay).
analyze:
	PYTHONPATH=src $(PYTHON) -m repro.cli analyze src/repro
	PYTHONPATH=src $(PYTHON) -m repro.cli purity --confirm --scale 0.1

# Run the simulator-facing test suites with the SimSanitizer ledger on.
sanitize-test:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -q tests/test_sanitizer.py \
		tests/test_system.py tests/test_validation.py tests/test_experiments.py

# Per-handler event profile of the acceptance workload (SimTurbo
# observability; see docs/performance.md for how to read the table).
profile:
	PYTHONPATH=src $(PYTHON) -m repro.cli profile --app T-AlexNet --design Sh40 --scale $(SCALE)

# Engine throughput smoke: fingerprint-gated; timing recorded in
# benchmarks/results/engine.txt and machine-readably in
# benchmarks/results/engine.json (the CI perf-regression baseline —
# commit the refreshed json to re-baseline).  First the perfbench
# self-test, a short grid-warm replay through the disk cache and a short
# fused-sh40 run (the fused Sh40 handlers on all five apps), each checked
# against perfbench/reference.json (run.py exits 0 even when points
# fail, so the last line's "correct" flag is the verdict).
perf-smoke:
	$(PYTHON) perfbench/selftest.py
	$(PYTHON) perfbench/run.py --workload grid-warm --seed 0 --seconds 1 --trace 0 \
		| tail -n 1 \
		| $(PYTHON) -c "import json, sys; r = json.loads(sys.stdin.read()); print('grid-warm:', r['failed'], 'of', r['attempted'], 'points failed'); sys.exit(0 if r['correct'] else 1)"
	$(PYTHON) perfbench/run.py --workload fused-sh40 --seed 0 --seconds 1 --trace 0 \
		| tail -n 1 \
		| $(PYTHON) -c "import json, sys; r = json.loads(sys.stdin.read()); print('fused-sh40:', r['failed'], 'of', r['attempted'], 'points failed'); sys.exit(0 if r['correct'] else 1)"
	$(PYTHON) perfbench/run.py --workload design-mix --seed 0 --seconds 1 --trace 0 \
		| tail -n 1 \
		| $(PYTHON) -c "import json, sys; r = json.loads(sys.stdin.read()); print('design-mix:', r['failed'], 'of', r['attempted'], 'points failed'); sys.exit(0 if r['correct'] else 1)"
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_engine.py -q
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_sweep.py -q

figures:
	$(PYTHON) examples/paper_figures.py --all --scale $(SCALE)

characterize:
	$(PYTHON) examples/workload_characterization.py $(SCALE)

experiments-md:
	$(PYTHON) -m repro.experiments.reporting

figures-svg:
	$(PYTHON) examples/render_figures.py topology fig06 fig12

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
