# Convenience targets for the Nimblock reproduction.

PYTHON ?= python
# Parallel sweep workers and persistent run cache for the heavy targets.
JOBS ?= 4
CACHE_DIR ?= .runcache

.PHONY: install test fast bench sweep perf chaos overload serve cluster tune paranoid trace stats reproduce report examples clean

install:
	pip install -e . && pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

# Fastest full regeneration: every experiment at reduced scale, fanned
# out over $(JOBS).
fast:
	REPRO_SEQUENCES=2 REPRO_EVENTS=8 $(PYTHON) -m repro.cli all \
		--jobs $(JOBS)

# One regeneration pass over every table/figure bench (3 sequences).
# Fans cold simulations out over $(JOBS) workers and persists them under
# $(CACHE_DIR); a second run performs zero new simulations.
bench:
	REPRO_JOBS=$(JOBS) REPRO_CACHE_DIR=$(CACHE_DIR) \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Time the serial/parallel/warm sweep modes; appends to BENCH_sweep.json.
sweep:
	$(PYTHON) benchmarks/bench_sweep.py --bench --jobs $(JOBS)

# Core-throughput regression guard + fast sweep timing (the CI perf job).
# bench_core also asserts O(1) PendingQueue removal; bench_invariants
# guards that the invariant checker is free when off and bounded when on.
perf:
	$(PYTHON) benchmarks/bench_core.py --guard
	$(PYTHON) benchmarks/bench_invariants.py --guard --fast
	$(PYTHON) benchmarks/bench_autotune.py --guard --fast
	$(PYTHON) benchmarks/bench_sweep.py --bench --fast --jobs 2

# Fault-injection drill: every scheduler under the mixed chaos scenario.
chaos:
	$(PYTHON) -m repro.cli chaos --scenario mixed --fault-rate 0.05 --seed 1

# Admission-policy drill: every policy on the overload regime at 4x rate.
overload:
	$(PYTHON) -m repro.cli overload --rate-multiplier 4 --seed 1

# Open-loop service drill: 20k Poisson arrivals through the service loop
# with streaming windowed SLO metrics (shed admission, nimblock).
serve:
	$(PYTHON) -m repro.cli serve --rate 2 --submissions 20000 --seed 1 \
		--jobs $(JOBS)

# Fleet drill: a heterogeneous 4-board cluster under the overload burst,
# board simulation sharded over $(JOBS) workers (byte-identical to serial).
cluster:
	$(PYTHON) -m repro.cli cluster --boards 4 --seed 1 --jobs $(JOBS)

# Closed-loop remediation drill: a 4x overload burst against a static
# baseline and an armed autotuner side by side; prints the frozen
# decision log and the post-apply SLO attainment comparison.
tune:
	$(PYTHON) -m repro.cli tune --rate 1 --burst 4 --seed 1 --jobs $(JOBS)

# Paranoid sweep: every scheduler plus full-rate chaos scenarios with
# the runtime invariant checker attached; any violation fails the target.
paranoid:
	$(PYTHON) benchmarks/bench_invariants.py --paranoid --fast

# Perfetto-loadable Chrome trace of a faulty stress run -> trace.json.
trace:
	$(PYTHON) -m repro.cli trace --format chrome --fault-rate 0.05 \
		--seed 1 --output trace.json

# Prometheus-style metrics for the stress scenario, fanned out.
stats:
	$(PYTHON) -m repro.cli stats --sequences 4 --jobs $(JOBS)

# Full paper-scale regeneration: 10 sequences x 20 events, all experiments.
reproduce:
	REPRO_SEQUENCES=10 REPRO_EVENTS=20 $(PYTHON) -m repro.cli all \
		--jobs $(JOBS) --cache-dir $(CACHE_DIR)

# Paper-vs-measured verdict table at paper scale.
report:
	REPRO_SEQUENCES=10 REPRO_EVENTS=20 $(PYTHON) -m repro.cli report \
		--jobs $(JOBS) --cache-dir $(CACHE_DIR)

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks $(CACHE_DIR)
	find . -name __pycache__ -type d -exec rm -rf {} +
