# Convenience targets for the STS3 reproduction.

PYTHON ?= python

.PHONY: install test bench bench-full examples clean

install:
	$(PYTHON) setup.py develop

# tier-1 (ROADMAP.md): tests/ only, per pyproject's testpaths
test:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

# the repo's one end-to-end benchmark (BENCHMARK.json, e2e_bench/README.md)
bench:
	python3 e2e_bench/run.py

# paper-size workloads (slow; hours for the DTW-family baselines)
bench-full:
	REPRO_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
