# Convenience targets for the repro package.

PYTHON ?= python

.PHONY: install test bench experiments check report loc clean

install:
	$(PYTHON) -m pip install -e .[test] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	$(PYTHON) -m repro.experiments.cli

check:
	$(PYTHON) -m repro.experiments.cli --check

report:
	$(PYTHON) -m repro.experiments.cli --report report.md

# Line count of the package source, the size figure ROADMAP.md tracks.
loc:
	@find src -name '*.py' | xargs cat | wc -l

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
