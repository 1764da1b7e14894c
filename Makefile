# Convenience targets for the reproduction workflow.

PY := PYTHONPATH=src python

.PHONY: install test bench bench-smoke bench-perf campaign-smoke trace-smoke serve-smoke surrogate-smoke status-smoke importtime reports examples clean

install:
	pip install -e . || python setup.py develop

# Tier-1 suite: the command CI runs and regressions are judged against.
test:
	$(PY) -m pytest -x -q

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -s

# Perf benchmark in smoke mode: tiny workloads, every engine exercised,
# no timing assertions and no BENCH_perf.json rewrite (CI-safe).
bench-smoke:
	$(PY) -m pytest benchmarks/bench_perf.py -q -s --quick

# Batch/adaptive/surrogate perf regression gates; writes BENCH_perf.json.
bench-perf:
	$(PY) -m pytest benchmarks/bench_perf.py -q -s

# Campaign fault-tolerance smoke: a checkpointed CLI run, then a resumed
# re-run against the same journal (recomputes nothing, must exit 0).
campaign-smoke:
	rm -f campaign_smoke.jsonl
	$(PY) -m repro simulate -n 1,2,3 -l 1e-9 --chunk-size 2 \
	  --checkpoint campaign_smoke.jsonl --telemetry
	$(PY) -m repro simulate -n 1,2,3 -l 1e-9 --chunk-size 2 \
	  --checkpoint campaign_smoke.jsonl --resume
	rm -f campaign_smoke.jsonl

# Observability smoke: a full-detail traced + metered CLI sweep, then
# schema-validate the Chrome trace, read it back through the summarizer,
# and check the Prometheus text carries the key histograms.  Then the same
# scalar sweep serially and on a 2-worker pool: the pooled trace must hold
# every task span once and both --telemetry-json dumps must agree.  Last,
# the Prometheus text: serial and pooled non-timing lines must be equal,
# and a batch-engine sweep must export the scalar sweep's Newton series.
SMOKE_METRICS = metrics_w1.prom metrics_w2.prom metrics_batch.prom
trace-smoke:
	rm -f trace_smoke.json metrics_smoke.prom $(SMOKE_METRICS)
	rm -f trace_w1.json trace_w2.json telemetry_w1.json telemetry_w2.json
	$(PY) -m repro sweep --values 1,2 --trace trace_smoke.json \
	  --trace-detail full --metrics metrics_smoke.prom
	$(PY) -c "import json; from repro.observability.export import \
	  validate_chrome_trace; \
	  validate_chrome_trace(json.load(open('trace_smoke.json'))); \
	  print('chrome trace schema ok')"
	$(PY) -m repro trace summarize trace_smoke.json
	$(PY) -c "text = open('metrics_smoke.prom').read(); \
	  assert 'repro_newton_iterations_per_solve_bucket' in text, 'newton histogram missing'; \
	  assert 'repro_phase_seconds_bucket' in text, 'phase histogram missing'; \
	  print('prometheus export ok')"
	$(PY) -m repro sweep --values 1,2,3 --engine scalar --workers 1 \
	  --trace trace_w1.json --telemetry-json telemetry_w1.json \
	  --metrics metrics_w1.prom
	$(PY) -m repro sweep --values 1,2,3 --engine scalar --workers 2 \
	  --trace trace_w2.json --telemetry-json telemetry_w2.json \
	  --metrics metrics_w2.prom
	$(PY) -m repro sweep --values 1,2,3 --engine batch \
	  --metrics metrics_batch.prom
	$(PY) -c "import json; from repro.observability.export import \
	  validate_chrome_trace; \
	  trace = json.load(open('trace_w2.json')); validate_chrome_trace(trace); \
	  tasks = [e for e in trace['traceEvents'] if e['name'] == 'task' and e['ph'] == 'X']; \
	  assert len(tasks) == 3, f'{len(tasks)} task spans in the pooled trace'; \
	  serial, pooled = [json.load(open(f'telemetry_w{n}.json')) for n in (1, 2)]; \
	  serial.pop('phase_seconds'); pooled.pop('phase_seconds'); \
	  assert serial == pooled, 'pooled telemetry differs from serial'; \
	  print('pooled trace and telemetry ok:', pooled['newton_solves'], 'solves')"
	$(PY) -c "lines = lambda name: [l for l in open(f'metrics_{name}.prom') \
	  if '_seconds' not in l]; \
	  assert lines('w1') == lines('w2'), 'pooled metrics differ from serial'; \
	  newton = lambda name: [l for l in lines(name) if l.startswith(( \
	    'repro_newton_iterations_per_solve_count ', 'repro_newton_solves_total '))]; \
	  assert len(newton('w1')) == 2, newton('w1'); \
	  assert newton('batch') == newton('w1'), 'batch Newton series differ from scalar'; \
	  print('metrics ok:', *[l.strip() for l in newton('batch')])"
	rm -f trace_smoke.json metrics_smoke.prom $(SMOKE_METRICS)
	rm -f trace_w1.json trace_w2.json telemetry_w1.json telemetry_w2.json

# Serving-layer smoke: a live in-process server answers a cold /simulate
# (miss), its bit-identical repeat from the persistent store (hit), and
# three stalled concurrent requests as one computation (dedup); then the
# /metrics text is scraped.  Strict RuntimeWarnings inside the script.
serve-smoke:
	$(PY) scripts/serve_smoke.py

# Surrogate-tier smoke: fit a reduced model from quick golden sweeps,
# answer an in-region spec in closed form, and prove the out-of-region
# refusal routes to the full simulator with waveform parity.
surrogate-smoke:
	$(PY) scripts/surrogate_smoke.py

# Operational-health smoke: a live server answers a surrogate hit with
# the shadow audit forced on, /statusz is schema-checked, and the
# durable event journal is replayed offline through the status/events
# CLI.  Strict RuntimeWarnings inside the script.
status-smoke:
	$(PY) scripts/status_smoke.py

# Cold-start profile: the 15 largest cumulative `-X importtime` entries
# (microseconds) of the CLI + server entry point.  For reading, not gating.
importtime:
	$(PY) -X importtime -c "import repro.cli, repro.service.server" 2>&1 \
	  | sort -t'|' -k2 -n -r | head -15

# Regenerate every paper artifact into benchmarks/reports/*.txt and
# the run logs the task description asks for.
reports:
	$(PY) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PY) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	for f in examples/*.py; do echo "== $$f"; $(PY) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
