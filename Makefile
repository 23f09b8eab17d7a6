PYTHON ?= python
export PYTHONPATH := src

## Fault-campaign preset for `make faults` (short or full).
CAMPAIGN ?= short

## Output path for `make trace` (open it at https://ui.perfetto.dev).
TRACE ?= trace.json

## Worker processes for everything that parallelises: `make bench`
## (one benchmark module per worker), `make fleet` (one shard), `make
## audit-refresh` (one image verification), `make net` (one sweep
## point) and every rebuild in `make check`.  No artifact's bytes
## depend on it.
JOBS ?= 2

## Devices merged into the fleet Perfetto trace / fleet profile (the
## committed OBS_fleet_profile.json, and its gate, use 3).
FLEET_TRACE_DEVICES ?= 3

.PHONY: test ci check bench bench-speed faults fleet profile trace lint \
	audit-refresh slo fleet-profile fleet-trace net

test: lint check
	$(PYTHON) -m pytest -x -q

## What CI runs: the lint, every regression gate, the full test suite.
ci: test

## AST lint: no wall-clock reads, unseeded RNG, or unordered iteration
## in the modules that produce byte-reproducible artifacts.
lint:
	$(PYTHON) tools/lint_determinism.py

## Every regression gate in tools/gate.py, one per committed artifact
## (simspeed, audit, faults, fleet, net, slo, fleet-profile, tables):
## fails on drift or on a violated claim.  One gate alone:
## `python tools/gate.py NAME`.
check:
	$(PYTHON) tools/gate.py --jobs $(JOBS)

## Refresh the committed AUDIT_baseline.json after an intentional
## change to the verifier, the images, or the policy.
audit-refresh:
	$(PYTHON) tools/capaudit.py --output AUDIT_baseline.json --jobs $(JOBS)

## Regenerate bench_output_tables.txt (byte-identical for any JOBS).
bench:
	$(PYTHON) tools/run_benchmarks.py --jobs $(JOBS)

## Measure simulator speed and refresh the committed baseline.
bench-speed:
	$(PYTHON) tools/bench_speed.py

## Run a fault-injection campaign.  `make faults CAMPAIGN=full` refreshes
## the committed BENCH_faults.json (10,000 injections); the default short
## campaign only prints its tally.
faults:
ifeq ($(CAMPAIGN),full)
	$(PYTHON) tools/fault_campaign.py --campaign full --check
else
	$(PYTHON) tools/fault_campaign.py --campaign short --check --output -
endif

## Run the supervised device fleet and refresh BENCH_fleet.json.  The
## report is byte-identical for any JOBS value (and for --serial).
fleet:
	$(PYTHON) tools/fleet_campaign.py --jobs $(JOBS) --check

## Per-compartment cycle attribution + hot-PC report for the reference
## telemetry workload (exits non-zero if attribution fails to reconcile
## with the core model's cycle count).
profile:
	$(PYTHON) tools/profile_report.py

## Export a Perfetto trace of the reference telemetry workload.
trace:
	$(PYTHON) tools/trace_export.py -o $(TRACE)

## Run the scaled network-stack sweep (zero-copy vs copying at 1..2048
## concurrent sessions) and refresh the committed BENCH_net.json.
net:
	$(PYTHON) tools/net_bench.py --jobs $(JOBS)

## Evaluate OBS_slo_policy.json over the stock fleet plan and refresh
## the committed OBS_slo.json (byte-identical for any execution route).
slo:
	$(PYTHON) tools/slo_report.py

## Refresh the committed merged hot-PC fleet profile.
fleet-profile:
	$(PYTHON) tools/profile_report.py --fleet $(FLEET_TRACE_DEVICES)

## Export the merged fleet Perfetto trace (one process per device).
fleet-trace:
	$(PYTHON) tools/trace_export.py --fleet $(FLEET_TRACE_DEVICES) -o fleet-trace.json
