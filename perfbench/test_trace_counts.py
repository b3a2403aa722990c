"""The benchmark's own test: traced counts repeat exactly for a fixed seed,
every layer a workload is meant to exercise shows up in its trace, and
``ascent`` makes no certificate decisions.

    python3 -m pytest perfbench/test_trace_counts.py -q

It runs ``run.py --trace 1`` twice per workload at the default seed, about
three minutes in all on two cores. A function the tracer fails to rebind
somewhere shows up as a zero below.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# count metrics that must be non-zero on each workload
REACHED = {
    "ascent": ["spectral.eigensolve.calls", "spectral.complete_cluster.calls",
               "optimize.run_optimizer.calls", "optimize.iterations",
               "optimize.project_feasible.calls", "reports.bytes_written"],
    "certify": ["spectral.eigensolve.calls", "spectral.complete_cluster.calls",
                "perturbation.probes", "certificates.decisions", "certificates.dykstra_iters",
                "optimize.run_optimizer.calls", "optimize.project_feasible.calls",
                "reports.bytes_written"],
    "torus": ["spectral.eigensolve.calls", "spectral.complete_cluster.calls",
              "perturbation.probes", "certificates.decisions", "reports.bytes_written"],
}
# time metrics that must be non-zero on each workload
TIMED = {
    "ascent": ["domain.build_grid.s", "spectral.assemble.s", "verify.thm11.s",
               "cli.main.self_s"],
    "certify": ["verify.thm12.s", "verify.circle-critical.s", "verify.no-local-min-l2.s",
                "verify.gap-critical.s", "verify.gap-no-min.s", "optimize.refute_local_min.s",
                "perturbation.one_sided_derivatives.s", "cli.main.self_s"],
    "torus": ["domain.build_grid.s", "spectral.eigensolve.torus-4096.ms_p50",
              "cli.main.self_s"],
}
# layers a workload must not reach (the prediction for it is "no change")
UNREACHED = {"ascent": ["certificates.decisions"], "certify": [], "torus": []}
COUNT_UNITS = {"count", "bytes", "MB"}


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result["metrics"]


@pytest.fixture(scope="module", params=sorted(REACHED))
def two_traces(request):
    return request.param, traced(request.param), traced(request.param)


def test_counts_repeat_exactly(two_traces):
    _, first, second = two_traces
    counts = {k for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_layers_reached(two_traces):
    workload, metrics, _ = two_traces
    for name in REACHED[workload] + TIMED[workload]:
        assert metrics[name]["value"] > 0, f"{name} is 0 on {workload}"
    for name in UNREACHED[workload]:
        assert metrics[name]["value"] == 0, f"{name} is not 0 on {workload}"
