"""Span tracing of specpot's public functions, from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
wrapper wherever the package holds the original: every module-level name
(``criticality_certificate`` is imported by name into ``verify``,
``optimize`` and ``cli`` and called inside ``certificates``) and every
module-level dict value (``verify.SUITES``). Each call records a span in
memory: name, start, end, parent span, run id and a few attributes read
from the call. ``layer_metrics`` turns the spans into per-layer metrics.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time

# module -> functions wrapped at the module boundary
TARGETS = {
    "domain": ["build_grid"],
    "spectral": ["assemble", "eigensolve", "spectrum_with_complete_cluster"],
    "perturbation": ["one_sided_derivatives", "sample_probes", "mixed_probe_suite"],
    "certificates": ["criticality_certificate", "gap_certificate"],
    "optimize": ["run_optimizer", "project_feasible", "refute_local_min"],
    "reports": ["write_json", "write_csv"],
    "cli": ["main"],
}

CERTIFICATE_SPANS = ("certificates.criticality_certificate", "certificates.gap_certificate")
PROBE_SPANS = ("perturbation.sample_probes", "perturbation.mixed_probe_suite")
WRITE_SPANS = ("reports.write_json", "reports.write_csv")
# eigensolve sizes met by the workloads, named <kind>-<nodes>
EIGENSOLVE_SIZES = ("circle-256", "interval-256", "circle-512", "torus-4096")
STOP_REASONS = ("max_iters", "stagnation", "certificate", "gap_degenerate", "solver_error")
VERIFY_SUITES = ("thm11", "thm12", "circle-critical", "no-local-min-l2", "gap-critical",
                 "gap-no-min")


def _grid_size(grid) -> str:
    kind = type(grid.kind).__name__.lower()
    return f"{'torus' if kind.startswith('torus') else kind}-{grid.n_nodes}"


def _attrs(name: str, bound: inspect.BoundArguments | None, result) -> dict:
    """Attributes a span keeps from its call: sizes, statuses, counts."""
    if name == "domain.build_grid":
        return {"laplacian_bytes": int(result.laplacian.nbytes)}
    if name == "spectral.eigensolve":
        grid = bound.arguments["grid"]
        return {"size": _grid_size(grid), "n": grid.n_nodes, "k": int(bound.arguments["k"])}
    if name in CERTIFICATE_SPANS:
        return {"status": result.status.value, "iterations": int(result.iterations)}
    if name == "optimize.run_optimizer":
        return {"iterations": int(result.iterations), "stop": result.stop_reason}
    if name in PROBE_SPANS:
        return {"probes": len(result)}
    if name in WRITE_SPANS:
        return {"bytes": os.path.getsize(bound.arguments["path"])}
    return {}


_NEEDS_ARGS = {"spectral.eigensolve", *WRITE_SPANS}


def _rebind(original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` in every specpot module's names and
    module-level dicts."""
    for modname, module in list(sys.modules.items()):
        if modname != "specpot" and not modname.startswith("specpot."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


class Tracer:
    """In-memory span recorder for one process; spans nest by call stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in _NEEDS_ARGS else None
        tracer = self

        def traced(*args, **kwargs):
            span = {"run": tracer.run_id, "id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            bound = signature.bind(*args, **kwargs) if signature else None
            span.update(_attrs(name, bound, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import specpot.cli  # noqa: F401  (loads every module that holds a binding)
        from specpot import verify

        for modname, names in TARGETS.items():
            module = sys.modules[f"specpot.{modname}"]
            for fname in names:
                original = getattr(module, fname)
                _rebind(original, self.wrap(f"{modname}.{fname}", original))
        for suite in VERIFY_SUITES:
            original = verify.SUITES[suite]
            _rebind(original, self.wrap(f"verify.{suite}", original))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run: name -> (value, unit).

    Times are self time (a span's duration minus its child spans'), except
    ``verify.<suite>.s``, which is the whole suite. A layer that was never
    called reads 0; a call that raised counts, without its attributes.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def duration(s: dict) -> float:
        return s["end"] - s["start"]

    def self_time(s: dict) -> float:
        return duration(s) - sum(duration(c) for c in children.get(s["id"], []))

    def named(*names: str) -> list[dict]:
        return [s for s in spans if s["name"] in names]

    def total_self(*names: str) -> float:
        return sum((self_time(s) for s in named(*names)), 0.0)

    def under(s: dict, name: str) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    m: dict[str, tuple[float, str]] = {}
    grids = named("domain.build_grid")
    m["domain.build_grid.s"] = (total_self("domain.build_grid"), "s")
    m["domain.laplacian_mb"] = (max((s.get("laplacian_bytes", 0) for s in grids), default=0) / 1e6, "MB")

    solves = named("spectral.eigensolve")
    m["spectral.eigensolve.calls"] = (len(solves), "count")
    m["spectral.eigensolve.self_s"] = (total_self("spectral.eigensolve"), "s")
    for size in EIGENSOLVE_SIZES:
        ms = [1e3 * self_time(s) for s in solves if s.get("size") == size]
        m[f"spectral.eigensolve.{size}.ms_p50"] = (percentile(ms, 50), "ms")
        m[f"spectral.eigensolve.{size}.ms_p99"] = (percentile(ms, 99), "ms")
    total_n = sum(s.get("n", 0) for s in solves)
    m["spectral.eigensolve.pairs_used_frac"] = (
        sum(s.get("k", 0) for s in solves) / total_n if total_n else 0.0, "ratio")
    m["spectral.assemble.s"] = (total_self("spectral.assemble"), "s")
    completes = named("spectral.spectrum_with_complete_cluster")
    m["spectral.complete_cluster.calls"] = (len(completes), "count")
    m["spectral.complete_cluster.retries"] = (sum(
        max(0, sum(c["name"] == "spectral.eigensolve" for c in children.get(s["id"], [])) - 1)
        for s in completes), "count")

    # mixed_probe_suite draws through sample_probes: count outermost draws only
    m["perturbation.probes"] = (sum(
        s.get("probes", 0) for s in named(*PROBE_SPANS)
        if not under(s, "perturbation.mixed_probe_suite")), "count")
    m["perturbation.one_sided_derivatives.s"] = (
        total_self("perturbation.one_sided_derivatives"), "s")

    certs = named(*CERTIFICATE_SPANS)
    cert_ms = [1e3 * duration(s) for s in certs]
    m["certificates.decisions"] = (len(certs), "count")
    m["certificates.self_s"] = (total_self(*CERTIFICATE_SPANS), "s")
    m["certificates.ms_p50"] = (percentile(cert_ms, 50), "ms")
    m["certificates.ms_p99"] = (percentile(cert_ms, 99), "ms")
    m["certificates.dykstra_iters"] = (sum(s.get("iterations", 0) for s in certs), "count")
    for status in ("feasible", "infeasible", "undecided"):
        m[f"certificates.{status}"] = (sum(s.get("status") == status for s in certs), "count")

    runs = named("optimize.run_optimizer")
    iterations = sum(s.get("iterations", 0) for s in runs)
    solves_in_runs = sum(under(s, "optimize.run_optimizer") for s in solves)
    m["optimize.run_optimizer.calls"] = (len(runs), "count")
    m["optimize.run_optimizer.self_s"] = (total_self("optimize.run_optimizer"), "s")
    m["optimize.iterations"] = (iterations, "count")
    m["optimize.solves_per_iter"] = (solves_in_runs / iterations if iterations else 0.0, "ratio")
    for reason in STOP_REASONS:
        m[f"optimize.stop.{reason}"] = (sum(s.get("stop") == reason for s in runs), "count")
    m["optimize.project_feasible.calls"] = (len(named("optimize.project_feasible")), "count")
    m["optimize.project_feasible.s"] = (total_self("optimize.project_feasible"), "s")
    m["optimize.refute_local_min.s"] = (total_self("optimize.refute_local_min"), "s")

    for suite in VERIFY_SUITES:
        m[f"verify.{suite}.s"] = (sum((duration(s) for s in named(f"verify.{suite}")), 0.0), "s")
    m["cli.main.self_s"] = (total_self("cli.main"), "s")
    m["reports.bytes_written"] = (sum(s.get("bytes", 0) for s in named(*WRITE_SPANS)), "bytes")
    return m
