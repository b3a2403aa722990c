import ast
import ctypes
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import specpot
from specpot import blas, cli

SRC = Path(__file__).resolve().parents[1] / "src"

# Importing scipy costs a process ~0.35 s and ~30 MB of RSS; only the torus
# needs it, so the 1-D commands must run without loading it, lazy imports
# inside the banded solver included.
ONE_D_RUN = """
import sys, tempfile
from pathlib import Path
import numpy as np
import specpot.cli
from specpot.domain import BoundaryCondition, Circle, Interval, Potential, build_grid
from specpot.optimize import ConstraintSpec, ObjectiveSpec, Schedule, run_optimizer
from specpot.spectral import solve_spectra, solve_spectrum, spectrum_with_complete_cluster

with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "run.cfg"
    cfg.write_text("[task]\\nsuite=circle-critical\\n\\n[output]\\nseed=7\\n")
    assert specpot.cli.main(["verify", "--config", str(cfg), "--out", tmp]) == 0
grid = build_grid(Interval(), 64, BoundaryCondition.DIRICHLET)
solve_spectrum(grid, Potential.zero(grid), 4)
for kind, bc in ((Circle(), "closed"), (Interval(), "neumann"), (Interval(), "dirichlet")):
    grid = build_grid(kind, 64, bc)
    q = Potential.from_values(grid, np.cos(3.0 * np.arange(64) / 64))
    spectrum_with_complete_cluster(grid, q, 2)
    solve_spectra(grid, [q, Potential.zero(grid)], 2)
# one ascent step of the thm11 path
grid = build_grid(Circle(), 64, "closed")
q0 = Potential.from_values(grid, 0.5 * np.sin(2.0 * np.pi * np.arange(64) / 64))
run_optimizer(grid, ObjectiveSpec("eigenvalue", 1), ConstraintSpec(0.0, 1.0), q0,
              Schedule("polyak", target=0.0), max_iters=1, cert_every=0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
# the BLAS pin in cli.main must not load scipy's OpenBLAS either (Linux only)
maps = Path("/proc/self/maps")
print([line for line in maps.read_text().splitlines() if "scipy.libs/libscipy_openblas" in line]
      if maps.exists() else None)
"""

# criticality on a 16 x 16 torus (constant potential: the 4-fold cluster and
# its frame), then the thread count each bundled OpenBLAS reads afterwards
TORUS_RUN = """
import ctypes, json, sys
import specpot.cli
from specpot.blas import bundled_libs

cfg, out = sys.argv[1:]
assert specpot.cli.main(["criticality", "--config", cfg, "--out", out]) == 0
threads = {}
for package, library, getter in (
        ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads")):
    for path in bundled_libs(package).glob(library):
        threads[package] = getattr(ctypes.CDLL(str(path)), getter)()
print(json.dumps(threads))
"""

# import specpot, then solve on a 16 x 16 torus (which maps scipy's OpenBLAS),
# counting the process's threads after each step; then OPENBLAS_NUM_THREADS
THREAD_COUNT_RUN = """
import json, os
from pathlib import Path

def threads():
    return len(list(Path("/proc/self/task").iterdir()))

import specpot
counts = [threads()]
grid = specpot.build_grid(specpot.Torus2D(), 16, "closed")
specpot.solve_spectrum(grid, specpot.Potential.zero(grid), 6)
counts.append(threads())
print(json.dumps([counts, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


def test_public_names_resolve():
    missing = [name for name in specpot.__all__ if not hasattr(specpot, name)]
    assert missing == []


def test_no_cluster_tolerance_or_start_knobs():
    # the cluster tolerance is the constant CLUSTER_TOL_REL, the first solve
    # takes i + 2 pairs in 1-D and i + 6 on the torus, and only an eigenvalue
    # count makes a cluster complete
    knobs = [f"{name}({param})" for name in specpot.__all__
             if callable(getattr(specpot, name))
             for param in inspect.signature(getattr(specpot, name)).parameters
             if param in ("tol_rel", "k_start")]
    assert knobs == []
    assert "truncated" not in {f.name for f in dataclasses.fields(specpot.Cluster)}


def test_warm_start_has_no_knob():
    # the optimizer starts each candidate's solve from its iterate's spectrum
    # on its own: no argument, config key or environment variable turns that
    # on or off, and START_VECTOR_SEED is the one seed of a cold start block
    from specpot import banded, cli, optimize, spectral

    assert list(inspect.signature(optimize.run_optimizer).parameters) == [
        "grid", "objective", "constraint", "q0", "schedule", "max_iters", "cert_every"]
    keys = {key for schema in cli.SCHEMAS.values() for allowed, _ in schema.values()
            for key in allowed}
    assert [key for key in keys if "start" in key or "warm" in key] == []
    sources = {path.name: path.read_text() for path in (SRC / "specpot").glob("*.py")}
    assert not any("getenv" in text for text in sources.values())
    # the BLAS module alone touches the environment, and only to map each
    # OpenBLAS on one thread: it names no other variable
    assert [name for name, text in sources.items() if "environ" in text] == ["blas.py"]
    names = {node.value for node in ast.walk(ast.parse(sources["blas.py"]))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and re.fullmatch(r"[A-Z][A-Z0-9_]*", node.value)}
    assert names == {"OPENBLAS_NUM_THREADS"}
    assert [name for name in dir(spectral) if "SEED" in name] == ["START_VECTOR_SEED"]
    assert [name for name in dir(banded) if "SEED" in name] == []


def test_single_value_knobs_are_constants():
    # one node weight, one Polyak relaxation, one line-search length, one
    # pair-headroom rule, one derivative path, and the torus keeps per-axis
    # bands instead of a dense stencil
    from specpot import certificates, domain, optimize, perturbation, spectral

    assert "weights" not in {f.name for f in dataclasses.fields(specpot.DomainGrid)}
    assert not hasattr(domain, "_circle_laplacian")
    assert "relaxation" not in {f.name for f in dataclasses.fields(specpot.Schedule)}
    assert optimize.POLYAK_RELAXATION == 0.5
    assert not {"step", "points"} & set(inspect.signature(optimize._confirm_descent).parameters)
    assert optimize.LINE_SEARCH_POINTS == 3
    assert "k" not in inspect.signature(perturbation.fd_eigenvalue_derivative).parameters
    assert not hasattr(perturbation, "fd_richardson_derivative")
    assert spectral.EXTRA_PAIRS == 6      # torus
    assert spectral.EXTRA_PAIRS_1D == 2   # interval and circle
    assert not hasattr(specpot, "ClusterDerivativeMatrix")
    assert not hasattr(specpot, "is_critical_probe")
    # no helpers that only tests call: the separating direction is found only
    # inside the certificates, and a test takes a norm as sqrt(inner(a, a))
    assert not hasattr(specpot, "separating_direction")
    assert not hasattr(certificates, "_gap_separating_direction")
    assert not hasattr(specpot.DomainGrid, "norm")
    # an optimizer log is a plain list of records, and a suite reads a value
    # it needs from the solve that already made it
    from specpot import verify

    assert not hasattr(optimize, "IterateLog")
    assert not hasattr(verify, "_gap_value")


def test_one_reduction_guard_and_one_zero_direction_rule():
    # each banded shifted system is guarded on its own pivots: no operator
    # labels and no unguarded mode; and "no mean-zero part" is
    # make_direction's ValueError alone, with no exception type of its own
    from specpot import banded, errors

    assert "members" not in inspect.signature(banded.shifted_solve).parameters
    assert not hasattr(errors, "SeparationError")


def test_one_accuracy_rule():
    # a cluster reads the residuals eigensolve measured, not an assumed
    # accuracy; and the optimizer decides its certificate stop inline
    from specpot import optimize, spectral

    assert "residuals" in {f.name for f in dataclasses.fields(specpot.SpectralData)}
    assert "RESIDUAL_TOL" not in inspect.getsource(spectral.detect_cluster)
    assert not hasattr(optimize, "_certificate_stop")


def test_one_acceptance_loop():
    # eigensolve alone accepts or retries a solve: it alone counts
    # eigenvalues, it holds the one widening rule, and the index form that
    # proves a cluster complete is a single call to it
    from specpot import spectral

    callers = set()
    for path in sorted((SRC / "specpot").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None))
                    == "count_eigenvalues_below" for n in ast.walk(func)):
                callers.add(f"{path.stem}.{func.name}")
    assert callers == {"spectral.eigensolve"}
    assert len(re.findall(r"max\(\w+, count\) \+ _headroom\(grid\)",
                          inspect.getsource(spectral))) == 1
    tree = ast.parse(inspect.getsource(spectral.spectrum_with_complete_cluster))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While, ast.Raise))]


def test_one_site_per_optimizer_outcome():
    # the optimizer's solve closure returns the objective, and one handler
    # ends the run on any failed solve, the first or a candidate's
    from specpot import optimize

    assert not hasattr(optimize, "_objective_value")
    assert inspect.getsource(optimize.run_optimizer).count("except SolverError") == 1


def test_one_certificate_decision(monkeypatch):
    # both certificates are decided along one path into one type, each
    # outcome returned at one site, and the decision factors each Gram block
    # of the least-squares point once, for its psd projection and its bottom
    # eigenpair alike; the unknown holds each m x m block in full, m * m
    # entries, with no svec encoding
    import numpy as np

    from specpot import certificates
    from specpot.domain import BoundaryCondition, Circle, build_grid

    for name in ("_definite_direction", "_lowest_slope", "_gap_slope",
                 "GramCertificate", "GapCertificate", "_svec", "_unsvec", "_svec_layout"):
        assert not hasattr(certificates, name)
    # FEASIBLE and the separation outcome
    certify = inspect.getsource(certificates._certify)
    assert certify.count("return ") == 2
    assert "return Certificate(CertificateStatus.FEASIBLE" in certify
    assert "_separate(" in certify
    assert inspect.getsource(certificates.criticality_certificate).count("return ") == 1
    # the degenerate shortcut and _certify
    assert inspect.getsource(certificates.gap_certificate).count("return ") == 2
    # one writer: the certificate payload comes from Certificate.to_dict
    reports = ast.parse((SRC / "specpot" / "reports.py").read_text())
    assert not any(isinstance(n, ast.ImportFrom) and n.module == "certificates"
                   for n in ast.walk(reports))
    # a sign-indefinite pair: s* meets the node equations, so the candidate
    # comes from the bottom eigenvector of s*
    grid = build_grid(Circle(2 * np.pi), 64, BoundaryCondition.CLOSED)
    h = 0.8 * np.cos(grid.coords) + 0.3 * np.sin(2 * grid.coords)
    spec = specpot.SpectralData(np.array([0.0, 1.0, 1.0]),
                                np.column_stack([np.ones(64), np.sqrt(1 + h**2), h]), grid, None)
    constant = specpot.Cluster(1, 1, 0.0, 1e-6, True)
    pair = specpot.Cluster(2, 2, 1.0, 1e-6, True)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    assert certificates.criticality_certificate(spec, pair).status.value == "infeasible"
    assert calls == [(4, 4), (2, 2)]        # A^T A, then the one Gram block
    calls.clear()
    assert certificates.gap_certificate(spec, constant, pair).status.value == "infeasible"
    assert calls == [(5, 5), (1, 1), (2, 2)]


def test_every_command_writes_every_artifact():
    # [output] holds only where to write and the seed: no switch drops an
    # artifact, and the eigenvalue list is spec.eigenvalues.tolist()
    from specpot import cli, reports

    assert {frozenset(schema["output"][0]) for schema in cli.SCHEMAS.values()} == {
        frozenset({"directory", "seed"})}
    assert not hasattr(cli, "_wants_csv")
    assert not hasattr(reports, "eigenvalues_payload")


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            # a string annotation such as "Cluster" reads the names inside it
            used |= {n.id for n in ast.walk(ast.parse(annotation.value)) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # a deletion that leaves its import behind shows up here; the package
    # has no linter, so this is the check
    found = {}
    for path in sorted((SRC / "specpot").glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def _unreferenced_private_functions(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level _private functions that no code in the package reads,
    apart from their own bodies."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            used = any(
                (isinstance(n, ast.Name) and n.id == node.name)
                or (isinstance(n, ast.Attribute) and n.attr == node.name)
                for other in trees.values() for n in ast.walk(other) if id(n) not in own)
            if not used:
                found.append(f"{module}.{node.name}")
    return found


def test_no_private_helpers_only_tests_call():
    # a private helper the package itself never calls is dead code kept alive
    # by tests; they should call what the package calls instead
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((SRC / "specpot").glob("*.py"))}
    assert _unreferenced_private_functions(trees) == []


def test_one_d_commands_load_no_scipy():
    proc = subprocess.run([sys.executable, "-c", ONE_D_RUN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, libraries = proc.stdout.strip().splitlines()[-2:]
    assert modules == "[]"
    if sys.platform.startswith("linux"):
        assert libraries == "[]"


def test_torus_run_is_the_same_at_any_blas_thread_count(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nkind=torus\nlength=6.283185307179586\nnodes=16\nbc=closed\n"
                   "\n[potential]\npreset=constant\nvalue=0.3\n"
                   "\n[task]\nindex=2\nprobes=20\n\n[output]\nseed=7\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run([sys.executable, "-c", TORUS_RUN, str(cfg), str(out)],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        # each bundled OpenBLAS found runs on one thread after the command
        assert set(json.loads(proc.stdout.strip().splitlines()[-1]).values()) <= {1}
        report = json.loads((out / "report.json").read_text())
        del report["timestamp"]
        outputs.append((report, {p.name: p.read_bytes() for p in sorted(out.iterdir())
                                 if p.name != "report.json"}))
    assert "frame.csv" in outputs[0][1]
    assert outputs[0] == outputs[1]


def test_blas_pin_without_bundled_openblas_loads_nothing(tmp_path, monkeypatch):
    loaded = []
    monkeypatch.setattr(blas, "bundled_libs", lambda package: tmp_path)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: loaded.append(args))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[domain]\nkind=circle\nlength=6.283185307179586\nnodes=64\nbc=closed\n"
                   "\n[potential]\npreset=zero\n\n[task]\nmodes=3\n")
    environ = dict(os.environ)
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert loaded == []
    # the command leaves the environment as it found it: no variable is a knob
    assert dict(os.environ) == environ


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.parametrize("threads", ["2", None])
def test_bundled_openblas_starts_no_worker_thread(threads):
    # each library is mapped on one thread, so it never starts a worker to
    # park later; and the caller's OPENBLAS_NUM_THREADS, set or not, stays
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", THREAD_COUNT_RUN], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[1, 1], threads]


@pytest.mark.parametrize("threads", ["3", None])
def test_one_thread_import_restores_the_environment(monkeypatch, threads):
    seen = []

    def import_module(name):
        seen.append(os.environ["OPENBLAS_NUM_THREADS"])
        if name == "missing":
            raise ModuleNotFoundError(name)
        return name

    monkeypatch.setattr(blas, "importlib", types.SimpleNamespace(import_module=import_module))
    if threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    environ = dict(os.environ)
    assert blas.import_on_one_thread("numpy") == "numpy"
    assert dict(os.environ) == environ
    with pytest.raises(ModuleNotFoundError):
        blas.import_on_one_thread("missing")
    assert dict(os.environ) == environ
    assert seen == ["1", "1"]
