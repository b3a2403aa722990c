"""Command-line front end: batch experiments driven by key=value configs.

Subcommands: spectrum, derivative, criticality, gap, optimize, verify. Each
takes --config <path> and --out <dir>, writes a report.json plus CSV/JSON
artifacts into the output directory, and exits 0 only when every verdict
passed and no errors occurred. Exit code 2 signals a configuration error and
1 a solver error (a failed residual or count check, or an unproven cluster,
printed as ``solver error: ...``), besides failed verdicts.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .certificates import Certificate, CertificateStatus, full_criticality_report, gap_certificate
from .config import ParsedConfig, get_float, get_floats, get_int, parse_config_text, validate_schema
from .domain import _GRID_KEYS, DomainGrid, Potential, grid_from_mapping
from .errors import ConfigError, IncompleteClusterError, SolverError
from .optimize import ConstraintSpec, ObjectiveSpec, Schedule, project_feasible, run_optimizer
from .perturbation import (
    ProbeDirection,
    fd_eigenvalue_derivative,
    make_direction,
    one_sided_derivatives,
    sample_probes,
    gap_one_sided_derivatives,
)
from .reports import (
    fmt,
    new_report,
    write_csv,
    write_json,
    write_node_csv,
)
from .spectral import (
    detect_cluster,
    solve_spectrum,
    spectrum_with_complete_cluster,
)
from .verify import run_suite

_DOMAIN = (_GRID_KEYS, _GRID_KEYS)
_POTENTIAL = ({"preset", "value", "coeffs", "sin_coeffs", "path"}, {"preset"})
_OUTPUT = ({"directory", "seed"}, set())

SCHEMAS: dict[str, dict[str, tuple[set[str], set[str]]]] = {
    "spectrum": {
        "domain": _DOMAIN,
        "potential": _POTENTIAL,
        "task": ({"modes"}, set()),
        "output": _OUTPUT,
    },
    "derivative": {
        "domain": _DOMAIN,
        "potential": _POTENTIAL,
        "task": ({"index", "direction", "coeffs", "sin_coeffs", "path", "fd_step"},
                 {"index", "direction"}),
        "output": _OUTPUT,
    },
    "criticality": {
        "domain": _DOMAIN,
        "potential": _POTENTIAL,
        "task": ({"index", "probes"}, {"index"}),
        "output": _OUTPUT,
    },
    "gap": {
        "domain": _DOMAIN,
        "potential": _POTENTIAL,
        "task": ({"index", "jindex", "probes"}, {"index", "jindex"}),
        "output": _OUTPUT,
    },
    "optimize": {
        "domain": _DOMAIN,
        "potential": _POTENTIAL,
        "task": ({"target", "index", "jindex", "sense", "mean", "bound", "iters",
                  "schedule", "step", "polyak_target", "cert_every"},
                 {"target", "index", "sense", "mean", "bound"}),
        "output": _OUTPUT,
    },
    "verify": {
        "task": ({"suite"}, {"suite"}),
        "output": _OUTPUT,
    },
}

_NEEDS_SEED = {"criticality", "gap", "verify"}
# 5x the criticality default; it bounds the probe loop's time, not its memory:
# probes are drawn one at a time
MAX_PROBES = 1000


def _require_seed(cfg: ParsedConfig, command: str) -> int | None:
    """The [output] seed, a non-negative integer; required by _NEEDS_SEED."""
    seed = get_int(cfg.section("output"), "seed")
    if seed is None and command in _NEEDS_SEED:
        raise ConfigError(f"[output] seed is required for {command!r} (random probes are used)")
    if seed is not None and seed < 0:
        raise ConfigError(f"[output] seed must be a non-negative integer, got {seed}")
    return seed


def _check_index(grid: DomainGrid, i: int | None, key: str = "index") -> int:
    if i is None or not 1 <= i <= grid.n_nodes:
        raise ConfigError(f"{key} must be in 1..{grid.n_nodes}, got {i}")
    return i


def _build_potential(grid: DomainGrid, section: dict[str, str]) -> Potential:
    preset = section["preset"].strip().lower()
    if preset == "zero":
        return Potential.zero(grid)
    if preset == "constant":
        value = get_float(section, "value")
        if value is None:
            raise ConfigError("constant potential requires value=")
        return Potential.constant(grid, value)
    if preset in ("fourier", "file"):
        return Potential.from_values(grid, _node_values(grid, section, preset, "potential"))
    raise ConfigError(f"unknown potential preset {section['preset']!r}")


def _node_values(grid: DomainGrid, section: dict[str, str], kind: str, what: str) -> np.ndarray:
    """Node values of a "fourier" (coeffs/sin_coeffs) or "file" (path) input."""
    if kind == "fourier":
        cos_coeffs = get_floats(section, "coeffs")
        sin_coeffs = get_floats(section, "sin_coeffs")
        if not cos_coeffs and not sin_coeffs:
            raise ConfigError(f"fourier {what} requires coeffs= and/or sin_coeffs=")
        return Potential.fourier(grid, cos_coeffs, sin_coeffs).values
    if "path" not in section:
        raise ConfigError(f"file {what} requires path=")
    return _read_column_csv(section["path"], grid.n_nodes)


def _read_column_csv(path: str, n: int) -> np.ndarray:
    """n finite node values from the "q" column of a CSV, else its last column.
    Blank lines are skipped, a first row that does not end in a number is the
    header, and reading stops at data row n + 1."""
    values, count, col = np.empty(n), 0, -1
    try:
        # a byte that is not UTF-8 reaches its row as a lone surrogate, which
        # encode() rejects, so the error names the line
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            for k, row in enumerate(filter(None, reader)):
                where = f"{path!r} line {reader.line_num}"
                "".join(row).encode("utf-8")
                if count == n:
                    raise ConfigError(f"{path!r} has more than {n} rows, expected {n}")
                try:
                    values[count] = float(row[col])
                except (ValueError, IndexError) as exc:
                    if k == 0:
                        col = row.index("q") if "q" in row else -1
                        continue
                    raise ConfigError(f"{where}: expected a number in {row!r}") from exc
                if not np.isfinite(values[count]):
                    raise ConfigError(f"{where}: non-finite value {row[col]!r}")
                count += 1
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{path!r} line {reader.line_num}: not UTF-8 text") from exc
    except csv.Error as exc:
        raise ConfigError(f"{path!r} line {reader.line_num}: {exc}") from exc
    if count != n:
        raise ConfigError(f"{path!r} has {count} rows, expected {n}" if count
                          else f"no data rows in {path!r}")
    return values


def _build_direction(grid: DomainGrid, task: dict[str, str], seed: int | None) -> ProbeDirection:
    kind = task["direction"].strip().lower()
    if kind in ("fourier", "file"):
        return make_direction(grid, _node_values(grid, task, kind, "direction"))
    if kind in ("noise", "spike"):
        if seed is None:
            raise ConfigError(f"[output] seed is required for a {kind!r} direction")
        (u,) = sample_probes(grid, 1, seed, kind)
        return u
    raise ConfigError(f"unknown direction {task['direction']!r}")


def _positive_probes(task: dict[str, str], default: int) -> int:
    probes = get_int(task, "probes", default)
    if probes <= 0:
        raise ConfigError(f"probes must be a positive integer, got {probes}")
    if probes > MAX_PROBES:
        raise ConfigError(f"probes must be at most {MAX_PROBES}, got {probes}")
    return probes


def _artifact(report: dict, outdir: Path, name: str) -> Path:
    """outdir / name, listed in the report's artifacts under name with "." as "_"."""
    report["artifacts"][name.replace(".", "_")] = name
    return outdir / name


def _write_certificate(grid: DomainGrid, outdir: Path, report: dict, cert: Certificate,
                       name: str) -> None:
    """Write the certificate as ``name``, and an infeasible one's separating
    direction as separating_direction.csv, which the certificate names."""
    direction_csv = None
    if cert.status is CertificateStatus.INFEASIBLE:
        path = _artifact(report, outdir, "separating_direction.csv")
        write_node_csv(grid, path, {"u": cert.separating_direction.values})
        direction_csv = path.name
    write_json(_artifact(report, outdir, name), cert.to_dict(direction_csv))


def cmd_spectrum(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    grid = grid_from_mapping(cfg.section("domain"))
    q = _build_potential(grid, cfg.section("potential"))
    modes = get_int(cfg.section("task"), "modes", 8)
    if not 1 <= modes <= grid.n_nodes:
        raise ConfigError(f"modes must be in 1..{grid.n_nodes}, got {modes}")
    spec = solve_spectrum(grid, q, modes)
    report = new_report("spectrum", cfg.sections)
    report["eigenvalues"] = spec.eigenvalues.tolist()
    modes = {f"f{j+1}": spec.eigenvectors[:, j] for j in range(spec.count)}
    write_node_csv(grid, _artifact(report, outdir, "eigenvectors.csv"),
                   {"w": np.full(grid.n_nodes, grid.weight), **modes})
    return report, 0


def cmd_derivative(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    grid = grid_from_mapping(cfg.section("domain"))
    q = _build_potential(grid, cfg.section("potential"))
    task = cfg.section("task")
    i = _check_index(grid, get_int(task, "index"))
    u = _build_direction(grid, task, _require_seed(cfg, "derivative"))
    t = get_float(task, "fd_step", 1e-4)
    if t <= 0:
        raise ConfigError(f"fd_step must be positive, got {t}")
    spec, cluster = spectrum_with_complete_cluster(grid, q, i)
    d = one_sided_derivatives(spec, i, u)
    fd_central = fd_eigenvalue_derivative(grid, q, i, u, t)
    fd_rich = (4.0 * fd_eigenvalue_derivative(grid, q, i, u, t / 2.0) - fd_central) / 3.0
    rank = cluster.rank_of(i)
    interior = 0 < rank < cluster.multiplicity - 1
    report = new_report("derivative", cfg.sections)
    report["eigenvalues"] = spec.eigenvalues.tolist()
    report["payload"] = {
        "index": i,
        "multiplicity": cluster.multiplicity,
        "left": d.left,
        "right": d.right,
        "critical": d.opposite_signs,
        "fd_central": fd_central,
        "fd_richardson": fd_rich,
        "fd_step": t,
        # the extremal selections carry the variational meaning; strictly
        # interior ranks use the sorted-branch extension
        "branch_rule": "sorted-extension (interior of cluster)" if interior else "extremal",
    }
    return report, 0


def cmd_criticality(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    grid = grid_from_mapping(cfg.section("domain"))
    q = _build_potential(grid, cfg.section("potential"))
    task = cfg.section("task")
    i = _check_index(grid, get_int(task, "index"))
    probes = _positive_probes(task, 200)
    seed = _require_seed(cfg, "criticality")
    spec, _ = spectrum_with_complete_cluster(grid, q, i)
    crit = full_criticality_report(spec, i, probes=probes, seed=seed)
    report = new_report("criticality", cfg.sections)
    report["eigenvalues"] = spec.eigenvalues.tolist()
    report["payload"] = crit.to_dict()
    cert = crit.certificate
    _write_certificate(grid, outdir, report, cert, "certificate.json")
    if cert.status is CertificateStatus.FEASIBLE:
        write_node_csv(grid, _artifact(report, outdir, "frame.csv"),
                       {f"g{p+1}": f for p, f in enumerate(crit.frame)})
        write_node_csv(grid, _artifact(report, outdir, "recovered_potential.csv"),
                       {"q": crit.recovered.values})
    return report, 0


def cmd_gap(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    grid = grid_from_mapping(cfg.section("domain"))
    q = _build_potential(grid, cfg.section("potential"))
    task = cfg.section("task")
    i = _check_index(grid, get_int(task, "index"))
    j = _check_index(grid, get_int(task, "jindex"), "jindex")
    if not 1 <= i < j:
        raise ConfigError(f"gap requires 1 <= index < jindex, got {i}, {j}")
    probes = _positive_probes(task, 20)
    seed = _require_seed(cfg, "gap")
    spec, cj = spectrum_with_complete_cluster(grid, q, j)
    ci = detect_cluster(spec, i)
    cert = gap_certificate(spec, ci, cj)

    report = new_report("gap", cfg.sections)
    report["eigenvalues"] = spec.eigenvalues.tolist()
    _write_certificate(grid, outdir, report, cert, "gap_certificate.json")

    rows = []
    if not cert.degenerate:
        for u_id, u in enumerate(sample_probes(grid, probes, seed, "fourier")):
            d = gap_one_sided_derivatives(spec, i, j, u)
            rows.append([f"u{u_id}", f"{i},{j}", fmt(d.left), fmt(d.right), int(d.opposite_signs)])
    write_csv(_artifact(report, outdir, "gap_derivatives.csv"),
              ["u_id", "i", "left", "right", "critical"], rows)
    report["payload"] = {
        "index": i,
        "jindex": j,
        "gap": spec.eigenvalue(j) - spec.eigenvalue(i),
        "certificate_status": cert.status.value,
        "degenerate": cert.degenerate,
        "seed": seed,
    }
    return report, 0


def cmd_optimize(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    grid = grid_from_mapping(cfg.section("domain"))
    task = cfg.section("task")
    target = task["target"].strip().lower()
    i = _check_index(grid, get_int(task, "index"))
    j = get_int(task, "jindex")
    if j is not None:
        _check_index(grid, j, "jindex")
    objective = ObjectiveSpec(target, i, j, sense=task["sense"].strip().lower())
    constraint = ConstraintSpec(get_float(task, "mean"), get_float(task, "bound"))
    q0 = project_feasible(grid, _build_potential(grid, cfg.section("potential")), constraint)
    iters = get_int(task, "iters", 200)
    schedule_kind = task.get("schedule", "sqrt").strip().lower()
    schedule = Schedule(schedule_kind, s0=get_float(task, "step"),
                        target=get_float(task, "polyak_target"))
    cert_every = get_int(task, "cert_every", 25)

    result = run_optimizer(grid, objective, constraint, q0, schedule, iters,
                           cert_every=cert_every)
    report = new_report("optimize", cfg.sections)
    report["payload"] = {
        "stop_reason": result.stop_reason,
        "iterations": result.iterations,
        "objective": result.objective,
        "box_saturated_fraction": result.box_saturated_fraction,
        "aborted": result.aborted,
    }
    write_csv(_artifact(report, outdir, "iterates.csv"),
              ["iter", "objective", "step", "mult_i", "residual"],
              ([r.iteration, fmt(r.objective), fmt(r.step), r.mult_i,
                "" if r.cert_residual is None else fmt(r.cert_residual)] for r in result.log))
    write_node_csv(grid, _artifact(report, outdir, "final_potential.csv"),
                   {"q": result.potential.values})
    code = 1 if result.aborted else 0
    return report, code


def cmd_verify(cfg: ParsedConfig, outdir: Path) -> tuple[dict, int]:
    suite = cfg.section("task")["suite"].strip()
    seed = _require_seed(cfg, "verify")
    outcome = run_suite(suite, seed)
    report = new_report("verify", cfg.sections)
    report["payload"] = outcome
    # one suite, or "all" holding one level of suites
    report["verdicts"] = [dict(c, suite=s["suite"])
                          for s in outcome.get("suites", [outcome]) for c in s["checks"]]
    passed = outcome["passed"]
    return report, 0 if passed else 1


COMMANDS = {
    "spectrum": cmd_spectrum,
    "derivative": cmd_derivative,
    "criticality": cmd_criticality,
    "gap": cmd_gap,
    "optimize": cmd_optimize,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="specpot",
                                     description="Spectral experiments for potentials of -Laplacian + q")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key=value config file with [section] headers")
        p.add_argument("--out", default=None, help="output directory (default: [output] directory)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        print(f"config error: {args.config!r} line {line}: not UTF-8 text: {exc.reason}",
              file=sys.stderr)
        return 2
    try:
        cfg = parse_config_text(text)
        validate_schema(cfg, SCHEMAS[args.command])
        outdir = args.out or cfg.section("output").get("directory")
        if not outdir:
            raise ConfigError("no output directory: pass --out or set [output] directory")
        outdir = Path(outdir)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {str(outdir)!r}: {exc}") from exc
        one_blas_thread()
        report, code = COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, IncompleteClusterError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1

    write_json(outdir / "report.json", report)
    for v in report["verdicts"]:
        status = "PASS" if v["passed"] else "FAIL"
        measured = "" if v.get("measured") is None else f"  measured={v['measured']:.3e}"
        tolerance = "" if v.get("tolerance") is None else f"  tol={v['tolerance']:.3e}"
        suite = f"[{v['suite']}] " if "suite" in v else ""
        print(f"{status}  {suite}{v['name']}{measured}{tolerance}")
    print(f"report: {outdir / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
