"""Benchmark workloads: the specpot commands each one runs, the inputs they
read (generated from the seed) and the checks on what they write.

- ascent:  ``specpot verify`` with suite=thm11.
- certify: ``specpot verify`` once for each of the other five suites.
- torus:   ``specpot criticality`` with index=2 on the 64x64 torus, once
           for a seeded constant potential and once for a seeded low-mode
           potential read from a file.
"""
from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ascent", "certify", "torus")

SUITES = {
    "ascent": ("thm11",),
    "certify": ("thm12", "circle-critical", "no-local-min-l2", "gap-critical", "gap-no-min"),
}
# verdicts each suite reports at this version of specpot
VERDICTS = {"thm11": 8, "thm12": 6, "circle-critical": 10, "no-local-min-l2": 2,
            "gap-critical": 6, "gap-no-min": 3}

TORUS_NODES = 64
TORUS_LENGTH = 2.0 * math.pi
TORUS_INDEX = 2
TORUS_PROBES = 200
EIGENVALUE_RTOL = 1e-8


@dataclass(frozen=True)
class Command:
    """One ``specpot`` invocation and what its output must show."""

    name: str                  # unique in the workload; names the output directory
    subcommand: str
    config: str
    expect: dict

    def argv(self, config_path: Path, outdir: Path) -> list[str]:
        return [self.subcommand, "--config", str(config_path), "--out", str(outdir)]


def _verify(suite: str, seed: int) -> Command:
    config = f"[task]\nsuite={suite}\n\n[output]\nseed={seed}\n"
    return Command(suite, "verify", config, {"verdicts": VERDICTS[suite]})


def _torus(name: str, potential: str, seed: int, expect: dict) -> Command:
    config = (
        "[domain]\nkind=torus\n"
        f"length={TORUS_LENGTH!r}\nnodes={TORUS_NODES}\nbc=closed\n\n"
        f"[potential]\n{potential}\n\n"
        f"[task]\nindex={TORUS_INDEX}\nprobes={TORUS_PROBES}\n\n"
        f"[output]\nseed={seed}\n"
    )
    return Command(name, "criticality", config, expect)


def _low_mode_potential(rng: random.Random) -> list[float]:
    """Torus potential from random modes with wave numbers 0..2 per axis."""
    n, h = TORUS_NODES, TORUS_LENGTH / TORUS_NODES
    terms = [(kx, ky, rng.gauss(0.0, 0.3), rng.gauss(0.0, 0.3))
             for kx in range(3) for ky in range(3) if (kx, ky) != (0, 0)]
    values = []
    for j in range(n):          # node index j * n + i, x varies fastest
        for i in range(n):
            x, y = i * h, j * h
            values.append(sum(a * math.cos(kx * x + ky * y) + b * math.sin(kx * x + ky * y)
                              for kx, ky, a, b in terms))
    return values


def build(workload: str, seed: int, inputs: Path) -> list[Command]:
    """Commands of the workload for this seed; writes any input files."""
    if workload in SUITES:
        return [_verify(suite, seed) for suite in SUITES[workload]]
    if workload != "torus":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    c = round(rng.uniform(-1.0, 1.0), 6)
    path = inputs / "torus_potential.csv"
    h = TORUS_LENGTH / TORUS_NODES
    rows = [f"{(idx % TORUS_NODES) * h!r},{(idx // TORUS_NODES) * h!r},{q!r}"
            for idx, q in enumerate(_low_mode_potential(rng))]
    path.write_text("x,y,q\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return [
        _torus("torus-constant", f"preset=constant\nvalue={c!r}", seed,
               {"constant": c, "status": "feasible", "verdict": "critical",
                "multiplicity": 4, "critical_probes": TORUS_PROBES}),
        _torus("torus-file", f"preset=file\npath={path.resolve()}", seed,
               {"status": "infeasible", "verdict": "not critical",
                "multiplicity": 1, "critical_probes": None}),
    ]


def torus_spectrum(c: float, count: int) -> list[float]:
    """Lowest eigenvalues of -Laplacian_h + c on the n x n periodic grid:
    c + (4/h^2) (sin^2(pi a/n) + sin^2(pi b/n)), a, b = 0..n-1."""
    n, h = TORUS_NODES, TORUS_LENGTH / TORUS_NODES
    s = [math.sin(math.pi * a / n) ** 2 for a in range(n)]
    return sorted(c + 4.0 / h**2 * (sa + sb) for sa in s for sb in s)[:count]


def _read_report(outdir: Path) -> dict | None:
    try:
        return json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check(command: Command, outdir: Path, exit_code: int | None) -> list[tuple[str, bool]]:
    """Named pass/fail checks of one command's output. A crash or a non-zero
    exit fails every check of the command."""
    report = _read_report(outdir) if exit_code == 0 else None
    if command.subcommand == "verify":
        expected = command.expect["verdicts"]
        verdicts = report["verdicts"] if report else []
        checks = [(f"{command.name}: {v['name']}", bool(v["passed"])) for v in verdicts]
        checks += [(f"{command.name}: verdict missing", False)] * (expected - len(checks))
        return [(f"{command.name}: exit 0", report is not None)] + checks

    expect = command.expect
    names = ["exit 0", "status", "verdict", "simple or 4-fold cluster", "probe count"]
    if "constant" in expect:
        names += ["eigenvalues match the closed-form spectrum", "frame.csv has one row per node"]
    if report is None:
        return [(f"{command.name}: {n}", False) for n in names]
    payload = report["payload"]
    probes_ok = payload["probes_total"] == TORUS_PROBES
    if expect["critical_probes"] is not None:
        probes_ok &= payload["probes_critical"] == expect["critical_probes"]
    results = [True, payload["certificate_status"] == expect["status"],
               payload["verdict"] == expect["verdict"],
               payload["multiplicity"] == expect["multiplicity"], probes_ok]
    if "constant" in expect:
        computed = report["eigenvalues"]
        exact = torus_spectrum(expect["constant"], len(computed))
        results.append(all(abs(a - b) <= EIGENVALUE_RTOL * max(1.0, abs(b))
                           for a, b in zip(computed, exact)))
        frame = outdir / "frame.csv"
        rows = frame.read_text(encoding="utf-8").count("\n") - 1 if frame.exists() else -1
        results.append(rows == TORUS_NODES**2)
    return [(f"{command.name}: {n}", ok) for n, ok in zip(names, results)]


_TIMESTAMP = re.compile(rb'^\s*"timestamp": .*\n', re.MULTILINE)


def report_bytes(outdir: Path) -> bytes | None:
    """report.json without its timestamp line, or None when absent."""
    try:
        return _TIMESTAMP.sub(b"", (outdir / "report.json").read_bytes())
    except OSError:
        return None
