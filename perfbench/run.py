"""specpot benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload ascent|certify|torus \
        [--seed 7] [--seconds 40] [--trace 0|1]

Run it from the root of a checkout. Every run of the workload is a fresh
process (``child.py``) that imports ``specpot.cli`` from the checkout's
``src`` and calls ``specpot.cli.main`` once per command; runs happen one at a
time. With ``--trace 0`` the workload runs at least twice, and again while
another run still fits in ``--seconds``; the end-to-end metrics are medians
over those runs. With ``--trace 1`` it runs once untraced and once traced,
and the per-layer metrics come from the traced run's spans. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything a run writes goes under ``perfbench/out/<workload>``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 7
HELD_OUT_SEED = 29       # kept for checking later claims, not for tuning
DEFAULT_SECONDS = 40
MIN_RUNS = 2             # report.json identity needs two runs
SETUP_PROBES = 3         # extra import-only processes per invocation
BUDGET_S = 170.0         # the whole invocation must end within this


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


class Runner:
    """Starts child processes one at a time and collects what they report."""

    def __init__(self, out: Path, deadline: float):
        self.out = out
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.child_env: dict = {}
        tmp = out / "tmp"
        tmp.mkdir()
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "OPENBLAS_NUM_THREADS": str(self.nproc),
            "OMP_NUM_THREADS": str(self.nproc),
            "MKL_NUM_THREADS": str(self.nproc),
            "TMPDIR": str(tmp),
        })

    def spawn(self, name: str, plan: dict) -> dict:
        plan_path = self.out / f"{name}.plan.json"
        result_path = self.out / f"{name}.result.json"
        plan_path.write_text(json.dumps(plan, indent=2), encoding="utf-8")
        with open(self.out / f"{name}.log", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=self.env, cwd=ROOT)
            usage = self._wait(proc, name)
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{name}: child exited with {proc.returncode}; "
                             f"see {self.out / (name + '.log')}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.child_env = result.pop("env")
        result["setup_s"] = result["t_ready"] - started
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
        return result

    def _wait(self, proc: subprocess.Popen, name: str):
        """Reap the child and return its resource usage; kill it at the deadline."""
        try:
            while time.monotonic() < self.deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return usage
                time.sleep(0.02)
            raise BenchError(f"{name}: still running at the time limit; killed")
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9


class Workload:
    """One invocation's commands, its runs and the checks on their outputs."""

    def __init__(self, name: str, seed: int, out: Path):
        self.name = name
        self.out = out
        inputs = out / "inputs"
        inputs.mkdir()
        self.commands = workloads.build(name, seed, inputs)
        self.configs = []
        for command in self.commands:
            path = inputs / f"{command.name}.cfg"
            path.write_text(command.config, encoding="utf-8")
            self.configs.append(path)
        self.reference: dict[str, bytes | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def plan(self, run: str, trace: bool) -> dict:
        argvs = [command.argv(config, self.out / run / command.name)
                 for command, config in zip(self.commands, self.configs)]
        return {"commands": argvs, "trace": trace, "run_id": f"{self.name}-{run}",
                "spans": str(self.out / f"{run}.spans.jsonl")}

    def check(self, run: str, result: dict) -> int:
        """Check one run's outputs; returns the number of failed checks."""
        before = self.failed
        for command, code in zip(self.commands, result["exit_codes"]):
            outdir = self.out / run / command.name
            checks = workloads.check(command, outdir, code)
            # report.json, minus timestamp, is byte-identical across runs
            body = workloads.report_bytes(outdir) if code == 0 else None
            if command.name not in self.reference:
                self.reference[command.name] = body
            else:
                same = body is not None and body == self.reference[command.name]
                checks.append((f"{command.name}: report.json identical to the first run", same))
            for label, ok in checks:
                self.attempted += 1
                if not ok:
                    self.failed += 1
                    self.failures.append(f"{run}: {label}")
        return self.failed - before


def _e2e(runs: list[dict], setups: list[float]) -> dict:
    metrics = {"wall_s": [r["wall_s"] for r in runs], "setup_s": setups,
               "cpu_s": [r["cpu_s"] for r in runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    return {k: (statistics.median(v), units[k], len(v)) for k, v in metrics.items()}


def _print_run(run: str, result: dict, failed: int) -> None:
    print(f"{run}: wall {result['wall_s']:.3f} s  setup {result['setup_s']:.3f} s  "
          f"cpu {result['cpu_s']:.3f} s  peak rss {result['peak_rss_mb']:.1f} MB  "
          f"exit codes {result['exit_codes']}  failed checks {failed}", flush=True)


def _another_fits(runs: list[dict], started: float, seconds: int, deadline: float) -> bool:
    if len(runs) < MIN_RUNS:
        return True
    now = time.monotonic()
    per_run = (now - started) / len(runs)
    return now - started + per_run <= seconds and now + per_run < deadline


def bench(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Workload, dict]:
    """Run the workload; returns its checks and everything measured."""
    if not (ROOT / "src" / "specpot" / "cli.py").is_file():
        raise BenchError(f"no specpot sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUDGET_S
    out = HERE / "out" / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(out, deadline)
    wl = Workload(workload, seed, out)

    # The first import-only process may compile bytecode; it is not timed.
    probes = [runner.spawn(f"setup{p}", {"setup_only": True}) for p in range(SETUP_PROBES + 1)]
    env = runner.child_env
    imported = Path(env["specpot_file"]).resolve()
    if imported != (ROOT / "src" / "specpot" / "cli.py").resolve():
        raise BenchError(f"child imported specpot from {imported}, not from {ROOT / 'src'}")
    setups = [p["setup_s"] for p in probes[1:]]

    runs: list[dict] = []
    started = time.monotonic()
    while not runs or (not trace and _another_fits(runs, started, seconds, deadline)):
        run = f"run{len(runs) + 1}"
        result = runner.spawn(run, wl.plan(run, trace=False))
        runs.append(result)
        setups.append(result["setup_s"])
        _print_run(run, result, wl.check(run, result))
    traced_run = None
    if trace:
        traced_run = runner.spawn("traced", wl.plan("traced", trace=True))
        _print_run("traced", traced_run, wl.check("traced", traced_run))

    env.update({
        "git_sha": _git_sha(ROOT), "src_sha256": _src_digest(ROOT / "src"),
        "scipy": _version("scipy"), "nproc": runner.nproc, "blas_threads_cap": runner.nproc,
    })
    return wl, {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "env": env, "runs": runs, "traced_run": traced_run, "setup_samples": setups}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out)")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measure for about this long (at least two runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"specpot benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    try:
        wl, res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    env = res["env"]
    print("env: " + " ".join(f"{k}={env[k]}" for k in sorted(env)))
    for failure in wl.failures:
        print(f"FAILED {failure}")

    if args.trace:
        spans = tracer.read_spans(wl.out / "traced.spans.jsonl")
        metrics = tracer.layer_metrics(spans)
        overhead = res["traced_run"]["wall_s"] - statistics.median(r["wall_s"] for r in res["runs"])
        metrics["trace.overhead_s"] = (overhead, "s")
        rows = {k: (v, unit, 1) for k, (v, unit) in metrics.items()}
    else:
        rows = _e2e(res["runs"], res["setup_samples"])
    for name, (value, unit, count) in rows.items():
        print(f"{name:48s} {value:14.6f} {unit:6s} (median of {count})" if count > 1
              else f"{name:48s} {value:14.6f} {unit}")
    frac = wl.failed / wl.attempted
    print(f"{'failed_frac':48s} {frac:14.6f} ratio  ({wl.failed} of {wl.attempted} checks)")

    res["metrics"] = {k: {"value": v, "unit": u, "count": c} for k, (v, u, c) in rows.items()}
    res.update({"attempted": wl.attempted, "failed": wl.failed, "failed_frac": frac,
                "failures": wl.failures})
    (wl.out / "result.json").write_text(json.dumps(res, indent=2, sort_keys=True),
                                        encoding="utf-8")
    print(json.dumps({
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
