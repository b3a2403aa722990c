"""Projected subgradient optimization of eigenvalues and gaps.

The admissible set is { q : mean(q) = c, |q| <= B }. The box bound B is a
compactness surrogate: without it the Dirichlet ascent runs are unbounded, so
non-existence of critical potentials shows up as box saturation, which the
result records explicitly. Step schedules: the default diminishing s0/sqrt(t)
rule, a constant step, and a Polyak step for runs whose optimal value is
known in advance (it is what makes the verification experiments converge to
tight tolerances in a few hundred solves).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .certificates import CertificateStatus, criticality_certificate, gap_certificate
from .domain import DomainGrid, Potential, mean_value, project_mean_zero
from .errors import ConfigError, DegenerateGapError, SolverError
from .perturbation import (
    ProbeDirection,
    cluster_matrix,
    make_direction,
    mixed_probe_suite,
    one_sided_derivatives,
)
from .spectral import (
    SpectralData,
    detect_cluster,
    solve_spectrum,
    spectrum_with_complete_cluster,
)

STAGNATION_WINDOW = 50
STAGNATION_TOL = 1e-10
BACKTRACK_TOL = 1e-12
DESCENT_THRESHOLD = 1e-6     # one-sided derivative a descent witness must beat
LINE_SEARCH_STEP = 1e-3      # step of the line search confirming a witness


@dataclass(frozen=True)
class ObjectiveSpec:
    """What to optimize: a single eigenvalue lambda_i or a gap lambda_j - lambda_i."""

    target: str                  # "eigenvalue" | "gap"
    i: int
    j: int | None = None
    sense: str = "maximize"      # "maximize" | "minimize"

    def __post_init__(self):
        if self.target not in ("eigenvalue", "gap"):
            raise ConfigError(f"unknown objective target {self.target!r}")
        if self.sense not in ("maximize", "minimize"):
            raise ConfigError(f"unknown sense {self.sense!r}")
        if self.i < 1:
            raise ConfigError("index must be >= 1")
        if self.target == "gap":
            if self.j is None or self.j <= self.i:
                raise ConfigError("gap objective requires j > i")
        elif self.j is not None:
            raise ConfigError("eigenvalue objective takes no second index")

    @property
    def sigma(self) -> float:
        return 1.0 if self.sense == "maximize" else -1.0

    @property
    def top_index(self) -> int:
        return self.j if self.target == "gap" else self.i


@dataclass(frozen=True)
class ConstraintSpec:
    """Fixed mean c and sup-norm box bound B >= |c|."""

    mean_c: float
    bound_B: float

    def __post_init__(self):
        if self.bound_B <= 0 or self.bound_B < abs(self.mean_c):
            raise ConfigError(
                f"infeasible constraint: need B >= |c| > 0, got c={self.mean_c}, B={self.bound_B}"
            )


@dataclass(frozen=True)
class Schedule:
    """Step-size rule: "sqrt" (s0/sqrt(t)), "constant" (s0), or "polyak"
    (relaxation * |objective - target| / ||direction||_w^2, clipped to the box
    width). The default relaxation 0.5 lands on the minimizer of a quadratic
    model instead of mirroring across it; use 1.0 for sharp (kink) targets."""

    kind: str = "sqrt"
    s0: float | None = None
    target: float | None = None
    relaxation: float = 0.5

    def __post_init__(self):
        if self.kind not in ("sqrt", "constant", "polyak"):
            raise ConfigError(f"unknown schedule {self.kind!r}")
        if self.kind == "polyak" and self.target is None:
            raise ConfigError("polyak schedule requires a target value")
        if not 0.0 < self.relaxation <= 2.0:
            raise ConfigError("relaxation must be in (0, 2]")


@dataclass
class IterateRecord:
    iteration: int
    objective: float
    step: float
    mult_i: int
    cert_residual: float | None = None
    mean_error: float = 0.0
    box_error: float = 0.0


@dataclass
class IterateLog:
    records: list[IterateRecord] = field(default_factory=list)

    def append(self, rec: IterateRecord) -> None:
        self.records.append(rec)

    def objectives(self) -> list[float]:
        return [r.objective for r in self.records]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "objective", "step", "mult_i", "residual",
                             "mean_error", "box_error"])
            for r in self.records:
                writer.writerow([
                    r.iteration,
                    repr(r.objective),
                    repr(r.step),
                    r.mult_i,
                    "" if r.cert_residual is None else repr(r.cert_residual),
                    repr(r.mean_error),
                    repr(r.box_error),
                ])


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    potential: Potential
    log: IterateLog
    stop_reason: str
    iterations: int
    objective: float
    box_saturated_fraction: float
    aborted: bool = False


def project_feasible(grid: DomainGrid, q, constraint: ConstraintSpec) -> Potential:
    """Exact projection onto the box [-B, B] intersected with the mean-c hyperplane.

    With uniform weights the projection of v is clip(v + mu, -B, B) for the
    one scalar mu that puts the mean on c (the continuous quadratic knapsack,
    Kiwiel 2008). That mean is continuous and nondecreasing in mu, equal to -B
    at mu = -B - max v and to B at mu = B - min v, so bisection on this
    bracket finds mu; both constraints then hold to roundoff.
    """
    values = q.values if isinstance(q, Potential) else grid.check_vector(q)
    B, c = constraint.bound_B, constraint.mean_c
    lo, hi = -B - np.max(values), B - np.min(values)
    for _ in range(200):
        mu = 0.5 * (lo + hi)
        if mean_value(grid, np.clip(values + mu, -B, B)) < c:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 1e-16 * max(1.0, B):
            break
    return Potential.from_values(grid, np.clip(values + 0.5 * (lo + hi), -B, B))


def _objective_value(spec: SpectralData, objective: ObjectiveSpec) -> float:
    if objective.target == "eigenvalue":
        return spec.eigenvalue(objective.i)
    return spec.eigenvalue(objective.j) - spec.eigenvalue(objective.i)


def _branch_function(spec: SpectralData, i: int) -> np.ndarray:
    """Eigenfunction whose squared density drives the governing branch at i:
    the eigenvector itself when simple, otherwise one fixed-point pass through
    the cluster matrix of the candidate direction."""
    cluster = detect_cluster(spec, i)
    if cluster.multiplicity == 1:
        return spec.eigenvector(i)
    F = spec.basis(cluster)
    seed_dir = make_direction(spec.grid, spec.eigenvector(i) ** 2)
    if seed_dir.sup_norm <= 1e-14:
        return spec.eigenvector(i)
    _, vecs = cluster_matrix(spec, cluster, seed_dir).branches()
    return F @ vecs[:, cluster.rank_of(i)]


def subgradient_direction(spec: SpectralData, objective: ObjectiveSpec) -> ProbeDirection:
    """Mean-zero ascent direction for the objective (not normalized: its
    magnitude vanishes as the run approaches a smooth critical point)."""
    if objective.target == "eigenvalue":
        f = _branch_function(spec, objective.i)
        return make_direction(spec.grid, f**2)
    f = _branch_function(spec, objective.i)
    g = _branch_function(spec, objective.j)
    return make_direction(spec.grid, g**2 - f**2)


def _step_size(schedule: Schedule, t: int, objective_value: float,
               direction: ProbeDirection, grid: DomainGrid, constraint: ConstraintSpec) -> float:
    if schedule.kind == "constant":
        return float(schedule.s0)
    if schedule.kind == "sqrt":
        return float(schedule.s0) / np.sqrt(t)
    gap = abs(objective_value - schedule.target)
    nrm2 = grid.inner(direction.values, direction.values)
    if nrm2 <= 1e-30:
        return 0.0
    step = schedule.relaxation * gap / nrm2
    if direction.sup_norm > 0:
        step = min(step, 2.0 * constraint.bound_B / direction.sup_norm)
    return float(step)


def run_optimizer(grid: DomainGrid, objective: ObjectiveSpec, constraint: ConstraintSpec,
                  q0: Potential, schedule: Schedule | None = None, max_iters: int = 500, *,
                  cert_every: int = 25) -> OptimizeResult:
    """Projected subgradient iteration with certificate-based stopping.

    Stops on max_iters, on objective stagnation, on a feasible criticality
    certificate at the current cluster, or (gap targets) when the two
    clusters merge. Deterministic given q0 and the schedule.
    """
    if np.max(np.abs(q0.values)) > constraint.bound_B + 1e-8 or abs(q0.mean - constraint.mean_c) > 1e-8:
        raise ConfigError("q0 violates the constraint set")
    q = project_feasible(grid, q0, constraint)
    if schedule is None:
        schedule = Schedule("sqrt", s0=0.1 * constraint.bound_B)
    elif schedule.kind != "polyak" and schedule.s0 is None:
        schedule = Schedule(schedule.kind, s0=0.1 * constraint.bound_B, target=schedule.target)

    log = IterateLog()
    stop_reason = "max_iters"
    aborted = False

    def solve(pot: Potential) -> SpectralData:
        spec, _ = spectrum_with_complete_cluster(grid, pot, objective.top_index)
        return spec

    try:
        spec = solve(q)
    except SolverError:
        return OptimizeResult(q, log, "solver_error", 0, np.nan, _saturation(q, constraint),
                              aborted=True)
    obj = _objective_value(spec, objective)
    last_step = 0.0
    it = 0
    for it in range(1, max_iters + 1):
        mult = detect_cluster(spec, objective.i).multiplicity
        cert_residual = None
        if objective.target == "gap" and detect_cluster(spec, objective.i).contains(objective.j):
            log.append(_record(grid, constraint, it, obj, last_step, mult, None, q))
            stop_reason = "gap_degenerate"
            break
        if cert_every and it % cert_every == 0:
            feasible, cert_residual = _certificate_stop(spec, objective)
            if feasible:
                log.append(_record(grid, constraint, it, obj, last_step, mult, cert_residual, q))
                stop_reason = "certificate"
                break
        log.append(_record(grid, constraint, it, obj, last_step, mult, cert_residual, q))

        objs = log.objectives()
        if len(objs) > STAGNATION_WINDOW:
            window = objs[-STAGNATION_WINDOW:]
            if max(window) - min(window) <= STAGNATION_TOL:
                stop_reason = "stagnation"
                break

        try:
            direction = subgradient_direction(spec, objective)
        except DegenerateGapError:
            stop_reason = "gap_degenerate"
            break
        if direction.sup_norm <= 1e-15:
            stop_reason = "stagnation"
            break
        step = _step_size(schedule, it, obj, direction, grid, constraint)
        if step <= 0.0:
            stop_reason = "stagnation"
            break

        simple_here = detect_cluster(spec, objective.i).multiplicity == 1 and (
            objective.target == "eigenvalue"
            or detect_cluster(spec, objective.j).multiplicity == 1
        )
        accepted = False
        for _halving in range(9):
            candidate = project_feasible(
                grid, q.values + objective.sigma * step * direction.values, constraint
            )
            try:
                cand_spec = solve(candidate)
            except SolverError:
                aborted = True
                stop_reason = "solver_error"
                break
            cand_obj = _objective_value(cand_spec, objective)
            improved = objective.sigma * (cand_obj - obj) >= -BACKTRACK_TOL
            if improved or not simple_here:
                q, spec, obj = candidate, cand_spec, cand_obj
                last_step = step
                accepted = True
                break
            step /= 2.0
        if aborted:
            break
        if not accepted:
            stop_reason = "stagnation"
            break
    else:
        it = max_iters

    final_mult = detect_cluster(spec, objective.i).multiplicity
    log.append(_record(grid, constraint, it + 1, obj, last_step, final_mult, None, q))
    return OptimizeResult(q, log, stop_reason, it, obj, _saturation(q, constraint), aborted)


def _record(grid, constraint, iteration, obj, step, mult, cert_residual, q) -> IterateRecord:
    return IterateRecord(
        iteration=iteration,
        objective=float(obj),
        step=float(step),
        mult_i=int(mult),
        cert_residual=cert_residual,
        mean_error=abs(mean_value(grid, q.values) - constraint.mean_c),
        box_error=max(0.0, float(np.max(np.abs(q.values))) - constraint.bound_B),
    )


def _saturation(q: Potential, constraint: ConstraintSpec) -> float:
    return float(np.mean(np.abs(np.abs(q.values) - constraint.bound_B) <= 1e-9))


def _certificate_stop(spec: SpectralData, objective: ObjectiveSpec) -> tuple[bool, float | None]:
    """Certificate decision at the current cluster: (feasible, residual).
    Residual is None only when the attempt is not applicable."""
    ci = detect_cluster(spec, objective.i)
    if not ci.complete:
        return False, None
    if objective.target == "eigenvalue":
        cert = criticality_certificate(spec, ci)
    else:
        cj = detect_cluster(spec, objective.j)
        if not cj.complete:
            return False, None
        cert = gap_certificate(spec, ci, cj)
    return cert.status is CertificateStatus.FEASIBLE, cert.residual


@dataclass(frozen=True, eq=False)
class RefuteResult:
    witness: ProbeDirection | None
    derivative: float
    confirmed: bool
    candidates_tried: int

    @property
    def found(self) -> bool:
        return self.witness is not None and self.confirmed


def refute_local_min(grid: DomainGrid, q: Potential, i: int, probe_budget: int = 200,
                     seed: int = 0) -> RefuteResult:
    """Search for a strict one-sided descent direction of lambda_i at q.

    Tries the certificate's separating direction first, then a randomized
    probe suite, then directions built from cluster branch eigenfunctions;
    each candidate must pass a 3-point line search before being returned.
    """
    if i < 2:
        raise ValueError("refutation targets indices i >= 2")
    spec, cluster = spectrum_with_complete_cluster(grid, q, i)
    tried = 0

    def confirmed_descent(u: ProbeDirection, derivative: float) -> RefuteResult | None:
        if _confirm_descent(grid, q, i, u):
            return RefuteResult(u, derivative, True, tried)
        return None

    cert = criticality_certificate(spec, cluster)
    if cert.status is CertificateStatus.INFEASIBLE:
        u = make_direction(grid, -cert.separating_direction.values, normalize=True)
        tried += 1
        d = one_sided_derivatives(spec, i, u)
        if d.right < -DESCENT_THRESHOLD:
            res = confirmed_descent(u, d.right)
            if res:
                return res

    for u in mixed_probe_suite(grid, probe_budget, seed):
        tried += 1
        d = one_sided_derivatives(spec, i, u)
        if d.right < -DESCENT_THRESHOLD:
            res = confirmed_descent(u, d.right)
            if res:
                return res
        if d.left > DESCENT_THRESHOLD:
            flipped = make_direction(grid, -u.values, normalize=True)
            res = confirmed_descent(flipped, -d.left)
            if res:
                return res

    F = spec.basis(cluster)
    m = cluster.multiplicity
    for a in range(m):
        for b in range(a, m):
            raw = F[:, a] * F[:, b] if a != b else F[:, a] ** 2 - F[:, (a + 1) % m] ** 2
            if np.max(np.abs(raw)) <= 1e-14:
                continue
            for sign in (1.0, -1.0):
                candidate_values = sign * raw
                if np.max(np.abs(project_mean_zero(grid, candidate_values))) <= 1e-14:
                    continue
                u = make_direction(grid, candidate_values, normalize=True)
                tried += 1
                d = one_sided_derivatives(spec, i, u)
                if d.right < -DESCENT_THRESHOLD:
                    res = confirmed_descent(u, d.right)
                    if res:
                        return res
    return RefuteResult(None, 0.0, False, tried)


def _confirm_descent(grid: DomainGrid, q: Potential, i: int, u: ProbeDirection,
                     points: int = 3) -> bool:
    """Strictly decreasing lambda_i(q + t u) over t = s, 2s, ... with s = LINE_SEARCH_STEP."""
    k = i + 6
    prev = solve_spectrum(grid, q, k).eigenvalue(i)
    for p in range(1, points + 1):
        shifted = Potential.from_values(grid, q.values + p * LINE_SEARCH_STEP * u.values)
        value = solve_spectrum(grid, shifted, k).eigenvalue(i)
        if value >= prev - 1e-12:
            return False
        prev = value
    return True
