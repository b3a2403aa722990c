"""Projected subgradient optimization of eigenvalues and gaps.

The admissible set is { q : mean(q) = c, |q| <= B }. The box bound B is a
compactness surrogate: without it the Dirichlet ascent runs are unbounded, so
non-existence of critical potentials shows up as box saturation, which the
result records explicitly. Step schedules: the default diminishing s0/sqrt(t)
rule, a constant step, and a Polyak step for runs whose optimal value is
known in advance. A Polyak run stops as soon as it reaches that value to
TARGET_TOL. A Polyak lambda_1 ascent on a closed or Neumann grid steps in
the Newton metric of lambda_1 near a constant potential (see run_optimizer)
and gets there in under ten iterations; every other run steps plainly.

Each candidate iterate, halvings included, is solved warm from the current
iterate's spectrum, and each point of the refuter's line search from the
point before it (``spectral``'s ``start``). Every other solve starts cold:
a run's first iterate, the refuter's solve at q, finite differences. The
start depends only on the run, so runs repeat bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import CertificateStatus, criticality_certificate, gap_certificate
from .domain import BoundaryCondition, DomainGrid, Potential
from .errors import ConfigError, SolverError
from .perturbation import (
    ProbeDirection,
    cluster_matrix,
    make_direction,
    mixed_probe_suite,
    one_sided_derivatives,
)
from .spectral import (
    Cluster,
    SpectralData,
    assemble,
    detect_cluster,
    spectrum_with_complete_cluster,
)

STAGNATION_WINDOW = 50
STAGNATION_TOL = 1e-10
TARGET_TOL = 1e-12           # Polyak stop: |objective - target| <= TARGET_TOL (1 + |target|)
BACKTRACK_TOL = 1e-12
DESCENT_THRESHOLD = 1e-6     # one-sided derivative a descent witness must beat
LINE_SEARCH_STEP = 1e-3      # step of the line search confirming a witness
LINE_SEARCH_POINTS = 3       # points t = s, 2s, 3s it must strictly descend over
POLYAK_RELAXATION = 0.5      # a plain step lands on a quadratic model's minimizer, not across it
MAX_BOUND = 1e6              # keeps the breakpoint search's mean error (~1e-16 B) below 1e-8


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
    """Fixed mean c and sup-norm box bound MAX_BOUND >= B >= |c|."""

    mean_c: float
    bound_B: float

    def __post_init__(self):
        if self.bound_B <= 0 or self.bound_B < abs(self.mean_c):
            raise ConfigError(
                f"infeasible constraint: need B >= |c| > 0, got c={self.mean_c}, B={self.bound_B}"
            )
        if self.bound_B > MAX_BOUND:
            raise ConfigError(f"bound B must be at most {MAX_BOUND:g}, got B={self.bound_B}: "
                              "the feasible projection keeps the mean only to ~1e-16 * B")


@dataclass(frozen=True)
class Schedule:
    """Step-size rule: "sqrt" (s0/sqrt(t)), "constant" (s0), or "polyak"
    (POLYAK_RELAXATION * |objective - target| / ||direction||_w^2, clipped to
    the box width; a lambda_1 ascent on a closed or Neumann grid takes
    run_optimizer's Newton-metric step instead). A polyak run also stops, on
    "target", at the first iterate with |objective - target| <= TARGET_TOL
    (1 + |target|); the other kinds ignore target. s0, when given, must be
    positive; a sqrt or constant run without it steps with s0 = 0.1 B."""

    kind: str = "sqrt"
    s0: float | None = None
    target: float | None = None

    def __post_init__(self):
        if self.kind not in ("sqrt", "constant", "polyak"):
            raise ConfigError(f"unknown schedule {self.kind!r}")
        if self.kind == "polyak" and self.target is None:
            raise ConfigError("polyak schedule requires a target value")
        if self.s0 is not None and not self.s0 > 0.0:
            raise ConfigError(f"step must be positive, got {self.s0}")


@dataclass
class IterateRecord:
    iteration: int
    objective: float
    step: float
    mult_i: int
    cert_residual: float | None = None


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    potential: Potential
    log: list[IterateRecord]
    stop_reason: str
    iterations: int
    objective: float
    box_saturated_fraction: float

    @property
    def aborted(self) -> bool:
        return self.stop_reason == "solver_error"


def project_feasible(grid: DomainGrid, q, constraint: ConstraintSpec) -> Potential:
    """Exact projection onto the box [-B, B] intersected with the mean-c hyperplane.

    With uniform weights the projection of v is clip(v + mu, -B, B) for the
    one scalar mu that puts the mean on c (the continuous quadratic knapsack,
    Kiwiel 2008). The clipped sum is continuous, nondecreasing and piecewise
    linear in mu, with its 2n breakpoints at -B - v (an entry leaves -B) and
    B - v (it reaches B). So mu is found exactly by a sort-based breakpoint
    search (Condat 2016): sort the breakpoints, evaluate the sum at each from
    prefix sums of the sorted v, and solve the one linear piece on which it
    reaches n c, in O(n log n) and without iterating. The box then holds
    exactly and the mean to about 1e-16 * max(1, B): at most 2.3e-10 over 200
    random inputs at B = MAX_BOUND, with |c| <= B and |v| <= 3 B.
    """
    values = q.values if isinstance(q, Potential) else grid.check_vector(q)
    B, c = constraint.bound_B, constraint.mean_c
    n, total = values.size, values.size * c
    s = np.sort(values)
    prefix = np.concatenate(([0.0], np.cumsum(s)))
    breakpoints = np.concatenate((-B - s, B - s))
    order = np.argsort(breakpoints, kind="stable")   # on a tie an entry leaves -B first
    mus = breakpoints[order]
    # at mus[k], the entries s[lo:hi] are free, s[:lo] sit at -B and s[hi:] at B
    lo = n - np.cumsum(order < n)
    hi = n - np.cumsum(order >= n)
    sums = B * (n - hi - lo) + prefix[hi] - prefix[lo] + mus * (hi - lo)
    k = int(np.argmax(sums >= total))   # sums[-1] = n B >= n c
    if k == 0:
        mu = mus[0]
    else:   # on (mus[k-1], mus[k]) the free set is the one at mus[k-1]
        a, b = lo[k - 1], hi[k - 1]
        mu = mus[k] if a == b else (total - B * (n - b - a) - np.sum(s[a:b])) / (b - a)
        mu = min(max(mu, mus[k - 1]), mus[k])
    return Potential.from_values(grid, np.clip(values + mu, -B, B))


def _branch_function(spec: SpectralData, cluster: Cluster, i: int) -> np.ndarray:
    """Eigenfunction of i's cluster whose squared density drives the governing
    branch at i: one fixed-point pass through the cluster matrix of the candidate
    direction (for a simple eigenvalue, whose 1 x 1 matrix has eigenvector 1, f_i)."""
    F = spec.basis(cluster)
    try:
        seed_dir = make_direction(spec.grid, spec.eigenvector(i) ** 2, normalize=True)
    except ValueError:   # a constant density: no mean-zero part
        return spec.eigenvector(i)
    _, vecs = np.linalg.eigh(cluster_matrix(spec, cluster, seed_dir))
    return F @ vecs[:, cluster.rank_of(i)]


def subgradient_direction(spec: SpectralData, objective: ObjectiveSpec, ci: Cluster,
                          cj: Cluster | None) -> ProbeDirection:
    """Mean-zero ascent direction for the objective at the clusters ci, cj of
    its indices (cj is None for an eigenvalue target); not normalized: its
    magnitude vanishes as the run approaches a smooth critical point."""
    f = _branch_function(spec, ci, objective.i)
    if objective.target == "eigenvalue":
        return make_direction(spec.grid, f**2)
    g = _branch_function(spec, cj, objective.j)
    return make_direction(spec.grid, g**2 - f**2)


def _step_size(schedule: Schedule, t: int, objective_value: float,
               direction: ProbeDirection, grid: DomainGrid, constraint: ConstraintSpec) -> float:
    """Step of iteration t; 0.0 when the direction vanishes. s0 defaults to 0.1 B."""
    if direction.sup_norm <= 1e-15:
        return 0.0
    s0 = 0.1 * constraint.bound_B if schedule.s0 is None else schedule.s0
    if schedule.kind == "constant":
        return float(s0)
    if schedule.kind == "sqrt":
        return float(s0) / np.sqrt(t)
    gap = abs(objective_value - schedule.target)
    nrm2 = grid.inner(direction.values, direction.values)
    if nrm2 <= 1e-30:
        return 0.0
    step = POLYAK_RELAXATION * gap / nrm2
    return float(min(step, 2.0 * constraint.bound_B / direction.sup_norm))


def run_optimizer(grid: DomainGrid, objective: ObjectiveSpec, constraint: ConstraintSpec,
                  q0: Potential, schedule: Schedule | None = None, max_iters: int = 500, *,
                  cert_every: int = 25) -> OptimizeResult:
    """Projected subgradient iteration with certificate-based stopping.

    Stops on max_iters (>= 1), on objective stagnation, on "target" (a polyak
    schedule whose objective is within TARGET_TOL (1 + |target|) of its
    target, checked before any further solve), on a feasible criticality
    certificate at the current cluster (tried every cert_every iterations,
    never at 0), or (gap targets) when the two clusters merge or when no
    eigenvalue count proves the cluster of i complete (an eigenvalue just
    above its edge, within solver accuracy, may belong to it). Every stop
    depends only on the current iterate and the log of this run, so the run
    is deterministic given q0 and the schedule.

    A polyak run maximizing lambda_1 on a closed or Neumann grid (Theorem
    1.1's setting) steps along d = L g, L = -Laplacian_h, by s = 2 |obj -
    target| / <g, d>_w (clipped like the plain step) while lambda_1 is simple
    and <g, d>_w > 0: near a constant, lambda_1's Hessian on mean-zero u is
    about -(2/V) L^-1, and this is its Newton step. A metric step rejected
    through all its halvings gives way to the plain step for the rest of the
    run. Elsewhere L models nothing: Dirichlet ascents end on the box and
    crawl in L, H - lambda_i is indefinite for i >= 2, and gap runs slow down.
    """
    if max_iters < 1:
        raise ConfigError(f"iters must be at least 1, got {max_iters}")
    if cert_every < 0:
        raise ConfigError(f"cert_every must be >= 0 (0 disables the check), got {cert_every}")
    if np.max(np.abs(q0.values)) > constraint.bound_B + 1e-8 or abs(q0.mean - constraint.mean_c) > 1e-8:
        raise ConfigError("q0 violates the constraint set")
    q = project_feasible(grid, q0, constraint)
    schedule = schedule or Schedule()

    log: list[IterateRecord] = []
    metric = None   # L = -Laplacian_h for the Newton-metric step, see above
    if (schedule.kind == "polyak" and objective.target == "eigenvalue" and objective.i == 1
            and objective.sense == "maximize" and grid.bc is not BoundaryCondition.DIRICHLET):
        metric = assemble(grid, Potential.zero(grid))

    def solve(pot: Potential, start: SpectralData | None = None):
        """(spectrum, cluster of i, of j or None, objective) at pot."""
        spec, top = spectrum_with_complete_cluster(grid, pot, objective.top_index, start)
        if objective.target == "eigenvalue":   # top is the cluster of i; there is no j
            return spec, top, None, spec.eigenvalue(objective.i)
        return (spec, detect_cluster(spec, objective.i), top,
                spec.eigenvalue(objective.j) - spec.eigenvalue(objective.i))

    it, obj = 0, np.nan
    try:   # a SolverError from any solve ends the run on "solver_error"
        spec, ci, cj, obj = solve(q)
        stop_reason, last_step = "max_iters", 0.0
        for it in range(1, max_iters + 1):
            cert_residual = None
            if cj is not None and ci.contains(objective.j):
                stop_reason = "gap_degenerate"
            elif (schedule.kind == "polyak"
                  and abs(obj - schedule.target) <= TARGET_TOL * (1.0 + abs(schedule.target))):
                stop_reason = "target"
            elif not ci.complete:   # the direction needs ci's whole eigenspace
                stop_reason = "cluster_unproven"
            elif cert_every and it % cert_every == 0:
                cert = (criticality_certificate(spec, ci) if cj is None
                        else gap_certificate(spec, ci, cj))
                cert_residual = cert.residual
                if cert.status is CertificateStatus.FEASIBLE:
                    stop_reason = "certificate"
            log.append(IterateRecord(it, float(obj), float(last_step), ci.multiplicity,
                                     cert_residual))
            if stop_reason != "max_iters":   # a stop found at this iterate, now recorded
                break

            direction = subgradient_direction(spec, objective, ci, cj)
            step = _step_size(schedule, it, obj, direction, grid, constraint)
            window = [r.objective for r in log[-STAGNATION_WINDOW:]]
            if step <= 0.0 or len(log) > STAGNATION_WINDOW and np.ptp(window) <= STAGNATION_TOL:
                stop_reason = "stagnation"
                break

            simple_here = ci.multiplicity == 1 and (cj is None or cj.multiplicity == 1)
            moves = [(direction, step)]
            if metric is not None and simple_here:
                newton = make_direction(grid, metric @ direction.values)
                curvature = grid.inner(direction.values, newton.values)
                if curvature > 0.0:
                    moves.insert(0, (newton, min(2.0 * abs(obj - schedule.target) / curvature,
                                                 2.0 * constraint.bound_B / newton.sup_norm)))
            found = _line_search(grid, constraint, q, objective.sigma, moves,
                                 lambda pot: solve(pot, start=spec),
                                 lambda value: objective.sigma * (value - obj) >= -BACKTRACK_TOL
                                 or not simple_here)
            if found is None:
                stop_reason = "stagnation"
                break
            index, q, (spec, ci, cj, obj), last_step = found
            if index:   # the metric step failed: this run steps plainly from here on
                metric = None
    except SolverError:
        stop_reason = "solver_error"
    if log:   # the run got past its first solve: record where it ended
        log.append(IterateRecord(it + 1, float(obj), float(last_step), ci.multiplicity))
    return OptimizeResult(q, log, stop_reason, it, obj, _saturation(q, constraint))


def _line_search(grid: DomainGrid, constraint: ConstraintSpec, q: Potential, sigma: float,
                 moves, solve, accept):
    """The first candidate, the feasible projection of q + sigma step move,
    whose objective accept takes: the moves in order, each step halved up to
    8 times. (move index, candidate, solve(candidate), step), or None."""
    for index, (move, step) in enumerate(moves):
        for _halving in range(9):
            candidate = project_feasible(grid, q.values + sigma * step * move.values, constraint)
            solved = solve(candidate)
            if accept(solved[-1]):
                return index, candidate, solved, step
            step /= 2.0
    return None


def _saturation(q: Potential, constraint: ConstraintSpec) -> float:
    return float(np.mean(np.abs(np.abs(q.values) - constraint.bound_B) <= 1e-9))


@dataclass(frozen=True, eq=False)
class RefuteResult:
    witness: ProbeDirection | None   # a confirmed descent direction, or None
    derivative: float
    candidates_tried: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def refute_local_min(grid: DomainGrid, q: Potential, i: int, probe_budget: int = 200,
                     seed: int = 0) -> RefuteResult:
    """Search for a strict one-sided descent direction of lambda_i at q.

    Tries the negated separating direction of an infeasible certificate
    first, then a randomized probe suite, each candidate on both sides; a
    candidate whose one-sided derivative is below -DESCENT_THRESHOLD must
    pass a LINE_SEARCH_POINTS line search before being returned.
    """
    if i < 2:
        raise ValueError("refutation targets indices i >= 2")
    spec, cluster = spectrum_with_complete_cluster(grid, q, i)
    tried = 0
    for u in _descent_directions(spec, cluster, probe_budget, seed):
        tried += 1
        d = one_sided_derivatives(spec, i, u)
        sides = [(u, d.right)]
        if d.left > DESCENT_THRESHOLD:   # -u descends
            sides.append((make_direction(grid, -u.values, normalize=True), -d.left))
        for v, slope in sides:
            if slope < -DESCENT_THRESHOLD and _confirm_descent(grid, q, i, v, spec):
                return RefuteResult(v, slope, tried)
    return RefuteResult(None, 0.0, tried)


def _descent_directions(spec: SpectralData, cluster: Cluster, probe_budget: int, seed: int):
    """Candidates in search order: the negated separating direction u of an
    infeasible certificate, then the probes. Every branch slope along u is
    at most -margin, so u's negation never descends."""
    cert = criticality_certificate(spec, cluster)
    if cert.status is CertificateStatus.INFEASIBLE:
        yield make_direction(spec.grid, -cert.separating_direction.values, normalize=True)
    yield from mixed_probe_suite(spec.grid, probe_budget, seed)


def _confirm_descent(grid: DomainGrid, q: Potential, i: int, u: ProbeDirection,
                     spec: SpectralData) -> bool:
    """Strictly decreasing lambda_i(q + t u) from lambda_i(q), read from q's
    spectrum spec, over t = s, 2s, ... with s = LINE_SEARCH_STEP,
    LINE_SEARCH_POINTS points. Each point's solve starts warm from the
    previous point's spectrum (q's for the first)."""
    value = spec.eigenvalue(i)
    for p in range(1, LINE_SEARCH_POINTS + 1):
        shifted = Potential.from_values(grid, q.values + p * LINE_SEARCH_STEP * u.values)
        spec = spectrum_with_complete_cluster(grid, shifted, i, start=spec)[0]
        lower = spec.eigenvalue(i)
        if lower >= value - 1e-12:
            return False
        value = lower
    return True
