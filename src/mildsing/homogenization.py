"""Critically-scaled perforations, the limit absorption term, and sweep experiments.

A lattice of tiny holes of period ``2 * epsilon`` whose radius follows the
critical scaling contributes, in the limit, a zeroth-order absorption
``mu u`` whose density equals the asymptotic capacity density of the holes:

``r = exp(-C0 / eps**2)`` in 2-D gives ``mu = pi / (2 C0)``
(``strange_term_formula``); the 3-D law ``r = C0 eps**3`` gives
``mu = (pi / 2) C0``, but only 2-D meshes are perforated here.

The limit problem ``-div A Du + mu u = F(x, u)`` is
``solve_singular(..., mu=mu)``.

The 2-D exponential law is unresolvable on desk-scale grids for small
``eps``, so sweep experiments use the prescribed-``mu`` parametrization
``C0 = pi / (2 mu)`` with the radius ``r(eps) = eps * exp(-C0 / eps**2)``,
whose per-cell capacity density ``2 pi / ln(eps / r) / (2 eps)**2`` equals
``mu`` exactly at every ``eps`` - the same scaling family, parametrized by
the physically meaningful absorption density.
"""

from __future__ import annotations

import concurrent.futures
import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fem import Coefficient, energy_product, l2_norm, solve_dirichlet
from .mesh import (
    FLOAT_FMT,
    HOLE,
    OUTER_BOUNDARY,
    FieldFunction,
    Mesh,
    _lattice,
    build_rectangle_mesh,
    extend_by_zero,
    h1_seminorm,
    perforate,
)
from .nonlinearity import Nonlinearity
from .solver import SolveReport, SolverConfig, solve_singular
from .verification import ExperimentOutcome

__all__ = [
    "PerforationSpec",
    "strange_term_formula",
    "prescribed_mu_radius",
    "discrete_capacity",
    "corrector_field",
    "homogenization_experiment",
    "corrector_experiment",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]

#: the finest energy defect must match ``mu int u0**2`` to this relative error
DEFECT_TOL = 0.25


def prescribed_mu_radius(epsilon: float, C0: float) -> float:
    """Radius ``eps * exp(-C0 / eps**2)`` of the resolvable prescribed-``mu`` family.

    The unique radius for which the per-cell capacity density
    ``2 pi / ln(eps/r) / (2 eps)**2`` equals ``pi / (2 C0)`` exactly at finite ``eps``.
    """
    if C0 <= 0 or epsilon <= 0:
        raise ValueError("C0 and epsilon must be positive")
    return epsilon * math.exp(-C0 / epsilon**2)


def strange_term_formula(C0: float) -> float:
    """Limit absorption density ``mu = pi / (2 C0)`` of the critical 2-D lattice of disk holes."""
    if C0 <= 0:
        raise ValueError("C0 must be positive")
    return math.pi / (2.0 * C0)


@dataclass(frozen=True)
class PerforationSpec:
    """One 2-D lattice of holes: period ``2 * epsilon``, prescribed absorption ``target_mu``.

    The radius follows the resolvable prescribed-``mu`` family with
    ``C0 = pi / (2 mu)``, so the holes' capacity density is ``target_mu``.
    """

    epsilon: float
    target_mu: float
    strategy: str = "resolved"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.target_mu <= 0:
            raise ValueError("target_mu must be positive")
        if self.strategy not in ("resolved", "collapsed"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.radius < self.epsilon:
            raise ValueError(
                f"hole radius {self.radius!r} must stay strictly inside the cell (< {self.epsilon!r})"
            )

    @property
    def C0(self) -> float:
        return math.pi / (2.0 * self.target_mu)

    @property
    def radius(self) -> float:
        return prescribed_mu_radius(self.epsilon, self.C0)


def discrete_capacity(R_outer: float, r_inner: float, mesh_h: float) -> float:
    """Dirichlet energy of the discrete potential between a disk and a circle.

    Solves the Laplace problem on a square grid with value 0 on the nodes of
    the inner disk (radius ``r_inner``) and 1 on and beyond the outer circle
    (radius ``R_outer``); returns ``int |Dw|**2``, the discrete capacity.
    The classical annulus value is ``2 pi / ln(R/r)``.
    """
    if not r_inner < R_outer:
        raise ValueError("need r_inner < R_outer")
    if mesh_h > r_inner / 2.0:
        raise ValueError(f"inner radius unresolved: need mesh_h <= r_inner/2, got {mesh_h!r}")
    n = int(round(2.0 * R_outer / mesh_h))
    mesh = build_rectangle_mesh(2.0 * R_outer, 2.0 * R_outer, n + 1, n + 1)
    cx = cy = R_outer
    d = np.hypot(mesh.nodes[:, 0] - cx, mesh.nodes[:, 1] - cy)
    on_outer = mesh.node_class == OUTER_BOUNDARY
    fixed = (d <= r_inner) | (d >= R_outer) | on_outer
    values = np.where(d >= R_outer, 1.0, 0.0)
    values[on_outer] = 1.0
    values[d <= r_inner] = 0.0
    del d, on_outer  # before the solve
    coeff = Coefficient.identity(mesh)
    w = solve_dirichlet(mesh, coeff, fixed, values)
    return energy_product(w, coeff)


def corrector_field(mesh_eps: Mesh) -> FieldFunction:
    """Oscillating test profile: 0 on the holes, log ramp to 1 at distance ``epsilon``.

    ``w = ln(d_i / r) / ln(epsilon / r)`` in the annulus ``r <= d_i <= epsilon``
    around each hole (``d_i`` = distance to the nearest hole center), clamped
    to ``[0, 1]``, with the ``epsilon``, ``r`` and strategy that ``perforate``
    recorded in ``mesh_eps.perforation``: the annuli are the cells' inscribed disks.
    """
    if mesh_eps.perforation is None:
        raise ValueError("mesh has no perforation")
    report = mesh_eps.perforation
    if report.strategy != "resolved":
        raise ValueError("the corrector profile needs resolved holes")
    r = report.radius
    d = np.sqrt(_lattice(mesh_eps, report.epsilon)[2])
    with np.errstate(divide="ignore"):
        prof = np.log(np.maximum(d, 0.0) / r) / math.log(report.epsilon / r)
    w = np.clip(prof, 0.0, 1.0)
    w[mesh_eps.node_class == HOLE] = 0.0
    return FieldFunction(mesh_eps, w)


SWEEP_COLUMNS = [
    "epsilon",
    "r",
    "n_holes",
    "eL2",
    "eH1_plain",
    "eH1_corr",
    "energy_eps",
    "energy_limit",
    "defect",
    "mu_times_mass",
]


def write_sweep_csv(path, rows: list[dict]) -> None:
    """Sweep results, one row per epsilon, 17-significant-digit floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["n_holes"] if c == "n_holes" else FLOAT_FMT % row[c] for c in SWEEP_COLUMNS]
            )


@dataclass
class SweepEntry:
    spec: PerforationSpec
    mesh_eps: Mesh
    tilde_u: FieldFunction
    corrector: FieldFunction | None
    row: dict


@dataclass
class HomogenizationDetail:
    coeff: Coefficient
    mu: float
    limit: SolveReport
    naive: SolveReport
    entries: list[SweepEntry] = field(default_factory=list)


def homogenization_experiment(mesh: Mesh, coeff: Coefficient, F: Nonlinearity,
                              spec_list, cfg: SolverConfig = SolverConfig(),
                              threads: int = 1) -> ExperimentOutcome:
    """Shrinking-holes sweep against the limit problem with the absorption term.

    For each ``epsilon``: perforate, solve with hole nodes Dirichlet, extend
    by zero, and compare with the limit solution ``u0``.  Pass requires the
    L2 error to decrease along the sweep, the finest energy defect
    ``int A Du_eps . Du_eps - int A Du0 . Du0`` to land within ``DEFECT_TOL``
    of ``mu int u0**2``, and the finest extension to sit closer to ``u0``
    than to the absorption-free solution.  ``threads > 1`` solves the
    epsilon problems concurrently (one worker per epsilon); aggregation is
    always in epsilon order, so results do not depend on scheduling.  The
    sweep rows for ``write_sweep_csv`` are ``detail.entries[i].row``.
    """
    specs = sorted(spec_list, key=lambda s: -s.epsilon)
    if len(specs) < 2:
        raise ValueError("sweep needs at least 2 perforation specs")
    if len({s.target_mu for s in specs}) != 1:
        raise ValueError("all specs must share one prescribed target_mu")
    mu = specs[0].target_mu

    limit = solve_singular(mesh, coeff, F, cfg, mu=mu)
    naive = solve_singular(mesh, coeff, F, cfg)
    energy_limit = energy_product(limit.u, coeff)
    mass_mu = mu * l2_norm(limit.u) ** 2

    def solve_one(spec: PerforationSpec) -> SweepEntry | None:
        try:
            mesh_eps = perforate(mesh, spec)
        except ValueError as exc:
            warnings.warn(f"dropping epsilon={spec.epsilon}: {exc}", stacklevel=2)
            return None
        sol = solve_singular(mesh_eps, coeff, F, cfg)
        tilde = extend_by_zero(sol.u)
        diff = FieldFunction(mesh, tilde.values - limit.u.values)
        energy_eps = energy_product(FieldFunction(mesh, tilde.values), coeff)
        corrector = None
        eh1_corr = float("nan")
        if coeff.is_symmetric and mesh_eps.perforation.strategy == "resolved":
            corrector = corrector_field(mesh_eps)
            eh1_corr = h1_seminorm(
                FieldFunction(mesh, tilde.values - corrector.values * limit.u.values)
            )
        row = {
            "epsilon": spec.epsilon,
            "r": spec.radius,
            "n_holes": mesh_eps.perforation.n_holes,
            "eL2": l2_norm(diff),
            "eH1_plain": h1_seminorm(diff),
            "eH1_corr": eh1_corr,
            "energy_eps": energy_eps,
            "energy_limit": energy_limit,
            "defect": energy_eps - energy_limit,
            "mu_times_mass": mass_mu,
        }
        return SweepEntry(spec, mesh_eps, tilde, corrector, row)

    detail = HomogenizationDetail(coeff, mu, limit, naive)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=min(threads, len(specs))) as pool:
            entries = list(pool.map(solve_one, specs))
    else:  # in this thread: a one-worker pool raised the sweep's peak memory by 10%
        entries = [solve_one(spec) for spec in specs]
    detail.entries = [e for e in entries if e is not None]
    rows = [e.row for e in detail.entries]

    if len(rows) < 2:
        metrics = {"rows_kept": len(rows), "mu": mu}
        return ExperimentOutcome("homogenization", False, metrics, detail=detail)

    e_l2 = [row["eL2"] for row in rows]
    decreasing = all(b < a for a, b in zip(e_l2, e_l2[1:]))
    finest = rows[-1]
    defect_ok = abs(finest["defect"] - mass_mu) <= DEFECT_TOL * mass_mu
    naive_diff = FieldFunction(mesh, detail.entries[-1].tilde_u.values - naive.u.values)
    e_l2_naive = l2_norm(naive_diff)
    beats_naive = finest["eL2"] < e_l2_naive

    passed = bool(decreasing and defect_ok and beats_naive)
    metrics = {
        "mu": mu,
        "epsilons": [row["epsilon"] for row in rows],
        "eL2": e_l2,
        "eL2_decreasing": decreasing,
        "finest_defect": finest["defect"],
        "mu_times_mass": mass_mu,
        "defect_rel_error": abs(finest["defect"] - mass_mu) / mass_mu if mass_mu else float("nan"),
        "defect_tol": DEFECT_TOL,
        "eL2_vs_naive_limit": e_l2_naive,
        "beats_naive_limit": beats_naive,
        "linf_u0": float(np.abs(limit.u.values).max()),
    }
    return ExperimentOutcome("homogenization", passed, metrics, detail=detail)


def corrector_experiment(h_outcome: ExperimentOutcome) -> ExperimentOutcome:
    """The oscillating profile times the limit must beat the plain limit in H1.

    Consumes a finished homogenization sweep.  Pass requires, at every
    ``epsilon``, ``|u_eps - w u0|_H1 < |u_eps - u0|_H1``, a decreasing
    corrector error along the sweep, profiles inside ``[0, 1]``, and profile
    zeros exactly on the hole nodes.  A sweep that kept fewer than 2
    ``epsilon`` rows fails, as in ``homogenization_experiment``.
    """
    detail: HomogenizationDetail = h_outcome.detail
    if detail is None:
        raise ValueError("corrector experiment needs a completed homogenization sweep")
    if not detail.coeff.is_symmetric:
        raise ValueError("the corrector bound needs a symmetric coefficient")
    if any(entry.corrector is None for entry in detail.entries):
        raise ValueError("the corrector profile needs resolved holes")
    if len(detail.entries) < 2:
        metrics = {"rows_kept": len(detail.entries), "mu": detail.mu}
        return ExperimentOutcome("corrector", False, metrics, detail=detail)

    in_range = True
    zeros_match = True
    e_corr, e_plain = [], []
    for entry in detail.entries:
        w = entry.corrector
        in_range &= bool((w.values >= 0.0).all() and (w.values <= 1.0).all())
        hole_nodes = entry.mesh_eps.node_class == HOLE
        zeros_match &= bool(np.array_equal(w.values == 0.0, hole_nodes))
        e_corr.append(entry.row["eH1_corr"])
        e_plain.append(entry.row["eH1_plain"])

    improves = all(c < p for c, p in zip(e_corr, e_plain))
    decreasing = all(b < a for a, b in zip(e_corr, e_corr[1:]))
    passed = bool(in_range and zeros_match and improves and decreasing)
    metrics = {
        "epsilons": [e.spec.epsilon for e in detail.entries],
        "eH1_corr": e_corr,
        "eH1_plain": e_plain,
        "improves_everywhere": improves,
        "eH1_corr_decreasing": decreasing,
        "profile_in_unit_interval": in_range,
        "profile_zeros_on_holes": zeros_match,
        "linf_u0": float(np.abs(detail.limit.u.values).max()),
    }
    return ExperimentOutcome("corrector", passed, metrics, detail=detail)
