"""Truncated fixed-point solver for ``-div A(x) Du (+ mu u) = F(x, u)``.

The level-``n`` problem caps the right-hand side at height ``n`` and is
solved by a damped, linearly implicit Picard iteration: with the slope
``D = diag(m_i |dF/ds|)`` of the capped load at the current iterate ``u``,

    ``(K + D) v = m .* min(F(x, u+), n) + D u``,    ``u <- u + theta (v - u)``,

with nodal (vertex) quadrature ``m`` for the load, so the possibly singular
``F`` is only ever evaluated at nodes and the cap keeps every value finite.
``D u`` cancels at a fixed point, so the fixed points are those of the plain
map ``u = K^-1 (m .* min(F(x, u+), n))``.  For a nonincreasing ``F`` (the
paper's uniqueness regime) this is Newton's method on an M-function, which
converges monotonically (Ortega & Rheinboldt 1970, ch. 13); the absolute
slope keeps the oscillating models' ``K + D`` an M-matrix as well.  That is
the one damping rule: ``theta`` starts at 1, halves (down to 0.05) when the
H1 step grows by more than 1.5 times, and otherwise grows by 1.2 times up
to 1.  As ``K + D`` is an M-matrix and ``theta <= 1``, an exact step keeps
a nonnegative iterate nonnegative without clamping.  Every level of a solve
runs on the one operator ``assemble_stiffness(mesh, coeff, mu)``, and the
schedule reads everything from it: its cached members give ``m``, the H1
seminorm of steps, iterates and level gaps, and the coarse levels of the
V-cycle that preconditions each ``K + D`` (``SparseOperator.shifted``), and
its own quadratic form ``x'Kx`` is the energy side of the energy identity
``x'Kx = sum m_i min(F_i, n) x_i``.  The Picard step is inexact: each CG solve
starts from the current iterate ``u`` and stops once its residual is at
most ``max(_CG_TOL |b|, _FORCING |b - (K + D) u|)``, i.e. once it has
reduced the step's own residual by the forcing term ``_FORCING = 1e-2``
(Dembo, Eisenstat & Steihaug 1982).  Early steps, far from the fixed point,
get cheap solves; near the fixed point the tolerance tightens with the
residual down to ``_CG_TOL``, so the converged iterate is the same.
Levels follow the doubling schedule ``n = 1, 2, 4, ...`` with warm starts,
at most ``_MAX_LEVELS`` of them; the outer iteration stops when consecutive
levels are Cauchy in the H1 seminorm to ``SolverConfig.outer_tol``.  That is
the one accuracy setting: each level's Picard loop, at most ``_MAX_INNER``
steps, stops at a residual 100 times smaller.
``solve_singular(mu=...)`` adds the lumped absorption ``mu u``: that is the
limit problem ``-div A Du + mu u = F(x, u)`` of shrinking perforations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import gk, z_delta
from .fem import (
    Coefficient,
    ConvergenceError,
    SparseOperator,
    assemble_stiffness,
    _dot,
    lumped_mass,
    solve_cg,
)
from .mesh import FieldFunction, Mesh, element_energy, h1_seminorm
from .nonlinearity import Nonlinearity

__all__ = [
    "SolverConfig",
    "LevelStats",
    "SolveReport",
    "solve_level",
    "solve_singular",
    "singular_mass_certificate",
    "levelset_energy_certificate",
]

#: forcing term of the inexact Picard step: each CG solve reduces the step's
#: own residual ``|b - K x|`` by this factor (floored at ``_CG_TOL``)
_FORCING = 1e-2
#: floor of each Picard step's CG tolerance, relative to ``|b|``
_CG_TOL = 1e-11
#: Picard steps allowed per truncation level
_MAX_INNER = 800
#: truncation levels ``n = 1, 2, 4, ...`` allowed per solve
_MAX_LEVELS = 24


@dataclass(frozen=True)
class SolverConfig:
    """The accuracy of a solve: when consecutive truncation levels agree.

    ``outer_tol`` bounds the level-to-level gap ``|u_2n - u_n|_H1`` relative
    to ``|u_n|_H1``, plus the absolute floor ``outer_tol_abs``.  The Picard
    loop of each level follows them: ``inner_tol`` and ``inner_tol_abs``
    bound the undamped linearly implicit step ``|v - u|_H1`` the same way,
    and are the outer tolerances divided by 100.  Raises
    ``ValueError``, with a message that starts with the field name, unless
    both tolerances are finite and ``> 0``.
    """

    outer_tol: float = 1e-6
    outer_tol_abs: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("outer_tol", "outer_tol_abs"):
            if not 0.0 < getattr(self, name) < float("inf"):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")

    @property
    def inner_tol(self) -> float:
        return self.outer_tol / 100.0

    @property
    def inner_tol_abs(self) -> float:
        return self.outer_tol_abs / 100.0


@dataclass
class LevelStats:
    n: float
    iterations: int
    residual: float
    converged: bool
    theta: float
    cg_iterations: int


@dataclass
class SolveReport:
    """Converged solution plus the scheme's own bookkeeping."""

    u: FieldFunction
    n_final: float
    energy_identity_residual: float
    history: list[float]
    h1_norms: list[float]
    level_stats: list[LevelStats] = field(repr=False, default_factory=list)

    @property
    def outer_iters(self) -> int:
        return len(self.level_stats)

    @property
    def inner_iters(self) -> int:
        return sum(st.iterations for st in self.level_stats)

    @property
    def final_gap(self) -> float:
        return self.history[-1] if self.history else 0.0


def _capped(F: Nonlinearity, s: np.ndarray, n: float) -> np.ndarray:
    """Nodal ``min(F(x, s), n)`` for ``s >= 0``."""
    return np.minimum(F.evaluate(s), float(n))


def _check_level(n: float) -> None:
    if not n >= 1.0:
        raise ValueError(f"truncation level must be >= 1, got {n!r}")


def _slope_shift(F: Nonlinearity, s: np.ndarray, n: float, op: SparseOperator) -> np.ndarray:
    """``m_i |dF/ds|`` of the capped right-hand side at the free nodes, at ``s >= 0``.

    The slope is probed by central differences small enough to resolve the
    oscillation scale ``s**2`` of the oscillating models; its absolute value
    keeps ``K + diag(m_i |dF/ds|)`` an M-matrix whatever the sign of the slope.
    """
    free = op.free
    eps = np.minimum(1e-3 * np.maximum(s, 1e-8), 0.02 * s * s) + 1e-14
    up = _capped(F, s + eps, n)
    dn = _capped(F, np.maximum(s - eps, 0.0), n)
    return op.ml * np.abs(up - dn)[free] / (2.0 * eps[free])


def solve_level(op: SparseOperator, F: Nonlinearity, n: float,
                cfg: SolverConfig = SolverConfig(),
                u0: FieldFunction | None = None) -> tuple[FieldFunction, LevelStats]:
    """Linearly implicit, damped Picard iteration for the level-``n`` capped problem on ``op``.

    ``op`` is the assembled operator from ``assemble_stiffness(mesh, coeff,
    mu)``.  Non-convergence within ``_MAX_INNER`` steps is reported in the
    returned stats (``converged=False`` with the last step's residual), not
    raised: near-degenerate right-hand sides legitimately stall and the
    caller decides.  Raises ``ValueError`` when ``n < 1``.
    """
    _check_level(n)
    free = op.free

    x = np.zeros(free.size) if u0 is None else u0.values[free].copy()
    u_full = np.zeros(op.mesh.n_nodes)  # F is evaluated at every node

    theta = 1.0
    res_prev = np.inf
    res = np.inf
    cg_total = 0
    k = 0
    converged = False
    for k in range(1, _MAX_INNER + 1):
        u_full[free] = x
        s = np.maximum(u_full, 0.0)
        shift = _slope_shift(F, s, n, op)
        b = op.ml * _capped(F, s, n)[free] + shift * x
        v, cg = solve_cg(op.shifted(shift), b, tol=_CG_TOL, x0=x, forcing=_FORCING)
        cg_total += cg.iterations
        d = v - x
        res = op.h1(d)
        x = x + theta * d
        if res <= cfg.inner_tol * op.h1(x) + cfg.inner_tol_abs:
            converged = True
            break
        theta = max(0.5 * theta, 0.05) if res > 1.5 * res_prev else min(1.2 * theta, 1.0)
        res_prev = res

    stats = LevelStats(n=n, iterations=k, residual=float(res), converged=converged,
                       theta=theta, cg_iterations=cg_total)
    return FieldFunction(op.mesh, op.scatter(x)), stats


def solve_singular(mesh: Mesh, coeff: Coefficient, F: Nonlinearity,
                   cfg: SolverConfig = SolverConfig(), u0: FieldFunction | None = None,
                   mu: float = 0.0) -> SolveReport:
    """Doubling truncation schedule with warm starts until levels are Cauchy in H1.

    Assembles ``assemble_stiffness(mesh, coeff, mu)`` once for all levels.
    Raises ``ValueError`` unless ``mu >= 0``, and ``ConvergenceError`` when an
    inner iteration stalls or the level sequence is not Cauchy within
    ``_MAX_LEVELS`` levels.
    """
    return _schedule(assemble_stiffness(mesh, coeff, mu), F, cfg, u0)


def _schedule(op: SparseOperator, F: Nonlinearity, cfg: SolverConfig = SolverConfig(),
              u0: FieldFunction | None = None) -> SolveReport:
    """``solve_singular`` on its operator ``op``; norms and the energy identity are ``op``'s.

    Levels are measured with ``op.h1``, the seminorm the Picard loop stops
    on, and the energy identity residual is ``|x'Kx - sum m_i min(F_i, n) x_i|
    / |x'Kx|`` on the free-node values ``x``, with ``K = op.matrix``.
    """
    free = op.free
    u = u0
    x = None
    n = 1.0
    history: list[float] = []
    h1_norms: list[float] = []
    stats_list: list[LevelStats] = []
    for level in range(_MAX_LEVELS):
        u, st = solve_level(op, F, n, cfg, u0=u)
        stats_list.append(st)
        if not st.converged:
            raise ConvergenceError(
                f"fixed point at truncation level {n} not reached in {_MAX_INNER} steps: "
                f"residual {st.residual:.3e}",
                iterations=st.iterations,
                residual=st.residual,
            )
        x_new = u.values[free]
        h1_norms.append(op.h1(x_new))
        if level > 0:
            history.append(op.h1(x_new - x))
            if history[-1] <= cfg.outer_tol * h1_norms[-2] + cfg.outer_tol_abs:
                break
        x = x_new
        n *= 2.0
    else:
        raise ConvergenceError(
            f"truncation levels not Cauchy after {_MAX_LEVELS} levels",
            history=history,
        )
    lhs = _dot(x_new, op.matrix @ x_new)
    rhs = _dot(op.ml * _capped(F, np.maximum(u.values, 0.0), n)[free], x_new)
    return SolveReport(
        u=u,
        n_final=n,
        energy_identity_residual=abs(lhs - rhs) / max(abs(lhs), 1e-300),
        history=history,
        h1_norms=h1_norms,
        level_stats=stats_list,
    )


def singular_mass_certificate(report: SolveReport, F: Nonlinearity, coeff: Coefficient,
                              phi: FieldFunction, delta: float) -> tuple[float, float]:
    """Both sides of the near-zero mass bound for a converged solution.

    lhs: nodal quadrature of ``F(x, u) phi`` over the nodes with ``u <= delta``
    (``F`` capped at the solve's final truncation level).  rhs: elementwise
    ``int A Du . Dphi z_delta(u_bar)`` with ``u_bar`` the element mean.
    The continuum statement is ``lhs <= rhs``; the discrete gap is the
    caller's discretization slack.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if np.any(phi.values < 0.0):
        raise ValueError("phi must be nonnegative")
    u = report.u
    mesh = u.mesh
    ml = lumped_mass(mesh)
    mask = u.values <= delta
    capped = _capped(F, np.maximum(u.values, 0.0), report.n_final)
    lhs = float(np.sum(ml[mask] * capped[mask] * phi.values[mask]))

    weights = z_delta(mesh.element_means(u.values), delta)
    rhs = float(np.sum(element_energy(mesh, phi.values, u.values, coeff.matrices) * weights))
    return lhs, rhs


def levelset_energy_certificate(report: SolveReport, F: Nonlinearity,
                                coeff: Coefficient, j_list) -> list[tuple[float, float]]:
    """Per level ``j``: ``(alpha |D excess_{j+1}(u)|_2^2, 2 int h excess_{j+1}(u))``.

    ``alpha`` is ``coeff.alpha`` and ``h`` is ``F.h``.  The excess above
    height ``j + 1`` of a converged solution satisfies the first component
    <= the second in the continuum; discretization slack is the caller's
    to judge.
    """
    u = report.u
    mesh = u.mesh
    ml = lumped_mass(mesh)
    out = []
    for j in j_list:
        G = gk(u.values, float(j) + 1.0)
        lhs = coeff.alpha * h1_seminorm(FieldFunction(mesh, G)) ** 2
        rhs = 2.0 * float(np.sum(ml * F.h * G))
        out.append((float(lhs), rhs))
    return out
