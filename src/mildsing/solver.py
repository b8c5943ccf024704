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
the one damping rule: ``theta`` starts at 1 and halves (down to 0.05) after a
step whose H1 norm grows by more than 1.5 times, or does not shrink below 0.9
times its predecessor's while pointing against it (``d . d_prev < 0``); every
other step grows it by 1.2 times up to 1.  The second test sees the period-2
cycles of the capped map that the oscillating models have outside the
paper's uniqueness regime: there the step norm holds steady, so the growth
test alone would keep ``theta = 1`` and the level stall.  As ``K + D`` is an
M-matrix and ``theta <= 1``, an exact step keeps a nonnegative iterate
nonnegative without clamping.  An inexact step can still leave a node below
zero, where ``s = max(x, 0) = 0``: the slope probe there reaches about
``1e14`` and would freeze the node, so a negative node gets no slope shift.
A positive node near zero freezes too: at ``s`` about ``1e-9`` the probe
step is about ``1e-14``, across which the oscillating ``F`` swings through
``sin(1/s)``, and ``D`` reaches ``1e11``, so ``D`` is capped at
``_SHIFT_CAP`` times ``K``'s diagonal; any ``D >= 0`` keeps ``K + D`` an
M-matrix.  Every level of a solve runs
on the one operator ``assemble_stiffness(mesh, coeff, mu)``, and the schedule
reads everything from it: its cached members give ``m``, the H1 seminorm of
steps, iterates and level gaps, and the V-cycle that each ``K + D`` shares
(``SparseOperator._shifted``), and its own quadratic form ``x'Kx`` is the
energy side of the energy identity ``x'Kx = sum m_i min(F_i, n) x_i``.
``f``, ``l`` and the ``f = 0`` nodes are gathered at the free nodes once per
level (``nonlinearity._at_nodes``), so ``F`` never runs at a Dirichlet or hole
node.  The Picard step is inexact (Dembo, Eisenstat & Steihaug 1982): each CG
solve starts from the current iterate ``u`` and stops once its residual is at
most ``max(_CG_TOL |b|, eta |b - (K + D) u|)``, i.e. once it has reduced the
step's own residual by the forcing term ``eta``.  ``eta`` follows the level's
own contraction (Eisenstat & Walker 1996): the first two steps of each pass
use ``_FORCING = 1e-2``, and step ``k`` then uses ``_FORCING max(10 rho, 1)``
with ``rho = |d_(k-1)|_H1 / |d_(k-2)|_H1``, as long as ``rho < 0.95``.  An
outer step that only contracts by ``rho`` cannot use an inner solve much
sharper than ``rho``; the power-law levels contract by ``rho <= 0.1`` and
keep ``eta = _FORCING``, the slowly contracting oscillating levels get
cheaper solves, and ``_FORCING = 0`` still means exact ones.  A step that
hardly contracted or grew (``rho >= 0.95``) gets ``_FORCING`` again: the
loose inner error then costs more contraction than the outer step has, and
loose solves there sent oscillating levels (16^2, ``gamma = 0.08`` and
``0.067``) onto paths that ran out of steps.  Early steps, far from the
fixed point, get cheap solves; near the fixed point the tolerance tightens
with the residual down to ``_CG_TOL``, so a converged level meets the same
stopping test.  Outside the uniqueness regime a different forcing can land
on a different fixed point.
Each level reports the relative residual ``|K x - m min(F(x+), n)| / |m
min(F(x+), n)|`` of the iterate it returns, at the cost of one product and one
evaluation of ``F``, and counts as converged only when that residual is also
at most ``100 outer_tol``: a node that still froze fails loudly.
The damping rule also accelerates a level's linear tail: after ``_TAIL_STEPS``
consecutive steps with ``theta = 1`` and an H1 step ratio in ``_TAIL_RATIO``,
each step is a type-II Anderson step (Walker & Ni 2011) of depth
``_TAIL_DEPTH`` on the free-node iterate ``x`` and its residual ``d = v - x``
(``_AndersonTail``), until the condition breaks and the history is dropped.
That history is the last ``_TAIL_DEPTH + 1`` pairs ``(x + d, d)``; each
Anderson attempt forms their differences and Gram matrix anew, so the tail
steps before the switch only keep references.  An Anderson step that
overshoots is damped like any other step.  The stopping test reads the plain
step's ``|d|_H1``, and the step that meets it is the plain ``x + theta d``.
An Anderson step is not a convex combination of ``x`` and ``v``, so the
M-matrix argument above does not cover it: a node that it leaves below zero
is treated like one that an inexact step leaves there, with no slope shift,
and nothing is clamped.  For a nonmonotone ``F`` an
Anderson step can lock a level into a cycle (the step after it grows,
``theta`` halves and recovers, and the same Anderson step lands again) where
plain steps converge.  So a level that does not converge after taking
Anderson steps is solved again from its own start with plain steps only,
inside ``solve_level``: the one fallback.  A property test checks, on random
small problems, that the
accelerated schedule converges and stays nonnegative wherever the plain steps
do, and reaches the same solution when ``F`` is nonincreasing.
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
from .nonlinearity import Nonlinearity, _at_nodes

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
#: own residual ``|b - K x|`` by this factor, times ``max(10 rho, 1)`` after a
#: pass's first two steps while the steps contract by ``rho < 0.95`` (floored
#: at ``_CG_TOL``)
_FORCING = 1e-2
#: floor of each Picard step's CG tolerance, relative to ``|b|``
_CG_TOL = 1e-11
#: Picard steps allowed per truncation level
_MAX_INNER = 800
#: Anderson depth of the linear tail: differences of the last ``_TAIL_DEPTH + 1`` steps
_TAIL_DEPTH = 3
#: consecutive tail steps (``theta = 1``, H1 step ratio in ``_TAIL_RATIO``) before acceleration
_TAIL_STEPS = 8
#: open interval of ``res / res_prev`` that marks a linearly converging tail
_TAIL_RATIO = (0.3, 1.0)
#: a tail difference this close to the span of newer ones (squared sine) is dropped
_TAIL_DROP = 1e-10
#: truncation levels ``n = 1, 2, 4, ...`` allowed per solve
_MAX_LEVELS = 24
#: bound of the slope shift ``D``, relative to ``K``'s diagonal
_SHIFT_CAP = 1e2


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
    """One truncation level ``n`` (``level``) of a solve: a ``solver_stats.jsonl`` line as is."""

    level: float
    iterations: int
    residual: float
    converged: bool
    theta: float
    cg_iterations: int
    accelerated: int
    equation_residual: float


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


def _capped(F, s: np.ndarray, n: float) -> np.ndarray:
    """``min(F(s), n)`` for ``s >= 0``: ``F`` is ``Nonlinearity.evaluate`` or its free-node form."""
    return np.minimum(F(s), float(n))


def _check_level(n: float) -> None:
    if not n >= 1.0:
        raise ValueError(f"truncation level must be >= 1, got {n!r}")


def _slope_shift(F, s: np.ndarray, n: float, ml: np.ndarray) -> np.ndarray:
    """``m_i |dF/ds|`` of the capped right-hand side at ``s >= 0``, over the nodes of ``s``, ``ml``.

    The slope is probed by central differences small enough to resolve the
    oscillation scale ``s**2`` of the oscillating models; its absolute value
    keeps ``K + diag(m_i |dF/ds|)`` an M-matrix whatever the sign of the slope.
    """
    eps = np.minimum(1e-3 * np.maximum(s, 1e-8), 0.02 * s * s) + 1e-14
    up = _capped(F, s + eps, n)
    dn = _capped(F, np.maximum(s - eps, 0.0), n)
    return ml * np.abs(up - dn) / (2.0 * eps)


class _AndersonTail:
    """Type-II Anderson mixing (Walker & Ni 2011) of a level's linear tail.

    ``step(g, d)`` records the plain step ``g = x + d`` from ``x`` and its
    residual ``d``; after ``_TAIL_STEPS`` consecutive records it returns
    ``g - dG gamma`` instead of ``g``, with ``gamma`` the least-squares
    coefficients of ``d`` on the differences ``dD`` of the last
    ``_TAIL_DEPTH + 1`` residuals (:func:`_coefficients`), and ``dG`` those of
    the plain steps.  ``history`` keeps those records, newest first; the
    differences are formed only by an Anderson attempt, so a record costs no
    arithmetic and no memory beyond the two arrays it holds.
    ``clear`` forgets the tail; ``accelerated`` counts the Anderson steps.
    """

    def __init__(self) -> None:
        self.accelerated = 0
        self.clear()

    def clear(self) -> None:
        self.history = []
        self.streak = 0

    def step(self, g: np.ndarray, d: np.ndarray) -> np.ndarray:
        self.history = [(g, d)] + self.history[:_TAIL_DEPTH]
        self.streak += 1
        if self.streak <= _TAIL_STEPS:
            return g
        # differences of consecutive plain steps and residuals, newest first
        dG, dD = ([a - b for a, b in zip(v, v[1:])] for v in zip(*self.history))
        out = g.copy()
        for dg, gamma in zip(dG, _coefficients(dD, d)):
            out -= gamma * dg
        self.accelerated += 1
        return out


def _coefficients(dD: list[np.ndarray], d: np.ndarray) -> list[float]:
    """``gamma`` of the normal equations ``G gamma = dD d``, ``G`` the Gram matrix of ``dD``.

    Gaussian elimination in the order of ``dD``, newest difference first,
    stable on the positive semidefinite ``G``, in Python floats: a first
    LAPACK call would allocate OpenBLAS's work buffers, about 1 MB of resident
    memory.  A difference whose pivot, its squared distance from the span of
    the ones kept before it, is at most ``_TAIL_DROP`` of its squared length
    is dropped with ``gamma = 0``: a tail ruled by one mode makes ``dD``
    nearly collinear, and on a 5**2 grid exactly so.
    """
    m = len(dD)
    rows = [[_dot(a, b) for b in dD] + [_dot(a, d)] for a in dD]
    lengths = [rows[i][i] for i in range(m)]
    kept = []
    for i in range(m):
        if rows[i][i] <= _TAIL_DROP * lengths[i]:
            continue
        kept.append(i)
        for r in rows[i + 1:]:
            factor = r[i] / rows[i][i]
            r[:] = [a - factor * b for a, b in zip(r, rows[i])]
    gamma = [0.0] * m
    for i in reversed(kept):
        later = sum(rows[i][j] * gamma[j] for j in range(i + 1, m))
        gamma[i] = (rows[i][m] - later) / rows[i][i]
    return gamma


def solve_level(op: SparseOperator, F: Nonlinearity, n: float,
                cfg: SolverConfig = SolverConfig(),
                u0: FieldFunction | None = None) -> tuple[FieldFunction, LevelStats]:
    """Linearly implicit, damped Picard iteration for the level-``n`` capped problem on ``op``.

    ``op`` is the assembled operator from ``assemble_stiffness(mesh, coeff,
    mu)``; the steps start from ``u0`` (zero when None) and accelerate the
    level's linear tail.  Non-convergence within ``_MAX_INNER`` steps is
    reported in the returned stats (``converged=False`` with the last step's
    residual), not raised: near-degenerate right-hand sides legitimately
    stall and the caller decides.  Raises ``ValueError`` when ``n < 1``.
    """
    _check_level(n)
    F_free = _at_nodes(F, op.free)
    cap = _SHIFT_CAP * op.diagonal
    for accelerate in (True, False):
        x = np.zeros(op.n) if u0 is None else u0.values[op.free]
        tail = _AndersonTail()
        theta = 1.0
        forcing = _FORCING
        res_prev = np.inf
        res = np.inf
        d_prev = None
        cg_total = 0
        k = 0
        converged = False
        for k in range(1, _MAX_INNER + 1):
            s = np.maximum(x, 0.0)
            shift = _slope_shift(F_free, s, n, op.ml)
            shift[x < 0.0] = 0.0  # the probe at s = 0 would freeze a negative node
            np.minimum(shift, cap, out=shift)  # and a huge one would freeze a positive node
            b = op.ml * _capped(F_free, s, n) + shift * x
            v, cg = solve_cg(op._shifted(shift), b, tol=_CG_TOL, x0=x, forcing=forcing)
            cg_total += cg.iterations
            d = v - x
            res = op.h1(d)
            x = x + theta * d
            if res <= cfg.inner_tol * op.h1(x) + cfg.inner_tol_abs:
                converged = True
                break
            rho = res / res_prev
            # a step that grew, or one that did not shrink and turned back (a 2-cycle)
            damp = res > 1.5 * res_prev or (res >= 0.9 * res_prev and _dot(d, d_prev) < 0.0)
            if accelerate and theta == 1.0 and _TAIL_RATIO[0] < rho < _TAIL_RATIO[1]:
                x = tail.step(x, d)
            else:
                tail.clear()
            theta = max(0.5 * theta, 0.05) if damp else min(1.2 * theta, 1.0)
            # a slow outer contraction cannot use a sharper inner solve; one
            # that hardly contracts, or grows, gets the sharp one again
            forcing = _FORCING * max(10.0 * rho, 1.0) if rho < 0.95 else _FORCING
            res_prev, d_prev = res, d
        equation_residual = _equation_residual(op, F_free, x, n)
        converged = converged and equation_residual <= 100.0 * cfg.outer_tol
        if converged or not tail.accelerated:
            break

    stats = LevelStats(level=n, iterations=k, residual=float(res), converged=converged,
                       theta=theta, cg_iterations=cg_total, accelerated=tail.accelerated,
                       equation_residual=equation_residual)
    return FieldFunction(op.mesh, op.scatter(x)), stats


def _equation_residual(op: SparseOperator, F_free, x: np.ndarray, n: float) -> float:
    """``|K x - m min(F(x+), n)| / |m min(F(x+), n)|`` over the free nodes, ``K = op.matrix``."""
    load = op.ml * _capped(F_free, np.maximum(x, 0.0), n)
    r = op.matrix @ x - load
    return float(np.sqrt(_dot(r, r) / max(_dot(load, load), 1e-300)))


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
    / |x'Kx|`` on the free-node values ``x``, with ``K = op.matrix``.  Each
    level is one ``solve_level`` call, warm-started from the level before;
    a level that reports ``converged=False`` ends the schedule with a
    ``ConvergenceError`` whose ``history`` is every level's ``LevelStats``.
    """
    F_free = _at_nodes(F, op.free)  # for the energy identity
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
                f"fixed point at truncation level {n} not reached in {st.iterations} steps: "
                f"step residual {st.residual:.3e}, equation residual {st.equation_residual:.3e}",
                iterations=st.iterations, residual=st.residual, history=stats_list,
            )
        x_new = u.values[op.free]
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
    rhs = _dot(op.ml * _capped(F_free, np.maximum(x_new, 0.0), n), x_new)
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
    capped = _capped(F.evaluate, np.maximum(u.values, 0.0), report.n_final)
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
