"""Experiments probing the structure of the solved problems.

Each experiment is a pure procedure: it runs solves, computes named metrics,
and decides pass/fail from those metrics against declared tolerances, with
no hidden state.  It writes no files: the nodal fields behind the verdict
come back in ``ExperimentOutcome.fields``, and the command line writes them
out for a failed run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sp

from .fem import (
    Coefficient,
    SparseOperator,
    _is_symmetric,
    assemble_stiffness,
    first_eigenpair,
    lumped_mass,
)
from .mesh import FieldFunction, Mesh, h1_seminorm
from .nonlinearity import EigenTruncation, Nonlinearity, _check_dominated, nonlinearity
from .solver import SolverConfig, _schedule, solve_level

__all__ = [
    "ExperimentOutcome",
    "comparison_experiment",
    "uniqueness_experiment",
    "nonuniqueness_experiment",
    "stability_experiment",
]

#: discrete eigenvalues overestimate slightly; keep this margin below lambda_1
LAMBDA_MARGIN = 0.9
#: each nonuniqueness solution must sit within this relative L2 distance of the ray
RAY_TOL = 1e-4


@dataclass
class ExperimentOutcome:
    """Pass/fail verdict with its metrics, the nodal ``fields`` behind it and files written."""

    name: str
    passed: bool
    metrics: dict
    artifacts: list = field(default_factory=list)
    detail: object = None
    fields: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def scrub(v):
            if isinstance(v, float) and not np.isfinite(v):
                return repr(v)
            if isinstance(v, (list, tuple)):
                return [scrub(x) for x in v]
            return v

        return {
            "name": self.name,
            "pass": self.passed,
            "metrics": {k: scrub(v) for k, v in self.metrics.items()},
            "artifacts": list(self.artifacts),
        }


def _lambda1(op: SparseOperator) -> tuple[float, FieldFunction]:
    """First eigenpair of the operator's symmetric part ``(K + K') / 2`` with lumped mass.

    The lumped mass ``op.ml`` matches the nodal quadrature used for nonlinear
    loads, so the eigenpair is the one the fixed-point map actually sees.  An
    exactly symmetric ``K`` is its own symmetric part, so ``op`` itself, and
    the V-cycle hierarchy it caches, serve the eigenpair and later solves alike.
    """
    K, M = op.matrix, sp.diags(op.ml).tocsr()
    if not _is_symmetric(K):
        op = SparseOperator((0.5 * (K + K.T)).tocsr(), op.free, op.mesh)
    return first_eigenpair(op, M, tol=1e-12)


def _uniqueness_regime(mesh: Mesh, coeff: Coefficient, Fs):
    """``(op, lambda_1, [lambda_mono of each F])``, each ``lambda_mono`` as declared.

    ``nonlinearity()`` validates every finite ``lambda_mono``; an ``inf`` one
    (none known, as for ``OscillatingPower``) is outside the regime.  Raises
    unless the smallest ``lambda_mono <= LAMBDA_MARGIN * lambda_1``.
    """
    op = assemble_stiffness(mesh, coeff)
    lam1, _ = _lambda1(op)
    lams = [F.lambda_mono for F in Fs]
    if not min(lams) <= LAMBDA_MARGIN * lam1:
        raise ValueError(f"no lambda_mono in {lams!r} is within the margin "
                         f"{LAMBDA_MARGIN} * lambda1={LAMBDA_MARGIN * lam1!r}")
    return op, lam1, lams


def comparison_experiment(mesh: Mesh, coeff: Coefficient, F1: Nonlinearity,
                          F2: Nonlinearity,
                          cfg: SolverConfig = SolverConfig()) -> ExperimentOutcome:
    """Dominated data must give a dominated solution: ``max(u1 - u2)`` near zero.

    Preconditions (violations raise): ``F1 <= F2`` on a sampled grid, and at
    least one of the two is almost nonincreasing with margin below the first
    eigenvalue.
    """
    _check_dominated(F1, F2)
    op, lam1, (lam_a, lam_b) = _uniqueness_regime(mesh, coeff, (F1, F2))
    r1 = _schedule(op, F1, cfg)
    r2 = _schedule(op, F2, cfg)
    violation = float((r1.u.values - r2.u.values).max())
    linf2 = float(np.abs(r2.u.values).max())
    tol = 1e-8 * linf2
    passed = violation <= tol
    metrics = {
        "max_u1_minus_u2": violation,
        "tolerance": tol,
        "linf_u2": linf2,
        "lambda1": lam1,
        "lambda_mono_1": lam_a,
        "lambda_mono_2": lam_b,
    }
    return ExperimentOutcome("comparison", passed, metrics, fields={"u1": r1.u, "u2": r2.u})


def uniqueness_experiment(mesh: Mesh, coeff: Coefficient, F: Nonlinearity,
                          n_starts: int = 3, cfg: SolverConfig = SolverConfig(),
                          seed: int = 0) -> ExperimentOutcome:
    """Multi-start agreement under the almost-nonincreasing condition.

    Precondition (a violation raises): the declared ``lambda_mono`` sits
    below ``LAMBDA_MARGIN`` times the first eigenvalue.  Starts are the zero
    field, a large constant, and seeded random nonnegative fields.  All runs
    must land on the same solution within ten outer tolerances.
    """
    if n_starts < 2:
        raise ValueError("need at least 2 starts")
    op, lam1, (lam,) = _uniqueness_regime(mesh, coeff, (F,))
    big = 1.0 + 2.0 * float(F.h.max()) / coeff.alpha
    rng = np.random.default_rng(seed)
    starts = [FieldFunction.zeros(mesh), FieldFunction(mesh, np.full(mesh.n_nodes, big))]
    while len(starts) < n_starts:
        starts.append(FieldFunction(mesh, big * rng.random(mesh.n_nodes)))

    reports = [_schedule(op, F, cfg, s) for s in starts]
    ref_norm = h1_seminorm(reports[0].u)
    gap = max(h1_seminorm(a.u - b.u) for a, b in combinations(reports, 2))
    tol = 10.0 * (cfg.outer_tol * ref_norm + cfg.outer_tol_abs)
    passed = gap <= tol
    metrics = {
        "max_pairwise_h1": gap,
        "tolerance": tol,
        "n_starts": n_starts,
        "seed": seed,
        "lambda1": lam1,
        "lambda_mono": lam,
        "h1_ref": ref_norm,
    }
    return ExperimentOutcome("uniqueness", passed, metrics,
                             fields={f"u{i}": r.u for i, r in enumerate(reports)})


def nonuniqueness_experiment(mesh: Mesh, coeff: Coefficient, k: float = 1.0,
                             cfg: SolverConfig = SolverConfig()) -> ExperimentOutcome:
    """Degenerate family for ``F = lambda_1 * min(s, k)``: distinct starts must persist.

    The fixed-point map leaves the ray ``t * phi_1`` (``0 <= t <= k/|phi_1|_inf``)
    invariant, so different starting heights should converge to different
    solutions on the ray.  Which ``t`` each start selects is recorded, not
    prescribed.  Pass requires at least two converged solutions differing by
    ``>= 0.1 k`` in L-infinity, each within ``RAY_TOL`` of the ray.
    """
    if not coeff.is_symmetric:
        raise ValueError("the degenerate-family construction needs a symmetric coefficient")
    op = assemble_stiffness(mesh, coeff)
    lam1, phi1 = _lambda1(op)
    linf_phi = float(np.abs(phi1.values).max())
    F = nonlinearity(mesh, EigenTruncation(lam1, k), f=1.0, gamma=1.0)

    # cap inactive from the start: F is bounded by lam1 * k
    n0 = 2.0 ** int(np.ceil(np.log2(max(lam1 * k, 1.0)))) * 2.0
    t_fracs = (0.0, 0.25, 0.5)
    t_starts = [frac * k / linf_phi for frac in t_fracs]
    ml = lumped_mass(mesh)
    denom = float(np.sum(ml * phi1.values * phi1.values))

    t_fit, residuals, solutions, convs = [], [], [], []
    for t0 in t_starts:
        u, st = solve_level(op, F, n0, cfg, u0=FieldFunction(mesh, t0 * phi1.values))
        convs.append(st.converged)
        solutions.append(u)
        t_hat = float(np.sum(ml * u.values * phi1.values)) / denom
        unorm = float(np.sqrt(np.sum(ml * u.values * u.values)))
        resid = 0.0 if unorm == 0.0 else float(
            np.sqrt(np.sum(ml * (u.values - t_hat * phi1.values) ** 2))) / unorm
        t_fit.append(t_hat)
        residuals.append(resid)

    max_sep = max(float(np.abs(a.values - b.values).max()) for a, b in combinations(solutions, 2))
    distinct = max_sep >= 0.1 * k
    on_ray = all(r <= RAY_TOL for r in residuals)
    passed = bool(all(convs) and distinct and on_ray)
    metrics = {
        "lambda1": lam1,
        "linf_phi1": linf_phi,
        "t_starts": list(t_starts),
        "t_fitted": t_fit,
        "ray_residuals": residuals,
        "max_linf_separation": max_sep,
        "separation_required": 0.1 * k,
        "ray_tol": RAY_TOL,
        "converged": convs,
        "cap_level": n0,
    }
    return ExperimentOutcome("nonuniqueness", passed, metrics,
                             fields={f"u_t{i}": u for i, u in enumerate(solutions)})


def stability_experiment(mesh: Mesh, coeff: Coefficient, F: Nonlinearity,
                         levels, cfg: SolverConfig = SolverConfig()) -> ExperimentOutcome:
    """Truncation-level errors against the converged limit must not increase.

    Solves the capped problem at each listed level (warm-started along the
    list), measures ``e_n = |u_n - u_inf|_H1`` against the full schedule's
    limit, and requires a nonincreasing sequence (5% slack) with a final
    error of at most ``10 (cfg.outer_tol |u_inf|_H1 + cfg.outer_tol_abs)``.
    """
    levels = [float(n) for n in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    op = assemble_stiffness(mesh, coeff)
    ref = _schedule(op, F, cfg)
    ref_norm = h1_seminorm(ref.u)
    stab_tol = 10.0 * (cfg.outer_tol * ref_norm + cfg.outer_tol_abs)

    errors = []
    u_prev = None
    all_converged = True
    for n in levels:
        u, st = solve_level(op, F, n, cfg, u0=u_prev)
        all_converged &= st.converged
        errors.append(h1_seminorm(u - ref.u))
        u_prev = u
    # below the inner solver's own resolution the ordering is noise
    floor = 10.0 * (cfg.inner_tol * ref_norm + cfg.inner_tol_abs)
    monotone = all(e2 <= 1.05 * e1 + floor for e1, e2 in zip(errors, errors[1:]))
    passed = bool(all_converged and monotone and errors[-1] <= stab_tol)
    metrics = {
        "levels": levels,
        "errors_h1": errors,
        "final_error": errors[-1],
        "stab_tol": stab_tol,
        "monotone_5pct": monotone,
        "reference_n_final": ref.n_final,
        "reference_gap": ref.final_gap,
        "h1_ref": ref_norm,
    }
    return ExperimentOutcome("stability", passed, metrics, detail=ref, fields={"u_ref": ref.u})
