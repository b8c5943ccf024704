from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import FieldFunction, PowerLaw, nonlinearity, solver
from mildsing.solver import _capped

from oracles import PEAK_GAMMA_1, PEAK_GAMMA_HALF, shooting_solution, solve_singular_weighted
from test_fem import draw_holes


def truncated_rhs(F, u, n):
    """Nodal ``min(F(x, max(u, 0)), n)``, the load of every Picard step."""
    return FieldFunction(u.mesh, _capped(F, np.maximum(u.values, 0.0), n))


@pytest.fixture(scope="module")
def interval():
    return ms.build_interval_mesh(1.0, 257)


@pytest.fixture(scope="module")
def interval_A(interval):
    return ms.Coefficient.identity(interval)


def test_truncated_rhs_cap_saturates(unit_square_9):
    F = nonlinearity(unit_square_9, PowerLaw(0.5), f=1.0)
    u = FieldFunction.zeros(unit_square_9)
    for n in (1.0, 4.0, 32.0):
        rhs = truncated_rhs(F, u, n)
        assert np.all(rhs.values == n)


def test_truncated_rhs_inactive_above_threshold(unit_square_9):
    F = nonlinearity(unit_square_9, PowerLaw(0.5), f=1.0)
    n = 10.0
    u = FieldFunction(unit_square_9, np.full(unit_square_9.n_nodes, n ** (-1.0 / 0.5)))
    rhs = truncated_rhs(F, u, n)
    assert np.allclose(rhs.values, u.values ** -0.5, rtol=1e-14)
    assert np.all(rhs.values <= n)


def test_truncated_rhs_arithmetic(unit_square_9):
    F = nonlinearity(unit_square_9, PowerLaw(0.5), f=1.0, l=1.0)
    u = FieldFunction(unit_square_9, np.full(unit_square_9.n_nodes, 4.0))
    assert truncated_rhs(F, u, 10.0).values[0] == pytest.approx(1.5, rel=1e-14)


def test_truncated_rhs_monotone_in_level(unit_square_9):
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=1.0, l=0.5)
    rng = np.random.default_rng(5)
    u = FieldFunction(unit_square_9, rng.random(unit_square_9.n_nodes) * 0.2)
    for n in (1.0, 2.0, 8.0, 64.0):
        a = truncated_rhs(F, u, n).values
        b = truncated_rhs(F, u, 2.0 * n).values
        assert np.all(a <= b)


@pytest.mark.parametrize("kw", [
    {"outer_tol": float("inf")}, {"outer_tol_abs": -1e-10}, {"outer_tol_abs": float("nan")},
], ids=["outer_tol_inf", "outer_tol_abs_neg", "outer_tol_abs_nan"])
def test_solver_config_rejects_out_of_range(kw):
    (name,) = kw
    with pytest.raises(ValueError, match=f"^{name} must be"):
        ms.SolverConfig(**kw)


@pytest.mark.parametrize("n", [0.5, 0.0, -1.0, float("nan")])
def test_solve_level_rejects_small_level(unit_square_9, n):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=1.0)
    with pytest.raises(ValueError, match="truncation level"):
        ms.solve_level(ms.assemble_stiffness(unit_square_9, A), F, n)


def test_level_zero_rhs_converges_immediately(unit_square_9):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=0.0, l=0.0)
    u, stats = ms.solve_level(ms.assemble_stiffness(unit_square_9, A), F, 1.0)
    assert stats.converged
    assert stats.iterations == 1
    assert np.all(u.values == 0.0)


def test_level_linear_problem_independent_of_level(interval, interval_A):
    # f = 0, l = 1: linear problem, solution x(1-x)/2 for every cap >= 1
    F = nonlinearity(interval, PowerLaw(1.0), f=0.0, l=1.0)
    exact = interval.nodes[:, 0] * (1.0 - interval.nodes[:, 0]) / 2.0
    op = ms.assemble_stiffness(interval, interval_A)
    results = []
    for n in (1.0, 2.0, 16.0):
        u, stats = ms.solve_level(op, F, n)
        assert stats.converged
        results.append(u.values)
        assert np.abs(u.values - exact).max() <= 1e-8
    assert np.abs(results[0] - results[2]).max() <= 1e-9


@pytest.mark.parametrize("gamma,peak", [(1.0, PEAK_GAMMA_1), (0.5, PEAK_GAMMA_HALF)])
def test_singular_solve_matches_shooting_oracle(interval, interval_A, gamma, peak):
    F = nonlinearity(interval, PowerLaw(gamma), f=1.0)
    rep = ms.solve_singular(interval, interval_A, F)
    oracle = shooting_solution(gamma, interval.nodes[:, 0])
    # the oracle itself is cross-checked against the closed-form peak
    assert abs(oracle.max() - peak) <= 2e-5
    assert np.abs(rep.u.values - oracle).max() <= 1e-3
    assert rep.energy_identity_residual <= 1e-6
    assert rep.u.values.min() >= -1e-12


def test_singular_solve_zero_data(unit_square_9):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=0.0, l=0.0)
    rep = ms.solve_singular(unit_square_9, A, F)
    assert np.all(rep.u.values == 0.0)
    assert rep.energy_identity_residual == 0.0


def test_singular_solve_oscillating_2d(unit_square_65, identity_65):
    F = nonlinearity(unit_square_65, ms.OscillatingPower(0.5), f=1.0)
    rep = ms.solve_singular(unit_square_65, identity_65, F)
    assert rep.u.values.min() >= -1e-12
    assert rep.energy_identity_residual <= 1e-6
    assert rep.final_gap <= 1e-6 * rep.h1_norms[-1] + 1e-10
    # H1 level history stays bounded (no blow-up along the schedule)
    norms = np.array(rep.h1_norms)
    assert norms.max() <= 2.0 * np.median(norms)


def test_warm_started_levels_match_report_history(interval, interval_A):
    F = nonlinearity(interval, PowerLaw(0.5), f=1.0)
    rep = ms.solve_singular(interval, interval_A, F)
    assert rep.outer_iters == len(rep.h1_norms)
    assert len(rep.history) == rep.outer_iters - 1
    assert rep.level_stats[-1].n == rep.n_final
    assert all(st.converged for st in rep.level_stats)


def test_schedule_solves_every_level_through_solve_level(monkeypatch, interval, interval_A):
    # the oracle solve_singular_weighted patches solver.solve_level: every level
    # of the schedule must go through that module-level name
    calls = []

    def counted(*args, _original=solver.solve_level, **kwargs):
        calls.append(args[2])
        return _original(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_level", counted)
    rep = ms.solve_singular(interval, interval_A, nonlinearity(interval, PowerLaw(0.5), f=1.0))
    assert len(calls) == rep.outer_iters > 1
    assert calls == [level.n for level in rep.level_stats]


@pytest.mark.parametrize("mu", [-1.0, float("nan")])
def test_solve_singular_rejects_bad_mu(unit_square_9, mu):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=0.0, l=1.0)
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        ms.solve_singular(unit_square_9, A, F, mu=mu)


def test_limit_problem_strong_absorption(unit_square_65, identity_65):
    # linear data: -div Du + mu u = l has u ~ l / mu away from the boundary;
    # at mu = 50 the boundary layers still depress the peak by 4 exp(-sqrt(mu)/2)
    # ~ 10.2% (computed and frozen), so "absorption dominates" holds to 11%
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=1.0)
    mu = 50.0
    rep = ms.solve_singular(mesh, A, F, mu=mu)
    peak = rep.u.values.max()
    assert abs(peak - 1.0 / mu) <= 0.11 / mu
    assert abs(peak - 1.0 / mu) == pytest.approx(0.10181 / mu, rel=1e-2)


def test_limit_problem_against_refined_reference():
    # mu = pi/2, l = 1: the h = 1/64 solution must sit within 1e-3 relative
    # L2 of the Richardson reference built from h = 1/128 (shared nodes)
    mu = np.pi / 2.0
    coarse = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    fine = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    sols = {}
    for mesh in (coarse, fine):
        F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=1.0)
        sols[mesh.nx] = ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F, mu=mu)
    ix, iy = np.meshgrid(np.arange(0, 129, 2), np.arange(0, 129, 2), indexing="xy")
    on_coarse = (iy * 129 + ix).ravel()
    u_f = sols[129].u.values[on_coarse]
    u_c = sols[65].u.values
    reference = u_f + (u_f - u_c) / 3.0  # second-order extrapolation
    diff = ms.FieldFunction(coarse, u_c - reference)
    ref_field = ms.FieldFunction(coarse, reference)
    assert ms.l2_norm(diff) <= 1e-3 * ms.l2_norm(ref_field)


def test_solver_nonconvergence_raises(monkeypatch, unit_square_9):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(0.5), f=1.0)
    monkeypatch.setattr("mildsing.solver._MAX_INNER", 2)
    with pytest.raises(ms.ConvergenceError, match="not reached in 2 steps"):
        ms.solve_singular(unit_square_9, A, F)


def test_tight_outer_tolerance_converges():
    # the Picard tolerances follow the outer ones, so tightening outer_tol alone
    # cannot leave the levels stuck at the inner solver's resolution
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    F = nonlinearity(mesh, ms.OscillatingPower(0.5), f=1.0)
    default = ms.SolverConfig()
    assert (default.inner_tol, default.inner_tol_abs) == (1e-8, 1e-12)
    cfg = ms.SolverConfig(outer_tol=1e-10, outer_tol_abs=1e-14)
    assert cfg.inner_tol == 1e-12
    rep = ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F, cfg)
    assert rep.final_gap <= cfg.outer_tol * rep.h1_norms[-2] + cfg.outer_tol_abs


@pytest.mark.parametrize("g", [PowerLaw(0.5), ms.OscillatingPower(1.0)], ids=["power", "oscillating"])
def test_inexact_picard_matches_exact_inner_solves(monkeypatch, g):
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, g, f=1.0)
    cfg = ms.SolverConfig()
    inexact = ms.solve_singular(mesh, A, F, cfg)
    monkeypatch.setattr("mildsing.solver._FORCING", 0.0)  # every CG solve to _CG_TOL
    exact = ms.solve_singular(mesh, A, F, cfg)
    gap = ms.h1_seminorm(inexact.u - exact.u)
    assert gap <= 10.0 * (cfg.outer_tol * ms.h1_seminorm(exact.u) + cfg.outer_tol_abs)
    cg = [sum(st.cg_iterations for st in rep.level_stats) for rep in (inexact, exact)]
    assert cg[0] < cg[1]


def _perforated_anisotropic():
    mesh = ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 33, 33),
                        SimpleNamespace(epsilon=0.25, radius=0.1, strategy="resolved"))
    return mesh, ms.Coefficient.constant(mesh, [[2.0, 0.5], [0.5, 1.0]])


def _interval_isotropic():
    mesh = ms.build_interval_mesh(1.0, 65)
    return mesh, ms.Coefficient.isotropic(mesh, 3.0)


@pytest.mark.parametrize("case", [_perforated_anisotropic, _interval_isotropic],
                         ids=["perforated-2d", "interval"])
def test_system_seminorm_equals_h1_seminorm(case):
    # only A = I with mu = 0 shares its matrix with the seminorm
    mesh, A = case()
    for mu in (0.0, 5.0):
        op = ms.assemble_stiffness(mesh, A, mu=mu)
        assert abs(op.lap - op.matrix).max() > 0.0  # the norm is not the operator's
        d = np.random.default_rng(11).standard_normal(op.n)
        full = op.scatter(d)
        assert op.h1(d) == pytest.approx(ms.h1_seminorm(FieldFunction(mesh, full)), rel=1e-12)


@st.composite
def nonincreasing_problems(draw):
    """``(mesh, A, F, mu)``: ``F = f s**-gamma + l`` with random ``gamma`` in ``(0, 1]``.

    A 5**2 to 17**2 square, dyadic or not, perforated or not by
    :func:`draw_holes`; random nodal ``f, l >= 0``, each zero at times, and
    ``mu = 0`` or random.
    """
    nx = draw(st.sampled_from([5, 7, 9, 12, 13, 17]))
    mesh = draw_holes(draw, ms.build_rectangle_mesh(1.0, 1.0, nx, nx))
    gamma = draw(st.floats(0.0, 1.0, exclude_min=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f, l = draw(st.sampled_from([0.0, 1.0, 10.0])), draw(st.sampled_from([0.0, 1.0, 10.0]))
    mu = draw(st.sampled_from([0.0, draw(st.floats(0.0, 100.0))]))
    F = nonlinearity(mesh, PowerLaw(gamma), f=f * rng.random(mesh.n_nodes),
                     l=l * rng.random(mesh.n_nodes))
    return mesh, ms.Coefficient.identity(mesh), F, mu


@settings(max_examples=100, deadline=None)
@given(problem=nonincreasing_problems())
def test_linearly_implicit_steps_match_slope_weighted_steps(problem):
    # in the uniqueness regime (nonincreasing F) the damping changes the path
    # of the iteration, not its limit: the schedule lands where the earlier
    # slope-weighted one does
    mesh, A, F, mu = problem
    cfg = ms.SolverConfig()
    rep = ms.solve_singular(mesh, A, F, cfg, mu=mu)
    ref = solve_singular_weighted(mesh, A, F, cfg, mu=mu)
    gap = ms.h1_seminorm(rep.u - ref.u)
    assert gap <= 10.0 * (cfg.outer_tol * ms.h1_seminorm(ref.u) + cfg.outer_tol_abs)
    assert rep.u.values.min() >= -1e-12
