from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import FieldFunction, PowerLaw, nonlinearity, solver
from mildsing.solver import _capped

from oracles import (
    AndersonTailRing,
    solve_level_plain,
    solve_singular_plain,
    solve_singular_weighted,
)
from test_fem import draw_holes


def truncated_rhs(F, u, n):
    """Nodal ``min(F(x, max(u, 0)), n)``, the load of every Picard step."""
    return FieldFunction(u.mesh, _capped(F.evaluate, np.maximum(u.values, 0.0), n))


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
    assert rep.level_stats[-1].level == rep.n_final
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
    assert calls == [st.level for st in rep.level_stats]


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


def test_picard_steps_build_no_sparse_matrix(monkeypatch):
    # a step rewrites its shifted system in place: the CSR matrices a level
    # builds are its operator's set-up (V-cycle, shifted buffer), whatever its steps
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    F = nonlinearity(mesh, ms.OscillatingPower(1.0), f=1.0)
    built = []
    init = sp.csr_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    counts, steps = [], []
    for n in (1.0, 64.0):
        op = ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))
        built.clear()
        _, st = solver.solve_level(op, F, n)
        counts.append(len(built))
        steps.append(st.iterations)
    assert steps[0] < steps[1]
    assert counts[0] == counts[1]


def test_g_sees_only_free_node_vectors():
    # every evaluation of a solve, each Picard step's load and slope probes,
    # each level's equation residual and the energy identity, runs g on the
    # free nodes alone: never on a Dirichlet or hole node whose value would
    # be thrown away
    mesh, _ = _perforated_anisotropic()
    op = ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))
    assert op.n < (mesh.nx - 2) ** 2  # the holes remove nodes too
    seen = []

    class Recorded(PowerLaw):
        def __call__(self, s):
            seen.append(len(s))
            return super().__call__(s)

    F = nonlinearity(mesh, Recorded(0.5), f=1.0)
    seen.clear()  # construction checks F on the whole mesh
    rep = ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F)
    assert len(seen) == 3 * rep.inner_iters + rep.outer_iters + 1
    assert set(seen) == {op.n}


def test_anderson_tail_lands_on_the_plain_solution(unit_square_65, identity_65):
    # the benchmark's model: its long levels end in a linear tail, which the
    # Anderson steps shorten without moving the limit beyond the outer tolerance
    F = nonlinearity(unit_square_65, ms.OscillatingPower(1.0), f=1.0)
    cfg = ms.SolverConfig()
    rep = ms.solve_singular(unit_square_65, identity_65, F, cfg)
    ref = solve_singular_plain(unit_square_65, identity_65, F, cfg)
    assert ms.h1_seminorm(rep.u - ref.u) <= cfg.outer_tol * ms.h1_seminorm(ref.u)
    assert rep.inner_iters < ref.inner_iters
    accelerated = {st.level: st.accelerated for st in rep.level_stats}
    assert accelerated[64.0] > 0 and accelerated[128.0] > 0
    assert all(st.accelerated == 0 for st in ref.level_stats)
    assert rep.u.values.min() >= -1e-12


def test_levels_without_a_linear_tail_are_plain_steps():
    # at mu = 50 no level lasts the _TAIL_STEPS steps the switch needs,
    # so the accelerated schedule is the plain one bit for bit
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    rep = ms.solve_singular(mesh, A, F, mu=50.0)
    ref = solve_singular_plain(mesh, A, F, mu=50.0)
    assert np.array_equal(rep.u.values, ref.u.values)
    assert rep.level_stats == ref.level_stats
    assert all(st.accelerated == 0 for st in rep.level_stats)


def test_anderson_tail_drops_parallel_differences():
    # x <- x/2 + b contracts every mode at the same rate, so the tail's
    # differences are exactly parallel: the Gram matrix is singular, and the
    # Anderson step keeps the newest difference alone, a secant step that
    # lands on the fixed point 2b
    b = np.array([1.0, 2.0, 0.5, 3.0])
    x = np.array([8.0, 4.0, 16.0, 2.0])
    tail = solver._AndersonTail()
    for _ in range(solver._TAIL_STEPS + 1):
        d = (0.5 * x + b) - x
        x = tail.step(x + d, d)
    assert tail.accelerated == 1
    assert np.abs(x - 2.0 * b).max() <= 1e-12


@st.composite
def tail_records(draw):
    """A list of ``(g, d)`` records and ``"clear"`` calls, as a level feeds its tail.

    Runs of records between the clears follow ``x <- c x + b`` from a
    positive ``x``: with one scalar ``c`` every mode contracts at the same
    rate, so the differences are exactly parallel; with a random ``c`` per
    entry they are not.  ``b`` has a negative entry in some runs, so the
    Anderson step can go negative; ``c = 1`` with ``b = 0`` repeats one
    record, so every difference is zero.  Other runs draw ``g`` and ``d``
    at random.
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for kind in draw(st.lists(st.sampled_from(["parallel", "modes", "negative", "still", "random"]),
                              min_size=1, max_size=4)):
        x = rng.uniform(0.5, 10.0, n)
        c = {"parallel": rng.uniform(0.1, 0.99), "still": 1.0}.get(kind, rng.uniform(0.1, 0.99, n))
        b = np.zeros(n) if kind == "still" else rng.uniform(0.0, 2.0, n)
        if kind == "negative":
            b[rng.integers(n)] = -rng.uniform(0.0, 1e-2)
        for _ in range(draw(st.integers(1, 16))):
            if kind == "random":
                g, d = rng.uniform(0.0, 10.0, n), rng.standard_normal(n)
            else:
                d = (c * x + b) - x
                g = x = x + d
            ops.append("clear" if draw(st.integers(0, 11)) == 0 else (g, d))
    return ops


@settings(max_examples=300, deadline=None)
@given(ops=tail_records())
def test_anderson_tail_matches_the_ring_buffer_tail_bit_for_bit(ops):
    # the tail keeps its last records and forms the differences and their
    # Gram matrix on each attempt; the earlier ring-buffer tail kept them as
    # they arrived.  Same operands in the same order, so the same bits
    tail, ring = solver._AndersonTail(), AndersonTailRing()
    for op in ops:
        if op == "clear":
            tail.clear()
            ring.clear()
            continue
        g, d = op
        got, want = tail.step(g, d), ring.step(g, d)
        assert (got is g) == (want is g)
        assert got.tobytes() == want.tobytes()
        assert tail.accelerated == ring.accelerated


def test_anderson_tail_solves_the_benchmark_model_as_the_ring_buffer_tail(
        monkeypatch, unit_square_65, identity_65):
    # the benchmark's three starts, once with each tail: the same solutions
    # and the same per-level stats, Anderson steps included
    F = nonlinearity(unit_square_65, ms.OscillatingPower(1.0), f=1.0)
    n = unit_square_65.n_nodes
    starts = [np.zeros(n), np.full(n, 7.0), np.random.default_rng(0).uniform(0.0, 7.0, n)]
    reports = {}
    for name, tail in (("list", solver._AndersonTail), ("ring", AndersonTailRing)):
        monkeypatch.setattr(solver, "_AndersonTail", tail)
        reports[name] = [ms.solve_singular(unit_square_65, identity_65, F,
                                          u0=FieldFunction(unit_square_65, s)) for s in starts]
    for rep, ref in zip(reports["list"], reports["ring"]):
        assert np.array_equal(rep.u.values, ref.u.values)
        assert rep.level_stats == ref.level_stats
        assert sum(st.accelerated for st in rep.level_stats) > 0


def counted_tails(monkeypatch):
    """Patch ``solver._AndersonTail`` to record every tail it makes: one per pass of a level."""
    tails = []

    class Counted(solver._AndersonTail):
        def __init__(self):
            super().__init__()
            tails.append(self)

    monkeypatch.setattr(solver, "_AndersonTail", Counted)
    return tails


def test_level_stalled_without_anderson_steps_is_solved_once(monkeypatch, interval, interval_A):
    # two steps leave no room for a tail: the stalled level is plain already,
    # so it is reported unconverged, not solved again
    tails = counted_tails(monkeypatch)
    monkeypatch.setattr(solver, "_MAX_INNER", 2)
    op = ms.assemble_stiffness(interval, interval_A)
    _, st = ms.solve_level(op, nonlinearity(interval, PowerLaw(0.5), f=1.0), 2.0)
    assert not st.converged and st.accelerated == 0
    assert len(tails) == 1


def stalled_level():
    """``(op, F, u0)`` of a level-1 problem that stalls under Anderson steps.

    12**2, gamma = 0.04, zero start: the accelerated pass takes 53 Anderson
    steps and runs out of its ``_MAX_INNER`` steps; plain steps from the same
    start converge in 261.
    """
    mesh, A, F, u0 = level_problem(12, ms.OscillatingPower(0.04), seed=1, random_start=False)
    return ms.assemble_stiffness(mesh, A), F, u0


def test_level_stalled_after_anderson_steps_is_solved_again_plain(monkeypatch):
    op, F, u0 = stalled_level()
    tails = counted_tails(monkeypatch)
    u, st = ms.solve_level(op, F, 1.0, u0=u0)
    ref, ref_st = solve_level_plain(op, F, 1.0, u0=u0)
    assert len(tails) == 2 and tails[0].accelerated > 0
    assert st.converged and st == ref_st
    assert np.array_equal(u.values, ref.values)


def test_cg_forcing_follows_the_step_ratio(monkeypatch):
    # each pass of a level, the plain retry included, solves its first two
    # steps with _FORCING; every later step loosens it to _FORCING max(10 rho, 1)
    # by the H1 ratio rho of its two predecessors, unless rho >= 0.95: a step
    # that hardly contracted, or grew, gets _FORCING again
    op, F, u0 = stalled_level()
    passes = []

    def recorded(A, b, tol, x0, forcing, _original=solver.solve_cg):
        v, cg = _original(A, b, tol=tol, x0=x0, forcing=forcing)
        if np.array_equal(x0, u0.values[op.free]):
            passes.append([])
        passes[-1].append((forcing, op.h1(v - x0)))
        return v, cg

    monkeypatch.setattr(solver, "solve_cg", recorded)
    ms.solve_level(op, F, 1.0, u0=u0)
    assert len(passes) == 2
    sharp_after_slow = 0
    for steps in passes:
        forcing, res = zip(*steps)
        assert forcing[:2] == (solver._FORCING,) * 2
        for k in range(2, len(steps)):
            rho = res[k - 1] / res[k - 2]
            if rho >= 0.95:
                assert forcing[k] == solver._FORCING
                sharp_after_slow += 1
            else:
                assert forcing[k] == solver._FORCING * max(10.0 * rho, 1.0)
        assert solver._FORCING < max(forcing) < 10.0 * solver._FORCING
    assert sharp_after_slow > 0


def test_level_that_wandered_under_loose_forcing_converges():
    # 16**2, gamma = 0.08, zero start: when a step that hardly contracted, or
    # grew, still loosened the next CG solve (to 0.1 at rho >= 1), level 8 ran
    # out of steps in both passes; with _FORCING after such steps every level
    # converges
    mesh, A, F, u0 = level_problem(16, ms.OscillatingPower(0.08), seed=12, random_start=False)
    rep = ms.solve_singular(mesh, A, F, u0=u0)
    assert rep.n_final >= 8.0
    assert all(st.converged for st in rep.level_stats)


def test_schedule_stalled_level_raises_with_its_level(monkeypatch, interval, interval_A):
    # a level whose equation residual misses 100 outer_tol is not converged,
    # whatever its steps did, and ends the schedule at that level; its steps
    # met their tolerance long before _MAX_INNER, so the error names the steps
    # taken and the equation residual that failed, and carries the stats of
    # every level solved, the failing one last
    def frozen_at_2(op, F_free, x, n, _original=solver._equation_residual):
        return 1.0 if n == 2.0 else _original(op, F_free, x, n)

    monkeypatch.setattr(solver, "_equation_residual", frozen_at_2)
    with pytest.raises(ms.ConvergenceError, match="truncation level 2.0") as info:
        ms.solve_singular(interval, interval_A, nonlinearity(interval, PowerLaw(0.5), f=1.0))
    k = info.value.iterations
    assert 0 < k < solver._MAX_INNER
    assert f"not reached in {k} steps" in str(info.value)
    assert "equation residual 1.000e+00" in str(info.value)
    history = info.value.history
    assert len(history) == 2
    assert history[-1].equation_residual == 1.0
    assert history[-1].converged is False
    assert history[-1].iterations == k and history[0].converged


#: zero-start problems whose levels all reported convergence with a frozen
#: positive node before the slope shift was capped, at equation residuals up to
#: 0.70, 1.1 and 1.1; in the first, a node at 6.2e-10 got a shift of 1.5e11
#: against K_ii = 4
FROZEN_NODE_PROBLEMS = [(7, 0.05458214184753868, 1536344744), (12, 0.05, 5), (12, 0.06, 5)]


@pytest.mark.parametrize("nx,gamma,seed", FROZEN_NODE_PROBLEMS)
def test_capped_slope_shift_freezes_no_positive_node(nx, gamma, seed):
    mesh, A, F, u0 = level_problem(nx, ms.OscillatingPower(gamma), seed, random_start=False)
    rep = ms.solve_singular(mesh, A, F, u0=u0)
    assert all(st.equation_residual <= 1e-6 for st in rep.level_stats)


def test_frozen_node_without_the_cap_is_not_converged(monkeypatch):
    # the safety net: with the shift uncapped, level 1 freezes a node and stops
    # after a few tiny steps at equation residual 0.67; that is not convergence
    monkeypatch.setattr(solver, "_SHIFT_CAP", np.inf)
    nx, gamma, seed = FROZEN_NODE_PROBLEMS[0]
    mesh, A, F, u0 = level_problem(nx, ms.OscillatingPower(gamma), seed, random_start=False)
    with pytest.raises(ms.ConvergenceError, match="truncation level 1.0"):
        ms.solve_singular(mesh, A, F, u0=u0)


@st.composite
def random_level_problems(draw):
    """``(mesh, A, F, u0)`` over the regime of the random solver cases.

    A 5**2 to 17**2 unit square, ``PowerLaw`` or ``OscillatingPower`` with
    ``gamma`` in ``[0.05, 1]``, ``f`` uniform on ``[0, 2]`` with 20% zero
    nodes, and a zero start or one uniform on ``[0, 5]``.
    """
    nx = draw(st.integers(5, 17))
    g = draw(st.sampled_from([PowerLaw, ms.OscillatingPower]))(draw(st.floats(0.05, 1.0)))
    return level_problem(nx, g, draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()))


def level_problem(nx, g, seed, random_start):
    """``(mesh, A, F, u0)`` on an ``nx**2`` unit square, with ``f`` and ``u0`` from ``seed``."""
    mesh = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.0, 2.0, mesh.n_nodes) * (rng.random(mesh.n_nodes) >= 0.2)
    start = rng.uniform(0.0, 5.0, mesh.n_nodes) if random_start else np.zeros(mesh.n_nodes)
    F = nonlinearity(mesh, g, f=f)
    return mesh, ms.Coefficient.identity(mesh), F, FieldFunction(mesh, start)


@settings(max_examples=100, deadline=None)
@given(problem=random_level_problems())
def test_anderson_tail_keeps_the_plain_verdicts(problem):
    # an Anderson step is not a convex combination of iterates, so the
    # M-matrix argument for u >= 0 does not cover it: wherever the plain
    # steps converge to a nonnegative solution, the accelerated ones must
    # too, and in the uniqueness regime land on the same one
    mesh, A, F, u0 = problem
    cfg = ms.SolverConfig()
    try:
        ref = solve_singular_plain(mesh, A, F, cfg, u0=u0)
    except ms.ConvergenceError:
        return
    rep = ms.solve_singular(mesh, A, F, cfg, u0=u0)
    if ref.u.values.min() >= -1e-12:
        assert rep.u.values.min() >= -1e-12
    if isinstance(F.g, PowerLaw):
        gap = ms.h1_seminorm(rep.u - ref.u)
        assert gap <= 10.0 * (cfg.outer_tol * ms.h1_seminorm(ref.u) + cfg.outer_tol_abs)


def random_data(seed, g_class):
    """``(mesh, F, u0)`` drawn by ``default_rng(seed)``, in this order.

    A 5**2 to 17**2 unit square and ``g_class(gamma)`` with ``gamma`` in
    ``[0.05, 1]``; then ``f`` uniform on ``[0, 2]`` with 20% zero nodes;
    then ``u0`` uniform on ``[0, 5]``.
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(5, 18))
    gamma = float(rng.uniform(0.05, 1.0))
    mesh = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    f = rng.uniform(0.0, 2.0, mesh.n_nodes) * (rng.random(mesh.n_nodes) >= 0.2)
    u0 = FieldFunction(mesh, rng.uniform(0.0, 5.0, mesh.n_nodes))
    return mesh, nonlinearity(mesh, g_class(gamma), f=f), u0


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_converged_level_solves_the_capped_equation(seed):
    # an inexact first step can leave a node below zero; a slope shift probed
    # at s = 0 there would reach about 1e14 and freeze the node, and the level
    # report convergence at a negative node with an O(1) residual (seed 43:
    # 11**2, gamma = 0.092, min u = -0.040, residual 1.08)
    mesh, F, u0 = random_data(seed, PowerLaw)
    op = ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))
    u, stats = ms.solve_level(op, F, 64.0, u0=u0)
    if not stats.converged:
        return
    x = u.values[op.free]
    load = op.ml * _capped(F.evaluate, np.maximum(u.values, 0.0), 64.0)[op.free]
    residual = np.linalg.norm(op.matrix @ x - load) / np.linalg.norm(load)
    assert u.values.min() >= -1e-12
    assert residual <= 1e-6
    assert stats.equation_residual == pytest.approx(residual, rel=1e-6, abs=1e-14)


def test_oscillating_levels_solve_the_capped_equation():
    # the capped slope shift freezes no positive node, so every level of an
    # oscillating solve solves its equation; a solve that raises fails too,
    # as an uncapped shift turns frozen levels into raises.  Even draws start
    # from zero, odd ones from the drawn u0.
    worst = 0.0
    for i in range(200):
        mesh, F, u0 = random_data(30000 + i, ms.OscillatingPower)
        rep = ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F, u0=u0 if i % 2 else None)
        worst = max(worst, *(st.equation_residual for st in rep.level_stats))
    assert worst <= 1e-6


def test_negative_node_rule_keeps_level_headroom():
    # a random-start draw whose worst level takes 128 Picard steps; with a
    # slope shift probed at s = 0 on its negative nodes, its first takes 498
    mesh, A, F, u0 = level_problem(12, ms.OscillatingPower(0.10846609534288743), 2209618199, True)
    rep = ms.solve_singular(mesh, A, F, u0=u0)
    assert all(st.converged for st in rep.level_stats)
    assert max(st.iterations for st in rep.level_stats) <= solver._MAX_INNER // 4


def stability_gaps(seed):
    """``gamma`` and ``|u_delta - u|_H1`` for ``delta = 1e-1, 1e-2, 1e-3``, by ``default_rng(seed)``.

    A 5**2 to 11**2 unit square and ``PowerLaw(gamma)``, ``gamma`` in ``[0.05,
    1]``; ``f`` uniform on ``[0, 2]`` with 20% zero nodes, ``l`` uniform on
    ``[0, 1]`` on half the nodes.  ``u_delta`` solves the problem with ``f``
    and ``l`` raised by ``delta`` times two fixed fields uniform on ``[0, 1]``.
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(5, 12))
    gamma = float(rng.uniform(0.05, 1.0))
    mesh = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    n = mesh.n_nodes
    f = rng.uniform(0.0, 2.0, n) * (rng.random(n) >= 0.2)
    l = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    df, dl = rng.random((2, n))
    A = ms.Coefficient.identity(mesh)

    def solve(delta):
        F = nonlinearity(mesh, PowerLaw(gamma), f=f + delta * df, l=l + delta * dl)
        return ms.solve_singular(mesh, A, F).u

    u = solve(0.0)
    return gamma, [ms.h1_seminorm(solve(delta) - u) for delta in (1e-1, 1e-2, 1e-3)]


def test_solution_is_stable_in_the_data():
    # the paper's stability result: solutions converge as the data f and l
    # do.  Here u moves in H1 at the rate of the perturbation, so each tenfold
    # smaller one moves it at least fivefold less (0.100-0.106 per decade on
    # these draws); a solve accurate only to 100 outer_tol floors the gap
    gammas = []
    for seed in range(100):
        gamma, gaps = stability_gaps(seed)
        gammas.append(gamma)
        assert gaps[1] <= 0.2 * gaps[0] and gaps[2] <= 0.2 * gaps[1], (seed, gaps)
    assert min(gammas) <= 0.2


def scaling_gap(seed):
    """``gamma``, ``mu`` and ``|u_lam - c u|_H1 / |c u|_H1``, by ``default_rng(seed)``.

    A 5**2 to 11**2 unit square and ``PowerLaw(gamma)``, ``gamma`` in ``[0.05,
    1]``; ``f`` uniform on ``[0, 2]`` with 20% zero nodes, ``l`` uniform on
    ``[0, 1]`` on half the nodes; ``mu = 0`` or uniform on ``[0, 100]``, each
    half the time; ``lam = 10**U(-6, 6)``.  ``u`` solves the problem with data
    ``(f, l)``, ``u_lam`` the one with ``(lam f, c l)``, ``c = lam**(1 / (1 +
    gamma))``.
    """
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(5, 12))
    gamma = float(rng.uniform(0.05, 1.0))
    mesh = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    n = mesh.n_nodes
    f = rng.uniform(0.0, 2.0, n) * (rng.random(n) >= 0.2)
    l = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5)
    mu = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 100.0))
    lam = 10.0 ** rng.uniform(-6.0, 6.0)
    c = lam ** (1.0 / (1.0 + gamma))
    A = ms.Coefficient.identity(mesh)
    u, u_lam = (ms.solve_singular(mesh, A, nonlinearity(mesh, PowerLaw(gamma), f=a * f, l=b * l),
                                  mu=mu).u.values for a, b in ((1.0, 1.0), (lam, c)))
    gap = ms.h1_seminorm(FieldFunction(mesh, u_lam - c * u))
    return gamma, mu, gap / ms.h1_seminorm(FieldFunction(mesh, c * u))


def test_solution_follows_the_exact_scaling_law():
    # the discrete equation K u = m (f u**-gamma + l), mu u included in K, is
    # homogeneous: u(lam f, c l) = c u(f, l) with c = lam**(1 / (1 + gamma)),
    # an exact oracle at any scale of the data.  The scheme's own error
    # scales with the data too, so the gap (at most 1.4e-11 on these draws)
    # does not see a solve stopped early
    outer_tol = ms.SolverConfig().outer_tol
    draws = [scaling_gap(seed) for seed in range(100)]
    for seed, (gamma, mu, gap) in enumerate(draws):
        assert gap <= 10.0 * outer_tol, (seed, gamma, mu, gap)
    assert min(gamma for gamma, _, _ in draws) <= 0.2
    assert 0 < sum(mu == 0.0 for _, mu, _ in draws) < len(draws)


def test_oscillating_two_cycles_are_damped():
    # a step that does not shrink and turns back marks a period-2 cycle of
    # the capped map, whose steady step norm the growth test alone never
    # damps (seed 23: 5**2, gamma = 0.659, level 8 stuck at |d|_H1 = 0.1711
    # with theta = 1); seed 83 stalled at level 1 until the slope shift was capped
    failed = []
    for seed in range(100):
        mesh, F, _ = random_data(seed, ms.OscillatingPower)
        try:
            ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F)
        except ms.ConvergenceError:
            failed.append(seed)
    assert failed == []


def test_oscillating_solves_are_nonnegative_without_clamping():
    # the promise for whole solves, not single levels: nothing in the scheme
    # clamps u at zero, so a negative node that outlives the schedule shows
    # here.  Even draws start from zero, odd ones from the drawn u0.
    gammas, raised = [], 0
    for i in range(100):
        mesh, F, u0 = random_data(20000 + i, ms.OscillatingPower)
        gammas.append(F.gamma)
        try:
            rep = ms.solve_singular(mesh, ms.Coefficient.identity(mesh), F,
                                    u0=u0 if i % 2 else None)
        except ms.ConvergenceError:
            raised += 1
            continue
        assert rep.u.values.min() >= -1e-12, (i, float(rep.u.values.min()))
    assert min(gammas) <= 0.2
    assert raised <= 5  # the property holds on at least 95 whole solves
