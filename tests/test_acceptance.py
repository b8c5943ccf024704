"""Acceptance suite: every criterion at its stated tolerance, one line each.

Heavy solves are shared through module-scoped fixtures; each criterion test
asserts its stated tolerances and reports one pass/fail line (echoed again
in the terminal summary).
"""

import time

import numpy as np
import pytest

import mildsing as ms
from mildsing import (
    FieldFunction,
    OscillatingPower,
    PerforationSpec,
    PowerLaw,
    nonlinearity,
    solver,
)
from mildsing.fem import lumped_mass
from mildsing.verification import _lambda1

from conftest import mass_operator, record_criterion
from oracles import PEAK_GAMMA_1, PEAK_GAMMA_HALF, shooting_solution


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def power_half_solves():
    """Converged 2-D solves of the gamma = 1/2 power problem on three meshes."""
    out = {}
    for n in (65, 129, 257):
        mesh = ms.build_rectangle_mesh(1.0, 1.0, n, n)
        coeff = ms.Coefficient.identity(mesh)
        F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
        report = ms.solve_singular(mesh, coeff, F)
        lam, phi = _lambda1(ms.assemble_stiffness(mesh, coeff))
        out[n - 1] = (mesh, coeff, F, report, phi)
    return out


@pytest.fixture(scope="module")
def homogenization_run():
    """The mu = 50 sweep at h = 1/256 with the singular prototype data."""
    t0 = time.perf_counter()
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    coeff = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    specs = [PerforationSpec(epsilon=0.25, target_mu=50.0),
             PerforationSpec(epsilon=0.125, target_mu=50.0)]
    outcome = ms.homogenization_experiment(mesh, coeff, F, specs)
    return outcome, time.perf_counter() - t0


# ---------------------------------------------------------------- criteria

def test_criterion_01_linear_oracles():
    t0 = time.perf_counter()
    interval = ms.build_interval_mesh(1.0, 257)
    K1 = ms.assemble_stiffness(interval, ms.Coefficient.identity(interval))
    load = (lumped_mass(interval) * 1.0)[interval.free_nodes]
    x1, _ = ms.solve_cg(K1, load)
    err_1d = abs(x1.max() - 0.125) / 0.125

    square = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    K2 = ms.assemble_stiffness(square, ms.Coefficient.identity(square))
    f = FieldFunction.from_callable(
        square, lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    x2, _ = ms.solve_cg(K2, (lumped_mass(square) * f.values)[square.free_nodes])
    exact = np.sin(np.pi * square.nodes[:, 0]) * np.sin(np.pi * square.nodes[:, 1])
    err_2d = float(np.abs(K2.scatter(x2) - exact).max())
    wall = time.perf_counter() - t0

    passed = err_1d <= 1e-3 and err_2d <= 2e-3 and wall < 5.0
    record_criterion(1, "linear oracles (1-D bending, 2-D manufactured)", passed,
                     f"rel={err_1d:.1e}, Linf={err_2d:.1e}, {wall:.1f}s")
    assert err_1d <= 1e-3
    assert err_2d <= 2e-3
    assert wall < 5.0


def test_criterion_02_eigen_oracle(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    target = 2.0 * np.pi ** 2
    worst = 0.0
    for lumped in (False, True):
        lam, _ = ms.first_eigenpair(K, mass_operator(K, lumped))
        worst = max(worst, abs(lam - target) / target)
    passed = worst <= 0.01
    record_criterion(2, "first eigenvalue = 2 pi^2 within 1%", passed, f"rel={worst:.2e}")
    assert worst <= 0.01


def test_criterion_03_singular_vs_shooting():
    t0 = time.perf_counter()
    interval = ms.build_interval_mesh(1.0, 257)
    coeff = ms.Coefficient.identity(interval)
    details = []
    ok = True
    for gamma, peak in ((0.5, PEAK_GAMMA_HALF), (1.0, PEAK_GAMMA_1)):
        F = nonlinearity(interval, PowerLaw(gamma), f=1.0)
        rep = ms.solve_singular(interval, coeff, F)
        oracle = shooting_solution(gamma, interval.nodes[:, 0])
        assert abs(oracle.max() - peak) <= 2e-5  # oracle self-check (closed form)
        linf = float(np.abs(rep.u.values - oracle).max())
        min_u = float(rep.u.values.min())
        ok &= linf <= 1e-3 and rep.energy_identity_residual <= 1e-6 and min_u >= -1e-12
        details.append(f"g={gamma}: Linf={linf:.1e}, Eres={rep.energy_identity_residual:.1e}")
        assert linf <= 1e-3
        assert rep.energy_identity_residual <= 1e-6
        assert min_u >= -1e-12
    wall = time.perf_counter() - t0
    ok &= wall < 30.0
    record_criterion(3, "singular solves match the shooting oracle", ok,
                     "; ".join(details) + f", {wall:.1f}s")
    assert wall < 30.0


def test_criterion_04_truncation_stability():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    coeff = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, OscillatingPower(0.5), f=1.0)
    levels = [2.0 ** j for j in range(9)]  # 1 .. 256
    out = ms.stability_experiment(mesh, coeff, F, levels)
    ref = out.detail
    gap_bound = 1e-6 * ref.h1_norms[-2] + 1e-10
    cauchy_ok = ref.history[-1] <= gap_bound
    passed = bool(out.passed and cauchy_ok)
    worst = max(st.iterations for st in ref.level_stats)
    record_criterion(4, "truncation-level errors nonincreasing, Cauchy gap <= 1e-6",
                     passed,
                     f"e_last={out.metrics['final_error']:.1e}, gap={ref.history[-1]:.1e}, "
                     f"worst level {worst} steps")
    assert out.passed
    assert cauchy_ok
    # iteration headroom: the slowest level stays far from the Picard step limit
    assert worst <= solver._MAX_INNER // 4


def test_criterion_05_apriori_certificates(power_half_solves):
    # near-zero mass bound: discretization slack must shrink at least linearly
    slack_ok = True
    details = []
    for delta in (0.1, 0.01):
        slacks = {}
        for h_inv in (64, 128, 256):
            mesh, coeff, F, rep, phi = power_half_solves[h_inv]
            lhs, rhs = ms.singular_mass_certificate(rep, F, coeff, phi, delta)
            slacks[h_inv] = max(0.0, lhs - rhs)
        tiny = 1e-12 * max(1.0, rhs)
        rate = slacks[64] / (1.0 / 64.0)  # slack <= rate * h, fitted at the coarsest level
        ok = (slacks[128] <= rate / 128.0 + tiny) and (slacks[256] <= rate / 256.0 + tiny)
        slack_ok &= ok
        details.append(f"delta={delta}: slacks={slacks[64]:.1e}/{slacks[128]:.1e}/{slacks[256]:.1e}")
    assert slack_ok

    # excess-energy (level-set) bound with 5% slack for j = 0 .. ceil(|u|_inf)
    mesh1 = ms.build_interval_mesh(1.0, 1025)
    c1 = ms.Coefficient.identity(mesh1)
    F1 = nonlinearity(mesh1, PowerLaw(1.0), f=0.0, l=40.0)
    rep1 = ms.solve_singular(mesh1, c1, F1)
    j_top = int(np.ceil(rep1.u.values.max()))
    pairs = ms.levelset_energy_certificate(rep1, F1, c1, range(j_top + 1))
    level_ok = all(lhs <= 1.05 * rhs + 1e-12 for lhs, rhs in pairs)
    assert level_ok

    # scalar convexity bound, exact on 1e5 samples
    rng = np.random.default_rng(12345)
    u = np.concatenate([np.logspace(-9, 6, 50000), rng.random(50000) * 100.0])
    young_ok = True
    for gamma in (0.25, 0.5, 0.75, 1.0):
        young_ok &= bool(np.all(u ** (1.0 - gamma) <= (1.0 - gamma) * u + gamma + 1e-12))
    assert young_ok

    passed = bool(slack_ok and level_ok and young_ok)
    record_criterion(5, "a priori certificates (mass bound, level sets, scalar bound)",
                     passed, "; ".join(details) + f"; levels j<=%d ok; %d samples" % (j_top, u.size * 4))


def test_criterion_06_comparison_and_uniqueness(unit_square_65, identity_65):
    F1 = nonlinearity(unit_square_65, PowerLaw(0.5), f=1.0)
    F2 = nonlinearity(unit_square_65, PowerLaw(0.5), f=2.0)
    comp = ms.comparison_experiment(unit_square_65, identity_65, F1, F2)
    uniq = ms.uniqueness_experiment(unit_square_65, identity_65, F1, n_starts=3)
    passed = bool(comp.passed and uniq.passed)
    record_criterion(6, "comparison dominance and three-start uniqueness", passed,
                     f"max(u1-u2)={comp.metrics['max_u1_minus_u2']:.1e}, "
                     f"pairwise H1={uniq.metrics['max_pairwise_h1']:.1e}")
    assert comp.passed
    assert uniq.passed


def test_criterion_07_degenerate_family(unit_square_65, identity_65):
    t0 = time.perf_counter()
    out = ms.nonuniqueness_experiment(unit_square_65, identity_65, k=1.0)
    wall = time.perf_counter() - t0
    passed = bool(out.passed and wall < 60.0)
    record_criterion(7, "degenerate family: distinct solutions on the eigen ray", passed,
                     f"sep={out.metrics['max_linf_separation']:.2f}, "
                     f"ray res={max(out.metrics['ray_residuals']):.1e}, {wall:.1f}s")
    assert out.passed
    assert out.metrics["max_linf_separation"] >= 0.1
    assert max(out.metrics["ray_residuals"]) <= 1e-4
    assert wall < 60.0


def test_criterion_08_capacity_oracles():
    cap = ms.discrete_capacity(0.5, 0.05, 1.0 / 512.0)
    exact = 2.0 * np.pi / np.log(10.0)
    rel_annulus = abs(cap - exact) / exact

    spec = PerforationSpec(epsilon=0.125, target_mu=50.0)
    cell_cap = ms.discrete_capacity(spec.epsilon, spec.radius, 1.0 / 256.0)
    density = cell_cap / (2.0 * spec.epsilon) ** 2
    rel_density = abs(density - 50.0) / 50.0

    passed = rel_annulus <= 0.02 and rel_density <= 0.10
    record_criterion(8, "discrete capacity vs annulus formula and cell density", passed,
                     f"annulus rel={rel_annulus:.2%}, density rel={rel_density:.2%}")
    assert rel_annulus <= 0.02
    assert rel_density <= 0.10


def test_criterion_09_homogenization_sweep(homogenization_run):
    out, wall = homogenization_run
    m = out.metrics
    passed = bool(out.passed and wall < 600.0)
    record_criterion(9, "shrinking holes converge to the absorption limit", passed,
                     f"eL2={['%.3f' % v for v in m['eL2']]}, "
                     f"defect rel={m['defect_rel_error']:.2%}, {wall:.0f}s")
    assert m["eL2_decreasing"]
    assert m["defect_rel_error"] <= 0.25
    assert m["beats_naive_limit"]
    assert wall < 600.0


def test_criterion_10_corrector(homogenization_run):
    out, _ = homogenization_run
    corr = ms.corrector_experiment(out)
    m = corr.metrics
    record_criterion(10, "corrector profile beats the plain limit in H1", corr.passed,
                     f"corr={['%.3f' % v for v in m['eH1_corr']]} vs "
                     f"plain={['%.3f' % v for v in m['eH1_plain']]}")
    assert m["improves_everywhere"]
    assert m["eH1_corr_decreasing"]
    assert m["profile_in_unit_interval"]
    assert m["profile_zeros_on_holes"]
    assert corr.passed
