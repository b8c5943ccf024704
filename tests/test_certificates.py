import numpy as np
import pytest

import mildsing as ms
from mildsing import FieldFunction, PowerLaw, nonlinearity
from mildsing.cutoffs import z_delta
from mildsing.verification import _lambda1

from oracles import element_areas, element_grads, element_table


@pytest.fixture(scope="module")
def solved_square():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    rep = ms.solve_singular(mesh, A, F)
    lam, phi = _lambda1(ms.assemble_stiffness(mesh, A))
    return mesh, A, F, rep, phi


def test_mass_certificate_zero_test_function(solved_square):
    mesh, A, F, rep, _ = solved_square
    lhs, rhs = ms.singular_mass_certificate(rep, F, A, FieldFunction.zeros(mesh), 0.1)
    assert lhs == 0.0
    assert rhs == 0.0


def test_mass_certificate_zero_solution(unit_square_9):
    A = ms.Coefficient.identity(unit_square_9)
    F = nonlinearity(unit_square_9, PowerLaw(1.0), f=0.0, l=0.0)
    rep = ms.solve_singular(unit_square_9, A, F)
    phi = FieldFunction.from_callable(unit_square_9, lambda x, y: x * (1 - x) * y * (1 - y))
    lhs, rhs = ms.singular_mass_certificate(rep, F, A, phi, 0.1)
    assert lhs == 0.0
    assert rhs == 0.0


@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_mass_certificate_inequality_holds(solved_square, delta):
    mesh, A, F, rep, phi = solved_square
    lhs, rhs = ms.singular_mass_certificate(rep, F, A, phi, delta)
    assert lhs >= 0.0
    assert lhs <= rhs + 1e-12


def test_mass_certificate_rejects_bad_inputs(solved_square):
    mesh, A, F, rep, phi = solved_square
    with pytest.raises(ValueError):
        ms.singular_mass_certificate(rep, F, A, phi, 0.0)
    neg = FieldFunction(mesh, -np.ones(mesh.n_nodes))
    with pytest.raises(ValueError):
        ms.singular_mass_certificate(rep, F, A, neg, 0.1)


def test_mass_certificate_takes_phi_in_H1_0():
    # phi = 1 on the boundary adds m_i n_final at every boundary node, a
    # spurious violation (3.883 > 0 at delta = 0.1); phi = 1 on the free nodes
    # only is a test function of the bound, and the bound holds
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    rep = ms.solve_singular(mesh, A, F)
    with pytest.raises(ValueError, match="vanish"):
        ms.singular_mass_certificate(rep, F, A, FieldFunction(mesh, np.ones(mesh.n_nodes)), 0.1)
    inside = np.zeros(mesh.n_nodes)
    inside[mesh.free_nodes] = 1.0
    for delta in (0.1, 0.01):
        lhs, rhs = ms.singular_mass_certificate(rep, F, A, FieldFunction(mesh, inside), delta)
        assert 0.0 <= lhs <= rhs + 1e-12


def test_mass_certificate_rejects_phi_on_a_hole():
    spec = ms.PerforationSpec(epsilon=0.25, target_mu=10.0, strategy="collapsed")
    mesh = ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 17, 17), spec)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    rep = ms.solve_singular(mesh, A, F)
    phi = np.zeros(mesh.n_nodes)
    phi[mesh.node_class == ms.HOLE] = 1.0
    with pytest.raises(ValueError, match="vanish"):
        ms.singular_mass_certificate(rep, F, A, FieldFunction(mesh, phi), 0.1)


def test_mass_certificate_takes_A_Du_dot_Dphi():
    # sum_T |T| (A Du) . Dphi z_delta(u_bar) by hand, from each element's own
    # geometry.  For this nonsymmetric A the orientation Du . (A Dphi) differs
    # by 0.6 sum_T |T| z_delta Du x Dphi, the discrete form of an integral that
    # vanishes in the continuum; the asymmetric load keeps it from vanishing
    # by symmetry here too (1.1e-3 relative)
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    mat = np.array([[1.0, 0.3], [-0.3, 1.0]])
    A = ms.Coefficient.constant(mesh, mat)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0 + 3.0 * mesh.nodes[:, 0] * mesh.nodes[:, 1] ** 2)
    rep = ms.solve_singular(mesh, A, F)
    phi = FieldFunction.from_callable(mesh, lambda x, y: x * (1 - x) * y * (1 - y) * (1 + 3 * x))
    delta = 0.02
    _, rhs = ms.singular_mass_certificate(rep, F, A, phi, delta)

    areas, grads, table = element_areas(mesh), element_grads(mesh), element_table(mesh)
    u = rep.u.values[table]
    du = np.einsum("evd,ev->ed", grads, u)
    dphi = np.einsum("evd,ev->ed", grads, phi.values[table])
    weights = areas * z_delta(u.mean(axis=1), delta)
    by_hand = float(np.sum(weights * np.einsum("dc,ec,ed->e", mat, du, dphi)))
    transposed = float(np.sum(weights * np.einsum("dc,ec,ed->e", mat, dphi, du)))
    assert rhs == pytest.approx(by_hand, rel=1e-12)
    assert abs(by_hand - transposed) > 1e-4 * abs(by_hand)


def test_levelset_certificate_vanishes_above_sup(solved_square):
    mesh, A, F, rep, _ = solved_square
    j_top = int(np.ceil(rep.u.values.max())) + 1
    (lhs, rhs), = ms.levelset_energy_certificate(rep, F, A, [j_top])
    assert lhs == 0.0
    assert rhs == 0.0


def test_levelset_certificate_small_linear_load():
    # l = 1 in 1-D gives |u|_inf = 1/8 < 1, so the excess above 1 vanishes
    mesh = ms.build_interval_mesh(1.0, 257)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=1.0)
    rep = ms.solve_singular(mesh, A, F)
    (lhs, rhs), = ms.levelset_energy_certificate(rep, F, A, [0])
    assert lhs == 0.0
    assert rhs == 0.0


def test_levelset_certificate_scaled_load():
    # l = 40 in 1-D: |u|_inf = 5; the excess-energy bound holds with 5% slack
    mesh = ms.build_interval_mesh(1.0, 1025)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=40.0)
    rep = ms.solve_singular(mesh, A, F)
    assert rep.u.values.max() == pytest.approx(5.0, rel=1e-10)
    pairs = ms.levelset_energy_certificate(rep, F, A, range(5))
    for lhs, rhs in pairs:
        assert lhs <= 1.05 * rhs + 1e-12
    # j = 0 sides are analytic for u = 20 x (1-x): the excess region is
    # (a, 1-a) with 1 - 2a = sqrt(0.8), giving (400/3) * 0.8**1.5 and
    # 80 * 2.3851857... respectively
    lhs0, rhs0 = pairs[0]
    assert lhs0 == pytest.approx(400.0 / 3.0 * 0.8 ** 1.5, rel=1e-3)
    assert rhs0 == pytest.approx(190.81486, rel=1e-3)
