import gc
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import fem
from mildsing.fem import lumped_mass, mass_csr, stiffness_csr
from mildsing.mesh import _CHUNK

from oracles import element_areas, element_grads, mass_csr_coo, stiffness_csr_coo


def nodal_load(mesh, fn):
    f = ms.FieldFunction.from_callable(mesh, fn)
    return (lumped_mass(mesh) * f.values)[mesh.free_nodes]


def test_five_point_diagonal_on_coarse_square():
    m = ms.build_rectangle_mesh(1.0, 1.0, 3, 3)
    K = ms.assemble_stiffness(m, ms.Coefficient.identity(m))
    assert K.matrix.shape == (1, 1)
    assert K.matrix[0, 0] == 4.0


def test_stiffness_linear_in_coefficient(unit_square_65):
    m = unit_square_65
    K1 = ms.assemble_stiffness(m, ms.Coefficient.identity(m)).matrix
    K2 = ms.assemble_stiffness(m, ms.Coefficient.isotropic(m, 2.0)).matrix
    assert (K2 - 2.0 * K1).nnz == 0


def test_interior_row_sums_vanish():
    # gradients annihilate constants: rows without boundary neighbours sum to 0
    m = ms.build_rectangle_mesh(1.0, 1.0, 9, 9)
    K = stiffness_csr(m, ms.Coefficient.isotropic(m, 3.0))
    sums = np.asarray(K.sum(axis=1)).ravel()
    assert np.abs(sums).max() < 1e-13


def test_stiffness_exact_symmetry(unit_square_65):
    m = unit_square_65
    A = ms.Coefficient.constant(m, np.array([[2.0, 0.3], [0.3, 1.0]]))
    K = ms.assemble_stiffness(m, A).matrix
    diff = (K - K.T).tocoo()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_noncoercive_coefficient_rejected(unit_square_9):
    with pytest.raises(ValueError):
        ms.Coefficient.constant(unit_square_9, np.array([[1.0, 3.0], [3.0, 1.0]]))
    with pytest.raises(ValueError):
        ms.Coefficient.isotropic(unit_square_9, -1.0)


def test_mass_partition_of_unity():
    m = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    assert mass_csr(m).sum() == pytest.approx(1.0, abs=1e-13)


def test_mass_local_block_values():
    # one cell = two triangles of area t: diagonal t/6, off-diagonal t/12
    m = ms.build_rectangle_mesh(1.0, 1.0, 2, 2)
    t = m.cell[0][0]
    M = mass_csr(m).toarray()
    assert M[1, 0] == pytest.approx(t / 12.0, rel=1e-14)
    # node 0 belongs to both triangles
    assert M[0, 0] == pytest.approx(2.0 * t / 6.0, rel=1e-14)


def test_lumped_rows_equal_consistent_rows():
    m = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    consistent = np.asarray(mass_csr(m).sum(axis=1)).ravel()
    assert np.allclose(lumped_mass(m), consistent, rtol=1e-13)


@pytest.mark.parametrize("mesh", [ms.build_rectangle_mesh(1.0, 1.0, 101, 101),
                                  ms.build_rectangle_mesh(2.0, 1.0, 65, 33),
                                  ms.build_interval_mesh(1.0, 40001)],
                         ids=["chunks 16384+3616", "one chunk", "interval, 3 chunks"])
def test_element_forms_match_their_matrices(mesh):
    # the chunked per-element forms against the assembled matrices, chunk
    # boundaries included: h1^2 = u'Ku for A = I, l2^2 = u'Mu, and the
    # A-energy sum |T| Du . (A Dv) = u'K_A v for a nonsymmetric A that
    # differs on every element
    rng = np.random.default_rng(17)
    u, v = (ms.FieldFunction(mesh, rng.standard_normal(mesh.n_nodes)) for _ in range(2))
    mats = spd_matrices(rng, mesh.n_elements, mesh.dim, antisymmetric=True)
    A = ms.Coefficient.from_matrices(mesh, mats)
    K, M = stiffness_csr(mesh, A), mass_csr(mesh)
    K_I = stiffness_csr(mesh, ms.Coefficient.identity(mesh))
    assert ms.h1_seminorm(u) ** 2 == pytest.approx(u.values @ (K_I @ u.values), rel=1e-12)
    assert ms.l2_norm(u) ** 2 == pytest.approx(u.values @ (M @ u.values), rel=1e-12)
    scale = math.sqrt(ms.energy_product(u, A) * ms.energy_product(v, A))
    assert abs(ms.energy_product(u, A, v) - u.values @ (K @ v.values)) <= 1e-12 * scale
    assert ms.energy_product(u, A) == pytest.approx(u.values @ (K @ u.values), rel=1e-12)


def test_cg_zero_rhs_zero_iterations(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    x, stats = ms.solve_cg(K, np.zeros(K.n))
    assert stats.iterations == 0
    assert np.all(x == 0.0)


def test_cg_1d_bending_oracle(unit_interval_257):
    # -u'' = 1 on (0,1): u = x(1-x)/2, max 0.125 (nodal values exact)
    m = unit_interval_257
    K = ms.assemble_stiffness(m, ms.Coefficient.identity(m))
    x, _ = ms.solve_cg(K, nodal_load(m, lambda t: np.ones_like(t)))
    assert abs(x.max() - 0.125) <= 1e-3 * 0.125


def test_cg_2d_manufactured_solution(unit_square_65, identity_65):
    m = unit_square_65
    K = ms.assemble_stiffness(m, identity_65)
    load = nodal_load(m, lambda x, y: 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y))
    x, _ = ms.solve_cg(K, load)
    u = K.scatter(x)
    exact = np.sin(np.pi * m.nodes[:, 0]) * np.sin(np.pi * m.nodes[:, 1])
    assert np.abs(u - exact).max() <= 2e-3


def test_cg_reports_nonconvergence(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    rhs = np.ones(K.n)
    with pytest.raises(ms.ConvergenceError) as err:
        ms.solve_cg(K, rhs, tol=1e-12, maxit=3)
    assert err.value.iterations == 3
    assert np.isfinite(err.value.residual)


def test_cg_detects_indefiniteness(unit_square_9):
    K = ms.assemble_stiffness(unit_square_9, ms.Coefficient.identity(unit_square_9))
    bad = ms.SparseOperator((-1.0 * K.matrix).tocsr(), K.free, K.mesh)
    with pytest.raises(ms.IndefiniteOperatorError):
        ms.solve_cg(bad, np.ones(bad.n))


def test_eigen_square_oracle(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    for lumped in (False, True):
        M = ms.assemble_mass(unit_square_65, lumped=lumped)
        lam, phi = ms.first_eigenpair(K, M)
        assert abs(lam - 2.0 * np.pi ** 2) <= 0.01 * 2.0 * np.pi ** 2
        assert phi.values.min() >= -1e-10
        assert float(phi.values @ (ms.lumped_mass(unit_square_65) * phi.values)) == pytest.approx(
            1.0, rel=1e-6 if lumped else 1e-2)


def test_eigen_interval_oracle(unit_interval_257):
    m = unit_interval_257
    K = ms.assemble_stiffness(m, ms.Coefficient.identity(m))
    M = ms.assemble_mass(m)
    lam, _ = ms.first_eigenpair(K, M)
    assert abs(lam - np.pi ** 2) <= 0.01 * np.pi ** 2


def test_eigen_scales_exactly_with_coefficient():
    m = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    K1 = ms.assemble_stiffness(m, ms.Coefficient.identity(m))
    K2 = ms.assemble_stiffness(m, ms.Coefficient.isotropic(m, 2.0))
    M = ms.assemble_mass(m)
    lam1, _ = ms.first_eigenpair(K1, M)
    lam2, _ = ms.first_eigenpair(K2, M)
    assert lam2 == pytest.approx(2.0 * lam1, rel=1e-13)


def test_rayleigh_quotient_lower_bound(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    M = ms.assemble_mass(unit_square_65)
    lam, _ = ms.first_eigenpair(K, M, tol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(K.n)
        rq = float(v @ (K.matrix @ v)) / float(v @ (M.matrix @ v))
        assert rq >= lam * (1.0 - 1e-10)


def draw_holes(draw, mesh):
    """``mesh`` unperforated, or with holes on the admissible lattice ``epsilon = 1 / (2 k) >= h``.

    Resolved radii are drawn in ``[2 h, epsilon)``, collapsed ones below ``h``.
    """
    h = 1.0 / (mesh.nx - 1)
    k = draw(st.integers(0, min(4, (mesh.nx - 1) // 2)))  # 0: no holes; epsilon >= h
    if not k:
        return mesh
    epsilon = 1.0 / (2 * k)
    if 2.0 * h < epsilon and draw(st.booleans()):
        holes = SimpleNamespace(epsilon=epsilon, strategy="resolved",
                                radius=draw(st.floats(2.0 * h, epsilon, exclude_max=True)))
    else:
        holes = SimpleNamespace(epsilon=epsilon, strategy="collapsed",
                                radius=draw(st.floats(0.0, h, exclude_max=True)))
    return ms.perforate(mesh, holes)


@st.composite
def isotropic_problems(draw):
    """``(mesh, A, mu, seed)``: a 5**2 to 33**2 square, perforated or not, or an interval.

    Sizes are dyadic or not; holes come from :func:`draw_holes`.  ``A`` is a
    random positive multiple of the identity on each element (anisotropic
    ``A`` can break the sign pattern).
    """
    nx = draw(st.integers(5, 33))
    if draw(st.booleans()):
        mesh = ms.build_interval_mesh(1.0, nx)
    else:
        mesh = draw_holes(draw, ms.build_rectangle_mesh(1.0, 1.0, nx, nx))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    a = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, mesh.n_elements))
    A = ms.Coefficient.from_matrices(mesh, np.einsum("e,ij->eij", a, np.eye(mesh.dim)))
    mu = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    return mesh, A, mu, seed


@settings(max_examples=150, deadline=None)
@given(problem=isotropic_problems())
def test_weak_maximum_principle(problem):
    # M-matrix property of the one Picard operator: nonpositive off-diagonals,
    # positive diagonal, and a nonnegative load gives a nonnegative solution
    mesh, A, mu, seed = problem
    op = ms.assemble_stiffness(mesh, A, mu)
    K = op.matrix.tocoo()
    off = K.row != K.col
    assert np.all(K.data[off] <= 0.0)
    assert np.all(op.diagonal > 0.0)
    rng = np.random.default_rng(seed)
    rhs = rng.random(op.n) * (rng.random(op.n) < 0.5) * op.ml
    x, _ = ms.solve_cg(op, rhs)
    assert x.min(initial=0.0) >= -1e-12 * np.abs(x).max(initial=0.0)


@st.composite
def multigrid_problems(draw):
    """``(mesh, A, mu, seed)`` on a grid that halves down to the coarsest level, or on 12**2.

    An interval or a square, perforated or not by :func:`draw_holes`.  ``A``
    is constant, symmetric and inside the :func:`fem.check_m_matrix` range,
    with eigenvalues at most 19 apart in ratio.
    """
    nx = draw(st.sampled_from([5, 7, 9, 12, 13, 17, 33]))
    if draw(st.booleans()):
        mesh = ms.build_interval_mesh(1.0, nx)
        mat = [[draw(st.floats(0.25, 4.0))]]
    else:
        mesh = draw_holes(draw, ms.build_rectangle_mesh(1.0, 1.0, nx, nx))
        a11, a22 = draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
        s = draw(st.floats(0.0, 0.9)) * min(a11, a22)
        mat = [[a11, s], [s, a22]]
        fem.check_m_matrix(mat)
    mu = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    return mesh, ms.Coefficient.constant(mesh, mat), mu, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(problem=multigrid_problems())
def test_multigrid_cg_matches_dense_solve(problem):
    # the V-cycle is a symmetric preconditioner, and CG with it solves the
    # system; only a 2-D grid that cannot halve (12**2) keeps Jacobi
    mesh, A, mu, seed = problem
    op = ms.assemble_stiffness(mesh, A, mu)
    assert op.precond.func is (np.multiply if mesh.dim == 2 and mesh.nx == 12 else fem._vcycle)
    rng = np.random.default_rng(seed)
    x, y, rhs = rng.standard_normal((3, op.n))
    sol, _ = ms.solve_cg(op, rhs, tol=1e-13)
    exact = np.linalg.solve(op.matrix.toarray(), rhs)
    assert np.abs(sol - exact).max(initial=0.0) <= 1e-9 * np.abs(exact).max(initial=0.0)
    My, Mx = op.precond(y), op.precond(x)
    assert abs(x @ My - y @ Mx) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(My)


@pytest.mark.parametrize("nx", [129, 257])
def test_multigrid_cg_iterations_do_not_grow(nx):
    # multigrid needs 14 here, Jacobi 264 and 532: a silent fallback fails loudly
    m = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    op = ms.assemble_stiffness(m, ms.Coefficient.identity(m))
    _, stats = ms.solve_cg(op, op.ml, tol=1e-10)
    assert stats.iterations <= 25


def test_walled_in_node_stays_exactly_zero():
    # the corner nodes of this lattice touch only holes and the boundary; the
    # V-cycle must not interpolate coarse noise into them, or an unloaded one
    # comes out of CG slightly negative
    mesh = ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 13, 13),
                        SimpleNamespace(epsilon=0.25, strategy="resolved", radius=0.1875))
    op = ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))
    lone = np.diff((op.matrix != 0).indptr) == 1
    assert lone.sum() == 4
    x, _ = ms.solve_cg(op, np.where(lone, 0.0, op.ml))
    assert op.precond.func is fem._vcycle
    assert np.all(x[lone] == 0.0)


def test_preconditioner_dies_with_its_operator(unit_square_65, identity_65):
    # the hierarchy must not sit in a reference cycle: reference counting
    # alone frees it once its operator is gone
    gc.disable()
    try:
        op = ms.assemble_stiffness(unit_square_65, identity_65)
        ms.solve_cg(op, op.ml)
        ref = weakref.ref(op.precond)
        del op
        assert ref() is None
    finally:
        gc.enable()


def _walled_in_33():
    # its 4 corner nodes touch only holes and the boundary
    mesh = ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 33, 33),
                        SimpleNamespace(epsilon=0.125, strategy="resolved", radius=0.115))
    return mesh, 7.0


@pytest.mark.parametrize("case,precond,levels", [
    (_walled_in_33, fem._vcycle, 3),
    (lambda: (ms.build_interval_mesh(1.0, 65), 0.0), fem._vcycle, 3),
    (lambda: (ms.build_rectangle_mesh(1.0, 1.0, 12, 12), 0.0), np.multiply, None),
    (lambda: (ms.build_rectangle_mesh(1.0, 1.0, 5, 5), 2.0), fem._vcycle, 0),
], ids=["perforated-mu", "interval", "jacobi-12", "coarsest-only"])
def test_shifted_operator_cg_matches_direct_solve(case, precond, levels):
    # K + diag(d) borrows K's coarse levels; with its own finest level (or
    # dense solve, or Jacobi weights) CG solves the shifted system in at most
    # half the iterations K's preconditioner takes, and K's stays as it was
    mesh, mu = case()
    op = ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh), mu)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(op.n)
    before, data = op.precond(r), op.matrix.data.copy()
    assert op.precond.func is precond
    if levels is not None:
        assert len(op.precond.args[0]) == levels
    d = rng.random(op.n) * (rng.random(op.n) < 0.7) * 10.0 * op.diagonal
    lone = np.diff((op.matrix != 0).indptr) == 1
    assert lone.sum() == (4 if case is _walled_in_33 else 0)
    rhs = np.where(lone, 0.0, rng.random(op.n))
    shifted = op.shifted(d)
    x, stats = ms.solve_cg(shifted, rhs, tol=1e-13)
    unshifted = ms.SparseOperator(shifted.matrix, op.free, mesh)
    unshifted.precond = op.precond
    assert 2 * stats.iterations <= ms.solve_cg(unshifted, rhs, tol=1e-13)[1].iterations
    exact = spsolve((op.matrix + sp.diags(d)).tocsc(), rhs)
    assert np.abs(x - exact).max() <= 1e-10 * np.abs(exact).max()
    assert np.all(x[lone] == 0.0)
    assert shifted.precond.func is precond
    assert np.array_equal(op.precond(r), before)
    assert np.array_equal(op.matrix.data, data)


@st.composite
def structured_meshes(draw):
    """An interval, a unit square or a 2 x 1 rectangle with 2 to 33 nodes on its short side.

    Node counts are odd or even; the square may carry holes from :func:`draw_holes`.
    """
    nx = draw(st.integers(2, 33))
    shape = draw(st.sampled_from(["interval", "square", "rectangle"]))
    if shape == "interval":
        return ms.build_interval_mesh(1.0, nx)
    if shape == "square":
        return draw_holes(draw, ms.build_rectangle_mesh(1.0, 1.0, nx, nx))
    return ms.build_rectangle_mesh(2.0, 1.0, 2 * nx - 1, nx)


def on_dyadic_grid(mesh):
    """Whether ``h`` is a power of two and every node coordinate an exact multiple of it."""
    return math.frexp(mesh.h)[0] == 0.5 and np.array_equal(
        mesh.nodes, np.round(mesh.nodes / mesh.h) * mesh.h)


def spd_matrices(rng, count, dim, antisymmetric=False):
    """``count`` random symmetric positive definite ``dim x dim`` matrices, each plus a
    random antisymmetric one if ``antisymmetric``."""
    B, C = rng.standard_normal((2, count, dim, dim))
    spd = B @ B.transpose(0, 2, 1)
    mats = 0.5 * (spd + spd.transpose(0, 2, 1)) + 0.1 * np.eye(dim)
    return mats + (C - C.transpose(0, 2, 1)) if antisymmetric else mats


@st.composite
def assembly_problems(draw):
    """``(mesh, A, mu, bit_exact)`` on a mesh from :func:`structured_meshes`.

    ``A`` is coercive: a random multiple of the identity, or a random
    symmetric positive definite matrix, plus a random antisymmetric one half
    of the time, per element or constant.  ``bit_exact``: an interval, or an
    isotropic ``A`` on a grid with ``2**k + 1`` nodes per axis.
    """
    mesh = draw(structured_meshes())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["isotropic", "constant", "per element"]))
    if kind == "isotropic":
        A = ms.Coefficient.isotropic(mesh, float(np.exp(rng.uniform(-3.0, 3.0))))
    else:
        count = 1 if kind == "constant" else mesh.n_elements
        mats = spd_matrices(rng, count, mesh.dim, draw(st.booleans()))
        A = (ms.Coefficient.constant(mesh, mats[0]) if kind == "constant"
             else ms.Coefficient.from_matrices(mesh, mats))
    mu = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    return mesh, A, mu, mesh.dim == 1 or (kind == "isotropic" and on_dyadic_grid(mesh))


@settings(max_examples=150, deadline=None)
@given(mesh=structured_meshes())
@example(mesh=ms.build_rectangle_mesh(1.0, 1.0, 101, 101))  # chunks of 16384 and 3616
@example(mesh=ms.build_rectangle_mesh(3.0, 1.0, 193, 65))  # dyadic: 16384 and 8192
def test_cell_geometry_matches_each_elements_own(mesh):
    # Mesh.chunk_geometry repeats the first cell's over each chunk, the last one
    # a prefix of the same tile.  Where every node is an exact multiple of a
    # dyadic h, each element's own formula gives the same bits.  Elsewhere each
    # linspace node is off by up to about eps * width, and an edge by twice
    # that, relative to h.  The bound is 2 eps L / h relative, L = max(width,
    # height); the largest measured over every mesh drawn here is 0.94 eps L / h,
    # on the 31**2 square.
    areas, grads = element_areas(mesh), element_grads(mesh)
    chunks = mesh.element_chunks()
    assert [s.start for s in chunks] == list(range(0, mesh.n_elements, _CHUNK))
    assert [s.stop for s in chunks] == [s.start for s in chunks[1:]] + [mesh.n_elements]
    bound = 2.0 * np.finfo(float).eps * max(mesh.width, mesh.height) / mesh.h
    for s in chunks:
        got_areas, got_grads = mesh.chunk_geometry(s)
        assert got_areas.shape == areas[s].shape and got_grads.shape == grads[s].shape
        assert got_grads.flags.c_contiguous  # einsum sums in the order of the strides
        if on_dyadic_grid(mesh):
            assert np.array_equal(got_areas, areas[s])
            assert np.array_equal(got_grads, grads[s])
        else:
            assert np.all(np.abs(got_areas - areas[s]) <= bound * areas[s])
            assert np.all(np.abs(got_grads - grads[s]) <= bound * np.abs(grads[s]))


@settings(max_examples=100, deadline=None)
@given(mesh=structured_meshes(), kind=st.sampled_from(["isotropic", "spd", "spd + antisymmetric"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_constant_coefficient_stiffness_matches_per_element_path(mesh, kind, seed):
    # a constant A takes its element matrices from one cell; the same A tiled
    # per element takes the general path, element by element: bit for bit equal
    rng = np.random.default_rng(seed)
    if kind == "isotropic":
        mat = float(np.exp(rng.uniform(-3.0, 3.0))) * np.eye(mesh.dim)
    else:
        mat = spd_matrices(rng, 1, mesh.dim, kind == "spd + antisymmetric")[0]
    K = stiffness_csr(mesh, ms.Coefficient.constant(mesh, mat))
    tiled = ms.Coefficient.from_matrices(mesh, np.tile(mat, (mesh.n_elements, 1, 1)))
    assert tiled.matrices.strides[0] != 0
    general = stiffness_csr(mesh, tiled)
    assert np.array_equal(K.data, general.data)
    assert np.array_equal(K.indices, general.indices)
    assert np.array_equal(K.indptr, general.indptr)


def test_constant_coefficient_assembly_builds_no_element_gradients():
    # a constant A, and the mass, need the geometry of one cell, not even the
    # chunk tile.  Assembly scatters whole cells per chunk, and one tile of
    # cells serves every chunk, so _CHUNK must stay a multiple of a cell's
    # element count: 2 in 2-D, 1 in 1-D.
    assert _CHUNK % 2 == 0
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    stiffness_csr(mesh, ms.Coefficient.identity(mesh))
    mass_csr(mesh)
    assert "_chunk_tile" not in mesh.__dict__


@settings(max_examples=200, deadline=None)
@given(problem=assembly_problems())
def test_assembly_matches_coo_oracle(problem):
    # the chunked CSR assembly against the COO one it replaced: the same
    # pattern once the COO's explicit zeros are dropped, and entries to 1e-15
    # relative.  An off-diagonal entry sums at most two element values, so
    # its bits cannot depend on the order; the diagonal sums up to six, which
    # the COO -> CSR conversion adds in the order its unstable sort of each
    # row leaves them.  They agree bit for bit where every partial sum is exact.
    mesh, A, mu, bit_exact = problem
    op = ms.assemble_stiffness(mesh, A, mu)
    old_op = fem._restrict(stiffness_csr_coo(mesh, A), mesh.free_nodes)
    if mu != 0.0:
        old_op = (old_op + sp.diags(mu * op.ml)).tocsr()
    pairs = [(stiffness_csr(mesh, A), stiffness_csr_coo(mesh, A)),
             (op.matrix, old_op), (mass_csr(mesh), mass_csr_coo(mesh))]
    for new, old in pairs:
        assert np.all(new.data != 0.0)
        old = old.copy()
        old.eliminate_zeros()
        old.sort_indices()
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)
        off = new.tocoo().row != new.indices
        assert np.array_equal(new.data[off], old.data[off])
        if bit_exact:
            assert np.array_equal(new.data, old.data)
        else:
            assert np.all(np.abs(new.data - old.data) <= 1e-15 * np.abs(old.data))


@st.composite
def energy_problems(draw):
    """``(mesh, A, mu, seed)``: a mesh from :func:`structured_meshes` and an ``A`` per element.

    Each element's ``A`` is a random positive multiple of the identity, a
    random symmetric positive definite matrix, or one plus a random
    antisymmetric matrix; ``mu`` is zero or random.
    """
    mesh = draw(structured_meshes())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["isotropic", "spd", "nonsymmetric"]))
    if kind == "isotropic":
        a = np.exp(rng.uniform(-3.0, 3.0, mesh.n_elements))
        mats = np.einsum("e,ij->eij", a, np.eye(mesh.dim))
    else:
        mats = spd_matrices(rng, mesh.n_elements, mesh.dim, kind == "nonsymmetric")
    mu = draw(st.sampled_from([0.0, draw(st.floats(0.0, 1e3))]))
    return mesh, ms.Coefficient.from_matrices(mesh, mats), mu, seed


@settings(max_examples=100, deadline=None)
@given(problem=energy_problems())
def test_operator_quadratic_form_is_the_energy(problem):
    # the solver's energy identity reads x'Kx off the operator: it must be the
    # A-energy of u plus the lumped absorption mu sum m_i u_i**2
    mesh, A, mu, seed = problem
    op = ms.assemble_stiffness(mesh, A, mu)
    x = np.random.default_rng(seed).standard_normal(op.n)
    u = ms.FieldFunction(mesh, op.scatter(x))
    energy = ms.energy_product(u, A) + mu * float(np.sum(lumped_mass(mesh) * u.values ** 2))
    assert fem._dot(x, op.matrix @ x) == pytest.approx(energy, rel=1e-12)


@pytest.mark.parametrize("mesh", [ms.build_rectangle_mesh(1.0, 1.0, 33, 33),
                                  ms.build_rectangle_mesh(2.0, 1.0, 33, 17),
                                  ms.build_interval_mesh(1.0, 17)],
                         ids=["square", "rectangle", "interval"])
def test_isotropic_stiffness_stores_no_zeros(mesh):
    # the diagonal n00-n11 couplings of an isotropic A are exact zeros; the
    # COO assembly stored them (two per cell, 2048 of the 7361 entries on
    # 33**2), this one does not, and every product with the matrix keeps its bits
    A = ms.Coefficient.isotropic(mesh, 3.0)
    K, old = stiffness_csr(mesh, A), stiffness_csr_coo(mesh, A)
    assert np.all(K.data != 0.0)
    assert K.nnz == np.count_nonzero(old.data)
    if mesh.nx == 33 and mesh.ny == 33:
        assert old.nnz - K.nnz == 2 * 32 * 32
    x = np.random.default_rng(11).standard_normal(mesh.n_nodes)
    assert np.array_equal(K @ x, old @ x)


def test_stiffness_memory_is_a_small_multiple_of_the_matrix(traced_peak):
    # the COO assembly peaked at 10x the CSR it returned (two int64 index
    # arrays and the values of 9 entries per element, then the CSR copy);
    # the chunked one measures 1.9x: its (nodes x stencil) table of values,
    # then the compression into CSR.  A per-element A adds one chunk's
    # geometry tile and element matrices: 2.4x (3.9x with whole-mesh tiles)
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    per_element = np.tile(np.eye(2), (mesh.n_elements, 1, 1))
    for A in (ms.Coefficient.identity(mesh), ms.Coefficient.from_matrices(mesh, per_element)):
        K, peak = traced_peak(stiffness_csr, mesh, A)
        assert peak <= 2.5 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


@pytest.fixture(scope="module")
def field_513():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 513, 513)
    return ms.FieldFunction(mesh, np.random.default_rng(3).standard_normal(mesh.n_nodes))


@pytest.mark.parametrize("name", ["h1_seminorm", "energy_product", "l2_norm", "lumped_mass"])
def test_norms_read_geometry_a_chunk_at_a_time(traced_peak, field_513, name):
    # one (n_elements,) array of per-element values (4 MiB at 513**2) plus one
    # chunk's temporaries; with whole-mesh geometry tiles and gathers these
    # peaked at 44, 20, 32 and 18 MiB
    u, mesh = field_513, field_513.mesh
    args = {"h1_seminorm": (u,), "energy_product": (u, ms.Coefficient.identity(mesh)),
            "l2_norm": (u,), "lumped_mass": (mesh,)}[name]
    _, peak = traced_peak(getattr(ms, name), *args)
    assert peak <= 8 * 2 ** 20


def test_constant_coefficient_is_stored_once(traced_peak):
    # a constant A is one d x d matrix, broadcast over the elements
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    A, peak = traced_peak(ms.Coefficient.identity, mesh)
    assert A.matrices.shape == (mesh.n_elements, 2, 2) and not A.matrices.flags.writeable
    assert A.matrices.strides[0] == 0  # every element reads the same d * d floats
    assert peak < 2 ** 16  # one matrix per element would be 4 MiB
    assert A.alpha == 1.0 and A.is_symmetric


def test_constant_coefficient_keeps_its_own_copy(unit_square_9):
    # the broadcast view is of a private copy: the caller's array can change
    mat = np.array([[2.0, 0.5], [0.7, 1.0]])
    A = ms.Coefficient.constant(unit_square_9, mat)
    mat[0, 0] = -5.0
    assert np.all(A.matrices[:, 0, 0] == 2.0)
    assert not A.is_symmetric
    assert A.alpha == pytest.approx(1.5 - np.sqrt(0.5 ** 2 + 0.6 ** 2))


def test_norms_zero_field(unit_square_9):
    u = ms.FieldFunction.zeros(unit_square_9)
    n = ms.norms(u, ms.Coefficient.identity(unit_square_9))
    assert n == (0.0, 0.0, 0.0, 0.0)


def test_norms_linear_profile_1d(unit_interval_257):
    u = ms.FieldFunction.from_callable(unit_interval_257, lambda x: x)
    n = ms.norms(u, ms.Coefficient.identity(unit_interval_257))
    assert n.h1semi == pytest.approx(1.0, rel=1e-13)
    assert n.linf == 1.0


def test_norms_sine_l2(unit_square_65, identity_65):
    u = ms.FieldFunction.from_callable(
        unit_square_65, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    n = ms.norms(u, identity_65)
    assert abs(n.l2 - 0.5) <= 1e-3
    assert n.energy == pytest.approx(n.h1semi ** 2, rel=1e-12)


def test_galerkin_residual_orthogonality(unit_square_65, identity_65):
    # residual of the converged solve is orthogonal to the discrete space
    m = unit_square_65
    K = ms.assemble_stiffness(m, identity_65)
    rhs = nodal_load(m, lambda x, y: x + y)
    x, stats = ms.solve_cg(K, rhs, tol=1e-12)
    r = rhs - K.matrix @ x
    assert np.linalg.norm(r) <= 1e-11 * np.linalg.norm(rhs)


def test_eigen_nonconvergence_carries_history(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    M = ms.assemble_mass(unit_square_65)
    with pytest.raises(ms.ConvergenceError) as err:
        ms.first_eigenpair(K, M, tol=1e-16, maxit=2)
    assert len(err.value.history) >= 2


def test_cg_is_deterministic(unit_square_65, identity_65):
    K = ms.assemble_stiffness(unit_square_65, identity_65)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(K.n)
    x1, s1 = ms.solve_cg(K, rhs.copy())
    x2, s2 = ms.solve_cg(K, rhs.copy())
    assert np.array_equal(x1, x2)
    assert s1.iterations == s2.iterations
