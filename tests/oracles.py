"""Independent oracles the solver is tested against.

These deliberately avoid every package code path they are used to check:
the two-point boundary value oracle integrates the ODE with an adaptive
Runge-Kutta scheme and bisection, the disk-node count enumerates grid
points directly, and the hole lattice is searched hole by hole.  The
element table is built whole by the formula the mesh builders used when
they stored it, and the element geometry is each element's own formula,
evaluated on every element rather than on one cell.  The
assembly, the multigrid prolongation and the field-CSV writer are the
earlier, direct implementations: a COO matrix with nine entries per element
(two per fine node for the prolongation), summed by the COO -> CSR
conversion, and ``csv.writer`` row by row.  The slope-weighted Picard level
is the earlier damping of ``solve_level``: explicit steps scaled per node by
slope weights, under an adaptive step factor, a step cap and an oscillation
test.  The plain Picard level is ``solve_level`` without the Anderson
acceleration of its linear tail: every step is ``x + theta (v - x)``.  The
ring-buffer Anderson tail is the earlier ``solver._AndersonTail``, which
kept its differences in two ring buffers and computed each Gram entry when
its difference arrived.  The CG loop and V-cycle are the earlier ones,
with a fresh vector for every product and update.  The sampled checks of
``F`` (envelope, monotonicity and domination) are the earlier ones, which
evaluate ``g`` at every node for each sample point through ``evaluate_at``:
``F.evaluate`` of a constant nodal vector.
The inverse power is the earlier ``PowerLaw.__call__``, which put 1 in
place of each ``s <= 0`` and multiplied by a mask of ones and infinities.
"""

import csv
import importlib
import math
from functools import partial
from unittest import mock

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from mildsing import solver
from mildsing.fem import CGStats, SparseOperator, _dot, solve_cg
from mildsing.mesh import CLASS_NAMES, FLOAT_FMT, HOLE, OUTER_BOUNDARY, FieldFunction
from mildsing.nonlinearity import _DOMINATION_GRID, _ENVELOPE_GRID, _MONO_GRID, Nonlinearity
from mildsing.solver import (
    _CG_TOL,
    _FORCING,
    _MAX_INNER,
    _SHIFT_CAP,
    LevelStats,
    SolverConfig,
    _capped,
    _equation_residual,
    _TAIL_DEPTH,
    _TAIL_DROP,
    _TAIL_RATIO,
    _TAIL_STEPS,
    _check_level,
    _slope_shift,
)

#: the module, which the package's ``nonlinearity`` function shadows as an attribute
nonlinearity_module = importlib.import_module("mildsing.nonlinearity")

#: closed-form peak of -u'' = u**-gamma on (0, 1), from the energy
#: quadrature identity int_0^peak du / sqrt(2 (V(peak) - V(u))) = 1/2
PEAK_GAMMA_1 = 1.0 / np.sqrt(2.0 * np.pi)
PEAK_GAMMA_HALF = (3.0 / 8.0) ** (4.0 / 3.0)


def shooting_solution(gamma: float, xs: np.ndarray) -> np.ndarray:
    """Solve ``-u'' = u**-gamma``, ``u(0) = u(1) = 0`` by midpoint shooting.

    Integrates from the symmetry point ``x = 1/2`` with ``u(1/2) = m``,
    ``u'(1/2) = 0`` and bisects on ``m`` so that ``u`` vanishes exactly at
    ``x = 1``; the left half is the mirror image.
    """

    # integration stops at u = 1e-9 (position error ~ u / |u'| < 1e-9),
    # and the right-hand side is floored there so steps never blow up
    floor = 1e-9

    def rhs(x, y):
        u = max(y[0], floor)
        return [y[1], -u ** (-gamma)]

    def floor_event(x, y):
        return y[0] - floor

    floor_event.terminal = True
    floor_event.direction = -1

    def crossing(m):
        sol = solve_ivp(rhs, [0.5, 1.2], [m, 0.0], events=floor_event,
                        rtol=1e-12, atol=1e-14, dense_output=True, max_step=0.02)
        x_cross = sol.t_events[0][0] if sol.t_events[0].size else np.inf
        return x_cross, sol

    lo, hi = 0.05, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        x_cross, _ = crossing(mid)
        if x_cross < 1.0:
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    _, sol = crossing(m)

    xs = np.asarray(xs, dtype=float)
    folded = 0.5 + np.abs(xs - 0.5)
    out = np.zeros_like(folded)
    inside = folded <= sol.t[-1]
    out[inside] = sol.sol(folded[inside])[0]
    return np.maximum(out, 0.0)


def nodes_in_disk(mesh, center, radius) -> int:
    """Brute-force count of mesh nodes within ``radius`` of ``center``."""
    d2 = (mesh.nodes[:, 0] - center[0]) ** 2 + (mesh.nodes[:, 1] - center[1]) ** 2
    return int(np.count_nonzero(d2 <= radius * radius))


def _lattice_by_search(mesh, epsilon):
    """Hole centers, and each node's nearest one (lowest index on ties) and squared distance."""
    cell = 2.0 * epsilon
    mx, my = mesh.width / cell, mesh.height / cell
    if abs(mx - round(mx)) > 1e-9 or abs(my - round(my)) > 1e-9:
        raise ValueError(
            f"domain {mesh.width} x {mesh.height} is not a whole number of 2*epsilon={cell} cells"
        )
    cx = (2 * np.arange(int(round(mx))) + 1) * epsilon
    cy = (2 * np.arange(int(round(my))) + 1) * epsilon
    CX, CY = np.meshgrid(cx, cy, indexing="xy")
    centers = np.column_stack([CX.ravel(), CY.ravel()])
    d2 = np.full(mesh.n_nodes, np.inf)
    nearest = np.full(mesh.n_nodes, -1, dtype=np.int64)
    for k, c in enumerate(centers):
        dk = (mesh.nodes[:, 0] - c[0]) ** 2 + (mesh.nodes[:, 1] - c[1]) ** 2
        closer = dk < d2
        d2[closer] = dk[closer]
        nearest[closer] = k
    return centers, nearest, d2


def perforation_by_search(mesh, epsilon, radius, strategy):
    """``(node_class, centers, nodes_per_hole, radius_h per hole)`` of a disk-hole lattice.

    Searches every hole center for every node (resolved holes) and every node
    for every center (collapsed holes), and raises ``perforate``'s
    ``ValueError`` for the same inadmissible inputs, with the same message.
    """
    centers, nearest, d2 = _lattice_by_search(mesh, epsilon)
    margin = np.minimum.reduce(
        [centers[:, 0], mesh.width - centers[:, 0], centers[:, 1], mesh.height - centers[:, 1]]
    )
    if np.any(margin <= radius):
        bad = int(np.argmin(margin))
        raise ValueError(
            f"hole at {tuple(centers[bad])} with radius {radius} touches the outer boundary"
        )
    if centers.shape[0] > 1 and 2.0 * epsilon <= 2.0 * radius:
        raise ValueError(f"holes of radius {radius} overlap at lattice spacing {2.0 * epsilon}")
    h = mesh.h
    if strategy == "resolved":
        if h > radius / 2.0:
            raise ValueError(f"resolved strategy needs h <= r/2, got h={h!r}, r={radius!r}")
        hole = d2 <= radius * radius
    else:
        if radius >= h:
            raise ValueError(f"collapsed strategy needs r < h, got h={h!r}, r={radius!r}")
        hole = np.zeros(mesh.n_nodes, dtype=bool)
        for c in centers:
            dk = (mesh.nodes[:, 0] - c[0]) ** 2 + (mesh.nodes[:, 1] - c[1]) ** 2
            hole[int(np.argmin(dk))] = True
    if np.any(hole & (mesh.node_class == OUTER_BOUNDARY)):
        raise ValueError("a hole swallowed an outer boundary node")
    node_class = np.where(hole, HOLE, mesh.node_class).astype(np.int8)
    counts = np.bincount(nearest[hole], minlength=centers.shape[0])
    radius_h = np.zeros(centers.shape[0])
    for k in range(centers.shape[0]):
        sel = hole & (nearest == k)
        if sel.any():
            radius_h[k] = np.sqrt(d2[sel].max()) / h
    return node_class, centers, counts, radius_h


def corrector_by_search(mesh_eps, epsilon, radius, rho):
    """``ln(d / r) / ln(rho / r)`` clamped to ``[0, 1]``, zero on hole nodes, ``d`` by search."""
    d = np.sqrt(_lattice_by_search(mesh_eps, epsilon)[2])
    with np.errstate(divide="ignore"):
        w = np.clip(np.log(d / radius) / math.log(rho / radius), 0.0, 1.0)
    w[mesh_eps.node_class == HOLE] = 0.0
    return w


def element_table(mesh):
    """The ``(n_elements, dim + 1)`` vertex indices, built whole.

    Cell ``(i, j)`` with lower-left node ``n00 = j * nx + i``: lower triangle
    ``(n00, n10, n11)``, then upper triangle ``(n00, n11, n01)``; segment
    ``(i, i + 1)`` in 1-D.
    """
    nx, ny = mesh.nx, mesh.ny
    if mesh.dim == 1:
        idx = np.arange(nx - 1)
        return np.column_stack([idx, idx + 1]).astype(np.int64)
    n00 = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).reshape(-1, 1, 1)
    elements = np.empty((n00.size, 2, 3), dtype=np.int64)
    np.add(n00, [[0, 1, nx + 1], [0, nx + 1, nx]], out=elements)
    return elements.reshape(-1, 3)


def element_areas(mesh):
    """Element measures from each element's own vertices: triangle areas, segment lengths."""
    verts = mesh.nodes[element_table(mesh)]
    if mesh.dim == 1:
        return np.abs(verts[:, 1, 0] - verts[:, 0, 0])
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def element_grads(mesh):
    """P1 basis gradients from each element's own vertices, shape ``(n_elements, dim + 1, dim)``."""
    verts = mesh.nodes[element_table(mesh)]
    out = np.empty((mesh.n_elements, mesh.dim + 1, mesh.dim))
    if mesh.dim == 1:
        h = verts[:, 1, 0] - verts[:, 0, 0]
        out[:, 0, 0] = -1.0 / h
        out[:, 1, 0] = 1.0 / h
        return out
    x = verts[..., 0]
    y = verts[..., 1]
    two_a = 2.0 * element_areas(mesh)[:, None]
    # grad phi_i = (y_j - y_k, x_k - x_j) / (2 |T|), (i, j, k) cyclic
    out[:, :, 0] = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / two_a
    out[:, :, 1] = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / two_a
    return out


def tiled_cell(mesh):
    """``(areas, grads)`` of every element: :attr:`Mesh.cell`'s, repeated over the cells."""
    areas, grads = mesh.cell
    reps = mesh.n_elements // mesh.dim
    return np.tile(areas, reps), np.tile(grads, (reps, 1, 1))


def stiffness_csr_coo(mesh, coeff):
    """Full stiffness matrix ``K_ij = sum_T |T| (A grad phi_j) . grad phi_i``."""
    areas, grads = tiled_cell(mesh)
    local = np.einsum("e,evd,edc,ewc->evw", areas, grads, coeff.matrices, grads)
    if coeff.is_symmetric:
        # contraction order is not symmetry-preserving at the last ulp
        local = 0.5 * (local + local.transpose(0, 2, 1))
    nv = mesh.dim + 1
    elements = element_table(mesh)
    rows = np.repeat(elements, nv, axis=1).ravel()
    cols = np.tile(elements, (1, nv)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    return K.tocsr()


def mass_csr_coo(mesh):
    """Full consistent P1 mass matrix (exact quadrature)."""
    nv = mesh.dim + 1
    local_unit = (np.ones((nv, nv)) + np.eye(nv)) / ((nv) * (nv + 1))
    local = tiled_cell(mesh)[0][:, None, None] * local_unit
    elements = element_table(mesh)
    rows = np.repeat(elements, nv, axis=1).ravel()
    cols = np.tile(elements, (1, nv)).ravel()
    M = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    return M.tocsr()


def prolongation_coo(shape):
    """P1 interpolation onto ``shape`` from every other node: ``0.5`` at both parents per node.

    On an even axis the last coarse node sits on the last fine node, whose parents
    are it and the coarse node before it.
    """
    coarse = tuple(s // 2 + 1 for s in shape)
    idx = np.indices(shape).reshape(len(shape), -1)
    rows = np.tile(np.arange(idx.shape[1]), 2)
    last = np.array(coarse)[:, None] - 1
    cols = np.concatenate([np.ravel_multi_index(idx // 2, coarse),
                           np.ravel_multi_index(np.minimum((idx + 1) // 2, last), coarse)])
    P = sp.coo_matrix((np.full(rows.size, 0.5), (rows, cols)),
                      shape=(idx.shape[1], math.prod(coarse)))
    return P.tocsr()


def _matvec_fresh(M, x):
    y = np.zeros(M.shape[0])
    csr_matvec(M.shape[0], M.shape[1], M.indptr, M.indices, M.data, x, y)
    return y


def _rmatvec_fresh(P, r):
    y = np.zeros(P.shape[1])
    csc_matvec(P.shape[1], P.shape[0], P.indptr, P.indices, P.data, r, y)
    return y


def vcycle_fresh(A, w, levels, coarse_inv, r, k=0):
    """``fem._vcycle`` with a fresh vector for each residual and product."""
    if k == len(levels):
        return np.einsum("ij,j->i", coarse_inv, r)
    P, A_c, w_c = levels[k][:3]
    x = w * r
    x += _matvec_fresh(P, vcycle_fresh(A_c, w_c, levels, coarse_inv,
                                       _rmatvec_fresh(P, r - _matvec_fresh(A, x)), k + 1))
    x += w * (r - _matvec_fresh(A, x))
    return x


def solve_cg_fresh(op, rhs, tol=1e-10, maxit=None, x0=None, forcing=0.0):
    """``fem.solve_cg`` with new vectors for ``r``, ``p`` and ``A p``, preconditioned by
    :func:`vcycle_fresh`."""
    def precond(r):
        return vcycle_fresh(op.matrix, op._weights, *op._hierarchy, r)

    A = op.matrix
    n = A.shape[0]
    rhs = np.asarray(rhs, dtype=float)
    if maxit is None:
        maxit = max(100, int(50.0 * np.sqrt(n)) + 1)
    bnorm = math.sqrt(_dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros(n), CGStats(0)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = rhs - _matvec_fresh(A, x)
    res = math.sqrt(_dot(r, r))
    stop = max(tol * bnorm, forcing * res)
    if res <= stop:
        return x, CGStats(0)
    z = precond(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, maxit + 1):
        Ap = _matvec_fresh(A, p)
        pAp = _dot(p, Ap)
        a = rz / pAp
        x += a * p
        r -= a * Ap
        res = math.sqrt(_dot(r, r))
        if res <= stop:
            return x, CGStats(it)
        z = precond(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError(f"oracle CG stalled after {maxit} iterations")


def write_field_csv_rows(path, field):
    """Dump ``(node index, x, y, class, value)`` rows with 17-digit floats."""
    mesh, values = field.mesh, field.values
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "x", "y", "class", "value"])
        y = mesh.nodes[:, 1] if mesh.dim == 2 else np.zeros(mesh.n_nodes)
        for i in range(mesh.n_nodes):
            writer.writerow(
                [
                    i,
                    FLOAT_FMT % mesh.nodes[i, 0],
                    FLOAT_FMT % y[i],
                    CLASS_NAMES[int(mesh.node_class[i])],
                    FLOAT_FMT % values[i],
                ]
            )


#: ``c0`` of the slope weights ``1 / (1 + c0 m_i |dF/ds| / K_ii)``
_SLOPE_DAMPING = 2.0
#: initial Picard damping factor; also the step cap while stiff nodes remain
_THETA0 = 0.5


def _slope_weights(F: Nonlinearity, s: np.ndarray, n: float, op: SparseOperator) -> np.ndarray:
    """Per-node damping weights ``1 / (1 + _SLOPE_DAMPING m_i |dF/ds| / K_ii)`` at ``s >= 0``.

    Oscillating nonlinearities carry slopes of either sign that dwarf the
    local operator stiffness in the thin band where the solution is small;
    a single global damping factor provably cannot stabilize those nodes
    (the fixed-point Jacobian acquires eigenvalues beyond 1), while
    slope-scaled local damping lets each such node settle into an
    attracting branch.  The slope of the capped right-hand side is probed
    by differences small enough to resolve the oscillation scale ``s**2``.
    """
    free = op.free
    eps = np.minimum(1e-3 * np.maximum(s, 1e-8), 0.02 * s * s) + 1e-14
    up = _capped(F.evaluate, s + eps, n)
    dn = _capped(F.evaluate, np.maximum(s - eps, 0.0), n)
    slope = np.abs(up - dn)[free] / (2.0 * eps[free])
    return 1.0 / (1.0 + _SLOPE_DAMPING * op.ml * slope / op.diagonal)


def solve_level_weighted(op: SparseOperator, F: Nonlinearity, n: float,
                         cfg: SolverConfig = SolverConfig(),
                         u0: FieldFunction | None = None) -> tuple[FieldFunction, LevelStats]:
    """Damped Picard iteration for the level-``n`` capped problem on ``op``.

    ``op`` is the assembled operator from ``assemble_stiffness(mesh, coeff,
    mu)``.  Non-convergence within ``_MAX_INNER`` steps is reported in the
    returned stats (``converged=False`` with the residual oscillation
    amplitude), not raised: near-degenerate right-hand sides legitimately
    stall and the caller decides.  Raises ``ValueError`` when ``n < 1``.
    """
    _check_level(n)
    free = op.free

    x = np.zeros(free.size) if u0 is None else u0.values[free].copy()
    u_full = np.zeros(op.mesh.n_nodes)  # F is evaluated at every node

    theta = _THETA0
    res_prev = np.inf
    res = np.inf
    cg_total = 0
    k = 0
    converged = False
    d_prev = None
    for k in range(1, _MAX_INNER + 1):
        u_full[free] = x
        s = np.maximum(u_full, 0.0)
        b = op.ml * _capped(F.evaluate, s, n)[free]
        v, cg = solve_cg(op, b, tol=_CG_TOL, x0=x, forcing=_FORCING)
        cg_total += cg.iterations
        d = v - x
        res = op.h1(d)
        w = _slope_weights(F, s, n, op)
        # stiff nodes present: full steps eject them from the attracting
        # branches they settle into at moderate damping
        theta_cap = _THETA0 if float(w.min(initial=1.0)) < 0.9 else 1.0
        x = x + theta * (w * d)
        if res <= cfg.inner_tol * op.h1(x) + cfg.inner_tol_abs:
            converged = True
            break
        oscillatory = d_prev is not None and _dot(d, d_prev) < 0.0
        # weights already stabilize stiff nodes; only back off on gross
        # divergence or a sign-flipping near-neutral mode, and never
        # freeze (the capture of oscillatory nodes needs sustained steps)
        if res > 1.5 * res_prev:
            theta = max(0.5 * theta, 0.1 * _THETA0)
        elif res > 0.97 * res_prev and oscillatory:
            theta = max(0.5 * theta, 0.5 * _THETA0)
        else:
            theta = min(1.2 * theta, theta_cap)
        res_prev = res
        d_prev = d

    F_free = partial(evaluate_masked, F.g, F.f[free], F.l[free])
    stats = LevelStats(level=n, iterations=k, residual=float(res), converged=converged,
                       theta=theta, cg_iterations=cg_total, accelerated=0,
                       equation_residual=_equation_residual(op, F_free, x, n), estimated=False)
    return FieldFunction(op.mesh, op.scatter(x)), stats


def solve_singular_weighted(mesh, coeff, F, cfg=SolverConfig(), mu=0.0):
    """``solve_singular``, with every truncation level solved by :func:`solve_level_weighted`."""
    with mock.patch.object(solver, "solve_level", solve_level_weighted):
        return solver.solve_singular(mesh, coeff, F, cfg, mu=mu)


def solve_level_plain(op: SparseOperator, F: Nonlinearity, n: float,
                      cfg: SolverConfig = SolverConfig(),
                      u0: FieldFunction | None = None,
                      estimate: bool = True) -> tuple[FieldFunction, LevelStats]:
    """``solve_level`` with every step the plain damped step ``x + theta d``.

    ``theta`` follows the solver's damping rule, its 2-cycle test included,
    a negative node gets no slope shift, the shift is capped at
    ``_SHIFT_CAP`` times ``K``'s diagonal, the CG forcing of each step after
    the second loosens with the ratio ``rho < 0.95`` of its two
    predecessors' H1 steps, a level also stops on the contraction estimate
    of two undamped steps with ratios below ``_TAIL_RATIO[0]`` once its
    iterate solves the equation to ``outer_tol``, and a converged level also
    solves its equation to ``100 outer_tol``, as in ``solver.solve_level``.
    With ``estimate=False`` every level stops on a step below ``inner_tol``,
    the confirming step included: the stop rule before the estimate.
    """
    _check_level(n)
    F_free = partial(evaluate_masked, F.g, F.f[op.free], F.l[op.free])  # gathered once
    x = np.zeros(op.n) if u0 is None else u0.values[op.free]

    theta = 1.0
    forcing = _FORCING
    res_prev = np.inf
    rho_prev = np.inf
    res = np.inf
    d_prev = None
    cg_total = 0
    k = 0
    converged = estimated = False
    for k in range(1, _MAX_INNER + 1):
        s = np.maximum(x, 0.0)
        shift = _slope_shift(F_free, s, n, op.ml)
        shift[x < 0.0] = 0.0
        np.minimum(shift, _SHIFT_CAP * op.diagonal, out=shift)
        b = op.ml * _capped(F_free, s, n) + shift * x
        v, cg = solve_cg(op._shifted(shift), b, tol=_CG_TOL, x0=x, forcing=forcing)
        cg_total += cg.iterations
        d = v - x
        res = op.h1(d)
        x = x + theta * d
        tol = cfg.inner_tol * op.h1(x) + cfg.inner_tol_abs
        if res <= tol:
            converged = True
            break
        rho = res / res_prev
        if estimate and theta == 1.0 and rho < _TAIL_RATIO[0] and rho_prev < _TAIL_RATIO[0] \
                and res * rho / (1.0 - rho) <= tol:
            equation_residual = _equation_residual(op, F_free, x, n)
            if equation_residual <= cfg.outer_tol:
                converged = estimated = True
                break
        cycle = res >= 0.9 * res_prev and _dot(d, d_prev) < 0.0
        theta = max(0.5 * theta, 0.05) if res > 1.5 * res_prev or cycle else min(1.2 * theta, 1.0)
        forcing = _FORCING * max(10.0 * rho, 1.0) if rho < 0.95 else _FORCING
        res_prev = res
        rho_prev = rho
        d_prev = d

    if not estimated:
        equation_residual = _equation_residual(op, F_free, x, n)
    stats = LevelStats(level=n, iterations=k, residual=float(res),
                       converged=converged and equation_residual <= 100.0 * cfg.outer_tol,
                       theta=theta, cg_iterations=cg_total, accelerated=0,
                       equation_residual=equation_residual, estimated=estimated)
    return FieldFunction(op.mesh, op.scatter(x)), stats


def solve_singular_plain(mesh, coeff, F, cfg=SolverConfig(), u0=None, mu=0.0, estimate=True):
    """``solve_singular``, with every truncation level solved by :func:`solve_level_plain`."""
    with mock.patch.object(solver, "solve_level", partial(solve_level_plain, estimate=estimate)):
        return solver.solve_singular(mesh, coeff, F, cfg, u0=u0, mu=mu)


class AndersonTailRing:
    """Type-II Anderson mixing (Walker & Ni 2011) of a level's linear tail.

    ``step(g, d)`` records the plain step ``g = x + d`` from ``x`` and its
    residual ``d``; after ``_TAIL_STEPS`` consecutive records it returns
    ``g - dG gamma`` instead of ``g``, with ``gamma`` the least-squares
    coefficients of ``d`` on the differences ``dD`` of the last
    ``_TAIL_DEPTH + 1`` residuals, and ``dG`` those of the plain steps.  The
    differences live in two ring buffers, allocated by a level's first
    difference, so a level that never records two steps in a row holds no
    extra memory.  The normal equations use the Gram matrix of ``dD``, each
    entry a ``_dot`` computed once when its difference arrives, and drop the
    differences that are nearly combinations of newer ones: a tail ruled by
    one mode makes ``dD`` nearly collinear, and on a 5**2 grid exactly so.
    ``clear`` forgets the tail; ``accelerated`` counts the Anderson steps.
    """

    def __init__(self) -> None:
        self.dG = self.dD = None  # allocated by the first difference of the level
        self.gram = [[0.0] * _TAIL_DEPTH for _ in range(_TAIL_DEPTH)]
        self.accelerated = 0
        self.clear()

    def clear(self) -> None:
        self.g = self.d = None
        self.filled = self.head = self.streak = 0

    def step(self, g: np.ndarray, d: np.ndarray) -> np.ndarray:
        if self.g is not None:
            if self.dG is None:
                self.dG, self.dD = np.empty((2, _TAIL_DEPTH, g.size))
            j = self.head
            np.subtract(g, self.g, out=self.dG[j])
            np.subtract(d, self.d, out=self.dD[j])
            self.filled = min(self.filled + 1, _TAIL_DEPTH)
            for i in range(self.filled):
                self.gram[i][j] = self.gram[j][i] = _dot(self.dD[i], self.dD[j])
            self.head = (j + 1) % _TAIL_DEPTH
        self.g, self.d = g, d
        self.streak += 1
        if self.streak <= _TAIL_STEPS:
            return g
        newest_first = [(self.head - 1 - k) % _TAIL_DEPTH for k in range(self.filled)]
        out = g.copy()
        for i, gamma in zip(newest_first, self._coefficients(newest_first, d)):
            out -= gamma * self.dG[i]
        self.accelerated += 1
        return out

    def _coefficients(self, order: list[int], d: np.ndarray) -> list[float]:
        """``gamma`` of the normal equations ``G gamma = dD d`` over the slots ``order``.

        Gaussian elimination in that order, stable on the positive
        semidefinite ``G``, in Python floats: a first LAPACK call would
        allocate OpenBLAS's work buffers, about 1 MB of resident memory.  A
        difference whose pivot, its squared distance from the span of the
        ones kept before it, is at most ``_TAIL_DROP`` of its squared length
        is dropped with ``gamma = 0``.
        """
        m = len(order)
        rows = [[self.gram[i][j] for j in order] + [_dot(self.dD[i], d)] for i in order]
        kept = []
        for i in range(m):
            if rows[i][i] <= _TAIL_DROP * self.gram[order[i]][order[i]]:
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


def evaluate_masked(g, f: np.ndarray, l: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``F = l + f g(s)`` where ``f > 0``, else ``l``; ``g`` runs only at the ``f > 0`` nodes."""
    out = l.copy()
    pos = f > 0.0
    if pos.any():
        out[pos] += f[pos] * g(s[pos])
    return out


def evaluate_at(F: Nonlinearity, s: float) -> np.ndarray:
    """Nodal values of ``F(x, s)`` for one scalar ``s``: ``F.evaluate`` of a constant vector."""
    return F.evaluate(np.full(F.mesh.n_nodes, float(s)))


def check_envelope_per_node(F: Nonlinearity) -> None:
    """``F(x, s) <= h(x) (s**-gamma + 1) (1 + 1e-12)``, with ``evaluate_at(F, s)`` per point."""
    for s in _ENVELOPE_GRID:
        lhs = evaluate_at(F, s)
        rhs = F.h * (s ** (-F.gamma) + 1.0) * (1.0 + 1e-12)
        if np.any(lhs > rhs):
            i = int(np.argmax(lhs - rhs))
            raise ValueError(
                f"envelope violated at node {i}, s={s!r}: F={lhs[i]!r} > h*(s^-gamma+1)={rhs[i]!r}"
            )


def check_monotonicity_per_node(F: Nonlinearity) -> None:
    """``F(x, s) - lambda_mono s`` nonincreasing, with ``evaluate_at(F, s)`` per sample point."""
    lam = F.lambda_mono
    prev = evaluate_at(F, _MONO_GRID[0]) - lam * _MONO_GRID[0]
    for s in _MONO_GRID[1:]:
        cur = evaluate_at(F, s) - lam * s
        if np.any(cur > prev + 1e-12):
            i = int(np.argmax(cur - prev))
            raise ValueError(
                f"F - lambda*s increases at node {i} near s={s!r} with lambda={lam!r}"
            )
        prev = cur


def nonlinearity_per_node(mesh, g, **kwargs) -> Nonlinearity:
    """``nonlinearity(mesh, g, **kwargs)`` validated by the two per-node checks above."""
    with mock.patch.object(nonlinearity_module, "_check_envelope", check_envelope_per_node), \
            mock.patch.object(nonlinearity_module, "_check_monotonicity",
                              check_monotonicity_per_node):
        return nonlinearity_module.nonlinearity(mesh, g, **kwargs)


def check_dominated_per_node(F1: Nonlinearity, F2: Nonlinearity) -> None:
    """``F1 <= F2`` at every node, with ``evaluate_at`` on both sides per sample point."""
    for s in _DOMINATION_GRID:
        a = evaluate_at(F1, s)
        b = evaluate_at(F2, s)
        bad = a > b * (1.0 + 1e-12) + 1e-300
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"F1 <= F2 fails at node {i}, s={s!r}: F1={a[i]!r} > F2={b[i]!r}"
            )


def power_law_masked(gamma: float, s) -> np.ndarray:
    """``s**-gamma`` for ``s > 0`` and ``+inf`` elsewhere, through two ``np.where`` masks."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(s > 0.0, s, 1.0) ** (-gamma) * np.where(s > 0.0, 1.0, np.inf)
