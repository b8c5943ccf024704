"""P1 Galerkin assembly, preconditioned CG, discrete norms and the first eigenpair.

The stiffness matrix uses exact quadrature (P1 gradients are constant per
element), and is assembled straight into CSR one chunk of elements at a
time, so no array of nine entries per element is ever built; a constant
coefficient repeats the element matrices of one cell.  Norms, the lumped
mass and a per-element coefficient read the vertex indices and the geometry
a chunk at a time (``Mesh.chunk_elements``, ``Mesh.chunk_geometry``);
energies are ``mesh.element_energy``.  Dirichlet conditions are imposed by
row/column elimination, which keeps the operator SPD and hole-node values
exactly zero.  The linear solver is conjugate gradients preconditioned by one
geometric-multigrid V-cycle (Tatebe 1993) on every grid: deterministic, and
built from numpy and ``scipy.sparse`` alone.  ``solve_cg`` is the tested oracle
behind every linear solve in the package: the Picard iteration and the
eigenpair call it.

Every CG reduction (dot products and 2-norms), and the inner products of the
eigenpair iteration, are single-threaded: they go through ``_dot``, numpy's
core ``c_einsum`` (the kernel ``np.einsum`` runs, without its Python
wrapper) with a fixed summation order.  BLAS ``ddot`` threads itself on long
vectors (from about 129**2 entries in OpenBLAS); at these sizes that costs
more CPU time than it saves wall time, and it makes the last digits of every
result depend on the BLAS thread count.

Every product of the Picard step's CG solves (the V-cycle's, ``A x0`` and
``A p``) and of ``SparseOperator.h1`` is ``_matvec``: scipy's private CSR
kernel ``scipy.sparse._sparsetools.csr_matvec``, the one ``M @ x`` runs,
without the per-call dispatch of ``scipy.sparse``, which costs 2-3 times the
kernel's own time on the small multigrid levels.  The sizes come from the
operator and from each multigrid level, not from ``M.shape``, a Python call.
The restriction ``P' r`` runs the CSC kernel on ``P``'s own arrays
(``_rmatvec``), so no level keeps ``P'``.  A numpy or scipy without these
kernels fails at import; numpy's lives in ``numpy._core``, which numpy has
had since 2.0.  Each operator ``K`` builds one V-cycle hierarchy, shared with
the ``K + diag(d)`` that ``K._shifted`` rewrites in place, valid until the
next call on ``K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from numpy._core.multiarray import c_einsum
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .mesh import FieldFunction, Mesh, element_energy, h1_seminorm

__all__ = [
    "Coefficient",
    "SparseOperator",
    "CGStats",
    "Norms",
    "ConvergenceError",
    "IndefiniteOperatorError",
    "assemble_stiffness",
    "stiffness_csr",
    "check_m_matrix",
    "lumped_mass",
    "solve_cg",
    "solve_dirichlet",
    "first_eigenpair",
    "norms",
    "l2_norm",
    "energy_product",
]


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance; ``history`` is the trajectory behind it.

    Rayleigh quotients (:func:`first_eigenpair`), level gaps (a schedule not
    Cauchy) or every solved level's ``LevelStats``, the failing one last.
    """

    def __init__(self, message: str, *, iterations: int = 0, residual: float = float("nan"),
                 history: list | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = history or []


class IndefiniteOperatorError(RuntimeError):
    """CG met nonpositive curvature: the operator is not positive definite."""


#: damping of the Jacobi smoother in the multigrid V-cycle
_OMEGA = 0.8
#: the coarsest multigrid level has at most this many unknowns and is solved exactly
_COARSEST = 10


def _sym_eig_min(mats: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part, elementwise over ``(n, d, d)``."""
    sym = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    if mats.shape[1] == 1:
        return sym[:, 0, 0]
    tr = sym[:, 0, 0] + sym[:, 1, 1]
    det = sym[:, 0, 0] * sym[:, 1, 1] - sym[:, 0, 1] * sym[:, 1, 0]
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc)


@dataclass(frozen=True)
class Coefficient:
    """Per-element diffusivity matrices with a verified coercivity constant.

    A constant ``A`` (``constant``, ``isotropic``, ``identity``) is stored once:
    ``matrices`` is then a read-only broadcast view of one ``d x d`` matrix, and
    ``alpha`` and ``is_symmetric`` are computed on that matrix.
    """

    matrices: np.ndarray
    alpha: float
    is_symmetric: bool

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)

    @classmethod
    def _checked(cls, matrices: np.ndarray, distinct: np.ndarray) -> "Coefficient":
        """The coefficient ``matrices``, whose distinct matrices are ``distinct``, if coercive."""
        alpha = float(_sym_eig_min(distinct).min())
        if alpha <= 0.0:
            raise ValueError(f"coefficient is not coercive: min eigenvalue {alpha!r} <= 0")
        return cls(matrices, alpha, bool(np.array_equal(distinct, np.swapaxes(distinct, 1, 2))))

    @classmethod
    def from_matrices(cls, mesh: Mesh, mats: np.ndarray) -> "Coefficient":
        mats = np.asarray(mats, dtype=float)
        expected = (mesh.n_elements, mesh.dim, mesh.dim)
        if mats.shape != expected:
            raise ValueError(f"coefficient shape {mats.shape} != {expected}")
        return cls._checked(mats, mats)

    @classmethod
    def isotropic(cls, mesh: Mesh, a: float = 1.0) -> "Coefficient":
        return cls.constant(mesh, a * np.eye(mesh.dim))

    @classmethod
    def identity(cls, mesh: Mesh) -> "Coefficient":
        return cls.isotropic(mesh, 1.0)

    @classmethod
    def constant(cls, mesh: Mesh, mat: np.ndarray) -> "Coefficient":
        # a private copy, so the caller's array cannot change the coefficient
        one = np.array(np.broadcast_to(np.asarray(mat, dtype=float), (mesh.dim, mesh.dim)))
        one.setflags(write=False)
        return cls._checked(np.broadcast_to(one, (mesh.n_elements, mesh.dim, mesh.dim)),
                            one[None])


@dataclass
class SparseOperator:
    """Sparse matrix over the free (non-Dirichlet, non-hole) nodes.

    Cached on first use, once per operator: ``diagonal``, the V-cycle hierarchy of
    ``precond``, which every grid has (:func:`_multigrid`; shared with ``_shifted``),
    the lumped mass ``ml`` at the free nodes and the identity-coefficient stiffness
    ``lap`` (when ``A = I``, :func:`assemble_stiffness` sets it to its matrix before
    adding ``mu``).  ``h1(v) = sqrt(v' lap v)`` is the H1 seminorm of a free-node
    vector (it vanishes at the other nodes).
    """

    matrix: sp.csr_matrix
    free: np.ndarray
    mesh: Mesh

    def __post_init__(self) -> None:
        # every product reads the CSR arrays directly (:func:`_matvec`)
        if self.matrix.format != "csr":
            raise TypeError(f"SparseOperator needs a CSR matrix, got {self.matrix.format!r}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    @cached_property
    def _hierarchy(self) -> tuple:
        m = self.mesh
        return _multigrid(self.matrix, self.free, (m.nx,) if m.dim == 1 else (m.ny, m.nx))

    @cached_property
    def _weights(self) -> np.ndarray:
        return _OMEGA / self.diagonal

    def precond(self, r: np.ndarray) -> np.ndarray:
        """CG preconditioner ``r -> z``: one V-cycle of :func:`_multigrid`'s hierarchy."""
        h = self._hierarchy  # first: the build's peak must not hold the diagonal and weights
        return _vcycle(self.matrix, self._weights, *h, r)

    @cached_property
    def ml(self) -> np.ndarray:
        return lumped_mass(self.mesh)[self.free]

    @cached_property
    def lap(self) -> sp.csr_matrix:
        return _restrict(stiffness_csr(self.mesh, Coefficient.identity(self.mesh)), self.free)

    def _shifted(self, d: np.ndarray) -> "SparseOperator":
        """``K + diag(d)`` on the same nodes, for ``d >= 0``, sharing this operator's V-cycle.

        Only ``matrix.data``, ``diagonal`` and the finest smoother weights are
        rewritten; the coarse levels are ``K``'s, by reference, and an operator
        with no coarse level inverts ``K + diag(d)`` again.  Every call returns
        the same operator, built on the first: a result is valid until the
        next ``_shifted`` call on this one, which is why the method is private
        to :func:`solver.solve_level`.
        """
        op, h = self._shift, self._hierarchy
        # only the diagonal: the other entries are K's, copied once by _shift
        op.diagonal = op.matrix.data[self._diagonal_slots] = self.diagonal + d
        op._weights = _OMEGA / op.diagonal
        op._hierarchy = h if h[0] else ((), np.linalg.inv(op.matrix.toarray()))
        return op

    @cached_property
    def _shift(self) -> "SparseOperator":
        """The operator :meth:`_shifted` rewrites: ``K``'s pattern with its own data."""
        K = self.matrix
        return SparseOperator(sp.csr_matrix((K.data.copy(), K.indices, K.indptr), shape=K.shape),
                              self.free, self.mesh)

    @cached_property
    def _diagonal_slots(self) -> np.ndarray:
        """Positions of the diagonal entries in ``matrix.data``, one per row."""
        K = self.matrix
        rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
        return np.flatnonzero(K.indices == rows)

    def h1(self, v: np.ndarray) -> float:
        n = self.n
        if v.shape != (n,):
            raise ValueError(f"h1 of a vector of shape {v.shape}, expected ({n},)")
        return math.sqrt(_dot(v, _matvec(self.lap, v, n)))

    def scatter(self, x_free: np.ndarray) -> np.ndarray:
        """Embed a free-node vector into the full nodal vector (zeros elsewhere)."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.free] = x_free
        return full


def stiffness_csr(mesh: Mesh, coeff: Coefficient) -> sp.csr_matrix:
    """Full stiffness matrix ``K_ij = sum_T |T| (A grad phi_j) . grad phi_i``.

    A constant ``A`` has the element matrices of :attr:`Mesh.cell` on every cell."""

    def local(areas: np.ndarray, grads: np.ndarray, mats: np.ndarray) -> np.ndarray:
        out = np.einsum("e,evd,edc,ewc->evw", areas, grads, mats, grads)
        if coeff.is_symmetric:
            # contraction order is not symmetry-preserving at the last ulp
            out = 0.5 * (out + out.transpose(0, 2, 1))
        return out

    if coeff.matrices.strides[0] == 0:  # a constant A: one matrix for every element
        cell = local(*mesh.cell, coeff.matrices[: mesh.dim])
        return _assemble(mesh, lambda s: cell)
    return _assemble(mesh, lambda s: local(*mesh.chunk_geometry(s), coeff.matrices[s]))


def _stencil(mesh: Mesh) -> np.ndarray:
    """Sorted node-index differences ``q - p`` of the vertex pairs of the elements, 0 included.

    The stencil of the mesh graph: 7 offsets on a rectangle, 3 on an interval.
    Those of the first cell: every cell's node indices are a shift of its.
    """
    v, w = np.triu_indices(mesh.dim + 1, 1)
    cell = mesh.chunk_elements(slice(0, mesh.dim))
    d = (cell[:, w] - cell[:, v]).ravel()
    return np.unique(np.concatenate([[0], d, -d]))


def _assemble(mesh: Mesh, local) -> sp.csr_matrix:
    """CSR matrix summing the element matrices ``local(s)``, shape ``(len, nv, nv)``, per chunk.

    A ``local(s)`` of shape ``(dim, nv, nv)`` is one cell's, added on every cell of the chunk.

    Goes straight to CSR, one chunk of elements at a time (``Mesh.element_chunks``):
    node ``p`` has one slot per stencil offset ``d`` (:func:`_stencil`), for the
    entry ``(p, p + d)``, so an entry's slot is arithmetic, not a search; the
    table of slots is 7 values per node on a rectangle.  Every slot adds its
    contributions in element order; an off-diagonal entry has at most two, so
    no order changes its bits.  Exact zeros, such as the diagonal couplings of
    an isotropic ``A``, are not stored.
    """
    offsets = _stencil(mesh)
    span = int(offsets[-1])
    column = np.zeros(2 * span + 1, dtype=np.intp)
    column[offsets + span] = np.arange(offsets.size)
    cell = mesh.chunk_elements(slice(0, mesh.dim))
    cell_slot = column[cell[:, None, :] - cell[:, :, None] + span]  # the same for every cell
    n = mesh.n_nodes
    data = np.zeros((n, offsets.size))
    for s in mesh.element_chunks():
        slot = (mesh.chunk_elements(s) * offsets.size).reshape(-1, *cell.shape, 1) + cell_slot
        vals = np.broadcast_to(local(s).reshape(-1, *cell_slot.shape), slot.shape)
        np.add.at(data.ravel(), slot.ravel(), vals.ravel())
    keep = data != 0.0
    data = data[keep]
    index = np.int32 if n * offsets.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    indices = (np.arange(n, dtype=index)[:, None] + offsets.astype(index))[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def check_m_matrix(mat: np.ndarray) -> None:
    """Raise ``ValueError`` unless a constant 2-D ``A`` makes :func:`stiffness_csr` an M-matrix.

    A node couples to its diagonal neighbours with ``-s`` and to its axis neighbours
    with ``-(a11 - s)`` and ``-(a22 - s)``, where ``s = (a12 + a21) / 2``.
    """
    s = (mat[0][1] + mat[1][0]) / 2.0
    if not 0.0 <= s <= min(mat[0][0], mat[1][1]):
        raise ValueError("operator is not an M-matrix: need "
                         f"0 <= (a12 + a21) / 2 <= min(a11, a22), got {s!r}")


def _prolongation(shape: tuple[int, ...]) -> tuple[sp.csr_matrix, tuple[int, ...]]:
    """P1 interpolation onto the grid ``shape`` from its every-other-node grid, and its shape.

    An axis of ``s`` nodes has ``c = s // 2 + 1`` coarse nodes, and fine node ``i`` is the mean
    of coarse nodes ``i // 2`` and ``min((i + 1) // 2, c - 1)``: the coarse node, an axis-edge
    midpoint, or the midpoint of a cell diagonal ``n00``-``n11``, an edge of both triangulations;
    on an even axis the last coarse node is the last fine node, a boundary node whose row
    :func:`_multigrid` drops.  Nodes are row-major, as in :mod:`mesh`; a 1-D ``shape`` gives the
    3-point interpolation.  A row holds its two parents in ascending order, or one entry 1 where
    they coincide (every coordinate even): the CSR arrays are written by arithmetic.
    """
    coarse = tuple(s // 2 + 1 for s in shape)
    n = math.prod(shape)
    index = np.int32 if 2 * n <= np.iinfo(np.int32).max else np.int64
    lo = hi = np.zeros((), dtype=index)  # row-major raveling, one axis at a time
    for s, c in zip(shape, coarse):
        i = np.arange(s, dtype=index)
        lo = (lo[..., None] * index(c) + i // 2).ravel()
        hi = (hi[..., None] * index(c) + np.minimum((i + 1) // 2, c - 1)).ravel()
    two = lo != hi
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(two + index(1), out=indptr[1:])
    first = indptr[:-1]
    indices = np.empty(indptr[-1], dtype=index)
    indices[first] = lo
    indices[first[two] + 1] = hi[two]
    data = np.full(indices.size, 0.5)
    data[first[~two]] = 1.0
    return sp.csr_matrix((data, indices, indptr), shape=(n, math.prod(coarse))), coarse


def _multigrid(A: sp.csr_matrix, free: np.ndarray, shape: tuple[int, ...]) -> tuple:
    """Coarse levels ``(P, A_c, w_c, (n, n_c))`` of a V(1,1) cycle for ``A`` on the grid ``shape``.

    Each level keeps the coarse interior nodes whose column of the prolongation
    ``P``, restricted to the finer level's ``free`` nodes, is nonzero, ``A_c = P' A P``
    on them, ``w_c = _OMEGA / diag A_c`` and the sizes ``n x n_c`` of ``P``, which
    the V-cycle's products take from here; holes, ``mu`` and anisotropic ``A``
    need no special case.  A node with no neighbour in ``A`` (one walled in by
    holes) gets no interpolated correction: the smoother alone solves it, so a
    zero load there leaves it exactly zero.  Every grid halves (:func:`_prolongation`);
    an axis of 2 or 3 nodes coarsens to 2, a level with no interior node.  Halving
    stops at ``_COARSEST`` unknowns, whose inverse comes second.
    """
    levels = []
    while A.shape[0] > _COARSEST:
        P, shape = _prolongation(shape)
        lone = np.diff((A != 0).indptr) == 1
        P = sp.diags(np.where(lone, 0.0, 1.0)) @ P[free]
        idx = np.indices(shape).reshape(len(shape), -1)
        interior = np.all((idx > 0) & (idx < np.array(shape)[:, None] - 1), axis=0)
        free = np.flatnonzero(interior & (P.getnnz(axis=0) > 0))
        P = P[:, free].tocsr()
        # sorted: the order in which the product stores a row, and so the
        # rounding of every matvec, must not depend on explicit zeros in A
        A = (P.T.tocsr() @ A @ P).tocsr().sorted_indices()
        levels.append((P, A, _OMEGA / A.diagonal(), P.shape))
    return tuple(levels), np.linalg.inv(A.toarray())


def _vcycle(A: sp.csr_matrix, w: np.ndarray, levels: tuple, coarse_inv: np.ndarray,
            r: np.ndarray, k: int = 0) -> np.ndarray:
    """V-cycle on ``r`` from a zero guess on the level ``A``, weights ``w``, above ``levels[k]``.

    A module function: a closure calling itself would be a reference cycle
    and keep every hierarchy alive until a garbage collection.  The level's
    residuals and its coarse correction share one temporary ``t``.
    """
    if k == len(levels):
        return np.einsum("ij,j->i", coarse_inv, r)
    P, A_c, w_c, (n, n_c) = levels[k]
    x = w * r
    t = _matvec(A, x, n)
    np.subtract(r, t, out=t)
    x += _matvec(P, _vcycle(A_c, w_c, levels, coarse_inv, _rmatvec(P, t, n, n_c), k + 1),
                 n, n_c, out=t)
    np.subtract(r, _matvec(A, x, n, out=t), out=t)
    t *= w
    x += t
    return x


def _matvec(M: sp.csr_matrix, x: np.ndarray, n: int, m: int | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """``M @ x`` for an ``n x m`` CSR ``M`` (``m = n`` by default): the same kernel, into a
    zeroed ``out`` or a fresh vector.

    The kernel trusts the sizes and reads ``m`` entries of ``x`` unchecked;
    they are passed in, because reading ``M.shape`` costs a Python call per product.
    """
    if out is None:
        out = np.zeros(n)
    else:
        out.fill(0.0)
    csr_matvec(n, n if m is None else m, M.indptr, M.indices, M.data, x, out)
    return out


def _rmatvec(P: sp.csr_matrix, r: np.ndarray, n: int, m: int) -> np.ndarray:
    """``P' r`` for an ``n x m`` ``P``, from its CSR arrays read as those of ``P'`` in CSC: no
    level keeps ``P'``."""
    y = np.zeros(m)
    csc_matvec(m, n, P.indptr, P.indices, P.data, r, y)
    return y


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """Diagonal (vertex-quadrature) mass: ``|T| / (dim + 1)`` scattered to vertices."""
    nv = mesh.dim + 1
    out = np.zeros(mesh.n_nodes)
    for s in mesh.element_chunks():
        areas = mesh.chunk_geometry(s)[0]
        np.add.at(out, mesh.chunk_elements(s).ravel(), np.repeat(areas / nv, nv))
    return out


def _restrict(mat: sp.csr_matrix, free: np.ndarray) -> sp.csr_matrix:
    return mat[free][:, free].tocsr()


def assemble_stiffness(mesh: Mesh, coeff: Coefficient, mu: float = 0.0) -> SparseOperator:
    """Operator of ``-div A D. + mu .`` over the free nodes (Dirichlet/hole rows eliminated).

    The absorption ``mu`` acts through the lumped mass ``ml``.  Raises
    ``ValueError`` unless ``mu >= 0``.
    """
    if not mu >= 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu!r}")
    free = mesh.free_nodes
    op = SparseOperator(_restrict(stiffness_csr(mesh, coeff), free), free, mesh)
    if coeff.matrices.strides[0] == 0 and np.array_equal(coeff.matrices[0], np.eye(mesh.dim)):
        op.lap = op.matrix  # the identity stiffness itself, before any mu is added
    if mu != 0.0:
        op.matrix = (op.matrix + sp.diags(mu * op.ml)).tocsr()
    return op


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` in one thread, independent of the BLAS thread count."""
    return float(c_einsum("i,i->", a, b))


@dataclass
class CGStats:
    iterations: int


def solve_cg(op: SparseOperator, rhs: np.ndarray, tol: float = 1e-10,
             maxit: int | None = None, x0: np.ndarray | None = None,
             forcing: float = 0.0) -> tuple[np.ndarray, CGStats]:
    """Preconditioned CG on the free-node system, with ``op.precond``.

    Returns ``x`` with ``|op x - rhs| <= max(tol |rhs|, forcing |r0|)``,
    where ``r0 = rhs - op x0`` is the residual of the starting guess: a
    ``forcing`` in ``(0, 1)`` ends the solve once it has cut its own initial
    residual by that factor (an inexact inner solve).  Raises
    ``ConvergenceError`` after ``maxit`` (default ``50 * sqrt(n)``) and
    ``IndefiniteOperatorError`` on negative curvature.  Deterministic.
    """
    A = op.matrix
    n = op.n
    rhs = np.asarray(rhs, dtype=float)
    if maxit is None:
        maxit = max(100, int(50.0 * np.sqrt(n)) + 1)
    bnorm = math.sqrt(_dot(rhs, rhs))
    if bnorm == 0.0:
        return np.zeros(n), CGStats(0)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    r = rhs - _matvec(A, x, n)
    del rhs  # read only for |rhs| and r0: a caller that passes its only reference frees it here
    res = math.sqrt(_dot(r, r))
    stop = max(tol * bnorm, forcing * res)
    if res <= stop:
        return x, CGStats(0)
    z = op.precond(r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, maxit + 1):
        Ap = _matvec(A, p, n, out=z)  # z is spent once p holds it; precond returns a new one
        pAp = _dot(p, Ap)
        if pAp <= 0.0:
            raise IndefiniteOperatorError(
                f"nonpositive curvature {pAp!r} at CG iteration {it}"
            )
        a = rz / pAp
        x += a * p
        Ap *= a  # in place: the bits of r - a * Ap and z + beta * p, without temporaries
        r -= Ap
        res = math.sqrt(_dot(r, r))
        if res <= stop:
            return x, CGStats(it)
        z = op.precond(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise ConvergenceError(
        f"CG stalled after {maxit} iterations at relative residual {res / bnorm:.3e}",
        iterations=maxit,
        residual=res / bnorm,
    )


def solve_dirichlet(mesh: Mesh, coeff: Coefficient, fixed_mask: np.ndarray,
                    fixed_values: np.ndarray) -> FieldFunction:
    """Solve ``-div A Du = 0`` with arbitrary Dirichlet data via lifting."""
    free = np.flatnonzero(~fixed_mask)
    fixed = np.flatnonzero(fixed_mask)
    rows = stiffness_csr(mesh, coeff)[free]  # only the free rows outlive this line
    op = SparseOperator(rows[:, free].tocsr(), free, mesh)
    coupling = rows[:, fixed].tocoo()  # free-to-fixed entries: all the lift needs
    del rows  # before solve_cg builds the multigrid hierarchy
    # no name holds the right-hand side, so solve_cg frees it after its first residual
    x = solve_cg(op, -(coupling @ fixed_values[fixed]))[0]
    full = np.array(fixed_values, dtype=float)  # the lift's values at the fixed nodes
    full[free] = x
    return FieldFunction(mesh, full)


def _is_symmetric(mat: sp.csr_matrix) -> bool:
    """Whether ``mat`` equals its transpose entry for entry; a NaN entry is asymmetric."""
    return not (mat != mat.T).nnz


def first_eigenpair(K: SparseOperator, M: sp.csr_matrix, tol: float = 1e-10,
                    maxit: int = 500) -> tuple[float, FieldFunction]:
    """Smallest eigenpair of ``K x = lambda M x`` by inverse power iteration.

    ``M`` is a mass matrix over ``K``'s free nodes, e.g. ``sp.diags(K.ml)``.
    The eigenvector is normalized to ``x' M x = 1`` with its sign fixed so the
    largest-magnitude entry is positive.  Non-convergence raises
    ``ConvergenceError`` carrying the Rayleigh-quotient history.
    """
    if not _is_symmetric(K.matrix):
        raise ValueError("operator is not symmetric")
    x = np.ones(K.n)
    x /= math.sqrt(_dot(x, M @ x))
    lam = _dot(x, K.matrix @ x)
    history = [lam]
    y = x / lam
    for _ in range(maxit):
        y, _ = solve_cg(K, M @ x, tol=1e-12, x0=y)
        y /= math.sqrt(_dot(y, M @ y))
        lam_new = _dot(y, K.matrix @ y)
        history.append(lam_new)
        done = abs(lam_new - lam) <= tol * abs(lam_new)
        x, lam = y, lam_new
        y = x / lam
        if done:
            break
    else:
        raise ConvergenceError(
            f"inverse power iteration stalled after {maxit} iterations",
            iterations=maxit,
            history=history,
        )
    if x[int(np.argmax(np.abs(x)))] < 0:
        x = -x
    return lam, FieldFunction(K.mesh, K.scatter(x))


class Norms(NamedTuple):
    l2: float
    h1semi: float
    linf: float
    energy: float


def l2_norm(u: FieldFunction) -> float:
    """L2 norm via the consistent mass matrix (exact for P1 fields)."""
    mesh = u.mesh
    nv = mesh.dim + 1
    per_el = np.empty(mesh.n_elements)
    for s in mesh.element_chunks():
        uv = u.values[mesh.chunk_elements(s)]
        per_el[s] = mesh.chunk_geometry(s)[0] * (
            (uv.sum(axis=1) ** 2 + (uv * uv).sum(axis=1)) / (nv * (nv + 1)))
    return float(np.sqrt(np.sum(per_el)))


def energy_product(u: FieldFunction, coeff: Coefficient, v: FieldFunction | None = None) -> float:
    """``sum_T |T| Du . (A Dv)`` over all elements (``v = u`` by default): ``u' K v``."""
    return float(np.sum(element_energy(u.mesh, u.values, None if v is None else v.values,
                                       coeff.matrices)))


def norms(u: FieldFunction, coeff: Coefficient) -> Norms:
    """L2 (consistent mass), H1 seminorm, nodal L-infinity and the A-energy ``int A Du.Du``."""
    return Norms(
        l2=l2_norm(u),
        h1semi=h1_seminorm(u),
        linf=float(np.abs(u.values).max()) if u.mesh.n_nodes else 0.0,
        energy=energy_product(u, coeff),
    )

