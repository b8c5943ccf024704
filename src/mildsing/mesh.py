"""Structured triangulations of rectangles and interval meshes.

Meshes are immutable after construction (node/element arrays are marked
read-only) and safe to share across concurrent workers.  Node indices are
row-major from the lower-left corner (``index = j * nx + i``), so CSV dumps
are reproducible bit-for-bit.

Node classes partition the node set:

* ``INTERIOR``       - free degree of freedom,
* ``OUTER_BOUNDARY`` - node on the topological boundary of the rectangle,
* ``HOLE``           - node swallowed by a perforation (Dirichlet, value 0).

Each rectangle cell is split along the same diagonal into two right
triangles, which makes the stiffness matrix of ``-div(a I D.)`` with
elementwise-constant ``a > 0`` an M-matrix and hence gives a discrete weak
maximum principle.  Every element is a translate of one of the first cell's
(``Mesh.cell``), so no per-element table is stored: a chunk's vertex indices
are arithmetic on its cell numbers (``Mesh.chunk_elements``), its geometry is
one tile of the first cell's (``Mesh.chunk_geometry``), and every loop over
the elements runs a chunk at a time.  ``element_energy`` is the one
per-element form ``|T| Dv . (A Dw)`` behind every energy and H1 seminorm in
the package.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "INTERIOR",
    "OUTER_BOUNDARY",
    "HOLE",
    "CLASS_NAMES",
    "Mesh",
    "FieldFunction",
    "PerforationReport",
    "build_rectangle_mesh",
    "build_interval_mesh",
    "perforate",
    "extend_by_zero",
    "element_energy",
    "write_field_csv",
    "read_field_csv",
]

INTERIOR = 0
OUTER_BOUNDARY = 1
HOLE = 2
CLASS_NAMES = {INTERIOR: "interior", OUTER_BOUNDARY: "outer_boundary", HOLE: "hole"}

#: float formatting used by every CSV writer (17 significant digits).
FLOAT_FMT = "%.17g"

#: elements per chunk of assembly (``Mesh.element_chunks``); a multiple of the
#: elements of a cell (2 in 2-D, 1 in 1-D), so every chunk is whole cells
_CHUNK = 1 << 14


@dataclass(frozen=True)
class PerforationReport:
    """What ``perforate`` actually did: hole count, radii in grid units."""

    n_holes: int
    radius: float
    strategy: str
    centers: np.ndarray
    nodes_per_hole: np.ndarray
    min_resolved_radius_h: float
    max_resolved_radius_h: float


@dataclass(frozen=True)
class Mesh:
    """Structured simplicial mesh of an interval (dim 1) or rectangle (dim 2).

    Cell ``c`` (row-major, ``nx - 1`` per row) holds elements ``dim * c`` to
    ``dim * c + dim - 1``.  Its lower-left node is ``n00 = c + c // (nx - 1)``;
    in 2-D its lower triangle is ``(n00, n00 + 1, n00 + nx + 1)`` and its upper
    one ``(n00, n00 + nx + 1, n00 + nx)``, and in 1-D its segment is ``(c, c + 1)``.
    No table of them is stored: :meth:`chunk_elements` shifts one cached tile
    of the first rows' indices by whole rows of nodes.
    """

    dim: int
    nx: int
    ny: int
    width: float
    height: float
    nodes: np.ndarray
    node_class: np.ndarray
    perforation: PerforationReport | None = None

    def __post_init__(self) -> None:
        for arr in (self.nodes, self.node_class):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.dim * (self.nx - 1) * (self.ny - 1 if self.dim == 2 else 1)

    @cached_property
    def _index_tile(self) -> np.ndarray:
        """Vertex indices of the first elements: one chunk, plus one row of cells in 2-D."""
        d, nx = self.dim, self.nx
        n = min(self.n_elements, _CHUNK + (2 * (nx - 1) if d == 2 else 0))
        c = np.arange(-(-n // d))
        if d == 2:
            c += c // (nx - 1)  # n00
            cell = np.array([[0, 1, nx + 1], [0, nx + 1, nx]])
        else:
            cell = np.array([[0, 1]])
        out = (c[:, None, None] + cell).reshape(-1, d + 1)[:n]
        out.setflags(write=False)
        return out

    def chunk_elements(self, s: slice) -> np.ndarray:
        """Vertex indices of the elements ``s.start`` to ``s.stop - 1``, shape ``(len, dim + 1)``.

        ``s`` is at most ``_CHUNK`` long, as every :meth:`element_chunks` slice is.
        From the start of the row of cells that ``s`` starts in, its elements are
        those of the first rows shifted by whole rows of nodes: a slice of
        :attr:`_index_tile` plus one constant, with ``intp`` indices, which
        numpy's fancy indexing takes without a cast.
        """
        if self.dim == 1:
            row, first = s.start, 0  # in 1-D every element is a shift of the first
        else:
            row = s.start // (2 * (self.nx - 1))
            first = s.start - 2 * (self.nx - 1) * row
            row *= self.nx
        return self._index_tile[first: first + s.stop - s.start] + row

    @property
    def h(self) -> float:
        """Grid spacing (cells are required to be square in 2-D)."""
        return self.width / (self.nx - 1)

    @cached_property
    def free_nodes(self) -> np.ndarray:
        """Indices of interior (non-Dirichlet, non-hole) nodes."""
        out = np.flatnonzero(self.node_class == INTERIOR)
        out.setflags(write=False)
        return out

    def element_chunks(self) -> list[slice]:
        """Slices of at most ``_CHUNK`` consecutive elements that cover them all, in order.

        Assembly and the per-element forms run over these, so their
        temporaries stay a few MB at any mesh size.  Each chunk is whole cells
        (``_CHUNK`` is even).
        """
        n = self.n_elements
        return [slice(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]

    @cached_property
    def cell(self) -> tuple[np.ndarray, np.ndarray]:
        """``(areas, grads)`` of the first cell's ``dim`` elements: 2 triangles, or 1 segment.

        Element ``e`` is a translate of cell element ``e % dim`` (``perforate`` moves no node)."""
        verts = self.nodes[self.chunk_elements(slice(0, self.dim))]
        if self.dim == 1:
            length = verts[:, 1, 0] - verts[:, 0, 0]
            areas, grads = np.abs(length), (np.array([-1.0, 1.0]) / length[:, None])[..., None]
        else:
            e1 = verts[:, 1] - verts[:, 0]
            e2 = verts[:, 2] - verts[:, 0]
            areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            x, y = verts[..., 0], verts[..., 1]
            # grad phi_i = (y_j - y_k, x_k - x_j) / (2 |T|), (i, j, k) cyclic
            two_a = 2.0 * areas[:, None]
            grads = np.empty((2, 3, 2))  # C order: einsum's summation order follows strides
            grads[..., 0] = (y[:, [1, 2, 0]] - y[:, [2, 0, 1]]) / two_a
            grads[..., 1] = (x[:, [2, 0, 1]] - x[:, [1, 2, 0]]) / two_a
        for arr in (areas, grads):
            arr.setflags(write=False)
        return areas, grads

    @cached_property
    def _chunk_tile(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`cell` repeated over one full chunk (or the whole mesh, if smaller)."""
        reps = min(_CHUNK, self.n_elements) // self.dim
        out = np.tile(self.cell[0], reps), np.tile(self.cell[1], (reps, 1, 1))
        for arr in out:
            arr.setflags(write=False)
        return out

    def chunk_geometry(self, s: slice) -> tuple[np.ndarray, np.ndarray]:
        """Element measures and P1 gradients of chunk ``s`` of :meth:`element_chunks`.

        Read-only views of one cached tile of :attr:`cell`, which serves every
        chunk: each starts on a cell.  Bit-identical to each element's own
        formula where every node coordinate is an exact multiple of a dyadic
        ``h`` (a ``2**k + 1`` grid of a dyadic width); elsewhere, with rounded
        ``linspace`` nodes, within ``2 eps max(width, height) / h`` relative.
        """
        areas, grads = self._chunk_tile
        return areas[: s.stop - s.start], grads[: s.stop - s.start]

    @cached_property
    def omega_eps_elements(self) -> np.ndarray:
        """Mask of elements belonging to the perforated domain (>= 1 non-hole vertex)."""
        out = np.empty(self.n_elements, dtype=bool)
        for s in self.element_chunks():
            np.any(self.node_class[self.chunk_elements(s)] != HOLE, axis=1, out=out[s])
        out.setflags(write=False)
        return out

    def element_means(self, values: np.ndarray) -> np.ndarray:
        """Average of a nodal field over each element's vertices."""
        out = np.empty(self.n_elements)
        for s in self.element_chunks():
            np.mean(values[self.chunk_elements(s)], axis=1, out=out[s])
        return out


def _validate_counts(nx: int, ny: int) -> None:
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 nodes per axis, got nx={nx}, ny={ny}")


def build_rectangle_mesh(width: float, height: float, nx: int, ny: int) -> Mesh:
    """Structured triangulation of ``[0, width] x [0, height]`` with ``nx * ny`` nodes.

    Every cell is split into two right triangles along the same diagonal,
    giving ``2 * (nx - 1) * (ny - 1)`` elements and no hole nodes.
    """
    _validate_counts(nx, ny)
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")
    hx = width / (nx - 1)
    hy = height / (ny - 1)
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise ValueError(f"cells must be square: hx={hx!r} != hy={hy!r}")

    nodes = np.empty((ny, nx, 2))
    nodes[..., 0] = np.linspace(0.0, width, nx)
    nodes[..., 1] = np.linspace(0.0, height, ny)[:, None]
    nodes = nodes.reshape(-1, 2)

    node_class = np.full((ny, nx), INTERIOR, dtype=np.int8)
    node_class[[0, -1], :] = OUTER_BOUNDARY
    node_class[:, [0, -1]] = OUTER_BOUNDARY
    node_class = node_class.ravel()

    return Mesh(2, nx, ny, float(width), float(height), nodes, node_class)


def build_interval_mesh(length: float, nx: int) -> Mesh:
    """Uniform mesh of ``[0, length]`` with ``nx`` nodes (1-D assembler mode)."""
    if nx < 2:
        raise ValueError(f"need at least 2 nodes, got nx={nx}")
    if length <= 0:
        raise ValueError("length must be positive")
    nodes = np.linspace(0.0, length, nx)[:, None]
    node_class = np.full(nx, INTERIOR, dtype=np.int8)
    node_class[[0, -1]] = OUTER_BOUNDARY
    return Mesh(1, nx, 1, float(length), 0.0, nodes, node_class)


def _nearest_on_grid(x, y, gx, gy, step):
    """Index ``j * len(gx) + i`` and squared distance of the grid point ``(gx[i], gy[j])``
    nearest each ``(x, y)``.  Only the 2 x 2 points around ``(x, y)`` can tie, even
    after rounding: comparing them equals a full search bit for bit, ties to the lower index."""
    def bracket(t, g):
        i = np.clip(np.floor((t - g[0]) / step), 0, max(g.size - 2, 0)).astype(np.int64)
        return np.stack([i, i + (g.size > 1)])

    i, j = bracket(x, gx)[None], bracket(y, gy)[:, None]
    d2 = ((x - gx[i]) ** 2 + (y - gy[j]) ** 2).reshape(4, -1)
    best = np.argmin(d2, axis=0), np.arange(d2.shape[1])
    return (j * gx.size + i).reshape(4, -1)[best], d2[best]


def _lattice(mesh: Mesh, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers of the ``2 * epsilon`` cells, each node's nearest center and its squared distance."""
    cell = 2.0 * epsilon
    mx = mesh.width / cell
    my = mesh.height / cell
    if abs(mx - round(mx)) > 1e-9 or abs(my - round(my)) > 1e-9:
        raise ValueError(
            f"domain {mesh.width} x {mesh.height} is not a whole number of 2*epsilon={cell} cells"
        )
    cx = (2 * np.arange(int(round(mx))) + 1) * epsilon
    cy = (2 * np.arange(int(round(my))) + 1) * epsilon
    nearest, d2 = _nearest_on_grid(mesh.nodes[:, 0], mesh.nodes[:, 1], cx, cy, cell)
    return np.column_stack([np.tile(cx, cy.size), np.repeat(cy, cx.size)]), nearest, d2


def perforate(mesh: Mesh, spec) -> Mesh:
    """Reclassify nodes inside a periodic lattice of disk holes as ``HOLE``.

    ``spec`` must provide ``epsilon`` (half cell size), ``radius`` and
    ``strategy`` (``"resolved"`` marks every node within ``radius`` of a hole
    center and needs ``h <= radius / 2``; ``"collapsed"`` marks the single
    nearest node per center and needs ``radius < h``).  Holes must stay
    strictly inside the domain and away from each other.  Closed form, no loop over holes:
    a node's nearest center, or a center's nearest node, is one of the 2 x 2 around it.
    The result shares ``mesh``'s nodes and the cached tiles built from them.
    """
    if mesh.dim != 2:
        raise ValueError("perforation requires a 2-D mesh")
    eps = float(spec.epsilon)
    r = float(spec.radius)
    strategy = spec.strategy
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if r < 0:
        raise ValueError("radius must be nonnegative")

    centers, nearest, d2 = _lattice(mesh, eps)
    n_holes = centers.shape[0]

    # geometric admissibility: strictly inside, pairwise disjoint
    margin = np.minimum.reduce(
        [centers[:, 0], mesh.width - centers[:, 0], centers[:, 1], mesh.height - centers[:, 1]]
    )
    if np.any(margin <= r):
        bad = int(np.argmin(margin))
        raise ValueError(f"hole at {tuple(centers[bad])} with radius {r} touches the outer boundary")
    if n_holes > 1:
        spacing = 2.0 * eps  # nearest lattice neighbours
        if spacing <= 2.0 * r:
            raise ValueError(f"holes of radius {r} overlap at lattice spacing {spacing}")

    h = mesh.h
    if strategy == "resolved":
        if h > r / 2.0:
            raise ValueError(f"resolved strategy needs h <= r/2, got h={h!r}, r={r!r}")
        hole_mask = d2 <= r * r
    elif strategy == "collapsed":
        if r >= h:
            raise ValueError(f"collapsed strategy needs r < h, got h={h!r}, r={r!r}")
        xs, ys = mesh.nodes[: mesh.nx, 0], mesh.nodes[:: mesh.nx, 1]
        hole_mask = np.zeros(mesh.n_nodes, dtype=bool)
        hole_mask[_nearest_on_grid(centers[:, 0], centers[:, 1], xs, ys, h)[0]] = True
    else:
        raise ValueError(f"unknown hole strategy {strategy!r}")

    if np.any(hole_mask & (mesh.node_class == OUTER_BOUNDARY)):
        raise ValueError("a hole swallowed an outer boundary node")

    node_class = np.array(mesh.node_class, dtype=np.int8)
    node_class[hole_mask] = HOLE

    per_hole = np.zeros(n_holes)
    np.maximum.at(per_hole, nearest[hole_mask], np.sqrt(d2[hole_mask]) / h)
    report = PerforationReport(
        n_holes=n_holes,
        radius=r,
        strategy=strategy,
        centers=centers,
        nodes_per_hole=np.bincount(nearest[hole_mask], minlength=n_holes),
        min_resolved_radius_h=float(per_hole.min()),
        max_resolved_radius_h=float(per_hole.max()),
    )
    centers.setflags(write=False)
    out = replace(mesh, node_class=node_class, perforation=report)
    # no node moves: share the geometry and index tiles ``mesh`` has built so far
    out.__dict__.update((k, v) for k, v in mesh.__dict__.items()
                        if k in ("cell", "_chunk_tile", "_index_tile"))
    return out


@dataclass(frozen=True)
class FieldFunction:
    """Nodal scalar field over a mesh's degrees of freedom."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"field has {self.values.shape} values for {self.mesh.n_nodes} nodes"
            )
        self.values.setflags(write=False)

    @classmethod
    def zeros(cls, mesh: Mesh) -> "FieldFunction":
        return cls(mesh, np.zeros(mesh.n_nodes))

    @classmethod
    def from_callable(cls, mesh: Mesh, fn: Callable[..., np.ndarray]) -> "FieldFunction":
        """Evaluate ``fn(x)`` (1-D) or ``fn(x, y)`` (2-D) at the nodes."""
        cols = [mesh.nodes[:, d] for d in range(mesh.dim)]
        return cls(mesh, np.asarray(fn(*cols), dtype=float) + np.zeros(mesh.n_nodes))

    def __sub__(self, other: "FieldFunction") -> "FieldFunction":
        return FieldFunction(self.mesh, self.values - other.values)


def element_energy(mesh: Mesh, v: np.ndarray, w: np.ndarray | None = None,
                   mats: np.ndarray | None = None) -> np.ndarray:
    """Per element ``|T| Dv . (A Dw)`` of nodal values ``v``, ``w`` (``w = v`` by default).

    ``mats`` holds ``A`` per element, shape ``(n_elements, dim, dim)``; None is
    ``A = I``.  Built one chunk of :meth:`Mesh.element_chunks` at a time.
    """
    out = np.empty(mesh.n_elements)
    for s in mesh.element_chunks():
        areas, grads = mesh.chunk_geometry(s)
        idx = mesh.chunk_elements(s)
        gv = np.einsum("evd,ev->ed", grads, v[idx])
        gw = gv if w is None else np.einsum("evd,ev->ed", grads, w[idx])
        if mats is None:
            out[s] = areas * np.einsum("ed,ed->e", gv, gw)
        else:
            out[s] = areas * np.einsum("ed,edc,ec->e", gv, mats[s], gw)
    return out


def h1_seminorm(u: FieldFunction) -> float:
    """Discrete H1 seminorm ``(sum_T |T| |Du|_T^2)^(1/2)`` over all elements."""
    return float(np.sqrt(np.sum(element_energy(u.mesh, u.values))))


def extend_by_zero(u: FieldFunction) -> FieldFunction:
    """Extension by zero across the holes (identity on the nodal vector).

    The input must already vanish at hole and outer-boundary nodes; a nonzero
    value at a hole node signals a solver fault.  Asserts the discrete H1
    seminorm over all elements equals the seminorm over the elements of the
    perforated domain (elements fully inside a hole contribute exactly 0).
    """
    mesh = u.mesh
    hole = mesh.node_class == HOLE
    if np.any(u.values[hole] != 0.0):
        bad = int(np.flatnonzero(hole & (u.values != 0.0))[0])
        raise ValueError(f"nonzero value {u.values[bad]!r} at hole node {bad}")
    energy = element_energy(mesh, u.values)
    full = float(np.sqrt(np.sum(energy)))
    on_eps = float(np.sqrt(np.sum(energy[mesh.omega_eps_elements])))
    if abs(full - on_eps) > 1e-13 * max(full, 1e-300):
        raise AssertionError(
            f"extension is not an isometry: |u|_H1(Omega)={full!r} vs |u|_H1(Omega_eps)={on_eps!r}"
        )
    return u


def write_field_csv(path, field: FieldFunction) -> None:
    """Dump ``(node index, x, y, class, value)`` rows with 17-digit floats.

    The bytes of ``csv.writer`` (CRLF line ends; no field needs quoting), from
    one format per row over whole columns converted to Python lists at once.
    """
    mesh = field.mesh
    y = mesh.nodes[:, 1] if mesh.dim == 2 else np.zeros(mesh.n_nodes)
    names = [CLASS_NAMES[k] for k in mesh.node_class.tolist()]
    row = f"%d,{FLOAT_FMT},{FLOAT_FMT},%s,{FLOAT_FMT}\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("index,x,y,class,value\r\n")
        fh.writelines([row % r for r in zip(range(mesh.n_nodes), mesh.nodes[:, 0].tolist(),
                                            y.tolist(), names, field.values.tolist())])


def read_field_csv(mesh: Mesh, path) -> FieldFunction:
    """Read a field written by ``write_field_csv`` back onto ``mesh``."""
    values = np.zeros(mesh.n_nodes)
    seen = np.zeros(mesh.n_nodes, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = sorted({"index", "value"} - set(reader.fieldnames or ()))
        if missing:
            raise ValueError(f"field file has no column {', '.join(missing)}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: field count differs from the header")
            i = int(row["index"])
            if not 0 <= i < mesh.n_nodes:
                raise ValueError(f"node index {i} out of range for mesh with {mesh.n_nodes} nodes")
            if seen[i]:
                raise ValueError(f"node index {i} appears more than once in the field file")
            values[i] = float(row["value"])
            seen[i] = True
    if not seen.all():
        raise ValueError(f"field file has {int(seen.sum())} rows, mesh has {mesh.n_nodes} nodes")
    return FieldFunction(mesh, values)
