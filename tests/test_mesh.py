import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import mesh as mesh_module
from mildsing.mesh import CLASS_NAMES, HOLE, INTERIOR, OUTER_BOUNDARY, element_energy

from oracles import (corrector_by_search, element_grads, element_table, nodes_in_disk,
                     perforation_by_search, write_field_csv_rows)


class Holes:
    """Minimal perforation description for direct mesh tests."""

    def __init__(self, epsilon, radius, strategy="resolved"):
        self.epsilon = epsilon
        self.radius = radius
        self.strategy = strategy


def test_small_grid_counts():
    m = ms.build_rectangle_mesh(1.0, 1.0, 3, 3)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert int((m.node_class == OUTER_BOUNDARY).sum()) == 8
    assert m.free_nodes.tolist() == [4]


def test_minimal_mesh_all_boundary():
    m = ms.build_rectangle_mesh(1.0, 1.0, 2, 2)
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert np.all(m.node_class == OUTER_BOUNDARY)


def test_fine_mesh_spacing_and_interior_count():
    m = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    assert m.h == pytest.approx(1.0 / 256.0, rel=1e-15)
    assert m.free_nodes.size == 255 ** 2


def test_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        ms.build_rectangle_mesh(1.0, 1.0, 1, 3)
    with pytest.raises(ValueError):
        ms.build_interval_mesh(1.0, 1)


def test_rejects_nonsquare_cells():
    with pytest.raises(ValueError):
        ms.build_rectangle_mesh(2.0, 1.0, 5, 5)


def test_elements_have_positive_area():
    m = ms.build_rectangle_mesh(2.0, 1.0, 9, 5)
    areas = np.concatenate([m.chunk_geometry(s)[0] for s in m.element_chunks()])
    assert areas.shape == (m.n_elements,)
    assert np.all(areas > 0.0)
    assert np.allclose(areas, m.h ** 2 / 2.0, rtol=1e-14)
    assert areas.sum() == pytest.approx(2.0, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([1, 2]), nx=st.integers(2, 40), ny=st.integers(2, 40),
       chunk=st.sampled_from([2, 4, 6, 64, mesh_module._CHUNK]), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, nx=101, ny=101, chunk=mesh_module._CHUNK, seed=0)  # chunks of 16384 and 3616
def test_chunk_elements_match_the_stored_table(dim, nx, ny, chunk, seed):
    # the vertex indices derived per chunk are the table the builders stored,
    # on every chunk, also with _CHUNK small enough to make many; so are the
    # per-element reductions over them
    with mock.patch.object(mesh_module, "_CHUNK", chunk):
        mesh = (ms.build_interval_mesh(1.0, nx) if dim == 1
                else ms.build_rectangle_mesh(nx - 1.0, ny - 1.0, nx, ny))
        table = element_table(mesh)
        assert mesh.n_elements == table.shape[0]
        chunks = mesh.element_chunks()
        assert [s.start for s in chunks] == list(range(0, mesh.n_elements, chunk))
        for s in chunks:
            got = mesh.chunk_elements(s)
            assert got.dtype == np.intp
            assert np.array_equal(got, table[s])
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(mesh.n_nodes)
        assert mesh.element_means(values).tobytes() == values[table].mean(axis=1).tobytes()
        holed = replace(mesh, node_class=rng.choice([INTERIOR, HOLE], mesh.n_nodes).astype(np.int8))
        assert np.array_equal(holed.omega_eps_elements,
                              ~(holed.node_class[table] == HOLE).all(axis=1))


def test_node_classes_partition():
    m = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    spec = Holes(epsilon=0.25, radius=0.125)
    p = ms.perforate(m, spec)
    classes = np.sort(np.unique(p.node_class))
    assert set(classes.tolist()) <= {INTERIOR, OUTER_BOUNDARY, HOLE}
    # boundary nodes untouched, no node in two classes by construction
    assert np.array_equal(p.node_class == OUTER_BOUNDARY, m.node_class == OUTER_BOUNDARY)
    assert set(CLASS_NAMES.values()) == {"interior", "outer_boundary", "hole"}


def test_lattice_count_sixteen_holes():
    m = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    spec = Holes(epsilon=0.125, radius=0.0167)
    p = ms.perforate(m, spec)
    assert p.perforation.n_holes == 16
    centers = p.perforation.centers
    assert centers.shape == (16, 2)
    # cell midpoints of the 4 x 4 lattice of 1/4-cells
    expected = sorted((0.125 + 0.25 * i, 0.125 + 0.25 * j) for i in range(4) for j in range(4))
    assert np.allclose(sorted(map(tuple, centers)), expected)


def test_resolved_hole_node_count_matches_enumeration():
    """Each hole of the prescribed radius covers the enumerated node set (>= 45 nodes)."""
    m = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    spec = ms.PerforationSpec(epsilon=0.125, target_mu=50.0)
    p = ms.perforate(m, spec)
    counts = p.perforation.nodes_per_hole
    oracle = [nodes_in_disk(m, c, spec.radius) for c in p.perforation.centers]
    assert counts.tolist() == oracle
    assert np.all(counts >= 45)
    assert int((p.node_class == HOLE).sum()) == sum(oracle)
    assert p.perforation.max_resolved_radius_h <= spec.radius / m.h


def test_collapsed_single_node_per_center():
    m = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    spec = Holes(epsilon=0.125, radius=0.0, strategy="collapsed")
    p = ms.perforate(m, spec)
    assert int((p.node_class == HOLE).sum()) == 16
    assert np.all(p.perforation.nodes_per_hole == 1)


def test_perforate_monotone_in_radius():
    m = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    holes = []
    for r in (0.02, 0.04, 0.08):
        p = ms.perforate(m, Holes(epsilon=0.25, radius=r))
        holes.append(set(np.flatnonzero(p.node_class == HOLE).tolist()))
    assert holes[0] <= holes[1] <= holes[2]


def test_perforated_mesh_shares_the_tiles_not_the_node_classes():
    # the tiles depend on the nodes alone, which perforate does not move;
    # what depends on the node classes is computed again
    m = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    m.chunk_geometry(m.element_chunks()[0])
    m.chunk_elements(m.element_chunks()[0])
    free, omega = m.free_nodes, m.omega_eps_elements
    p = ms.perforate(m, Holes(epsilon=0.25, radius=0.1))
    for name in ("cell", "_chunk_tile", "_index_tile"):
        assert getattr(p, name) is getattr(m, name)
    assert p.free_nodes.size < free.size and not p.omega_eps_elements.all() and omega.all()
    for s in m.element_chunks():
        assert np.array_equal(p.chunk_elements(s), m.chunk_elements(s))


def test_perforate_rejects_bad_geometry():
    m = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    with pytest.raises(ValueError):
        ms.perforate(m, Holes(epsilon=0.25, radius=0.3))  # touches the boundary
    with pytest.raises(ValueError):
        ms.perforate(m, Holes(epsilon=0.25, radius=0.01))  # unresolvable: h > r/2
    with pytest.raises(ValueError):
        ms.perforate(m, Holes(epsilon=0.3, radius=0.05))  # domain not a whole cell count
    m1 = ms.build_interval_mesh(1.0, 9)
    with pytest.raises(ValueError):
        ms.perforate(m1, Holes(epsilon=0.25, radius=0.05))


@st.composite
def hole_lattices(draw):
    """``(width, height, nx, cells across the short side, strategy, radius)``.

    ``epsilon = min(width, height) / (2 * cells across)``, dyadic or not;
    resolved radii lie below ``epsilon`` and collapsed ones below ``h``.
    """
    width, height = draw(st.sampled_from([(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0)]))
    # on a domain twice as wide as high, nx - 1 is even so that ny is whole
    nx = 2 * draw(st.integers(4, 32)) + 1 if width > height else draw(st.integers(9, 65))
    k = draw(st.integers(1, 12))
    epsilon = min(width, height) / (2 * k)
    strategy = draw(st.sampled_from(["resolved", "collapsed"]))
    h = width / (nx - 1)
    if strategy == "collapsed":
        return width, height, nx, k, strategy, draw(st.floats(0.0, h, exclude_max=True))
    low = draw(st.sampled_from([0.0, 2.0 * h] if 2.0 * h < epsilon else [0.0]))  # 2 h: resolvable
    return width, height, nx, k, strategy, draw(st.floats(low, epsilon, exclude_max=True))


def _lattice_mesh(width, height, nx):
    return ms.build_rectangle_mesh(width, height, nx, round((nx - 1) * height / width) + 1)


@settings(max_examples=300, deadline=None)
@given(case=hole_lattices())
# rounding ties: centers halfway between nodes, and radii a rounding below epsilon
@example(case=(1.0, 1.0, 13, 4, "collapsed", 0.0))
@example(case=(1.0, 1.0, 19, 3, "resolved", 0.16666666666666663))
@example(case=(2.0, 2.0, 65, 10, "resolved", 0.0625))
def test_perforation_matches_search_over_holes(case):
    width, height, nx, k, strategy, radius = case
    mesh = _lattice_mesh(width, height, nx)
    holes = Holes(epsilon=min(width, height) / (2 * k), radius=radius, strategy=strategy)
    try:
        node_class, centers, counts, radius_h = perforation_by_search(
            mesh, holes.epsilon, radius, strategy)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ms.perforate(mesh, holes)
        assert str(raised.value) == str(exc)
        return
    p = ms.perforate(mesh, holes)
    assert np.array_equal(p.node_class, node_class)
    assert np.array_equal(p.perforation.centers, centers)
    assert np.array_equal(p.perforation.nodes_per_hole, counts)
    assert p.perforation.epsilon == holes.epsilon
    assert p.perforation.min_resolved_radius_h == radius_h.min()
    assert p.perforation.max_resolved_radius_h == radius_h.max()
    if strategy == "resolved":
        w = ms.corrector_field(p).values
        assert np.array_equal(w, corrector_by_search(p, holes.epsilon, radius, holes.epsilon))


def test_extension_zero_and_identity_cases():
    m = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    z = ms.FieldFunction.zeros(m)
    assert np.array_equal(ms.extend_by_zero(z).values, z.values)
    vals = np.zeros(m.n_nodes)
    vals[m.free_nodes[0]] = 1.0
    u = ms.FieldFunction(m, vals)
    assert np.array_equal(ms.extend_by_zero(u).values, vals)


@settings(max_examples=100, deadline=None)
@given(case=hole_lattices(), seed=st.integers(0, 2 ** 32 - 1))
@example(case=(1.0, 1.0, 129, 2, "resolved", 0.08), seed=7)
def test_extension_isometry_on_perforated_mesh(case, seed):
    width, height, nx, k, strategy, radius = case
    try:
        p = ms.perforate(_lattice_mesh(width, height, nx),
                         Holes(min(width, height) / (2 * k), radius, strategy))
    except ValueError:
        assume(False)  # inadmissible lattice: the matching property checks the message
    vals = np.random.default_rng(seed).random(p.n_nodes)
    vals[p.node_class != INTERIOR] = 0.0
    u = ms.FieldFunction(p, vals)
    assert ms.extend_by_zero(u) is u  # raises unless the seminorms agree to 1e-13
    full = ms.h1_seminorm(u)
    on_eps = math.sqrt(np.sum(element_energy(p, vals)[p.omega_eps_elements]))
    assert abs(full - on_eps) <= 1e-13 * full
    # elements fully inside holes contribute exactly zero
    grad = np.einsum("evd,ev->ed", element_grads(p), vals[element_table(p)])
    assert np.abs(grad[~p.omega_eps_elements]).max(initial=0.0) == 0.0
    if strategy == "resolved":  # radius >= 2 h: each hole swallows the cell around its centre
        assert (~p.omega_eps_elements).any()


def test_extension_flags_nonzero_hole_value():
    m = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    p = ms.perforate(m, Holes(epsilon=0.25, radius=0.08))
    vals = np.zeros(p.n_nodes)
    vals[np.flatnonzero(p.node_class == HOLE)[0]] = 1e-9
    with pytest.raises(ValueError):
        ms.extend_by_zero(ms.FieldFunction(p, vals))


@st.composite
def nodal_fields(draw):
    """A mesh (a 2**2 to 33**2 square or a 2- to 33-node interval) and finite values on it.

    The values cover -0.0, subnormals and magnitudes up to the largest double.
    """
    nx = draw(st.integers(2, 33))
    mesh = (ms.build_interval_mesh(1.0, nx) if draw(st.booleans())
            else ms.build_rectangle_mesh(1.0, 1.0, nx, nx))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=mesh.n_nodes, max_size=mesh.n_nodes))
    return mesh, np.array(values, dtype=float)


@settings(max_examples=100, deadline=None)
@given(case=nodal_fields())
@example(case=(ms.build_rectangle_mesh(1.0, 1.0, 2, 2),
               np.array([-0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0])))
def test_field_csv_roundtrip(tmp_path_factory, case):
    m, values = case
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    ms.write_field_csv(path, ms.FieldFunction(m, values))
    back = ms.read_field_csv(m, path)
    assert np.array_equal(back.values.view(np.int64), values.view(np.int64))  # bit for bit


def test_field_csv_rejects_repeated_index(tmp_path):
    m = ms.build_rectangle_mesh(1.0, 1.0, 5, 5)
    path = tmp_path / "field.csv"
    ms.write_field_csv(path, ms.FieldFunction.from_callable(m, lambda x, y: 1.0 + x * y))
    lines = path.read_text().splitlines(keepends=True)
    lines[7] = lines[6]  # row count stays 25: node 5 twice, node 6 missing
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="node index 5 "):
        ms.read_field_csv(m, path)


def test_field_csv_deterministic_bytes(tmp_path):
    m = ms.build_rectangle_mesh(1.0, 1.0, 9, 9)
    u = ms.FieldFunction.from_callable(m, lambda x, y: x * y + 1.0 / 3.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ms.write_field_csv(p1, u)
    ms.write_field_csv(p2, u)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mesh", [
    ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 17, 17), Holes(epsilon=0.25, radius=0.125)),
    ms.build_interval_mesh(1.0, 17),
], ids=["perforated", "interval"])
def test_field_csv_bytes_match_row_writer(tmp_path, mesh):
    # the column-wise writer against csv.writer row by row, byte for byte
    values = np.random.default_rng(2).standard_normal(mesh.n_nodes)
    values[:3] = [-0.0, 1e-300, 7.0]
    field = ms.FieldFunction(mesh, values)
    ms.write_field_csv(tmp_path / "new.csv", field)
    write_field_csv_rows(tmp_path / "old.csv", field)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert mesh.dim == 1 or (mesh.node_class == HOLE).any()


def test_mesh_is_immutable():
    m = ms.build_rectangle_mesh(1.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.node_class[0] = HOLE
    s = m.element_chunks()[0]
    m.chunk_elements(s)[0, 0] = 7  # a fresh array: the cached index tile stays as it was
    assert np.array_equal(m.chunk_elements(s), element_table(m)[s])
