from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import EigenTruncation, OscillatingPower, PowerLaw, TableMap, nonlinearity
from mildsing.nonlinearity import Nonlinearity, _at_nodes
from mildsing.verification import _check_dominated

from oracles import check_dominated_per_node, evaluate_at, nonlinearity_per_node, power_law_masked


@pytest.fixture(scope="module")
def mesh():
    return ms.build_rectangle_mesh(1.0, 1.0, 9, 9)


def test_gamma_range_enforced(mesh):
    for bad in (-0.5, 0.0, 1.5):
        with pytest.raises(ValueError, match="gamma"):
            nonlinearity(mesh, PowerLaw(0.5), f=1.0, gamma=bad)


def test_nonnegative_data_enforced(mesh):
    with pytest.raises(ValueError, match="nonnegative"):
        nonlinearity(mesh, PowerLaw(0.5), f=-1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        nonlinearity(mesh, PowerLaw(0.5), f=1.0, l=-2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["f", "l", "h"])
def test_non_finite_data_rejected(mesh, name, bad):
    # a NaN passes ``< 0`` checks and, in ``f``, would silently act as ``f = 0``
    data = np.ones(mesh.n_nodes)
    data[12] = bad
    with pytest.raises(ValueError, match=rf"{name} must be finite .* \(node 12 has {bad!r}\)"):
        nonlinearity(mesh, PowerLaw(0.5), **{"f": 1.0, name: data})


def test_power_blows_up_only_at_zero(mesh):
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0, l=1.0)
    at0 = evaluate_at(F, 0.0)
    assert np.all(np.isinf(at0))
    assert np.all(np.isfinite(evaluate_at(F, 1e-12)))
    assert evaluate_at(F, 4.0)[0] == pytest.approx(1.5, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(gamma=st.floats(0.05, 1.0),
       s=st.lists(st.floats(min_value=0.0, allow_subnormal=True), min_size=1, max_size=20))
@example(gamma=1.0, s=[-0.0, 0.0, 1.0, 5e-300])
@example(gamma=0.05, s=[-0.0])
def test_power_law_is_the_masked_power(gamma, s):
    # the bare power s**-gamma, bit for bit the earlier masked form at every
    # s >= 0, with +inf at both zeros (a bare (-0.0)**-1.0 is -inf)
    s = np.array(s)
    with np.errstate(over="ignore"):  # s**-gamma overflows to inf below ~1e-308 in either form
        got, want = PowerLaw(gamma)(s), power_law_masked(gamma, s)
    assert got.tobytes() == want.tobytes()
    assert np.all(got[s == 0.0] == np.inf)


def test_zero_f_masks_singularity(mesh):
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=3.0)
    assert np.all(evaluate_at(F, 0.0) == 3.0)


def test_default_envelope_covers_each_kind(mesh):
    # construction runs the sampled envelope check; these must all pass it
    nonlinearity(mesh, PowerLaw(1.0), f=2.0, l=1.0)
    nonlinearity(mesh, OscillatingPower(0.5), f=1.5, l=0.5)
    nonlinearity(mesh, EigenTruncation(19.7, 1.0), f=1.0, gamma=1.0)
    nonlinearity(mesh, TableMap((0.0, 1.0, 2.0), (0.0, 0.5, 1.0)), f=1.0, gamma=1.0)


def test_explicit_envelope_violation_rejected(mesh):
    with pytest.raises(ValueError, match="envelope"):
        nonlinearity(mesh, PowerLaw(0.5), f=2.0, h=0.1)


def test_oscillating_declares_unknown_monotonicity(mesh):
    F = nonlinearity(mesh, OscillatingPower(0.5), f=1.0)
    assert F.lambda_mono == np.inf


def test_declared_monotonicity_is_checked(mesh):
    # a growing table with lambda_mono = 0 must be rejected by the sampled check
    with pytest.raises(ValueError, match="increases"):
        nonlinearity(mesh, TableMap((0.0, 1.0, 1000.0), (0.0, 1.0, 1000.0)),
                     f=1.0, gamma=1.0, lambda_mono=0.0)
    # with the true slope it passes
    F = nonlinearity(mesh, TableMap((0.0, 1.0, 1000.0), (0.0, 1.0, 1000.0)),
                     f=1.0, gamma=1.0, lambda_mono=1.0)
    assert F.lambda_mono == 1.0


def test_young_scalar_inequality():
    # u**(1-gamma) <= (1-gamma) u + gamma for u >= 0, 0 < gamma <= 1
    rng = np.random.default_rng(0)
    u = np.concatenate([np.logspace(-12, 6, 300), rng.random(300) * 10.0, [0.0]])
    for gamma in (0.1, 0.25, 0.5, 0.75, 1.0):
        lhs = u ** (1.0 - gamma)
        rhs = (1.0 - gamma) * u + gamma
        assert np.all(lhs <= rhs + 1e-12)


def test_estimate_lambda_mono_registry_values(mesh):
    F_pow = nonlinearity(mesh, PowerLaw(0.5), f=1.0, l=2.0)
    assert ms.estimate_lambda_mono(F_pow) == 0.0

    lam1 = 19.739
    F_eig = nonlinearity(mesh, EigenTruncation(lam1, 1.0), f=1.0, gamma=1.0)
    assert ms.estimate_lambda_mono(F_eig) == pytest.approx(lam1, rel=1e-10)

    F_lin = nonlinearity(mesh, TableMap((0.0, 2000.0), (0.0, 1000.0)), f=1.0, gamma=1.0,
                         lambda_mono=0.5)
    assert ms.estimate_lambda_mono(F_lin) == pytest.approx(0.5, rel=1e-12)


def test_estimate_lambda_mono_scales_with_f(mesh):
    lam1 = 10.0
    F = nonlinearity(mesh, EigenTruncation(lam1, 1.0), f=3.0, gamma=1.0)
    assert ms.estimate_lambda_mono(F) == pytest.approx(3.0 * lam1, rel=1e-10)


def test_estimate_lambda_mono_infinite_on_blowup(mesh):
    # a g that is infinite at points of the sampling grid
    F = replace(nonlinearity(mesh, PowerLaw(0.5), f=1.0),
                g=lambda s: np.where(s < 1e-3, np.inf, s ** -0.5))
    assert ms.estimate_lambda_mono(F) == np.inf


@pytest.mark.parametrize("g", [PowerLaw(0.5), OscillatingPower(1.0),
                               TableMap((0.0, 0.5, 2.0), (3.0, 1.0, 0.25))],
                         ids=["power", "oscillating", "table"])
@pytest.mark.parametrize("support", ["everywhere", "subset", "nowhere"])
def test_evaluate_is_l_plus_f_g_where_f_is_positive(g, support):
    # where f > 0, evaluate rounds as l + f g(s) over every node; where f = 0
    # it gives l, also at s = 0 nodes, where g is +inf unless g is a table
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    rng = np.random.default_rng(11)
    n = mesh.n_nodes
    f = rng.uniform(0.5, 2.0, n) * {"everywhere": 1.0, "subset": rng.random(n) < 0.5,
                                    "nowhere": 0.0}[support]
    F = nonlinearity(mesh, g, f=f, l=rng.uniform(0.0, 1.0, n))
    s = rng.uniform(0.0, 3.0, n)
    s[rng.random(n) < 0.2] = 0.0
    got = F.evaluate(s)
    pos = F.f > 0.0
    with np.errstate(invalid="ignore"):  # 0 * inf at the f = 0, s = 0 nodes
        full = F.l + F.f * F.g(s)
    assert got[pos].tobytes() == full[pos].tobytes()
    assert got[~pos].tobytes() == F.l[~pos].tobytes()
    # the form gathered once for a node subset, the solver's free nodes, agrees
    nodes = np.flatnonzero(rng.random(n) < 0.7)
    assert _at_nodes(F, nodes)(s[nodes]).tobytes() == got[nodes].tobytes()
    singular = (s == 0.0) & pos
    assert singular.any() == (support != "nowhere")
    assert np.all(np.isinf(got[singular]) == (not isinstance(g, TableMap)))


def _mesh(shape):
    if len(shape) == 1:
        return ms.build_interval_mesh(1.0, shape[0])
    nx, ny = shape
    return ms.build_rectangle_mesh(nx - 1.0, ny - 1.0, nx, ny)


@st.composite
def table_maps(draw):
    """A piecewise-linear ``g`` on 2-5 points from 0, increasing or decreasing."""
    k = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=k - 1, max_size=k - 1))
    values = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k)),
                    reverse=draw(st.booleans()))
    return TableMap(tuple(np.concatenate([[0.0], np.cumsum(gaps)])), tuple(values))


scalar_maps = st.one_of(
    st.builds(PowerLaw, st.floats(0.05, 1.0)),
    st.builds(OscillatingPower, st.floats(0.05, 1.0)),
    st.builds(EigenTruncation, st.floats(0.1, 30.0), st.floats(0.01, 10.0)),
    table_maps(),
)


@st.composite
def validation_cases(draw):
    """``(shape, g, f, l, h, lambda_mono)``: ``f`` zero at about 20% of nodes, ``l >= 0``.

    ``h`` is ``None`` (the default) or random, often below the envelope;
    ``lambda_mono`` is ``None`` (the default), ``inf`` or random, often too small.
    """
    shape = draw(st.one_of(st.tuples(st.integers(2, 30)),
                           st.tuples(st.integers(2, 9), st.integers(2, 9))))
    n = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.uniform(0.0, 2.0, n) * (rng.random(n) >= 0.2)
    l = rng.uniform(0.0, 1.0, n) * draw(st.sampled_from([0.0, 1.0]))
    h = draw(st.sampled_from([None, (f + l) * rng.uniform(0.5, 4.0, n)]))
    lam = draw(st.one_of(st.none(), st.just(np.inf), st.floats(0.0, 20.0)))
    return shape, draw(scalar_maps), f, l, h, lam


def _raised(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, message)`` when ``fn`` raises ``ValueError``."""
    try:
        return fn(*args, **kwargs), None
    except ValueError as err:
        return None, str(err)


_ONE_LOW_NODE = np.ones(25)
_ONE_LOW_NODE[12] = 0.5
_ONE_POSITIVE_NODE = np.zeros(9)
_ONE_POSITIVE_NODE[4] = 1.5


@settings(max_examples=200, deadline=None)
@given(validation_cases())
# the envelope fails at node 12 alone
@example(((5, 5), PowerLaw(0.5), np.ones(25), np.zeros(25), _ONE_LOW_NODE, None))
# f = 0 at all nodes but one, where g grows faster than lambda_mono
@example(((9,), EigenTruncation(5.0, 1.0), _ONE_POSITIVE_NODE, np.zeros(9), None, 1.0))
# the only increase is from the s = 0 point of the monotonicity grid to the next
@example(((9,), TableMap((0.0, 1e-8, 1.0), (0.0, 1.0, 1.0)), _ONE_POSITIVE_NODE, np.full(9, 0.5),
          None, 1.0))
def test_validation_matches_the_per_node_oracle(case):
    # nonlinearity() raises exactly when the per-node checks raise, with the same message
    shape, g, f, l, h, lam = case
    mesh = _mesh(shape)
    got, message = _raised(nonlinearity, mesh, g, f=f, l=l, h=h, lambda_mono=lam)
    want, want_message = _raised(nonlinearity_per_node, mesh, g, f=f, l=l, h=h, lambda_mono=lam)
    assert message == want_message
    if want is not None:
        assert got.h.tobytes() == want.h.tobytes() and got.lambda_mono == want.lambda_mono


@st.composite
def dominated_pairs(draw):
    """``(shape, (g1, f1, l1), (g2, f2, l2))``: ``f2``, ``l2`` scale ``f1``, ``l1`` per node."""
    shape, g1, f1, l1, _, _ = draw(validation_cases())
    n = f1.size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g2 = draw(st.one_of(st.just(g1), scalar_maps))
    low = draw(st.sampled_from([0.8, 1.0]))  # from 1.0, F2 >= F1 wherever g2 is g1
    return shape, (g1, f1, l1), (g2, f1 * rng.uniform(low, 1.5, n), l1 * rng.uniform(low, 1.5, n))


def _unvalidated(mesh, g, f, l):
    return Nonlinearity(mesh, np.array(f, dtype=float), np.array(l, dtype=float), g, 1.0,
                        np.zeros(mesh.n_nodes), np.inf)


_ONE_SMALL_NODE = np.ones(25)
_ONE_SMALL_NODE[7] = 0.9


@settings(max_examples=200, deadline=None)
@given(dominated_pairs())
# F2 falls below F1 at node 7 alone
@example(((5, 5), (PowerLaw(0.5), np.ones(25), np.zeros(25)),
          (PowerLaw(0.5), _ONE_SMALL_NODE, np.zeros(25))))
# f = 0 at all nodes but one, on both sides
@example(((9,), (OscillatingPower(0.5), _ONE_POSITIVE_NODE, np.zeros(9)),
          (PowerLaw(0.5), _ONE_POSITIVE_NODE, np.zeros(9))))
# F1 > F2 only at s = 0
@example(((9,), (TableMap((0.0, 1e-8, 1.0), (1.0, 0.0, 0.0)), _ONE_POSITIVE_NODE, np.zeros(9)),
          (TableMap((0.0, 1.0), (0.5, 0.5)), _ONE_POSITIVE_NODE, np.zeros(9))))
def test_check_dominated_matches_the_per_node_oracle(pair):
    shape, data1, data2 = pair
    mesh = _mesh(shape)
    F1, F2 = _unvalidated(mesh, *data1), _unvalidated(mesh, *data2)
    assert _raised(_check_dominated, F1, F2) == _raised(check_dominated_per_node, F1, F2)


class CountingMap:
    """A ``ScalarMap`` that counts the points at which it evaluates ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.gamma = inner.gamma
        self.points = 0

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        self.points += s.size
        return self.inner(s)

    def envelope_constant(self, gamma):
        return self.inner.envelope_constant(gamma)

    def default_lambda_mono(self):
        return self.inner.default_lambda_mono()


def test_validation_cost_does_not_grow_with_the_mesh():
    # g is evaluated once per sample point: 56 + 57 points on any mesh, not per node
    points = []
    for n in (17, 65):
        mesh = ms.build_rectangle_mesh(1.0, 1.0, n, n)
        g = CountingMap(PowerLaw(0.5))
        nonlinearity(mesh, g, f=1.0, l=1.0)
        F1 = nonlinearity(mesh, CountingMap(PowerLaw(0.5)), f=1.0)
        F2 = nonlinearity(mesh, CountingMap(PowerLaw(0.5)), f=2.0)
        F1.g.points = F2.g.points = 0
        _check_dominated(F1, F2)
        points.append((g.points, F1.g.points + F2.g.points))
    assert points[0] == points[1]
    assert points[0][0] <= 113 and points[0][1] <= 2 * 201
