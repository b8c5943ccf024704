import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mildsing import gk, tk, z_delta

SAMPLES = np.concatenate([
    np.linspace(-50.0, 50.0, 401),
    np.logspace(-8, 3, 60),
    -np.logspace(-8, 3, 60),
    [0.0],
])


def test_clip_values():
    assert tk(3.0, 2.0) == 2.0
    assert gk(3.0, 2.0) == 1.0
    assert tk(-3.0, 2.0) == -2.0
    assert gk(-3.0, 2.0) == -1.0


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 7.3])
def test_clip_plus_excess_is_identity(k):
    assert np.array_equal(tk(SAMPLES, k) + gk(SAMPLES, k), SAMPLES)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(-1e12, 1e12), k=st.floats(1e-12, 1e12))
@example(s=-0.4193598121268742, k=0.1)
def test_clip_plus_excess_within_one_rounding(s, k):
    # exact while s - k is exact (|s| <= 2k); beyond, gk rounds once
    total = tk(s, k) + gk(s, k)
    if abs(s) <= 2.0 * k:
        assert total == s
    else:
        assert abs(total - s) <= np.spacing(abs(s))


def test_clip_plus_excess_is_not_exact_beyond_twice_the_height():
    s = -0.4193598121268742
    assert tk(s, 0.1) + gk(s, 0.1) == -0.4193598121268741


@pytest.mark.parametrize("j", [0, 1, 2, 3, 5, 10])
def test_excess_composition_identity(j):
    # excess at height j+1 equals excess at j of the excess at 1
    lhs = gk(SAMPLES, j + 1.0)
    rhs = gk(gk(SAMPLES, 1.0), j) if j > 0 else gk(SAMPLES, 1.0)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=0.0)


def test_clip_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        tk(1.0, 0.0)
    with pytest.raises(ValueError):
        gk(1.0, -1.0)
    with pytest.raises(ValueError):
        z_delta(1.0, 0.0)


def test_cutoff_values_at_tenth():
    delta = 0.1
    assert z_delta(0.05, delta) == 1.0
    assert z_delta(0.15, delta) == pytest.approx(0.5, abs=1e-15)
    assert z_delta(0.30, delta) == 0.0


def test_cutoff_is_nonincreasing():
    s = np.linspace(0.0, 1.0, 2001)
    z = z_delta(s, 0.1)
    assert np.all(np.diff(z) <= 0.0)
    assert np.all((z >= 0.0) & (z <= 1.0))
