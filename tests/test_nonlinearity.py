from dataclasses import replace

import numpy as np
import pytest

import mildsing as ms
from mildsing import EigenTruncation, OscillatingPower, PowerLaw, TableMap, nonlinearity


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
    at0 = F.evaluate_at(0.0)
    assert np.all(np.isinf(at0))
    assert np.all(np.isfinite(F.evaluate_at(1e-12)))
    assert F.evaluate_at(4.0)[0] == pytest.approx(1.5, rel=1e-14)


def test_zero_f_masks_singularity(mesh):
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=3.0)
    assert np.all(F.evaluate_at(0.0) == 3.0)


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
