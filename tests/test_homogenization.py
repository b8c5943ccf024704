import math

import numpy as np
import pytest

import mildsing as ms
from mildsing import PerforationSpec, PowerLaw, nonlinearity
from mildsing.homogenization import prescribed_mu_radius
from mildsing.mesh import h1_seminorm


def test_prescribed_mu_radius_value():
    # C0 = pi/100 at eps = 1/8: r = eps * exp(-C0/eps^2) ~ 0.0167
    c0 = math.pi / 100.0
    r = prescribed_mu_radius(0.125, c0)
    assert r == pytest.approx(0.125 * math.exp(-64.0 * c0), rel=1e-14)
    assert r == pytest.approx(0.0167, abs=1e-4)


def test_strange_term_formula_values():
    assert ms.strange_term_formula(1.0) == pytest.approx(math.pi / 2.0, rel=1e-14)
    assert ms.strange_term_formula(math.pi / 100.0) == pytest.approx(50.0, rel=1e-14)


def test_prescribed_mu_roundtrip():
    spec = PerforationSpec(epsilon=0.125, target_mu=50.0)
    assert spec.C0 == pytest.approx(math.pi / 100.0, rel=1e-14)
    assert ms.strange_term_formula(spec.C0) == pytest.approx(50.0, rel=1e-12)
    # the prescribed radius makes the per-cell capacity density exactly mu
    density = 2.0 * math.pi / math.log(spec.epsilon / spec.radius) / (2 * spec.epsilon) ** 2
    assert density == pytest.approx(50.0, rel=1e-12)


def test_spec_validation():
    with pytest.raises(TypeError):
        PerforationSpec(epsilon=0.125)
    with pytest.raises(ValueError, match="epsilon"):
        PerforationSpec(epsilon=0.0, target_mu=50.0)
    with pytest.raises(ValueError, match="target_mu"):
        PerforationSpec(epsilon=0.125, target_mu=0.0)
    with pytest.raises(ValueError, match="strategy"):
        PerforationSpec(epsilon=0.125, target_mu=50.0, strategy="square")
    # so large a mu rounds exp(-C0 / eps**2) to 1: the hole would fill its cell
    with pytest.raises(ValueError, match="strictly inside"):
        PerforationSpec(epsilon=0.125, target_mu=1e300)


def test_discrete_capacity_annulus_oracle():
    cap = ms.discrete_capacity(0.5, 0.05, 1.0 / 512.0)
    exact = 2.0 * math.pi / math.log(10.0)
    assert abs(cap - exact) <= 0.02 * exact


def test_discrete_capacity_memory_per_node(traced_peak):
    # no element table (8 bytes x 3 per element, 48 per node) and no dead
    # vectors in the solve: 197 bytes of tracemalloc per node at 257**2,
    # against 261 with the stored table and the CG's temporaries, and 204
    # with the smoother weights allocated before the multigrid build
    cap, peak = traced_peak(ms.discrete_capacity, 0.5, 0.05, 1.0 / 256.0)
    assert peak <= 200 * 257 ** 2
    assert cap == pytest.approx(2.0 * math.pi / math.log(10.0), rel=0.02)


def test_discrete_capacity_growth_toward_degenerate():
    caps = [ms.discrete_capacity(0.5, r, 1.0 / 128.0) for r in (0.05, 0.125, 0.25, 0.4)]
    assert all(b > a for a, b in zip(caps, caps[1:]))


def test_discrete_capacity_refinement_stable():
    c1 = ms.discrete_capacity(0.5, 0.05, 1.0 / 256.0)
    c2 = ms.discrete_capacity(0.5, 0.05, 1.0 / 512.0)
    assert abs(c2 - c1) / c1 < 0.01


def test_discrete_capacity_rejects_unresolved():
    with pytest.raises(ValueError):
        ms.discrete_capacity(0.5, 0.01, 1.0 / 64.0)
    with pytest.raises(ValueError):
        ms.discrete_capacity(0.05, 0.5, 1.0 / 64.0)


def test_per_cell_capacity_density_matches_mu():
    spec = PerforationSpec(epsilon=0.125, target_mu=50.0)
    cap = ms.discrete_capacity(spec.epsilon, spec.radius, 1.0 / 256.0)
    measured_mu = cap / (2.0 * spec.epsilon) ** 2
    assert abs(measured_mu - 50.0) <= 0.1 * 50.0


@pytest.fixture(scope="module")
def corrector_setup():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 257, 257)
    spec = PerforationSpec(epsilon=0.125, target_mu=50.0)
    return ms.perforate(mesh, spec), spec


def test_corrector_profile_values(corrector_setup):
    mesh_eps, spec = corrector_setup
    w = ms.corrector_field(mesh_eps, spec)
    assert np.all((w.values >= 0.0) & (w.values <= 1.0))
    # zero at the lattice centers (grid nodes), 1 at distance rho from all
    centers = mesh_eps.perforation.centers
    d2 = np.full(mesh_eps.n_nodes, np.inf)
    for c in centers:
        d2 = np.minimum(d2, (mesh_eps.nodes[:, 0] - c[0]) ** 2 + (mesh_eps.nodes[:, 1] - c[1]) ** 2)
    on_center = d2 <= 1e-20
    assert on_center.sum() == 16
    assert np.all(w.values[on_center] == 0.0)
    assert np.all(w.values[d2 >= spec.epsilon ** 2] == 1.0)
    assert np.array_equal(w.values == 0.0, mesh_eps.node_class == ms.HOLE)


def test_corrector_profile_energy(corrector_setup):
    mesh_eps, spec = corrector_setup
    w = ms.corrector_field(mesh_eps, spec)
    energy = h1_seminorm(w) ** 2
    target = 16.0 * 2.0 * math.pi / math.log(spec.epsilon / spec.radius)
    assert abs(energy - target) <= 0.05 * target


def test_corrector_rejects_collapsed_and_bad_annulus():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)

    class Tiny:
        epsilon = 0.125
        radius = 1e-3
        strategy = "collapsed"

    p = ms.perforate(mesh, Tiny())
    with pytest.raises(ValueError, match="resolved"):
        ms.corrector_field(p, Tiny())
    spec = PerforationSpec(epsilon=0.125, target_mu=50.0)
    p2 = ms.perforate(ms.build_rectangle_mesh(1.0, 1.0, 257, 257), spec)
    with pytest.raises(ValueError, match="annulus"):
        ms.corrector_field(p2, spec, rho=0.2)  # > eps * sqrt(2) / ... outside (r, eps*sqrt2)


@pytest.fixture(scope="module")
def fast_sweep():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    specs = [PerforationSpec(epsilon=0.25, target_mu=50.0),
             PerforationSpec(epsilon=0.125, target_mu=50.0)]
    return mesh, A, F, ms.homogenization_experiment(mesh, A, F, specs)


def test_homogenization_sweep_passes(fast_sweep, tmp_path):
    mesh, A, F, out = fast_sweep
    assert out.passed
    # the limit solve takes target_mu itself: pi / (2 C0) gives 49.99999999999999
    assert out.detail.mu == out.metrics["mu"] == 50.0
    assert out.metrics["eL2_decreasing"]
    assert out.metrics["defect_rel_error"] <= 0.25
    assert out.metrics["beats_naive_limit"]


def test_homogenization_extension_isometry(fast_sweep):
    _, _, _, out = fast_sweep
    for entry in out.detail.entries:
        ms.extend_by_zero(entry.tilde_u)  # raises if the isometry fails


def test_homogenization_sweep_csv(tmp_path):
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=10.0)
    specs = [PerforationSpec(epsilon=0.25, target_mu=50.0),
             PerforationSpec(epsilon=0.125, target_mu=50.0)]
    out = ms.homogenization_experiment(mesh, A, F, specs)
    # the linear-data example: the L2 error trend holds there as well
    e = out.metrics["eL2"]
    assert e[1] < e[0]
    from mildsing.homogenization import SWEEP_COLUMNS, write_sweep_csv

    write_sweep_csv(tmp_path / "sweep.csv", [entry.row for entry in out.detail.entries])
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0].split(",") == SWEEP_COLUMNS
    assert len(text) == 3


def test_corrector_improves_on_fast_sweep(fast_sweep):
    _, _, _, out = fast_sweep
    corr = ms.corrector_experiment(out)
    # at h = 1/128 the finest annulus is barely resolved: the strict trend
    # needs the resolving mesh (acceptance runs it at h = 1/256); the
    # improvement property itself must hold already
    assert corr.metrics["improves_everywhere"]
    assert corr.metrics["profile_in_unit_interval"]
    assert corr.metrics["profile_zeros_on_holes"]


def test_homogenization_validates_specs():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 129, 129)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    with pytest.raises(ValueError, match="at least 2"):
        ms.homogenization_experiment(mesh, A, F, [PerforationSpec(epsilon=0.25, target_mu=50.0)])
    with pytest.raises(ValueError, match="target_mu"):
        ms.homogenization_experiment(mesh, A, F, [
            PerforationSpec(epsilon=0.25, target_mu=50.0),
            PerforationSpec(epsilon=0.125, target_mu=60.0),
        ])


def test_homogenization_drops_unresolvable_epsilon():
    # the 1/16 lattice radius is far below the grid: dropped with a warning,
    # the remaining two-point sweep still runs
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=10.0)
    specs = [PerforationSpec(epsilon=e, target_mu=100.0) for e in (0.25, 0.125, 0.0625)]
    with pytest.warns(UserWarning, match="dropping"):
        out = ms.homogenization_experiment(mesh, A, F, specs)
    assert len(out.metrics["epsilons"]) == 2


def test_homogenization_threaded_matches_serial():
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 65, 65)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(1.0), f=0.0, l=10.0)
    specs = [PerforationSpec(epsilon=0.25, target_mu=100.0),
             PerforationSpec(epsilon=0.125, target_mu=100.0)]
    serial = ms.homogenization_experiment(mesh, A, F, specs, threads=1)
    threaded = ms.homogenization_experiment(mesh, A, F, specs, threads=2)
    assert serial.metrics["eL2"] == threaded.metrics["eL2"]
    assert serial.metrics["finest_defect"] == threaded.metrics["finest_defect"]


def test_collapsed_sweep_has_no_corrector():
    # collapsed holes have no annulus to ramp across: the sweep runs and
    # leaves the corrector column empty, and the corrector experiment
    # refuses the outcome instead of inventing a profile
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    A = ms.Coefficient.identity(mesh)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    specs = [PerforationSpec(epsilon=e, target_mu=50.0, strategy="collapsed")
             for e in (0.125, 0.0625)]
    out = ms.homogenization_experiment(mesh, A, F, specs)
    assert len(out.detail.entries) == 2
    assert all(e.corrector is None and math.isnan(e.row["eH1_corr"])
               for e in out.detail.entries)
    with pytest.raises(ValueError, match="resolved"):
        ms.corrector_experiment(out)
