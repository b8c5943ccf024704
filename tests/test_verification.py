from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mildsing as ms
from mildsing import OscillatingPower, PowerLaw, nonlinearity, verification
from mildsing.verification import LAMBDA_MARGIN, _lambda1


@pytest.fixture(scope="module")
def square_33():
    return ms.build_rectangle_mesh(1.0, 1.0, 33, 33)


@pytest.fixture(scope="module")
def ident_33(square_33):
    return ms.Coefficient.identity(square_33)


def test_comparison_equal_data_agrees(square_33, ident_33):
    F1 = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    out = ms.comparison_experiment(square_33, ident_33, F1, F2)
    assert out.passed
    assert out.metrics["max_u1_minus_u2"] <= out.metrics["tolerance"]


def test_comparison_doubled_source_dominates(square_33, ident_33):
    F1 = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=2.0)
    out = ms.comparison_experiment(square_33, ident_33, F1, F2)
    assert out.passed


def test_comparison_zero_below_anything(square_33, ident_33):
    F1 = nonlinearity(square_33, PowerLaw(0.5), f=0.0, l=0.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=1.0, l=1.0)
    out = ms.comparison_experiment(square_33, ident_33, F1, F2)
    assert out.passed
    assert out.metrics["max_u1_minus_u2"] <= 0.0


def test_comparison_rejects_undominated_pair(square_33, ident_33):
    F1 = nonlinearity(square_33, PowerLaw(0.5), f=2.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    with pytest.raises(ValueError, match="F1 <= F2"):
        ms.comparison_experiment(square_33, ident_33, F1, F2)


def test_uniqueness_multi_start_agreement(square_33, ident_33):
    F = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    out = ms.uniqueness_experiment(square_33, ident_33, F, n_starts=3, seed=42)
    assert out.passed
    assert out.metrics["seed"] == 42


def test_uniqueness_starts_are_pairwise_distinct(monkeypatch):
    # agreement of the runs shows nothing if two of them start from one field
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 9, 9)
    starts, schedule = [], verification._schedule

    def recording(op, F, cfg, u0=None, **kwargs):
        starts.append(u0.values.copy())
        return schedule(op, F, cfg, u0, **kwargs)

    monkeypatch.setattr(verification, "_schedule", recording)
    F = nonlinearity(mesh, PowerLaw(0.5), f=1.0)
    out = ms.uniqueness_experiment(mesh, ms.Coefficient.identity(mesh), F, n_starts=5, seed=3)
    assert out.passed
    assert len(starts) == 5
    assert all(not np.array_equal(a, b) for a, b in combinations(starts, 2))


def test_uniqueness_zero_problem(square_33, ident_33):
    F = nonlinearity(square_33, PowerLaw(0.5), f=0.0, l=0.0)
    out = ms.uniqueness_experiment(square_33, ident_33, F, n_starts=3)
    assert out.passed
    assert out.metrics["max_pairwise_h1"] == 0.0


def test_uniqueness_oscillating_empirical_agreement(square_33, ident_33):
    # the oscillating model genuinely violates the almost-nonincreasing
    # condition near 0 (unbounded positive difference quotients), declares
    # lambda_mono = inf and is refused by the experiment; the solver's
    # multi-start agreement is still checked on it, outside the regime
    F = nonlinearity(square_33, OscillatingPower(0.5), f=1.0)
    assert F.lambda_mono == np.inf
    with pytest.raises(ValueError, match="margin"):
        ms.uniqueness_experiment(square_33, ident_33, F, n_starts=3)
    cfg = ms.SolverConfig()
    big = 1.0 + 2.0 * float(F.h.max()) / ident_33.alpha
    n = square_33.n_nodes
    starts = [ms.FieldFunction.zeros(square_33), ms.FieldFunction(square_33, np.full(n, big)),
              ms.FieldFunction(square_33, big * np.random.default_rng(0).random(n))]
    us = [ms.solve_singular(square_33, ident_33, F, cfg, u0=u0).u for u0 in starts]
    gap = max(ms.h1_seminorm(a - b) for a, b in combinations(us, 2))
    assert gap <= 10.0 * (cfg.outer_tol * ms.h1_seminorm(us[0]) + cfg.outer_tol_abs)


def test_uniqueness_metric_permutation_invariant(square_33, ident_33):
    # the pairwise-max metric does not depend on the order of the starts
    F = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    a = ms.uniqueness_experiment(square_33, ident_33, F, n_starts=3, seed=1)
    b = ms.uniqueness_experiment(square_33, ident_33, F, n_starts=3, seed=1)
    assert a.metrics["max_pairwise_h1"] == b.metrics["max_pairwise_h1"]


def test_uniqueness_rejects_supercritical_slope(square_33, ident_33):
    from mildsing import EigenTruncation
    from mildsing.verification import _lambda1

    lam1, _ = _lambda1(ms.assemble_stiffness(square_33, ident_33))
    F = nonlinearity(square_33, EigenTruncation(lam1, 1.0), f=1.0, gamma=1.0)
    with pytest.raises(ValueError, match="margin"):
        ms.uniqueness_experiment(square_33, ident_33, F, n_starts=2)


def test_comparison_margin_names_both_sides(square_33, ident_33):
    # the regime check needs only one side below the margin; with neither,
    # its message names both lambda_mono and the margin
    F1 = nonlinearity(square_33, PowerLaw(0.5), f=1.0, lambda_mono=500.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=2.0, lambda_mono=600.0)
    assert ms.comparison_experiment(square_33, ident_33, F1,
                                    nonlinearity(square_33, PowerLaw(0.5), f=2.0)).passed
    with pytest.raises(ValueError, match="margin") as err:
        ms.comparison_experiment(square_33, ident_33, F1, F2)
    assert "500.0, 600.0" in str(err.value)
    assert f"{LAMBDA_MARGIN} * lambda1=" in str(err.value)


def random_data(nx, holes, seed):
    """``(mesh, A, rng, f, l)`` on an ``nx**2`` unit square, drawn by ``default_rng(seed)``.

    With ``holes``, the node nearest each centre of the ``epsilon = 1/4``
    lattice is a hole.  ``f`` is uniform on ``[0, 2]`` with 20% zero nodes,
    ``l`` uniform on ``[0, 1]`` with half of its nodes zero.
    """
    mesh = ms.build_rectangle_mesh(1.0, 1.0, nx, nx)
    if holes:
        mesh = ms.perforate(mesh, SimpleNamespace(epsilon=0.25, strategy="collapsed", radius=0.01))
    rng = np.random.default_rng(seed)
    n = mesh.n_nodes
    f = rng.uniform(0.0, 2.0, n) * (rng.random(n) >= 0.2)
    l = rng.uniform(0.0, 1.0, n) * (rng.random(n) >= 0.5)
    return mesh, ms.Coefficient.identity(mesh), rng, f, l


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(5, 17), holes=st.booleans(), gamma=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), steep=st.sampled_from([None, 0, 1]))
@example(nx=9, holes=False, gamma=0.05, seed=0, steep=None)
@example(nx=17, holes=True, gamma=0.1, seed=1, steep=0)
@example(nx=5, holes=True, gamma=0.2, seed=2, steep=1)
def test_comparison_of_dominated_power_laws(nx, holes, gamma, seed, steep):
    # f1 <= f2 and l1 <= l2 node by node give F1 <= F2 and u1 <= u2; the
    # regime needs one side below the margin, so the side `steep` declares a
    # valid lambda_mono far above lambda_1 (F - lam s falls for every lam >= 0)
    mesh, A, rng, f2, l2 = random_data(nx, holes, seed)
    f1, l1 = f2 * rng.random(f2.size), l2 * rng.random(l2.size)
    lams = [None, None]
    if steep is not None:
        lams[steep] = 1e3
    F1, F2 = (nonlinearity(mesh, PowerLaw(gamma), f=f, l=l, lambda_mono=lam)
              for f, l, lam in zip((f1, f2), (l1, l2), lams))
    out = ms.comparison_experiment(mesh, A, F1, F2)
    assert out.passed
    assert out.metrics["max_u1_minus_u2"] <= out.metrics["tolerance"]
    assert [out.metrics[f"lambda_mono_{i}"] for i in (1, 2)] == [lam or 0.0 for lam in lams]


@settings(max_examples=100, deadline=None)
@given(nx=st.integers(5, 17), holes=st.booleans(), gamma=st.floats(0.05, 1.0),
       seed=st.integers(0, 2 ** 32 - 1), n_starts=st.integers(2, 4),
       ratio=st.one_of(st.none(), st.floats(0.0, 1.5)))
@example(nx=9, holes=False, gamma=0.05, seed=0, n_starts=3, ratio=None)
@example(nx=5, holes=True, gamma=0.15, seed=3, n_starts=2, ratio=0.95)
@example(nx=13, holes=False, gamma=1.0, seed=4, n_starts=4, ratio=0.85)
def test_uniqueness_of_power_laws_from_random_starts(nx, holes, gamma, seed, n_starts, ratio):
    # below the margin every start reaches one solution; a declared
    # lambda_mono = ratio lambda_1 above LAMBDA_MARGIN lambda_1 is refused
    mesh, A, _, f, l = random_data(nx, holes, seed)
    lam1, _ = _lambda1(ms.assemble_stiffness(mesh, A))
    lam = None if ratio is None else ratio * lam1
    F = nonlinearity(mesh, PowerLaw(gamma), f=f, l=l, lambda_mono=lam)
    if lam is not None and lam > LAMBDA_MARGIN * lam1:
        with pytest.raises(ValueError, match="margin"):
            ms.uniqueness_experiment(mesh, A, F, n_starts, seed=seed)
        return
    out = ms.uniqueness_experiment(mesh, A, F, n_starts, seed=seed)
    assert out.passed
    assert out.metrics["lambda1"] == lam1


def test_nonuniqueness_degenerate_family(unit_square_65, identity_65):
    out = ms.nonuniqueness_experiment(unit_square_65, identity_65, k=1.0)
    assert out.passed
    t = out.metrics["t_fitted"]
    assert t[0] == pytest.approx(0.0, abs=1e-12)
    assert out.metrics["max_linf_separation"] >= 0.1
    assert max(out.metrics["ray_residuals"]) <= 1e-4
    # closed-form eigenfunction 2 sin(pi x) sin(pi y): sup norm 2, so the
    # family extends to t = k / 2
    assert out.metrics["linf_phi1"] == pytest.approx(2.0, rel=0.01)
    # the family parameter stays near its start (recorded, not prescribed)
    starts = out.metrics["t_starts"]
    assert starts[2] == pytest.approx(0.25, rel=0.01)
    assert abs(t[2] - starts[2]) <= 0.05 * starts[2]


def test_nonuniqueness_rejects_asymmetric_coefficient(unit_square_65):
    A = ms.Coefficient.constant(unit_square_65, np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        ms.nonuniqueness_experiment(unit_square_65, A, k=1.0)


def test_stability_bounded_nonlinearity_inactive_levels(square_33, ident_33):
    from mildsing import TableMap

    # g bounded by 3: all levels >= 4 solve the same problem exactly
    F = nonlinearity(square_33, TableMap((0.0, 0.1, 1000.0), (3.0, 2.0, 1.0)),
                     f=1.0, gamma=1.0, lambda_mono=0.0)
    out = ms.stability_experiment(square_33, ident_33, F, [4.0, 8.0, 16.0])
    assert out.passed
    assert out.metrics["errors_h1"][-1] <= out.metrics["stab_tol"]


def test_stability_zero_problem(square_33, ident_33):
    F = nonlinearity(square_33, PowerLaw(0.5), f=0.0, l=0.0)
    out = ms.stability_experiment(square_33, ident_33, F, [1.0, 2.0, 4.0])
    assert out.passed
    assert all(e == 0.0 for e in out.metrics["errors_h1"])


def test_stability_error_sweep_decreases(square_33, ident_33):
    F = nonlinearity(square_33, PowerLaw(1.0), f=1.0)
    levels = [2.0 ** j for j in range(9)]
    out = ms.stability_experiment(square_33, ident_33, F, levels)
    assert out.passed
    errors = out.metrics["errors_h1"]
    assert errors[0] > errors[-1]


def test_stability_rejects_unordered_levels(square_33, ident_33):
    F = nonlinearity(square_33, PowerLaw(1.0), f=1.0)
    with pytest.raises(ValueError):
        ms.stability_experiment(square_33, ident_33, F, [4.0, 2.0])


def test_outcome_json_dict_is_serializable(square_33, ident_33):
    import json

    F = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    out = ms.uniqueness_experiment(square_33, ident_33, F, n_starts=2)
    text = json.dumps(out.to_json_dict(), sort_keys=True)
    assert '"pass"' in text


def test_experiments_assemble_once(fem_calls, square_33, ident_33):
    # one operator and one multigrid hierarchy per experiment: their numbers
    # grow neither with the number of levels nor with the number of solves,
    # the eigenpair shares both with the solves, and every experiment costs
    # what one solve does.  For A = I the stiffness is its own H1 seminorm
    # matrix, kept before an absorption mu is added: one assembly either way
    F = nonlinearity(square_33, PowerLaw(0.5), f=1.0)
    F2 = nonlinearity(square_33, PowerLaw(0.5), f=2.0)

    def count(experiment, *args, **kwargs):
        fem_calls.clear()
        experiment(square_33, ident_33, *args, **kwargs)
        return fem_calls.count("stiffness_csr"), fem_calls.count("_multigrid")

    single = count(ms.solve_singular, F)
    assert single == (1, 1)
    assert count(ms.solve_singular, F, mu=5.0) == single
    assert count(ms.stability_experiment, F, [1.0, 2.0, 4.0]) == single
    assert count(ms.stability_experiment, F, [2.0 ** k for k in range(9)]) == single
    assert count(ms.comparison_experiment, F, F2) == single
    assert count(ms.uniqueness_experiment, F, n_starts=2) == single
    assert count(ms.uniqueness_experiment, F, n_starts=3) == single
    assert count(ms.nonuniqueness_experiment, k=1.0) == single


def _symmetric_operator(case):
    if case == "interval":
        mesh = ms.build_interval_mesh(1.0, 65)
        return ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 33, 33)
    if case == "anisotropic_mu":
        A = ms.Coefficient.constant(mesh, [[2.0, 0.5], [0.5, 1.0]])
        return ms.assemble_stiffness(mesh, A, mu=3.0)
    if case == "perforated":
        mesh = ms.perforate(mesh, SimpleNamespace(epsilon=0.125, strategy="resolved",
                                                  radius=0.07))
    return ms.assemble_stiffness(mesh, ms.Coefficient.identity(mesh))


@pytest.mark.parametrize("case", ["identity", "anisotropic_mu", "perforated", "interval"])
def test_lambda1_of_symmetric_operator_is_bit_identical(case):
    # an exactly symmetric operator stands in for its symmetric part (K + K') / 2
    op = _symmetric_operator(case)
    K = op.matrix
    sym = ms.SparseOperator((0.5 * (K + K.T)).tocsr(), op.free, op.mesh)
    M = sp.diags(op.ml).tocsr()
    lam_sym, phi_sym = ms.first_eigenpair(sym, M, tol=1e-12)
    lam, phi = _lambda1(op)
    assert lam == lam_sym
    assert np.array_equal(phi.values, phi_sym.values)


def test_lambda1_of_nonsymmetric_operator_is_its_symmetric_part():
    # a constant A assembles an exactly symmetric K (the antisymmetric part's
    # form vanishes on compactly supported functions), so the antisymmetric
    # part varies per element here; K is then not symmetric, and lambda_1 is
    # that of the symmetric part [[1, 0.2], [0.2, 1]] of A
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    skew = 0.3 * np.random.default_rng(0).random(mesh.n_elements)
    mats = np.empty((mesh.n_elements, 2, 2))
    mats[:, 0, 0] = mats[:, 1, 1] = 1.0
    mats[:, 0, 1], mats[:, 1, 0] = 0.2 + skew, 0.2 - skew
    op = ms.assemble_stiffness(mesh, ms.Coefficient.from_matrices(mesh, mats))
    with pytest.raises(ValueError, match="not symmetric"):
        ms.first_eigenpair(op, sp.diags(op.ml).tocsr())
    sym = ms.assemble_stiffness(mesh, ms.Coefficient.constant(mesh, [[1.0, 0.2], [0.2, 1.0]]))
    lam, phi = _lambda1(op)
    lam_sym, phi_sym = _lambda1(sym)
    assert lam == pytest.approx(lam_sym, rel=1e-12)
    assert np.abs(phi.values - phi_sym.values).max() <= 1e-12


def test_failed_experiment_writes_nothing(monkeypatch, tmp_path):
    # too few levels to reach the limit: the verdict is a failure, and the
    # field behind it comes back to the caller instead of going to a file
    monkeypatch.chdir(tmp_path)
    mesh = ms.build_rectangle_mesh(1.0, 1.0, 17, 17)
    F = nonlinearity(mesh, PowerLaw(1.0), f=1.0)
    out = ms.stability_experiment(mesh, ms.Coefficient.identity(mesh), F, [1.0, 2.0])
    assert not out.passed
    assert out.fields["u_ref"] is out.detail.u
    assert out.artifacts == []
    assert list(tmp_path.iterdir()) == []
