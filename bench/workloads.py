"""The three workloads: inputs, one timed pass, and the checks of its outputs.

Each workload has ``setup(ms, seed)``, which builds the inputs (meshes,
``Coefficient``s, validated ``Nonlinearity`` objects, start fields) and is
timed as set-up; ``run(ms, inputs, out_dir)``, which is the timed pass and
does nothing but call the package; and ``check(inputs, result, out_dir,
first_dir)``, which is untimed and returns the number of failed operations
and a record of what it found.  ``ms`` is the freshly imported package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

import checks

#: the package's own gate for "nonnegative without clamping"
NEG_TOL = -1e-12

#: relative residual of the level-``n_final`` equation; the Picard loop stops at
#: an H1 step of 1e-8 relative and leaves about 1e-7, a wrong solution leaves O(1)
RESIDUAL_TOL = 1e-5


def _module(name: str):
    return sys.modules[f"mildsing.{name}"]


def _attempt(fn, *args, **kwargs):
    """Call into the package; an exception is the operation's outcome, not the run's."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # any raised error counts the operation as failed
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------- homogenization-sweep

@dataclass
class SweepInputs:
    mesh: object
    coeff: object
    F: object
    specs: list
    mu: float


class HomogenizationSweep:
    """``homogenization_experiment`` then ``corrector_experiment`` at ``h = 1/128``."""

    name = "homogenization-sweep"
    ops_per_pass = 2
    n = 129
    mu = 50.0
    epsilons = (0.25, 0.125)

    def setup(self, ms, seed: int) -> SweepInputs:
        mesh = ms.build_rectangle_mesh(1.0, 1.0, self.n, self.n)
        coeff = ms.Coefficient.identity(mesh)
        F = _module("nonlinearity").nonlinearity(mesh, ms.PowerLaw(0.5), f=1.0)
        specs = [ms.PerforationSpec(epsilon=e, target_mu=self.mu) for e in self.epsilons]
        return SweepInputs(mesh, coeff, F, specs, self.mu)

    def run(self, ms, inp: SweepInputs, out_dir: str):
        hom = _module("homogenization")
        outcome, err = _attempt(hom.homogenization_experiment, inp.mesh, inp.coeff, inp.F,
                                inp.specs, threads=1)
        corr, corr_err = (None, "no sweep to correct") if outcome is None else \
            _attempt(hom.corrector_experiment, outcome)
        return outcome, err, corr, corr_err

    def check(self, inp: SweepInputs, result, out_dir, first_dir):
        outcome, err, corr, corr_err = result
        if outcome is None:
            return 2, {"problems": [err, corr_err]}
        nx = inp.mesh.nx
        d = outcome.detail
        u_limit, u_naive = d.limit.u.values, d.naive.u.values
        scale = float(np.abs(u_naive).max())
        cmp_tol = 1e-7 * scale

        sweep_problems = []
        if not outcome.passed:
            sweep_problems.append(f"criterion-9 verdict failed: {outcome.metrics}")
        if float(np.max(u_limit - u_naive)) > cmp_tol:
            sweep_problems.append("u_limit <= u_naive violated")
        for name, vals in (("u_limit", u_limit), ("u_naive", u_naive)):
            if float(vals.min()) < NEG_TOL:
                sweep_problems.append(f"{name} has negative value {vals.min()!r}")
        if len(d.entries) != len(inp.specs):
            sweep_problems.append(f"only {len(d.entries)} of {len(inp.specs)} epsilons kept")

        corr_problems = []
        e_plain, e_corr = [], []
        for entry in d.entries:
            eps = entry.spec.epsilon
            r = entry.mesh_eps.perforation.radius
            density = checks.prescribed_mu_density(eps, r)
            if abs(density - inp.mu) > 1e-9 * inp.mu:
                sweep_problems.append(f"eps={eps}: capacity density {density!r} != {inp.mu}")
            tilde = entry.tilde_u.values
            hole = entry.mesh_eps.node_class == 2
            if not np.all(tilde[hole] == 0.0):
                sweep_problems.append(f"eps={eps}: nonzero value in a hole")
            if float(tilde.min()) < NEG_TOL:
                sweep_problems.append(f"eps={eps}: negative value {tilde.min()!r}")
            if float(np.max(tilde - u_naive)) > cmp_tol:
                sweep_problems.append(f"eps={eps}: u_eps <= u_naive violated")
            w = checks.corrector_profile(np.asarray(inp.mesh.nodes), eps, r)
            w[hole] = 0.0
            plain = checks.h1_seminorm(tilde - u_limit, nx)
            corrected = checks.h1_seminorm(tilde - w * u_limit, nx)
            e_plain.append(plain)
            e_corr.append(corrected)
            if not corrected < plain:
                corr_problems.append(f"eps={eps}: corrector {corrected:.4g} >= plain {plain:.4g}")
            if abs(plain - entry.row["eH1_plain"]) > 1e-9 * plain:
                sweep_problems.append(f"eps={eps}: eH1_plain {entry.row['eH1_plain']!r} "
                                      f"!= grid-edge value {plain!r}")
        record = {"eH1_plain": e_plain, "eH1_corr": e_corr, "eL2": outcome.metrics.get("eL2"),
                  "defect_rel_error": outcome.metrics.get("defect_rel_error")}
        if corr is None:
            corr_problems.append(corr_err)
        else:
            # at h = 1/128 the eps = 1/8 holes are 2h wide and the corrector error
            # rises along the sweep, so the package's verdict is recorded, not required
            record["corrector_verdict"] = corr.passed
            record["corrector_decreasing"] = corr.metrics["eH1_corr_decreasing"]
            package_corr = corr.metrics["eH1_corr"]
            if not np.allclose(package_corr, e_corr, rtol=1e-9, atol=0.0):
                corr_problems.append(f"package eH1_corr {package_corr} != grid-edge {e_corr}")
        record["problems"] = sweep_problems + corr_problems
        return int(bool(sweep_problems)) + int(bool(corr_problems)), record


# ---------------------------------------------------------------- oscillating-multistart

@dataclass
class MultistartInputs:
    mesh: object
    coeff: object
    F: object
    starts: list
    cfg: object


class OscillatingMultistart:
    """Three ``solve_singular`` calls for ``g = s**-1 (2 + sin(1/s))`` on 65^2."""

    name = "oscillating-multistart"
    ops_per_pass = 3
    n = 65
    gamma = 1.0
    start_high = 7.0

    def setup(self, ms, seed: int) -> MultistartInputs:
        mesh = ms.build_rectangle_mesh(1.0, 1.0, self.n, self.n)
        coeff = ms.Coefficient.identity(mesh)
        F = _module("nonlinearity").nonlinearity(mesh, ms.OscillatingPower(self.gamma), f=1.0)
        rng = np.random.default_rng(seed)
        starts = [np.zeros(mesh.n_nodes), np.full(mesh.n_nodes, self.start_high),
                  rng.uniform(0.0, self.start_high, mesh.n_nodes)]
        starts = [ms.FieldFunction(mesh, s) for s in starts]
        return MultistartInputs(mesh, coeff, F, starts, ms.SolverConfig())

    def run(self, ms, inp: MultistartInputs, out_dir: str):
        solve = _module("solver").solve_singular
        return [_attempt(solve, inp.mesh, inp.coeff, inp.F, inp.cfg, u0=u0)
                for u0 in inp.starts]

    def check(self, inp: MultistartInputs, result, out_dir, first_dir):
        nx, h, cfg = inp.mesh.nx, inp.mesh.h, inp.cfg
        failed = set()
        problems, residuals, norms = [], [], []
        for i, (report, err) in enumerate(result):
            if report is None:
                failed.add(i)
                problems.append(f"start {i}: {err}")
                residuals.append(None)
                norms.append(None)
                continue
            u = report.u.values
            norms.append(checks.h1_seminorm(u, nx))
            if float(u.min()) < NEG_TOL:
                failed.add(i)
                problems.append(f"start {i}: negative value {u.min()!r}")
            res = checks.capped_residual(u, nx, h, 1.0, self.gamma, report.n_final)
            residuals.append(res)
            if not res <= RESIDUAL_TOL:
                failed.add(i)
                problems.append(f"start {i}: level-{report.n_final} residual {res:.3e}")
        gaps = {}
        for i in range(len(result)):
            for j in range(i + 1, len(result)):
                if result[i][0] is None or result[j][0] is None:
                    continue
                gap = checks.h1_seminorm(result[i][0].u.values - result[j][0].u.values, nx)
                gaps[f"{i}-{j}"] = gap
                allowed = 10.0 * (cfg.outer_tol * max(norms[i], norms[j]) + cfg.outer_tol_abs)
                if gap > allowed:
                    failed.add(j)
                    problems.append(f"starts {i},{j}: H1 gap {gap:.3e} > {allowed:.3e}")
        steps = [None if rep is None else rep.inner_iters for rep, _ in result]
        return len(failed), {"residuals": residuals, "h1_gaps": gaps, "picard_steps": steps,
                             "problems": problems}


# ---------------------------------------------------------------- demo-suite

@dataclass
class SuiteInputs:
    manifest: str
    configs: dict
    seed: int


class DemoSuite:
    """``mildsing suite --manifest configs/manifest.txt --threads 1`` in-process."""

    name = "demo-suite"
    manifest = os.path.join("configs", "manifest.txt")
    expected = ("solve_1d_inverse_linear", "oscillating_square",
                "nonuniqueness_unit_square", "capacity_annulus")
    ops_per_pass = len(expected)

    def __init__(self, root: str):
        self.root = root

    def setup(self, ms, seed: int) -> SuiteInputs:
        cli = _module("cli")
        manifest = os.path.join(self.root, self.manifest)
        base = os.path.dirname(manifest)
        with open(manifest) as fh:
            entries = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        configs = {os.path.splitext(e)[0]: cli.load_config(os.path.join(base, e))
                   for e in entries}
        if tuple(configs) != self.expected:
            raise RuntimeError(f"manifest lists {tuple(configs)}, expected {self.expected}")
        return SuiteInputs(manifest, configs, seed)

    def run(self, ms, inp: SuiteInputs, out_dir: str):
        argv = ["suite", "--manifest", inp.manifest, "--out", out_dir, "--threads", "1",
                "--seed", str(inp.seed)]
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code, err = _attempt(_module("cli").main, argv)
        return code, err, log.getvalue()

    def check(self, inp: SuiteInputs, result, out_dir, first_dir):
        code, err, log = result
        failed = set()
        problems, record = [], {"exit_code": code}
        if code != 0:
            problems.append(f"exit code {code} ({err}): {log[-500:]}")
        for name, cfg in inp.configs.items():
            ok, found = self._check_config(name, cfg, os.path.join(out_dir, name),
                                           os.path.join(first_dir, name))
            record[name] = found
            if not ok:
                failed.add(name)
                problems.append(f"{name}: {found}")
        if code != 0 and not failed:
            failed.update(inp.configs)
        record["problems"] = problems
        return len(failed), record

    def _check_config(self, name, cfg, run_dir, first_dir):
        path = os.path.join(run_dir, "results.jsonl")
        if not os.path.exists(path):
            return False, "no results.jsonl"
        with open(path) as fh:
            results = json.loads(fh.readline())
        found: dict = {"pass": results["pass"]}
        ok = bool(results["pass"])
        m = results["metrics"]
        if name == "solve_1d_inverse_linear":
            peak = float(checks.read_field_values(os.path.join(run_dir, "solution.csv")).max())
            found["peak_error"] = abs(peak - checks.PEAK_1D_INVERSE_LINEAR)
            ok &= found["peak_error"] <= 1e-3
        elif name == "oscillating_square":
            u = checks.read_field_values(os.path.join(run_dir, "solution.csv"))
            nx = int(cfg.sections["mesh"]["nx"])
            gamma = float(cfg.sections["nonlinearity"]["gamma"])
            found["residual"] = checks.capped_residual(u, nx, 1.0 / (nx - 1), 1.0, gamma,
                                                       m["n_final"])
            found["min_u"] = float(u.min())
            ok &= found["residual"] <= RESIDUAL_TOL and found["min_u"] >= NEG_TOL
        elif name == "nonuniqueness_unit_square":
            found["lambda1_rel_error"] = (abs(m["lambda1"] - checks.LAMBDA1_UNIT_SQUARE)
                                          / checks.LAMBDA1_UNIT_SQUARE)
            ok &= found["lambda1_rel_error"] <= 0.01
        elif name == "capacity_annulus":
            sec = cfg.sections["capacity"]
            exact = checks.annulus_capacity(float(sec["r_outer"]), float(sec["r_inner"]))
            found["capacity_rel_error"] = abs(m["capacity"] - exact) / exact
            ok &= found["capacity_rel_error"] <= 0.02
        if run_dir != first_dir:
            same = _csv_digests(run_dir) == _csv_digests(first_dir)
            found["csv_identical_to_first_pass"] = same
            ok &= same
        return bool(ok), found


def _csv_digests(run_dir: str) -> dict:
    out = {}
    for fname in sorted(os.listdir(run_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(run_dir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


def all_workloads(root: str) -> dict:
    return {w.name: w for w in (HomogenizationSweep(), OscillatingMultistart(), DemoSuite(root))}
