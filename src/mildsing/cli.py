"""Command-line front end: declarative experiment configs, suites, CSV/JSON results.

Configs are INI-style text (``key = value`` under ``[sections]``), chosen so
experiment provenance diffs cleanly.  ``RunConfig._read`` is the one reader
of config values; a key it never read is refused before the run directory is
made.  A run executes one experiment and writes its outputs into the output
directory; a suite runs a manifest of configs (optionally in parallel) and
writes a summary table.  The experiments themselves write nothing: every
file goes through ``_atomic`` (temp file + rename), here and only here.
Exit codes: 0 all declared checks pass, 1 experiment failure, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .fem import (
    Coefficient,
    ConvergenceError,
    SparseOperator,
    assemble_stiffness,
    check_m_matrix,
    norms,
)
from .homogenization import (
    PerforationSpec,
    corrector_experiment,
    discrete_capacity,
    homogenization_experiment,
    write_sweep_csv,
)
from .mesh import Mesh, build_interval_mesh, build_rectangle_mesh, read_field_csv, write_field_csv
from .nonlinearity import (
    EigenTruncation,
    Nonlinearity,
    OscillatingPower,
    PowerLaw,
    TableMap,
    nonlinearity,
)
from .solver import SolverConfig, _schedule
from .verification import (
    ExperimentOutcome,
    _lambda1,
    comparison_experiment,
    nonuniqueness_experiment,
    stability_experiment,
    uniqueness_experiment,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "run", "suite", "main"]

KINDS = (
    "solve",
    "comparison",
    "uniqueness",
    "nonuniqueness",
    "stability",
    "homogenization",
    "corrector",
    "capacity",
)

#: a solve passes when its energy identity holds to this relative residual
_ENERGY_TOL = 1e-6
#: a capacity run passes within this relative error of the annulus formula
_CAPACITY_TOL = 0.02


class ConfigError(Exception):
    """Invalid configuration; carries the offending section/key."""

    def __init__(self, section: str, key: str, message: str):
        super().__init__(f"[{section}] {key}: {message}")
        self.section = section
        self.key = key


@dataclass
class RunConfig:
    """Parsed config: ordered mapping of sections to key/value strings."""

    sections: dict = field(default_factory=dict)
    path: str | None = None
    # every (section, key) asked for, present or not, in the order asked
    read: dict = field(default_factory=dict, compare=False, repr=False)

    def _read(self, section: str, key: str, default, required: bool, cast=None, what: str = ""):
        """``cast`` of the text at ``[section] key`` (recorded as read), ``default`` if absent;
        a ``ValueError`` from ``cast`` becomes ``ConfigError(section, key, f"{what} {raw!r}")``."""
        self.read[section, key] = None
        raw = self.sections.get(section, {}).get(key)
        if raw is None:
            if required:
                raise ConfigError(section, key, "required key is missing")
            return default
        if cast is None:
            return raw
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(section, key, f"{what} {raw!r}") from None

    def get(self, section: str, key: str, default=None, required: bool = False) -> str:
        return self._read(section, key, default, required)

    def get_float(self, section: str, key: str, default=None, required: bool = False,
                  positive: bool = False) -> float | None:
        val = self._read(section, key, default, required, float, "not a number:")
        if positive and val is not None and not val > 0:
            raise ConfigError(section, key, f"must be > 0, got {val!r}")
        return val

    def get_int(self, section: str, key: str, default=None, required: bool = False) -> int | None:
        return self._read(section, key, default, required, int, "not an integer:")

    def get_floats(self, section: str, key: str, default=None,
                   required: bool = False) -> list[float] | None:
        """A comma-separated list of numbers."""
        return self._read(section, key, default, required,
                          lambda raw: [float(v) for v in raw.split(",")], "bad list:")

    def reject_unread(self) -> None:
        """Raise ``ConfigError`` for the first key that was never read."""
        for section, kv in self.sections.items():
            known = [k for s, k in self.read if s == section]
            for key in kv:
                if key not in known:
                    why = (f"unknown key (choose from {', '.join(known)})" if known
                           else "unknown section")
                    raise ConfigError(section, key, why)


def parse_config(text: str, path: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=path or "<config>")
    except configparser.Error as exc:
        raise ConfigError("-", "-", f"syntax error: {exc}") from None
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return RunConfig(sections, path)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read(), str(path))


def _atomic(path, write, data) -> str:
    """``write(tmp, data)`` into a temp file next to ``path``, rename it onto ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    write(tmp, data)
    os.replace(tmp, path)
    return path


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def build_mesh(cfg: RunConfig) -> Mesh:
    dim = cfg.get_int("mesh", "dim", 2)
    nx = cfg.get_int("mesh", "nx", required=True)
    if dim not in (1, 2):
        raise ConfigError("mesh", "dim", f"dim must be 1 or 2, got {dim}")
    try:
        if dim == 1:
            return build_interval_mesh(cfg.get_float("mesh", "width", 1.0, positive=True), nx)
        ny = cfg.get_int("mesh", "ny", nx)
        width = cfg.get_float("mesh", "width", 1.0, positive=True)
        height = cfg.get_float("mesh", "height", 1.0, positive=True)
        return build_rectangle_mesh(width, height, nx, ny)
    except ValueError as exc:
        raise ConfigError("mesh", "nx", str(exc)) from None


def build_coefficient(cfg: RunConfig, mesh: Mesh) -> Coefficient:
    kind = cfg.get("coefficient", "kind", "identity")
    try:
        if kind == "identity":
            return Coefficient.identity(mesh)
        if kind == "isotropic":
            return Coefficient.isotropic(mesh, cfg.get_float("coefficient", "a", 1.0))
        if kind == "matrix":
            mat = np.array([[cfg.get_float("coefficient", f"a{i}{j}", float(i == j)) for j in (1, 2)]
                            for i in (1, 2)])
            coeff = Coefficient.constant(mesh, mat)  # coercivity first, then the M-matrix range
            check_m_matrix(mat)
            return coeff
    except ValueError as exc:
        raise ConfigError("coefficient", "kind", str(exc)) from None
    raise ConfigError("coefficient", "kind", f"unknown kind {kind!r}")


def _field_value(cfg: RunConfig, mesh: Mesh, section: str, key: str, default: float):
    value = cfg._read(section, key, default, False,
                      lambda raw: raw if raw.startswith("csv:") else float(raw),
                      "expected a number or csv:<path>, got")
    if not isinstance(value, str):
        return value
    path = os.path.join(os.path.dirname(cfg.path) if cfg.path else ".", value[4:])
    if not os.path.exists(path):
        raise ConfigError(section, key, f"referenced data file does not exist: {path}")
    try:
        return read_field_csv(mesh, path).values
    except ValueError as exc:
        raise ConfigError(section, key, f"bad data file {path}: {exc}") from None


def build_nonlinearity(cfg: RunConfig, mesh: Mesh, coeff: Coefficient,
                       section: str = "nonlinearity",
                       op: SparseOperator | None = None) -> Nonlinearity:
    """The ``[section]`` nonlinearity; ``rate = auto`` takes ``lambda_1`` of ``op``,
    which defaults to ``assemble_stiffness(mesh, coeff)``."""
    g_name = cfg.get(section, "g", "none")
    gamma = cfg.get_float(section, "gamma", None)
    if gamma is not None and not 0.0 < gamma <= 1.0:
        raise ConfigError(section, "gamma", f"gamma must satisfy 0 < gamma <= 1, got {gamma!r}")
    # g = none has no f g(u) term, so it reads no f: an f there is an unknown key
    f_val = 0.0 if g_name == "none" else _field_value(cfg, mesh, section, "f", 0.0)
    l_val = _field_value(cfg, mesh, section, "l", 0.0)
    lam = cfg.get_float(section, "lambda_mono", None)

    if g_name in ("none", "power"):
        g = PowerLaw(gamma if gamma is not None else 1.0)
    elif g_name == "oscillating":
        g = OscillatingPower(gamma if gamma is not None else 1.0)
    elif g_name == "eigen_trunc":
        k = cfg.get_float(section, "k", 1.0, positive=True)
        rate = cfg._read(section, "rate", "auto", False,
                         lambda raw: raw if raw == "auto" else float(raw),
                         "expected 'auto' or number, got")
        if rate == "auto":
            rate, _ = _lambda1(assemble_stiffness(mesh, coeff) if op is None else op)
        g = EigenTruncation(rate, k)
    elif g_name == "table":
        s_pts = tuple(cfg.get_floats(section, "table_s", required=True))
        g_pts = tuple(cfg.get_floats(section, "table_g", required=True))
        if len(s_pts) != len(g_pts) or len(s_pts) < 2:
            raise ConfigError(section, "table_s", "table_s and table_g need equal length >= 2")
        g = TableMap(s_pts, g_pts)
    else:
        raise ConfigError(section, "g", f"unknown nonlinearity kind {g_name!r}")
    try:
        return nonlinearity(mesh, g, f=f_val, l=l_val, gamma=gamma, lambda_mono=lam)
    except ValueError as exc:
        raise ConfigError(section, "g", str(exc)) from None


def build_solver_config(cfg: RunConfig) -> SolverConfig:
    """``SolverConfig`` from the ``[solver]`` section: one float key per dataclass field."""
    kw = {f.name: v for f in fields(SolverConfig)
          if (v := cfg.get_float("solver", f.name)) is not None}
    try:
        return SolverConfig(**kw)
    except ValueError as exc:
        key, _, message = str(exc).partition(" ")  # the message starts with the field name
        raise ConfigError("solver", key, message) from None


def _solve_outcome(op, coeff, F, scfg, out_dir) -> ExperimentOutcome:
    report = _schedule(op, F, scfg)
    nn = norms(report.u, coeff)
    min_u = float(report.u.values.min())
    passed = bool(min_u >= -1e-12 and report.energy_identity_residual <= _ENERGY_TOL)
    metrics = {
        "n_final": report.n_final,
        "outer_iters": report.outer_iters,
        "inner_iters": report.inner_iters,
        "energy_identity_residual": report.energy_identity_residual,
        "final_gap": report.final_gap,
        "l2": nn.l2,
        "h1semi": nn.h1semi,
        "linf": nn.linf,
        "energy": nn.energy,
        "min_u": min_u,
    }
    outcome = ExperimentOutcome("solve", passed, metrics, detail=report)
    outcome.artifacts.append(
        _atomic(os.path.join(out_dir, "solution.csv"), write_field_csv, report.u))
    lines = [json.dumps(asdict(st), sort_keys=True) for st in report.level_stats]
    _atomic(os.path.join(out_dir, "solver_stats.jsonl"), _write_text, "\n".join(lines) + "\n")
    return outcome


def _prepare(cfg: RunConfig, kind: str, out_dir: str, seed: int, threads: int):
    """Check ``kind``, read every key it needs; return the experiment as a no-argument call."""
    if kind not in KINDS:
        raise ConfigError("experiment", "kind", f"unknown kind {kind!r} (choose from {KINDS})")

    if kind == "capacity":
        r_outer = cfg.get_float("capacity", "r_outer", required=True, positive=True)
        r_inner = cfg.get_float("capacity", "r_inner", required=True, positive=True)
        h = cfg.get_float("capacity", "h", required=True, positive=True)

        def capacity() -> ExperimentOutcome:
            value = discrete_capacity(r_outer, r_inner, h)
            exact = 2.0 * np.pi / np.log(r_outer / r_inner)
            rel = abs(value - exact) / exact
            return ExperimentOutcome("capacity", bool(rel <= _CAPACITY_TOL), {
                "capacity": value, "annulus_formula": exact, "rel_error": rel,
                "rel_tol": _CAPACITY_TOL})
        return capacity

    mesh = build_mesh(cfg)
    coeff = build_coefficient(cfg, mesh)
    scfg = build_solver_config(cfg)

    if kind == "solve":
        # one operator for lambda_1 (rate = auto) and the solve
        op = assemble_stiffness(mesh, coeff)
        F = build_nonlinearity(cfg, mesh, coeff, op=op)
        return lambda: _solve_outcome(op, coeff, F, scfg, out_dir)
    if kind == "comparison":
        F1 = build_nonlinearity(cfg, mesh, coeff, "nonlinearity")
        F2 = build_nonlinearity(cfg, mesh, coeff, "nonlinearity2")
        return lambda: comparison_experiment(mesh, coeff, F1, F2, scfg)
    if kind == "uniqueness":
        F = build_nonlinearity(cfg, mesh, coeff)
        n_starts = cfg.get_int("uniqueness", "n_starts", 3)
        return lambda: uniqueness_experiment(mesh, coeff, F, n_starts, scfg, seed=seed)
    if kind == "nonuniqueness":
        k = cfg.get_float("nonuniqueness", "k", 1.0, positive=True)
        return lambda: nonuniqueness_experiment(mesh, coeff, k, scfg)
    if kind == "stability":
        F = build_nonlinearity(cfg, mesh, coeff)
        levels = cfg.get_floats("stability", "levels", [1.0, 2.0, 4.0, 8.0, 16.0])
        return lambda: stability_experiment(mesh, coeff, F, levels, scfg)

    # homogenization and corrector share the sweep
    F = build_nonlinearity(cfg, mesh, coeff)
    mu = cfg.get_float("homogenization", "mu", required=True, positive=True)
    strategy = cfg.get("homogenization", "strategy", "resolved")
    epsilons = cfg.get_floats("homogenization", "epsilons", required=True)
    if len(epsilons) < 2:
        raise ConfigError("homogenization", "epsilons", "sweep needs at least 2 epsilons")
    try:
        specs = [PerforationSpec(epsilon=e, target_mu=mu, strategy=strategy) for e in epsilons]
    except ValueError as exc:
        raise ConfigError("homogenization", "epsilons", str(exc)) from None

    def sweep() -> ExperimentOutcome:
        h_out = homogenization_experiment(mesh, coeff, F, specs, scfg, threads=threads)
        path = _atomic(os.path.join(out_dir, "sweep.csv"), write_sweep_csv,
                       [e.row for e in h_out.detail.entries])
        outcome = h_out if kind == "homogenization" else corrector_experiment(h_out)
        outcome.artifacts.append(path)
        return outcome
    return sweep


def run(config_path, out_dir=None, threads: int = 1, seed: int = 0) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        kind = cfg.get("experiment", "kind", required=True)
        name = cfg.get("experiment", "name", kind)
        cfg_out = cfg.get("output", "dir", os.path.join("runs", name))
        out_dir = cfg_out if out_dir is None else out_dir
        experiment = _prepare(cfg, kind, out_dir, seed, threads=threads)
        cfg.reject_unread()
        os.makedirs(out_dir, exist_ok=True)
        outcome = experiment()
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError) as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1
    if not outcome.passed:
        outcome.artifacts += [_atomic(os.path.join(out_dir, f"{kind}_{label}.csv"),
                                      write_field_csv, fld)
                              for label, fld in outcome.fields.items()]
    record = outcome.to_json_dict()
    record["config"] = str(config_path)
    record["seed"] = seed
    _atomic(os.path.join(out_dir, "results.jsonl"), _write_text,
            json.dumps(record, sort_keys=True) + "\n")
    status = "PASS" if outcome.passed else "FAIL"
    print(f"{status} {name}: " + ", ".join(
        f"{k}={v}" for k, v in list(outcome.metrics.items())[:6]))
    return 0 if outcome.passed else 1


def _run_one(entry, name, out_root, seed):
    t0 = time.perf_counter()
    code = run(entry, out_dir=os.path.join(out_root, name), seed=seed)
    return name, code, time.perf_counter() - t0


def suite(manifest_path, out_dir=None, threads: int = 1, seed: int = 0) -> int:
    """Run every config listed in a manifest; write a summary table.

    Each run writes to ``<out>/<config basename>``; two configs with one
    basename are a config error, found before any run starts.
    """
    try:
        with open(manifest_path) as fh:
            lines = [ln.strip() for ln in fh]
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    base = os.path.dirname(os.path.abspath(manifest_path))
    entries = [os.path.join(base, ln) for ln in lines if ln and not ln.startswith("#")]
    names = [os.path.splitext(os.path.basename(e))[0] for e in entries]
    clash = [e for e, name in zip(entries, names) if names.count(name) > 1]
    if clash:
        print(f"config error: runs share a name: {', '.join(clash)}", file=sys.stderr)
        return 2
    out_root = out_dir or os.path.join("runs", "suite")
    os.makedirs(out_root, exist_ok=True)

    jobs = list(zip(entries, names))
    if threads > 1 and len(entries) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda job: _run_one(*job, out_root, seed), jobs))
    else:  # in this thread: a one-worker pool raised the demo suite's peak memory up to 4 MB
        rows = [_run_one(*job, out_root, seed) for job in jobs]

    lines_out = ["name,pass,exit_code,wall_seconds"]
    for name, code, wall in rows:
        lines_out.append(f"{name},{'true' if code == 0 else 'false'},{code},{wall:.17g}")
    _atomic(os.path.join(out_root, "summary.csv"), _write_text, "\n".join(lines_out) + "\n")
    for line in lines_out:
        print(line)
    if any(code == 2 for _, code, _ in rows):
        return 2
    return 0 if all(code == 0 for _, code, _ in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mildsing",
                                     description="singular semilinear elliptic experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, source, text in (("run", "--config", "run one experiment config"),
                               ("suite", "--manifest", "run a manifest of configs")):
        command = sub.add_parser(name, help=text)
        command.add_argument(source, required=True)
        command.add_argument("--out", default=None)
        command.add_argument("--threads", type=int, default=1)
        command.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    if args.command == "run":
        return run(args.config, out_dir=args.out, threads=args.threads, seed=args.seed)
    return suite(args.manifest, out_dir=args.out, threads=args.threads, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
