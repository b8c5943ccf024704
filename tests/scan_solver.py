"""Robustness scan of ``solve_singular`` over fixed families of oscillating problems.

Run from the root of a source checkout::

    PYTHONPATH=src python tests/scan_solver.py [family ...]

with families among ``grid``, ``small``, ``random`` and ``pinned`` (all four,
in that order, when none is named).  Each family prints one JSON object on
one line.  Every problem is an ``OscillatingPower`` solve with identity ``A``
and ``mu = 0`` on a unit square:

- ``grid``: ``test_solver.level_problem(nx, OscillatingPower(gamma), seed,
  random_start)`` for ``nx`` 8, 12, 16, ``gamma`` 0.05 to 0.15 by 0.01, seeds
  0 to 27 and both starts (1848 problems);
- ``small``: the same with ``gamma`` 0.01 to 0.04 (672 problems);
- ``random``: draw ``i < 1200`` is ``test_solver.random_data(10000 + i,
  OscillatingPower)``, from a zero start for even ``i`` and from the drawn
  ``u0`` for odd ``i``;
- ``pinned``: ``(8, 0.04, 31, random start)``, which raises at level 8, and
  random draw 730, whose level 32 takes 700 Picard steps.

A record names its problem as ``[nx, gamma, seed, start]`` or ``["draw", i,
start]``.  The fields:

- ``raises``: the problems whose solve raised ``ConvergenceError``;
- ``frozen``: the problems with a level of ``equation_residual > 1e-3``;
- ``negative``: the returned solutions with ``min u < -1e-12``;
- ``retries``: the plain retries ``solve_level`` fired (a second
  ``_AndersonTail`` in one call) and how many of them converged;
- ``worst_level``: the most Picard steps one level reported, its level and
  its problem;
- ``steps`` and ``cg_iterations``: totals over every level reported, those
  of solves that raised included.  A retried level reports its plain pass.

``wall_s`` and ``environment`` are the only fields that depend on the
machine.
"""

import json
import os
import platform
import sys
import time
from unittest import mock

import numpy as np
import scipy

import mildsing as ms
from mildsing import solver
from test_solver import level_problem, random_data


def _grid(gammas):
    for nx in (8, 12, 16):
        for gamma in gammas:
            for seed in range(28):
                for random_start in (True, False):
                    mesh, A, F, u0 = level_problem(nx, ms.OscillatingPower(gamma), seed,
                                                   random_start)
                    yield [nx, gamma, seed, "random" if random_start else "zero"], mesh, A, F, u0


def _draw(i):
    mesh, F, u0 = random_data(10000 + i, ms.OscillatingPower)
    if i % 2 == 0:
        return ["draw", i, "zero"], mesh, ms.Coefficient.identity(mesh), F, None
    return ["draw", i, "random"], mesh, ms.Coefficient.identity(mesh), F, u0


def _pinned():
    mesh, A, F, u0 = level_problem(8, ms.OscillatingPower(0.04), 31, True)
    yield [8, 0.04, 31, "random"], mesh, A, F, u0
    yield _draw(730)


FAMILIES = {
    "grid": lambda: _grid([round(0.01 * k, 2) for k in range(5, 16)]),
    "small": lambda: _grid([round(0.01 * k, 2) for k in range(1, 5)]),
    "random": lambda: (_draw(i) for i in range(1200)),
    "pinned": _pinned,
}


def scan(family):
    """The record of one family, as the module docstring describes it."""
    tails, levels = [], []
    record = {"family": family, "problems": 0, "raises": [], "frozen": [], "negative": [],
              "retries": {"fired": 0, "rescued": 0},
              "worst_level": {"iterations": 0, "level": None, "problem": None},
              "steps": 0, "cg_iterations": 0}

    class Counted(solver._AndersonTail):
        def __init__(self):
            super().__init__()
            tails.append(self)

    def counted_level(*args, _original=solver.solve_level, **kwargs):
        tails.clear()
        u, st = _original(*args, **kwargs)
        levels.append(st)
        if len(tails) > 1:
            record["retries"]["fired"] += 1
            record["retries"]["rescued"] += st.converged
        return u, st

    t0 = time.perf_counter()
    with mock.patch.object(solver, "_AndersonTail", Counted), \
            mock.patch.object(solver, "solve_level", counted_level):
        for problem, mesh, A, F, u0 in FAMILIES[family]():
            record["problems"] += 1
            levels.clear()
            try:
                rep = ms.solve_singular(mesh, A, F, u0=u0)
            except ms.ConvergenceError:
                record["raises"].append(problem)
            else:
                if rep.u.values.min() < -1e-12:
                    record["negative"].append(problem)
            if any(st.equation_residual > 1e-3 for st in levels):
                record["frozen"].append(problem)
            for st in levels:
                record["steps"] += st.iterations
                record["cg_iterations"] += st.cg_iterations
                if st.iterations > record["worst_level"]["iterations"]:
                    record["worst_level"] = {"iterations": st.iterations, "level": st.level,
                                             "problem": problem}
    record["wall_s"] = round(time.perf_counter() - t0, 1)
    record["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(), "cpus": os.cpu_count(),
    }
    return record


if __name__ == "__main__":
    names = sys.argv[1:] or list(FAMILIES)
    unknown = [name for name in names if name not in FAMILIES]
    if unknown:
        sys.exit(f"unknown families {unknown}; choose from {list(FAMILIES)}")
    for name in names:
        print(json.dumps(scan(name)), flush=True)
