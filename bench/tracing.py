"""Spans around the package's layer boundaries, recorded from outside the package.

The tracer replaces public functions in the namespaces of the modules that
call them (``from .fem import solve_cg`` binds ``mildsing.solver.solve_cg``,
so that is the name patched) with thin wrappers that record one span per
call: name, start, end, parent and a few counts read off the arguments or
the result.  Spans stay in memory and are written out once, at the end of
the traced run.  The package is single-threaded under ``--threads 1``, so
one stack of open spans is enough.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager


def _cg_iterations(args, kwargs, result):
    return {"cg_iterations": int(result[1].iterations)}


def _picard_steps(args, kwargs, result):
    return {"picard_steps": int(result[1].iterations)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (module, attribute) pairs it is installed at, plus an
# optional function turning (args, kwargs, result) into span counts
LAYER_BOUNDARIES = {
    "mesh.perforate": ([("homogenization", "perforate")], None),
    "mesh.extend_by_zero": ([("homogenization", "extend_by_zero")], None),
    "mesh.h1_seminorm": ([("solver", "h1_seminorm"), ("homogenization", "h1_seminorm"),
                          ("fem", "h1_seminorm"), ("verification", "h1_seminorm")], None),
    "mesh.field_csv": ([("cli", "write_field_csv"), ("verification", "write_field_csv")],
                       _csv_bytes),
    "mesh.build": ([("cli", "build_rectangle_mesh"), ("cli", "build_interval_mesh"),
                    ("homogenization", "build_rectangle_mesh")], None),
    "fem.assemble": ([("solver", "assemble_stiffness"), ("solver", "lumped_mass"),
                      ("verification", "assemble_stiffness"), ("verification", "assemble_mass"),
                      ("fem", "stiffness_csr")], None),
    "fem.linear_solve": ([("solver", "solve_cg"), ("fem", "solve_cg")], _cg_iterations),
    "fem.eigenpair": ([("verification", "first_eigenpair")], None),
    "fem.norms": ([("cli", "norms"), ("solver", "energy_product"),
                   ("homogenization", "energy_product"), ("homogenization", "l2_norm"),
                   ("fem", "energy_product")], None),
    "nonlinearity.build": ([("nonlinearity", "nonlinearity"), ("cli", "nonlinearity"),
                            ("verification", "nonlinearity")], None),
    "nonlinearity.evaluate": ([("nonlinearity", "Nonlinearity.evaluate")], None),
    "solver.solve": ([("solver", "solve_singular"), ("homogenization", "solve_singular"),
                      ("cli", "solve_singular"), ("verification", "solve_singular")], None),
    "solver.level": ([("solver", "solve_level"), ("verification", "solve_level")],
                     _picard_steps),
    "homogenization.experiment": ([("homogenization", "homogenization_experiment"),
                                   ("cli", "homogenization_experiment")], None),
    "homogenization.corrector_experiment": ([("homogenization", "corrector_experiment"),
                                             ("cli", "corrector_experiment")], None),
    "homogenization.corrector": ([("homogenization", "corrector_field")], None),
    "homogenization.capacity": ([("cli", "discrete_capacity")], None),
    "verification.experiment": ([("cli", name) for name in (
        "comparison_experiment", "uniqueness_experiment", "nonuniqueness_experiment",
        "stability_experiment")], None),
    "cli": ([("cli", "main")], None),
}


class Tracer:
    """In-memory span recorder; ``install`` patches the layer boundaries."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> dict:
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counts is not None:
                record.update(counts(args, kwargs, result))
            return result
        return wrapper

    @contextmanager
    def install(self):
        """Patch every boundary in ``LAYER_BOUNDARIES``; restore them on exit.

        A site the package no longer has is skipped and listed in ``missing``,
        so the traced run keeps working when a call path is removed.
        """
        saved = []
        self.missing = []
        try:
            for name, (sites, counts) in LAYER_BOUNDARIES.items():
                for module_name, attr in sites:
                    owner = sys.modules.get(f"mildsing.{module_name}")
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part, None)
                    if owner is None or leaf not in owner.__dict__:
                        self.missing.append(f"mildsing.{module_name}.{attr}")
                        continue
                    original = owner.__dict__[leaf]
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(original, name, counts))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name (nested calls count once)."""
    out = []
    for record in spans:
        if record["name"] != name:
            continue
        parent = record["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(record)
    return out


def _total(spans, name) -> float:
    return sum(r["end"] - r["start"] for r in _outermost(spans, name))


def _self_time(spans, name) -> float:
    """Duration of every ``name`` span minus the time its direct children cover."""
    child_time = {}
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] = (child_time.get(record["parent"], 0.0)
                                            + record["end"] - record["start"])
    return sum(r["end"] - r["start"] - child_time.get(r["id"], 0.0)
               for r in spans if r["name"] == name)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer totals, counts and self times, keyed by the ``BENCHMARK.json`` names."""
    levels = [r for r in spans if r["name"] == "solver.level"]
    steps = [r["picard_steps"] for r in levels]
    return {
        "mesh.perforate_s": (_total(spans, "mesh.perforate"), "s"),
        "mesh.perforate_calls": (len(_outermost(spans, "mesh.perforate")), "count"),
        "mesh.extend_by_zero_s": (_total(spans, "mesh.extend_by_zero"), "s"),
        "mesh.h1_seminorm_s": (_total(spans, "mesh.h1_seminorm"), "s"),
        "mesh.h1_seminorm_calls": (len(_outermost(spans, "mesh.h1_seminorm")), "count"),
        "mesh.field_csv_s": (_total(spans, "mesh.field_csv"), "s"),
        "mesh.field_csv_bytes": (sum(r["bytes"] for r in _outermost(spans, "mesh.field_csv")),
                                 "bytes"),
        "fem.assemble_s": (_total(spans, "fem.assemble"), "s"),
        "fem.assemble_calls": (len(_outermost(spans, "fem.assemble")), "count"),
        "fem.linear_solve_s": (_total(spans, "fem.linear_solve"), "s"),
        "fem.linear_solve_calls": (len(_outermost(spans, "fem.linear_solve")), "count"),
        "fem.cg_iterations": (sum(r["cg_iterations"]
                                  for r in _outermost(spans, "fem.linear_solve")), "count"),
        "fem.eigenpair_s": (_total(spans, "fem.eigenpair"), "s"),
        "fem.eigenpair_calls": (len(_outermost(spans, "fem.eigenpair")), "count"),
        "fem.norms_s": (_total(spans, "fem.norms"), "s"),
        "nonlinearity.build_s": (_total(spans, "nonlinearity.build"), "s"),
        "nonlinearity.evaluate_s": (_total(spans, "nonlinearity.evaluate"), "s"),
        "nonlinearity.evaluate_calls": (len(_outermost(spans, "nonlinearity.evaluate")), "count"),
        "solver.level_s": (_total(spans, "solver.level"), "s"),
        "solver.levels": (len(levels), "count"),
        "solver.picard_steps": (sum(steps), "count"),
        "solver.max_level_steps": (max(steps, default=0), "count"),
        "solver.self_s": (_self_time(spans, "solver.level"), "s"),
        "homogenization.corrector_s": (_total(spans, "homogenization.corrector"), "s"),
        "homogenization.capacity_s": (_total(spans, "homogenization.capacity"), "s"),
        "cli.self_s": (_self_time(spans, "cli"), "s"),
        "trace.spans": (len(spans), "count"),
    }
