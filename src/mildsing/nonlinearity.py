"""Right-hand sides ``F(x, s) = f(x) g(s) + l(x)`` that may blow up at ``s = 0``.

``g`` comes from a small registry of scalar maps: an inverse power, an
oscillating inverse power, a truncated linear ramp (used to probe the
degenerate eigenvalue case) and piecewise-linear tables for config-driven
custom shapes.  Every ``Nonlinearity`` carries

* an exponent ``gamma`` in ``(0, 1]`` (the mild-singularity range),
* an envelope field ``h`` with ``F(x, s) <= h(x) (s**-gamma + 1)``,
* ``lambda_mono``: the smallest known ``lam >= 0`` making
  ``F(x, s) - lam * s`` nonincreasing in ``s`` (``inf`` when none is known).

Construction validates all of this on a sampled log grid and fails loudly,
so downstream code can rely on the invariants.  ``F`` depends on ``s`` only
through the scalar ``g(s)``, so validation evaluates ``g`` once per sample
point and checks every node with the combiner that ``Nonlinearity.evaluate``
uses: ``l + f g(s)`` where ``f > 0``, else ``l``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .cutoffs import tk
from .mesh import FieldFunction, Mesh

__all__ = [
    "ScalarMap",
    "PowerLaw",
    "OscillatingPower",
    "EigenTruncation",
    "TableMap",
    "Nonlinearity",
    "nonlinearity",
]

_ENVELOPE_GRID = np.logspace(-8.0, 3.0, 56)
_MONO_GRID = np.concatenate([[0.0], np.logspace(-8.0, 3.0, 56)])


class ScalarMap(Protocol):
    """Scalar factor ``g: [0, inf) -> [0, inf]``, vectorized over arrays."""

    def __call__(self, s: np.ndarray) -> np.ndarray: ...

    def envelope_constant(self, gamma: float) -> float:
        """A constant ``c`` with ``g(s) <= c * (s**-gamma + 1)`` for all ``s > 0``."""
        ...


@dataclass(frozen=True)
class PowerLaw:
    """``g(s) = s**-gamma`` (``+inf`` at 0)."""

    gamma: float

    def __call__(self, s):
        # + 0.0 turns -0.0 into +0.0, whose power is +inf
        with np.errstate(divide="ignore"):
            return (np.asarray(s, dtype=float) + 0.0) ** -self.gamma

    def envelope_constant(self, gamma: float) -> float:
        if gamma < self.gamma:
            raise ValueError(f"power {self.gamma} is not dominated by s**-{gamma}")
        return 1.0

    def default_lambda_mono(self) -> float:
        return 0.0


@dataclass(frozen=True)
class OscillatingPower:
    """``g(s) = s**-gamma * (2 + sin(1/s))``: singular but not monotone."""

    gamma: float

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        safe = np.where(s > 0.0, s, 1.0)
        out = safe ** (-self.gamma) * (2.0 + np.sin(1.0 / safe))
        return np.where(s > 0.0, out, np.inf)

    def envelope_constant(self, gamma: float) -> float:
        if gamma < self.gamma:
            raise ValueError(f"power {self.gamma} is not dominated by s**-{gamma}")
        return 3.0

    def default_lambda_mono(self) -> float:
        # the oscillation makes difference quotients unbounded near 0
        return np.inf


@dataclass(frozen=True)
class EigenTruncation:
    """``g(s) = rate * min(s, k)``: bounded linear ramp; slope ``rate`` up to ``k``."""

    rate: float
    k: float

    def __call__(self, s):
        return self.rate * tk(np.asarray(s, dtype=float), self.k)

    def envelope_constant(self, gamma: float) -> float:
        return self.rate * self.k

    def default_lambda_mono(self) -> float:
        return self.rate


@dataclass(frozen=True)
class TableMap:
    """Piecewise-linear ``g`` from sample points, constant beyond the table."""

    s_points: tuple
    g_values: tuple

    def __call__(self, s):
        return np.interp(np.asarray(s, dtype=float), self.s_points, self.g_values)

    def envelope_constant(self, gamma: float) -> float:
        # g is bounded by its largest table value (constant extrapolation),
        # and c * (s**-gamma + 1) >= c, so c = max(g) is a valid envelope
        return float(np.max(self.g_values))

    def default_lambda_mono(self) -> float:
        s = np.asarray(self.s_points, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        q = np.diff(g) / np.diff(s)
        return float(max(0.0, q.max()))


@dataclass(frozen=True)
class Nonlinearity:
    """Validated ``F(x, s) = f(x) g(s) + l(x)`` over a mesh's nodes."""

    mesh: Mesh
    f: np.ndarray
    l: np.ndarray
    g: ScalarMap
    gamma: float
    h: np.ndarray
    lambda_mono: float

    def __post_init__(self) -> None:
        for arr in (self.f, self.l, self.h):
            arr.setflags(write=False)

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        """Nodal ``F(x, s(x))`` for a full nodal vector ``s`` (``+inf`` allowed where ``s = 0``)."""
        return _at_nodes(self, slice(None))(s)


def _combiner(F: Nonlinearity, nodes):
    """``g(s) -> F`` at ``nodes``: ``l + f g(s)`` where ``f > 0``, else ``l``.

    ``g(s)`` is a vector over ``nodes`` or one scalar.  A call computes ``f
    g(s) + l`` everywhere, then resets the ``f = 0`` nodes, where ``0 * inf``
    is NaN, to ``l``; at ``f > 0`` that rounds as ``l + f g(s)``, since ``l``
    holds no ``-0.0``.
    """
    f, l = F.f[nodes], F.l[nodes]
    zero = np.flatnonzero(f <= 0.0)

    def combine(g_s) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            out = f * g_s
        out += l
        out[zero] = l[zero]
        return out

    return combine


def _at_nodes(F: Nonlinearity, nodes):
    """``s -> F`` at ``nodes``, for ``s >= 0`` over them; the solver builds one per level."""
    combine, g = _combiner(F, nodes), F.g
    return lambda s: combine(g(s))


def _as_nodal(mesh: Mesh, data, name: str) -> np.ndarray:
    if isinstance(data, FieldFunction):
        data = data.values
    arr = np.asarray(data, dtype=float) + np.zeros(mesh.n_nodes)
    if arr.shape != (mesh.n_nodes,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({mesh.n_nodes},)")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr >= 0.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name} must be finite and nonnegative everywhere "
                         f"(node {i} has {float(arr[i])!r})")
    return arr


def nonlinearity(mesh: Mesh, g: ScalarMap, f=0.0, l=0.0, gamma: float | None = None,
                 h=None, lambda_mono: float | None = None) -> Nonlinearity:
    """Build and validate a ``Nonlinearity``.

    ``f`` and ``l`` accept scalars, arrays, or ``FieldFunction``s.  ``gamma``
    defaults to the exponent of ``g`` when it has one; ``h`` defaults to
    ``c_g * f + l`` with ``c_g`` the registry envelope constant;
    ``lambda_mono`` defaults to the registry value.
    """
    if gamma is None:
        gamma = getattr(g, "gamma", 1.0)
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must satisfy 0 < gamma <= 1, got {gamma!r}")
    f_arr = _as_nodal(mesh, f, "f")
    l_arr = _as_nodal(mesh, l, "l")
    if h is None:
        h_arr = g.envelope_constant(gamma) * f_arr + l_arr
    else:
        h_arr = _as_nodal(mesh, h, "h")
    if lambda_mono is None:
        fmax = f_arr.max()
        lambda_mono = g.default_lambda_mono() * fmax if fmax > 0.0 else 0.0
    lambda_mono = float(lambda_mono)
    if lambda_mono < 0.0:
        raise ValueError(f"lambda_mono must be >= 0, got {lambda_mono!r}")

    out = Nonlinearity(mesh, f_arr, l_arr, g, float(gamma), h_arr, lambda_mono)
    _check_envelope(out)
    if np.isfinite(lambda_mono):
        _check_monotonicity(out)
    return out


def _sampled(F: Nonlinearity, grid: np.ndarray):
    """``(s, F(x, s) at every node)`` for each ``s`` of ``grid``, ``g`` evaluated once on ``grid``.

    One node vector per ``s``, never a nodes x grid matrix.
    """
    combine = _combiner(F, slice(None))
    for s, g_s in zip(grid, F.g(grid)):
        yield s, combine(g_s)


def _check_envelope(F: Nonlinearity) -> None:
    """Sampled envelope invariant ``F(x, s) <= h(x) (s**-gamma + 1) (1 + 1e-12)``."""
    for s, lhs in _sampled(F, _ENVELOPE_GRID):
        rhs = F.h * (s ** (-F.gamma) + 1.0) * (1.0 + 1e-12)
        if np.any(lhs > rhs):
            i = int(np.argmax(lhs - rhs))
            raise ValueError(
                f"envelope violated at node {i}, s={s!r}: F={lhs[i]!r} > h*(s^-gamma+1)={rhs[i]!r}"
            )


def _check_monotonicity(F: Nonlinearity) -> None:
    """Sampled invariant: ``F(x, s) - lambda_mono * s`` nonincreasing along the grid."""
    lam = F.lambda_mono
    steps = ((s, Fs - lam * s) for s, Fs in _sampled(F, _MONO_GRID))
    _, prev = next(steps)
    for s, cur in steps:
        if np.any(cur > prev + 1e-12):
            i = int(np.argmax(cur - prev))
            raise ValueError(
                f"F - lambda*s increases at node {i} near s={s!r} with lambda={lam!r}"
            )
        prev = cur
