"""Reference computations the benchmark checks the package against.

Nothing here calls the package.  On the structured right-triangle mesh with
identity ``A`` the P1 stiffness matrix is exactly the 5-point stencil
(``4`` on the diagonal, ``-1`` to the four axis neighbours) and the lumped
mass at an interior node is ``h**2``, so the discrete H1 seminorm and the
discrete equation can be rebuilt from grid-edge differences alone.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def grid(values: np.ndarray, nx: int) -> np.ndarray:
    """Row-major nodal vector as an ``(ny, nx)`` array (row ``j`` is ``y = j h``)."""
    return np.asarray(values, dtype=float).reshape(-1, nx)


def h1_seminorm(values: np.ndarray, nx: int) -> float:
    """``sum_T |T| |Du|^2`` from grid-edge differences.

    Each square cell holds two triangles that together see its four edges
    with weight 1/2, so interior edges count once and boundary edges half.
    """
    u = grid(values, nx)
    dx = np.diff(u, axis=1)
    dy = np.diff(u, axis=0)
    wx = np.ones_like(dx)
    wx[[0, -1], :] = 0.5
    wy = np.ones_like(dy)
    wy[:, [0, -1]] = 0.5
    return math.sqrt(float((wx * dx * dx).sum() + (wy * dy * dy).sum()))


def five_point(values: np.ndarray, nx: int) -> np.ndarray:
    """``4 u_c - (u_e + u_w + u_n + u_s)`` at the interior grid nodes."""
    u = grid(values, nx)
    return (4.0 * u[1:-1, 1:-1] - u[1:-1, 2:] - u[1:-1, :-2]
            - u[2:, 1:-1] - u[:-2, 1:-1])


def oscillating_g(s: np.ndarray, gamma: float) -> np.ndarray:
    """``s**-gamma (2 + sin(1/s))`` with ``+inf`` at ``s = 0``."""
    s = np.maximum(np.asarray(s, dtype=float), 0.0)
    out = np.full(s.shape, np.inf)
    pos = s > 0.0
    out[pos] = s[pos] ** (-gamma) * (2.0 + np.sin(1.0 / s[pos]))
    return out


def capped_residual(values: np.ndarray, nx: int, h: float, f: float, gamma: float,
                    cap: float) -> float:
    """Relative residual of ``K u = h**2 min(f g(u+), cap)`` at interior nodes."""
    interior = grid(values, nx)[1:-1, 1:-1]
    load = h * h * np.minimum(f * oscillating_g(interior, gamma), cap)
    return float(np.linalg.norm(five_point(values, nx) - load) / np.linalg.norm(load))


def prescribed_mu_density(epsilon: float, radius: float) -> float:
    """Per-cell capacity density ``2 pi / ln(eps / r) / (2 eps)**2`` of one hole."""
    return 2.0 * math.pi / math.log(epsilon / radius) / (2.0 * epsilon) ** 2


def corrector_profile(nodes: np.ndarray, epsilon: float, radius: float) -> np.ndarray:
    """``clip(ln(d / r) / ln(eps / r), 0, 1)`` with ``d`` the distance to the nearest
    hole centre, which on the period-``2 eps`` lattice is ``(2 floor(x / 2 eps) + 1) eps``."""
    cell = 2.0 * epsilon
    centre = (np.floor(nodes / cell) + 0.5) * cell
    d = np.hypot(nodes[:, 0] - centre[:, 0], nodes[:, 1] - centre[:, 1])
    with np.errstate(divide="ignore"):
        prof = np.log(d / radius) / math.log(epsilon / radius)
    return np.clip(prof, 0.0, 1.0)


#: peak of the solution of ``-u'' = 1 / u`` on ``(0, 1)`` with zero ends:
#: ``u'^2 = 2 ln(M / u)`` integrates to ``M sqrt(pi / 2) = 1 / 2``
PEAK_1D_INVERSE_LINEAR = 1.0 / math.sqrt(2.0 * math.pi)

#: first Dirichlet eigenvalue of the unit square
LAMBDA1_UNIT_SQUARE = 2.0 * math.pi ** 2


def annulus_capacity(r_outer: float, r_inner: float) -> float:
    return 2.0 * math.pi / math.log(r_outer / r_inner)


def read_field_values(path) -> np.ndarray:
    """The ``value`` column of a field CSV, parsed without the package's reader."""
    with open(path, newline="") as fh:
        return np.array([float(row["value"]) for row in csv.DictReader(fh)])
