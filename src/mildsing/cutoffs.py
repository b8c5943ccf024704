"""Scalar cutoff calculus used throughout the solver.

``tk`` clips at height ``k`` and ``gk`` keeps the excess above the clip.
``tk(s, k) + gk(s, k) == s`` holds exactly for ``|s| <= 2k``, where ``s - k``
is exact (Sterbenz's lemma).  Beyond ``2k``, ``gk`` is ``s - tk(s, k)``
rounded once, so the sum is within one unit in the last place of ``s``:
``k = 0.1``, ``s = -0.4193598121268742`` gives ``-0.4193598121268741``.
``z_delta`` is the piecewise-linear cutoff that equals 1 on ``[0, delta]``,
falls linearly to 0 on ``[delta, 2*delta]`` and vanishes beyond.

All three functions accept floats or numpy arrays and are elementwise.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tk", "gk", "z_delta"]


def _check_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def tk(s, k: float):
    """Clip ``s`` to the interval ``[-k, k]``."""
    _check_positive(k, "k")
    return np.clip(s, -k, k)


def gk(s, k: float):
    """Excess of ``s`` beyond the clip height ``k``: ``s - tk(s, k)``."""
    _check_positive(k, "k")
    return s - np.clip(s, -k, k)


def z_delta(s, delta: float):
    """Unit cutoff: 1 on ``[0, delta]``, ``2 - s/delta`` on ``[delta, 2*delta]``, else 0."""
    _check_positive(delta, "delta")
    s = np.asarray(s, dtype=float)
    out = np.clip(2.0 - s / delta, 0.0, 1.0)
    if out.ndim == 0:
        return float(out)
    return out
