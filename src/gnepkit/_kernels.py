"""Simplex projection kernel used in solver inner loops.

Polyhedral projection is exact and lives in
:func:`gnepkit._lp.project_polyhedron`.
"""

from __future__ import annotations

import numpy as np


def project_simplex(y: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = scale}, scale > 0."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if scale <= 0.0:
        raise ValueError("simplex scale must be positive")
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - scale
    ks = np.arange(1, y.size + 1)
    # the index set {j : u_j > (css_j)/j} is a prefix; take its last element
    k = ks[u - css / ks > 0.0][-1]
    tau = css[k - 1] / k
    return np.maximum(y - tau, 0.0)
