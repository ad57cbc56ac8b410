"""The exact small-QP references the QP and min-norm tests compare against,
kept out of gnepkit, whose one method for both is a least-distance NNLS
(_lp.max_concave_quad, convexsets._min_norm_hull_point).

max_concave_quad enumerates KKT active sets and min_norm_hull_point
supports (Wolfe); both are exact, deterministic and exponential in the row
or generator count.
"""

import itertools

import numpy as np

from gnepkit._lp import LPError, UnboundedLP

_ACTIVE_SET_CAP = 100_000


def max_concave_quad(Q, c, A, b, A_eq=None, b_eq=None):
    """Maximize 0.5 z'Qz + c'z over {A z <= b, A_eq z = b_eq} exactly.

    Active-set enumeration: every KKT system over a subset of tight rows is
    solved directly and validated (primal feasibility, multiplier signs).
    Exact and deterministic, but exponential in the row count -- intended for
    the small per-player blocks this package works with.  Raises UnboundedLP
    when no KKT point validates (unbounded or badly degenerate problem).
    """
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, Q.shape[0])
    b = np.asarray(b, dtype=float).reshape(-1)
    d = Q.shape[0]
    m = A.shape[0]
    n_eq = 0 if A_eq is None else len(b_eq)
    if A_eq is not None:
        A_eq = np.asarray(A_eq, dtype=float).reshape(n_eq, d)
        b_eq = np.asarray(b_eq, dtype=float).reshape(n_eq)

    total = sum(
        _ncr(m, k) for k in range(0, min(m, d - n_eq) + 1)
    )
    if total > _ACTIVE_SET_CAP:
        raise LPError(f"active-set enumeration too large ({total} subsets)")

    best_val, best_z = -np.inf, None
    scale = 1.0 + np.abs(b).max(initial=0.0)
    for k in range(0, min(m, max(d - n_eq, 0)) + 1):
        for S in itertools.combinations(range(m), k):
            rows = A[list(S)]
            rhs = b[list(S)]
            if A_eq is not None:
                rows = np.vstack([rows, A_eq]) if rows.size else A_eq
                rhs = np.concatenate([rhs, b_eq]) if rhs.size else b_eq
            na = rows.shape[0] if rows.size else 0
            kkt = np.zeros((d + na, d + na))
            kkt[:d, :d] = Q
            if na:
                kkt[:d, d:] = -rows.T
                kkt[d:, :d] = rows
            rhs_full = np.concatenate([-c, rhs if na else np.zeros(0)])
            try:
                sol = np.linalg.solve(kkt, rhs_full)
            except np.linalg.LinAlgError:
                continue
            z, mu = sol[:d], sol[d : d + k]
            if m and np.any(A @ z - b > 1e-8 * scale):
                continue
            if k and np.any(mu < -1e-8):
                continue
            val = 0.5 * z @ Q @ z + c @ z
            if val > best_val:
                best_val, best_z = val, z
    if best_z is None:
        raise UnboundedLP("no validated KKT point (unbounded or degenerate)")
    return best_val, best_z


def _ncr(n, r):
    if r < 0 or r > n:
        return 0
    out = 1
    for i in range(r):
        out = out * (n - i) // (i + 1)
    return out


def min_norm_hull_point(G):
    """Exact min-norm point of co(rows of G) by support enumeration (Wolfe)."""
    k, n = G.shape
    best, best_norm = G[0], np.linalg.norm(G[0])
    for size in range(1, min(k, n + 1) + 1):
        for S in itertools.combinations(range(k), size):
            Gs = G[list(S)]
            M = np.zeros((size + 1, size + 1))
            M[:size, :size] = Gs @ Gs.T
            M[:size, size] = -1.0
            M[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            lam = sol[:size]
            if np.any(lam < -1e-12):
                continue
            p = Gs.T @ lam
            # Wolfe optimality over the full generator set
            if np.all(G @ p >= p @ p - 1e-10):
                nn = np.linalg.norm(p)
                if nn < best_norm - 1e-15:
                    best, best_norm = p, nn
                if nn <= 1e-10:
                    return p
    return best
