"""Linear-programming helpers (scipy/HiGHS), exact polyhedral projection
(one NNLS), and a tiny exact QP maximizer.

All solver-facing feasibility, slack, and support computations funnel through
here so tolerances and failure modes stay in one place.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog, nnls


class LPError(RuntimeError):
    pass


class InfeasibleLP(LPError):
    pass


class UnboundedLP(LPError):
    pass


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """linprog with free default bounds and status mapped to exceptions."""
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds if bounds is not None else (None, None),
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleLP(res.message)
    if res.status == 3:
        raise UnboundedLP(res.message)
    if not res.success:
        raise LPError(res.message)
    return res


def max_linear(c, A=None, b=None, A_eq=None, b_eq=None, bounds=None):
    """Maximize c.x over {A x <= b, A_eq x = b_eq}; returns (value, x)."""
    res = solve_lp(-np.asarray(c, dtype=float), A, b, A_eq, b_eq, bounds)
    return -res.fun, res.x


def max_slack(A, b, strict_mask, cap=1e6):
    """Largest margin s with A x <= b - s on strict rows (A x <= b elsewhere).

    Rows must be unit-normalized for s to mean Euclidean distance.  Returns
    (s, x); raises InfeasibleLP when even the closure is empty.  s is capped,
    so a cap-valued result just means "comfortably nonempty".
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    col = np.asarray(strict_mask, dtype=float).reshape(m, 1)
    A_ext = np.hstack([A, col])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    bounds = [(None, None)] * n + [(None, cap)]
    res = solve_lp(c, A_ext, b, bounds=bounds)
    return -res.fun, res.x[:n]


def chebyshev_center(A, b):
    """Deepest point of {A x <= b} (rows unit-normalized): returns (x, r)."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    A_ext = np.hstack([A, np.ones((m, 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = solve_lp(c, A_ext, b, bounds=[(-1e6, 1e6)] * n + [(0.0, 1e3)])
    return res.x[:n], -res.fun


def recession_cone_is_zero(A) -> bool:
    """Whether {d : A d <= 0} = {0}, which makes every {A z <= b} bounded.

    For A of rank n, Stiemke's theorem makes this equivalent to some
    lambda > 0 with A'lambda = 0.  One LP maximizes min_j lambda_j over
    lambda >= 0 with sum(lambda) = 1; it is infeasible when some d has
    A d < 0 (Gordan).
    """
    m, n = A.shape
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-np.eye(m), np.ones((m, 1))])
    A_eq = np.vstack([np.hstack([A.T, np.zeros((n, 1))]), np.append(np.ones(m), 0.0)])
    b_eq = np.append(np.zeros(n), 1.0)
    try:
        res = solve_lp(c, A_ub, np.zeros(m), A_eq, b_eq, [(0.0, None)] * m + [(None, 1.0)])
    except InfeasibleLP:
        return False
    return bool(-res.fun > 1e-9)


# Emptiness threshold of the least-distance program, relative to the size of
# the sum h'w that cancels to give r[n] (see project_polyhedron).
_LDP_EMPTY_RTOL = 1e-10


def project_polyhedron(y, A, b):
    """Euclidean projection of y onto {x : A x <= b}, exactly.

    Least-distance program (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23): with s = max|A y - b|, h = (A y - b) / s,
    E = [-A'; h'] and f = e_{n+1}, one NNLS  min |E w - f|, w >= 0  gives
    r = E w - f and the projection y - s r[:n] / r[n].  Dividing by s keeps
    E well sized whatever the distance of y.

    At the NNLS optimum r[n] = -|r|^2, which is -1 / (1 + (dist/s)^2) for a
    nonempty polyhedron and exactly 0 for an empty one (Farkas).  The
    polyhedron counts as empty, and InfeasibleLP is raised, when
    |r[n]| <= _LDP_EMPTY_RTOL * (1 + |h|'w), i.e. when r[n] is rounding
    noise of the sum it is computed from.  The NNLS iteration cap
    (RuntimeError) propagates.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    A = np.asarray(A, dtype=float).reshape(-1, y.size)
    h = A @ y - np.asarray(b, dtype=float).reshape(-1)
    s = np.abs(h).max(initial=0.0)
    if s == 0.0:
        return y.copy()
    h /= s
    E = np.vstack([-A.T, h])
    f = np.zeros(y.size + 1)
    f[-1] = 1.0
    w, _ = nnls(E, f)
    r = E @ w - f
    if abs(r[-1]) <= _LDP_EMPTY_RTOL * (1.0 + np.abs(h) @ w):
        raise InfeasibleLP("least-distance program: polyhedron is empty")
    return y - (s / r[-1]) * r[:-1]


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
