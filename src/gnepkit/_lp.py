"""Linear-programming helpers (scipy/HiGHS) and exact polyhedral projection
(one NNLS), which with one KKT solve also maximizes a concave quadratic.

The projection's least-distance program also decides emptiness (Farkas);
the LPs answer values, centres and recession cones, never emptiness.
"""

from __future__ import annotations

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


def max_slack(A, b, strict_mask):
    """Largest margin s <= 1 with A x <= b - s on strict rows (A x <= b
    elsewhere): a value, not an emptiness test; 1 means "comfortably
    nonempty".  Rows must be unit-normalized for s to mean Euclidean
    distance.  Returns (s, x); raises InfeasibleLP when the closure is empty.
    """
    A = np.asarray(A, dtype=float)
    col = np.asarray(strict_mask, dtype=float).reshape(-1, 1)
    c = np.append(np.zeros(A.shape[1]), -1.0)
    res = solve_lp(c, np.hstack([A, col]), b, bounds=[(None, None)] * A.shape[1] + [(None, 1.0)])
    return -res.fun, res.x[:-1]


def chebyshev_center(A, b):
    """Deepest point of {A x <= b} (rows unit-normalized): returns (x, r).
    For HPoly.interior_point and sample; emptiness is project_polyhedron's."""
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


def concave_factor(Q):
    """L with L L' = -Q + s I, the metric of a negative semidefinite Q:
    s = max(0, 1e-10 lmax - lmin) over the eigenvalues of -Q shifts only a
    singular or nearly singular Q.  Raises UnboundedLP for Q = 0."""
    lam = np.linalg.eigvalsh(-Q)
    try:
        return np.linalg.cholesky(-Q + max(0.0, 1e-10 * lam[-1] - lam[0]) * np.eye(len(Q)))
    except np.linalg.LinAlgError:
        raise UnboundedLP("Q = 0 has no metric") from None


def max_concave_quad(Q, c, A, b, A_eq=None, b_eq=None):
    """Maximize 0.5 z'Qz + c'z over {A z <= b, A_eq z = b_eq}, Q negative
    semidefinite and nonzero; returns (value, z).

    A concave QP is a least-distance program in the metric of -Q (Lawson &
    Hanson ch. 23): with L from concave_factor, z = L^-T w for the point w
    of {A L^-T w <= b} nearest L^-1 c, one project_polyhedron on unit rows
    (an equality as its +/- pair).  One KKT solve with the true Q refines z
    on the rows tight there (within 1e-9 on unit rows) that an NNLS gives a
    positive multiplier, so a degenerate vertex keeps independent rows, and
    a free multiplier per equality: np.linalg.solve at full rank, else
    least squares.  z is returned only when it validates: A z - b <=
    1e-8 (1 + max|b|), multipliers >= -1e-8 and a KKT residual at rounding
    size.  Raises InfeasibleLP when the least-distance program finds the
    polyhedron empty, UnboundedLP when z does not validate (an unbounded
    maximum).
    """
    Q = np.asarray(Q, dtype=float)
    d = Q.shape[0]
    c = np.asarray(c, dtype=float).reshape(d)
    A = np.asarray(A, dtype=float).reshape(-1, d)
    b = np.asarray(b, dtype=float).reshape(-1)
    A_eq = np.zeros((0, d)) if A_eq is None else np.asarray(A_eq, dtype=float).reshape(-1, d)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).reshape(-1)

    Li = np.linalg.inv(concave_factor(Q))
    M = np.vstack([A, A_eq, -A_eq]) @ Li.T
    norms = np.linalg.norm(M, axis=1)
    M /= norms[:, None]
    beta = np.concatenate([b, b_eq, -b_eq]) / norms
    w = project_polyhedron(Li @ c, M, beta)
    m = len(b)
    S = np.flatnonzero(M[:m] @ w - beta[:m] >= -1e-9 * (1.0 + np.abs(beta[:m])))
    if len(S):
        mu, _ = nnls(np.hstack([A[S].T, A_eq.T, -A_eq.T]), c + Q @ (Li.T @ w))
        S = S[mu[: len(S)] > 0.0]

    # assembled as tests/qp_reference.py does: an equal active set, equal bits
    rows = np.vstack([A[S], A_eq])
    kkt = np.block([[Q, -rows.T], [rows, np.zeros((len(rows), len(rows)))]])
    rhs = np.concatenate([-c, b[S], b_eq])
    sol, _, rank, _ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if rank == len(kkt):
        sol = np.linalg.solve(kkt, rhs)
    z, mu = sol[:d], sol[d : d + len(S)]
    residual = np.abs(kkt @ sol - rhs).max()
    if (np.any(A @ z - b > 1e-8 * (1.0 + np.abs(b).max(initial=0.0)))
            or np.any(mu < -1e-8)
            or residual > 1e-8 * (1.0 + np.abs(rhs).max() + np.abs(kkt).max() * np.abs(sol).max())):
        raise UnboundedLP("no validated KKT point (unbounded or degenerate)")
    return 0.5 * z @ Q @ z + c @ z, z
