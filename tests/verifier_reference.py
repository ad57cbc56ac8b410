"""The verifier reference the certificate tests compare against: the
definition checked as gnepkit checked it while every slice was normalised
again by HPoly's constructor.  Membership reads copied rows (a Box's built
one coordinate at a time), and a separable maximum over a Box or a 1-D
polyhedron clips with np.clip, over the polyhedron's interval from numpy's
ratio test.  A linear player keeps a d x d zero quadratic term.  It is kept
out of gnepkit, whose verifier is game.verify_equilibrium."""

import numpy as np

from gnepkit import _lp
from gnepkit.convexsets import Ball, Box, EmptyBodyError, HPoly, Simplex, maximize
from gnepkit.game import EquilibriumCertificate, FixedConstraint, SharedSlice, Tolerances
from gnepkit.preferences import (
    LinearUtility,
    QuadUtility,
    RelationOracle,
    UnboundedPreferenceError,
    _own_linear_terms,
    max_improvement,
    pref_set,
)


def clip_argmax(c, q, lo, hi):
    """convexsets._clip_argmax written with np.clip."""
    z = np.where(c > 0, hi, np.where(c < 0, lo, np.clip(0.0, lo, hi)))
    curved = np.less(q, 0.0)
    if curved.any():
        z = np.where(curved, np.clip(-c / np.where(curved, q, -1.0), lo, hi), z)
    return z


def own_quadratic(pm, x):
    """(A2, a1, a0) with u(x_{-i}, z) - u(x) = 0.5 z'A2 z + a1'z + a0: a zero
    A2 for a linear player, and a0 through it."""
    v = pm.variant
    x = np.asarray(x, dtype=float)
    xi = pm.own(x)
    if isinstance(v, LinearUtility):
        A2 = np.zeros((pm.block_dim, pm.block_dim))
    else:
        A2 = v.Q[pm.block, pm.block] if v.Q.shape[0] == x.size else v.Q
    a1 = _own_linear_terms(pm, x)
    a0 = -(0.5 * xi @ A2 @ xi + a1 @ xi)
    return A2, a1, a0


def interval(body):
    """(lo, hi) of a 1-D HPoly by the ratio test, numpy's min and max over
    b / a; raises EmptyBodyError when lo - hi exceeds 1e-10 relative to
    |lo| + |hi|, and a smaller crossing collapses to the midpoint."""
    if body._poisoned:
        raise EmptyBodyError("maximization over an empty polyhedron")
    a, b = body.A[:, 0], body.b
    R, up = b[None] / a, a > 0
    hi = np.minimum.reduce(R, axis=1, where=up, initial=np.inf)
    lo = np.maximum.reduce(R, axis=1, where=~up, initial=-np.inf)
    gap = lo - hi
    if gap[0] > _lp._LDP_EMPTY_RTOL * (1.0 + abs(lo[0]) + abs(hi[0])):
        raise EmptyBodyError("maximization over an empty polyhedron")
    if gap[0] > 0:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def box_rows(box):
    """Box.hrep() built one coordinate at a time: the hi row e_j, then the
    lo row -e_j, each when its bound is finite."""
    eye = np.eye(box.dim)
    rows, rhs = [], []
    for j in range(box.dim):
        if np.isfinite(box.hi[j]):
            rows.append(eye[j])
            rhs.append(box.hi[j])
        if np.isfinite(box.lo[j]):
            rows.append(-eye[j])
            rhs.append(-box.lo[j])
    return np.array(rows).reshape(-1, box.dim), np.array(rhs)


def _rows(body):
    if isinstance(body, Box):
        return box_rows(body)
    if isinstance(body, HPoly):
        return body.A.copy(), body.b.copy()
    if isinstance(body, Simplex):
        C, d = body.equalities()
        return np.vstack([-np.eye(body.dim), C, -C]), np.concatenate([np.zeros(body.dim), d, -d])
    return None


def constraint_body(game, i, x):
    c = game.constraints[i]
    if isinstance(c, SharedSlice):
        A, strict, b_X, b, rival, scale = game._slice_rows[i]
        K = HPoly(A, np.concatenate([b_X, (b - rival @ x) / scale]), strict)
        form = game._slice_forms[i]
        if form is not None:
            object.__setattr__(K, "_form", form)
            object.__setattr__(K, "_bounded", True)
        return K
    if isinstance(c, FixedConstraint):
        return c.body
    return c.build(x)


def membership_violation(body, z):
    worst = -np.inf
    h = _rows(body)
    if h is not None and len(h[1]):
        worst = float(np.max(h[0] @ z - h[1]))
    if isinstance(body, Ball):
        worst = max(worst, float(np.linalg.norm(z - body.center) - body.radius))
    if worst == -np.inf:
        worst = 0.0 if body.contains(z, eps=1e-9, eps_open=0.0) else np.inf
    return worst


def _maximum(body, c, Q):
    """max 0.5 z'Qz + <c, z>: the separable closed forms here, the rest by
    convexsets.maximize."""
    quadratic = np.abs(Q).max(initial=0.0) > 1e-13
    q = np.diag(Q) if quadratic else np.zeros(body.dim)
    separable = not quadratic or (np.count_nonzero(Q) == np.count_nonzero(q)
                                  and np.all(q <= 0.0))
    one_d = isinstance(body, HPoly) and body.dim == 1
    if not separable or not (one_d or isinstance(body, Box)):
        return maximize(body, c, Q)[0]
    lo, hi = interval(body) if one_d else (body.lo, body.hi)
    z = clip_argmax(c, q, lo, hi)
    if not np.all(np.isfinite(z)):
        raise _lp.UnboundedLP("maximum over an unbounded box or interval")
    if quadratic:
        return float(0.5 * z @ Q @ z + c @ z)
    if one_d:
        return float(c[0] * z[0]) if c[0] != 0.0 else 0.0
    return float(np.sum(c * z))


def _improvement(pm, x, K, eps_open, seed):
    if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
        return max_improvement(pm, x, K, eps_open, seed)
    A2, a1, a0 = own_quadratic(pm, x)
    try:
        val = _maximum(K, a1, A2)
    except _lp.UnboundedLP:
        raise UnboundedPreferenceError(f"player {pm.player}: improvement unbounded") from None
    return float(val + a0)


def verify_equilibrium(game, x, tol=Tolerances(), seed=0):
    x = np.asarray(x, dtype=float)
    feas = np.empty(game.n_players)
    empt = np.empty(game.n_players)
    notes = []
    for i, pm in enumerate(game.preferences):
        if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
            pref_set(pm, x, tol.eps_open, seed)
        empty = False
        try:
            K = constraint_body(game, i, x)
            feas[i] = max(
                membership_violation(K, pm.own(x)),
                membership_violation(pm.ambient, pm.own(x)),
            )
            empt[i] = _improvement(pm, x, K, tol.eps_open, seed)
        except (EmptyBodyError, _lp.InfeasibleLP):
            empty = True
        except UnboundedPreferenceError as e:
            empty = K.is_empty(eps_open=0.0)
            if not empty:
                empt[i] = np.inf
                notes.append(str(e))
        if empty:
            feas[i], empt[i] = np.inf, 0.0
            notes.append(f"player {i}: constraint slice empty")
    ok = bool(np.all(feas <= tol.eps_feas) and np.all(empt <= tol.eps_open))
    approx = any(isinstance(pm.variant, RelationOracle) for pm in game.preferences)
    return EquilibriumCertificate(x.copy(), feas, empt, ok, tol, approx, seed, tuple(notes))
