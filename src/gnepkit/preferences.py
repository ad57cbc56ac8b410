"""Set-valued preference maps: strict upper sections, convexifications, checks.

A player's preference is one of five variants.  Two are graded (linear and
concave-quadratic utilities over the joint strategy vector), two are
polyhedral set maps (a parametric half-space system, or a finite union of
them), and one is a black-box strict relation queried pointwise.  The central
query is ``pref_set(pm, x)``: everything the player strictly prefers to x
inside their own choice set.  By convention this is an *open* region -- ties
are never preferred.

Equilibrium analysis only needs the convexified sections to be well behaved;
irreflexivity of the raw relation is the one hypothesis checked eagerly
(``SelfPreferenceError``), since a point inside its own preferred set breaks
every theorem downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.spatial import QhullError

from . import _lp
from .convexsets import (
    DEFAULT_EPS_OPEN,
    ConvexBody,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    _pair_masks,
    hull_body,
    intersect,
    is_polyhedral,
    maximize,
)


class SelfPreferenceError(ValueError):
    """x_i landed inside co(P_i(x)): the game violates irreflexivity/convexity."""

    def __init__(self, player, point, detail=""):
        self.player = player
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"player {player} prefers its own strategy {self.point}" + detail)


class UnboundedPreferenceError(RuntimeError):
    """Improvement search diverged: preferred set unbounded over the domain."""


# --------------------------------------------------------------------------
# variants


@dataclass(frozen=True)
class LinearUtility:
    """u(x) = <c, x> over the joint vector (or own block if c is block-sized)."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))


@dataclass(frozen=True)
class QuadUtility:
    """u(x) = 0.5 x'Qx + <c, x>; the player's own diagonal block must be NSD.

    The full Q may be indefinite (bilinear couplings are how profit terms
    <p, b> enter); concavity is only required in the player's own variables.
    """

    Q: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        Q = 0.5 * (Q + Q.T)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        if Q.shape[0] != Q.shape[1] or Q.shape[0] != self.c.size:
            raise ValueError("QuadUtility shape mismatch")


@dataclass(frozen=True)
class PolyhedralPref:
    """Rows (A, b, strict) over the player's own block, possibly x-dependent."""

    build: Optional[Callable] = None
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    strict: Optional[np.ndarray] = None

    @classmethod
    def constant(cls, A, b, strict=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        strict = (
            np.ones(len(b), dtype=bool)
            if strict is None
            else np.asarray(strict, dtype=bool).reshape(len(b))
        )
        return cls(None, A, b, strict)

    def rows(self, x):
        if self.build is not None:
            A, b, strict = self.build(np.asarray(x, dtype=float))
            return (
                np.atleast_2d(np.asarray(A, dtype=float)),
                np.asarray(b, dtype=float).reshape(-1),
                np.asarray(strict, dtype=bool).reshape(-1),
            )
        return self.A, self.b, self.strict

    @property
    def serializable(self):
        return self.build is None


@dataclass(frozen=True)
class UnionPref:
    """Finite union of polyhedral pieces; generally non-convex."""

    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not self.pieces:
            raise ValueError("UnionPref needs at least one piece")


@dataclass(frozen=True)
class RelationOracle:
    """succ(x, z) -> bool: is (x_{-i}, z) strictly preferred to x?  Sampled."""

    succ: Callable
    budget: int = 256


Variant = (LinearUtility, QuadUtility, PolyhedralPref, UnionPref, RelationOracle)


@dataclass(frozen=True)
class PreferenceMap:
    """A variant bound to a player: block location plus own choice set X_i."""

    player: int
    block_start: int
    ambient: ConvexBody
    variant: object

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise TypeError(f"unknown preference variant {type(self.variant).__name__}")
        # the preferred set is X_i intersected with the variant's rows
        if isinstance(self.variant, (PolyhedralPref, UnionPref)) and not is_polyhedral(
                self.ambient):
            raise ValueError(f"player {self.player}: X_i kind={self.ambient.kind!r} is not "
                             "polyhedral, but the preference is given by rows")

    # read several times per player in every operator evaluation and
    # certificate, so kept once per (frozen) map
    @cached_property
    def block_dim(self) -> int:
        return self.ambient.dim

    @cached_property
    def block(self) -> slice:
        return slice(self.block_start, self.block_start + self.block_dim)

    def own(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)[self.block]

    def joined(self, x, z) -> np.ndarray:
        y = np.array(x, dtype=float, copy=True)
        y[self.block] = z
        return y


def embed_variant(pm: PreferenceMap, n: int) -> PreferenceMap:
    """Promote own-block utility coefficients to joint-sized ones."""
    v = pm.variant
    if isinstance(v, LinearUtility) and v.c.size == pm.block_dim and pm.block_dim != n:
        c = np.zeros(n)
        c[pm.block] = v.c
        return PreferenceMap(pm.player, pm.block_start, pm.ambient, LinearUtility(c))
    if isinstance(v, QuadUtility) and v.Q.shape[0] == pm.block_dim and pm.block_dim != n:
        Q = np.zeros((n, n))
        Q[pm.block, pm.block] = v.Q
        c = np.zeros(n)
        c[pm.block] = v.c
        return PreferenceMap(pm.player, pm.block_start, pm.ambient, QuadUtility(Q, c))
    return pm


# --------------------------------------------------------------------------
# graded-variant helpers


def utility(pm: PreferenceMap, x) -> float:
    x = np.asarray(x, dtype=float)
    v = pm.variant
    if isinstance(v, LinearUtility):
        return float(v.c @ x) if v.c.size == x.size else float(v.c @ pm.own(x))
    if isinstance(v, QuadUtility):
        if v.Q.shape[0] == x.size:
            return float(0.5 * x @ v.Q @ x + v.c @ x)
        xi = pm.own(x)
        return float(0.5 * xi @ v.Q @ xi + v.c @ xi)
    raise TypeError("utility() needs a graded (linear/quadratic) variant")


def _own_quadratic(pm: PreferenceMap, x):
    """(A2, a1, a0) with u(x_{-i}, z) - u(x) = 0.5 z'A2 z + a1'z + a0, q(x_i)=0."""
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


def _own_linear_terms(pm: PreferenceMap, X) -> np.ndarray:
    """a1 of _own_quadratic at the joint point X, or at every row x of X:
    (Q @ x)[block] - A2 @ x_i + c[block] for a quadratic variant over the
    joint point, else the own c.

    Each product is one matrix-vector product per point (a stacked matmul
    for rows), the one Q @ x takes alone; so a row's a1 has the same bits in
    a batch as alone, and the grid oracle (a batch of rival groups) and the
    verifier (one point) score a node alike.
    """
    v = pm.variant
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if isinstance(v, QuadUtility) and v.Q.shape[0] == n:
        A2 = v.Q[pm.block, pm.block]
        return ((v.Q @ X[..., None])[..., pm.block, 0]
                - (A2 @ X[..., pm.block, None])[..., 0] + v.c[pm.block])
    c = v.c[pm.block] if isinstance(v, LinearUtility) and v.c.size == n else v.c
    return c.copy() if X.ndim == 1 else np.tile(c, (len(X), 1))


# --------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class EmptyRegion:
    dim: int

    def contains(self, z, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        return False

    def is_empty(self, eps_open=DEFAULT_EPS_OPEN):
        return True


@dataclass(frozen=True)
class QuadRegion:
    """{z in ambient : 0.5 z'A2 z + a1'z + a0 > 0} with A2 negative-semidefinite."""

    A2: np.ndarray
    a1: np.ndarray
    a0: float
    ambient: ConvexBody

    @property
    def dim(self):
        return self.ambient.dim

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(0.5 * z @ self.A2 @ z + self.a1 @ z + self.a0)

    def contains(self, z, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        if not self.ambient.contains(z, eps, eps_open):
            return False
        return self.value(z) > eps_open - eps

    def max_value(self) -> float:
        try:
            val, _ = maximize(self.ambient, self.a1, self.A2)
        except _lp.UnboundedLP as e:
            raise UnboundedPreferenceError(str(e)) from None
        return val + self.a0

    def is_empty(self, eps_open=DEFAULT_EPS_OPEN):
        return self.max_value() <= eps_open


@dataclass(frozen=True)
class UnionRegion:
    pieces: tuple
    dim: int

    def contains(self, z, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        return any(p.contains(z, eps, eps_open) for p in self.pieces)

    def is_empty(self, eps_open=DEFAULT_EPS_OPEN):
        return all(p.is_empty(eps_open) for p in self.pieces)


@dataclass(frozen=True)
class SampledRegion:
    """Membership oracle plus whatever members the sampling budget found."""

    members: np.ndarray
    member_fn: Callable
    ambient: ConvexBody

    @property
    def dim(self):
        return self.ambient.dim

    def contains(self, z, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        return bool(self.ambient.contains(z, eps, eps_open) and self.member_fn(z))

    def is_empty(self, eps_open=DEFAULT_EPS_OPEN):
        return len(self.members) == 0


def _with_rows(ambient: ConvexBody, A, b, strict) -> ConvexBody:
    return intersect(ambient, HPoly(A, b, strict))


def _ambient_candidates(ambient: ConvexBody, rng: np.random.Generator, budget: int):
    pts = [ambient.sample(rng, budget)]
    try:
        vs = ambient.vertices()
        if len(vs):
            pts.append(vs)
    except EnumerationError:
        pass
    ip = ambient.interior_point()
    if ip is not None:
        pts.append(ip[None, :])
    return np.vstack(pts)


# --------------------------------------------------------------------------
# the two core queries


def pref_set(pm: PreferenceMap, x, eps_open: float = DEFAULT_EPS_OPEN, seed: int = 0):
    """Strict upper section P_i(x) ∩ X_i as a queryable region.

    Raises SelfPreferenceError when x_i sits inside co(P_i(x)) -- for the
    graded variants that is impossible, for set-valued ones it is a real
    modeling error that would silently break the normal-cone construction.
    """
    x = np.asarray(x, dtype=float)
    v = pm.variant
    xi = pm.own(x)
    d = pm.block_dim

    if isinstance(v, (LinearUtility, QuadUtility)):
        A2, a1, a0 = _own_quadratic(pm, x)
        if np.abs(A2).max(initial=0.0) <= 1e-13:
            if np.linalg.norm(a1) <= 1e-13:
                return EmptyRegion(d)
            # {z : a1.z > a1.xi} as a strict half-space row
            return _with_rows(pm.ambient, -a1[None, :], [-(a1 @ xi)], [True])
        return QuadRegion(A2, a1, a0, pm.ambient)

    if isinstance(v, PolyhedralPref):
        A, b, strict = v.rows(x)
        region = _with_rows(pm.ambient, A, b, strict)
        if region.contains(xi, eps=0.0, eps_open=eps_open):
            raise SelfPreferenceError(pm.player, xi)
        return region

    if isinstance(v, UnionPref):
        pieces = tuple(_with_rows(pm.ambient, *pc.rows(x)) for pc in v.pieces)
        for p in pieces:
            if p.contains(xi, eps=0.0, eps_open=eps_open):
                raise SelfPreferenceError(pm.player, xi)
        _union_hull_guard(pm, pieces, xi, eps_open)
        return UnionRegion(pieces, d)

    if isinstance(v, RelationOracle):
        if v.succ(x, xi):
            raise SelfPreferenceError(pm.player, xi, " (irreflexivity breach)")
        rng = np.random.default_rng(seed)
        cands = _ambient_candidates(pm.ambient, rng, v.budget)
        members = np.array([z for z in cands if v.succ(x, z)]).reshape(-1, d)
        if len(members) > d:
            _hull_guard(pm, members, xi, eps_open)
        return SampledRegion(members, lambda z, _x=x: v.succ(_x, z), pm.ambient)

    raise TypeError(f"unknown variant {type(v).__name__}")


def _union_hull_guard(pm, pieces, xi, eps_open):
    pts = []
    for p in pieces:
        try:
            vs = p.vertices()
        except (EnumerationError, EmptyBodyError):
            return  # unbounded/degenerate: piece membership was already checked
        pts.extend(vs)
    if len(pts) <= 1:
        return
    _hull_guard(pm, np.array(pts), xi, eps_open)


def _hull_guard(pm, points, xi, eps_open):
    """Raise when xi is *strictly* inside the hull of the given points."""
    try:
        hull = hull_body(points)
    except (EnumerationError, QhullError):
        # a cloud flat in some direction has no interior for xi to be in
        return
    A, b, _ = hull.hrep()
    inside = bool(np.all(A @ xi - b < -eps_open))
    if inside:
        raise SelfPreferenceError(pm.player, xi, " (inside convexified preferred set)")


def convexified_set(pm: PreferenceMap, x, eps_open: float = DEFAULT_EPS_OPEN, seed: int = 0):
    """co(P_i(x)) ∩ X_i; equals pref_set for the convex-valued variants."""
    region = pref_set(pm, x, eps_open, seed)
    if isinstance(region, UnionRegion):
        live = [p for p in region.pieces if not p.is_empty(eps_open)]
        if not live:
            return EmptyRegion(region.dim)
        pts = [v for p in live for v in p.vertices()]
        return intersect(pm.ambient, hull_body(np.array(pts)))
    if isinstance(region, SampledRegion):
        if len(region.members) == 0:
            return EmptyRegion(region.dim)
        return hull_body(region.members)
    return region


# --------------------------------------------------------------------------
# improvement slack (shared by the verifier and satiation checks)


def max_improvement(pm: PreferenceMap, x, over: ConvexBody,
                    eps_open: float = DEFAULT_EPS_OPEN, seed: int = 0):
    """The slack: how strongly the player can improve inside `over`.

    Graded variants report sup u(x_{-i}, z) - u(x) -- exact, via
    convexsets.maximize.  Polyhedral variants report the largest
    margin by which some z clears every strict row (row-normalized units).
    The oracle variant reports 1.0 when any sampled z is preferred, else 0.0:
    the one variant whose slack rests on samples.  P_i(x) ∩ over is empty
    (up to eps_open) iff the slack is <= eps_open.
    """
    x = np.asarray(x, dtype=float)
    v = pm.variant
    xi = pm.own(x)

    if isinstance(v, (LinearUtility, QuadUtility)):
        A2, a1, a0 = _own_quadratic(pm, x)
        try:
            val, _ = maximize(over, a1, A2)
        except _lp.UnboundedLP:
            raise UnboundedPreferenceError(
                f"player {pm.player}: improvement unbounded"
            ) from None
        return float(val + a0)

    if isinstance(v, PolyhedralPref):
        return _poly_slack(v.rows(x), over)

    if isinstance(v, UnionPref):
        slacks = [_poly_slack(pc.rows(x), over) for pc in v.pieces]
        return max(slacks)

    if isinstance(v, RelationOracle):
        rng = np.random.default_rng(seed)
        cands = _ambient_candidates(over, rng, v.budget)
        found = any(v.succ(x, z) for z in cands)
        return 1.0 if found else 0.0

    raise TypeError(f"unknown variant {type(v).__name__}")


def _poly_slack(rows, over: ConvexBody) -> float:
    A_p, b_p, strict = rows
    h = over.hrep()
    if h is None:
        raise ValueError("polyhedral improvement needs a polyhedral domain")
    A_o, b_o, strict_o = h
    norms = np.linalg.norm(A_p, axis=1)
    keep = norms > 1e-13
    A_p = A_p[keep] / norms[keep, None]
    b_p = b_p[keep] / norms[keep]
    strict = np.asarray(strict, dtype=bool)[keep]
    A = np.vstack([A_p, A_o])
    b = np.concatenate([b_p, b_o])
    s_mask = np.concatenate([strict, np.zeros(len(b_o), dtype=bool)])
    if not s_mask.any():
        # slack on every row but the domain's equalities, which have none
        s_mask = np.concatenate([np.ones(len(b_p), dtype=bool),
                                 ~_pair_masks(A_o, b_o, strict_o)[1]])
    try:
        s, _ = _lp.max_slack(A, b, s_mask, cap=1.0)
    except _lp.InfeasibleLP:
        return -1.0
    except _lp.UnboundedLP as e:
        raise UnboundedPreferenceError(str(e)) from None
    return float(s)


def is_satiated(pm: PreferenceMap, x, eps_open: float = DEFAULT_EPS_OPEN,
                seed: int = 0) -> bool:
    """No improvement anywhere in the player's own choice set: the best one
    is at most eps_open, the verifier's test for an empty preferred set.
    X_i contains every constraint slice K_i(x), so a satiated player also
    passes verify_equilibrium's emptiness test at the same eps_open."""
    return max_improvement(pm, x, pm.ambient, eps_open, seed) <= eps_open


# --------------------------------------------------------------------------
# sampled relation diagnostics


@dataclass(frozen=True)
class TriState:
    status: str  # "holds" | "fails" | "unknown"
    witness: object = None


@dataclass(frozen=True)
class RelationProfile:
    irreflexive: TriState
    convex_values: TriState
    nonsatiated: TriState
    lsc_evidence: TriState
    samples: int
    seed: int


def relation_profile(succ: Callable, bodies: Sequence[ConvexBody], own_index: int,
                     samples: int = 120, seed: int = 0) -> RelationProfile:
    """Sampled evidence for the standing preference hypotheses.

    "holds" means no counterexample was found at this budget, never a proof;
    "fails" carries a concrete witness.  Lower semicontinuity is probed by
    perturbing the joint point at shrinking radii around found members.
    """
    rng = np.random.default_rng(seed)
    dims = [b.dim for b in bodies]
    own_body = bodies[own_index]
    start = sum(dims[:own_index])
    own_sl = slice(start, start + dims[own_index])

    def draw_joint(k):
        return np.hstack([b.sample(rng, k) for b in bodies])

    xs = draw_joint(samples)
    corners = _joint_corners(bodies, cap=32)
    if corners is not None:
        # satiation often hides at extreme points random draws never hit
        xs = np.vstack([xs, corners])
    cand = _ambient_candidates(own_body, rng, max(24, samples // 2))

    irreflexive = TriState("holds")
    for x in xs:
        if succ(x, x[own_sl]):
            irreflexive = TriState("fails", x)
            break

    convex = TriState("unknown")
    nonsat = TriState("holds")
    member_pairs = []
    tested_combo = False
    for x in xs:
        members = [z for z in cand if succ(x, z)]
        if not members:
            nonsat = TriState("fails", x) if nonsat.status == "holds" else nonsat
            continue
        member_pairs.append((x, members[0]))
        if len(members) >= 2 and convex.status != "fails":
            for a, bpt in zip(members[:4], members[1:5]):
                for t in (0.25, 0.5, 0.75):
                    mid = (1 - t) * np.asarray(a) + t * np.asarray(bpt)
                    tested_combo = True
                    if not succ(x, mid):
                        convex = TriState("fails", (x, np.asarray(a), np.asarray(bpt), t))
                        break
                if convex.status == "fails":
                    break
        if convex.status != "fails":
            # symmetric probes straddling x_i catch holes at the point itself
            # (e.g. "anything but my strategy"), which random pairs miss
            xi = x[own_sl]
            for delta in (0.2, 0.05):
                for u in np.vstack([np.eye(dims[own_index]),
                                    rng.standard_normal((1, dims[own_index]))]):
                    un = np.linalg.norm(u)
                    if un < 1e-12:
                        continue
                    z1, z2 = xi - delta * u / un, xi + delta * u / un
                    if not (own_body.contains(z1, eps_open=0.0)
                            and own_body.contains(z2, eps_open=0.0)):
                        continue
                    if succ(x, z1) and succ(x, z2):
                        tested_combo = True
                        if not succ(x, 0.5 * (z1 + z2)):
                            convex = TriState("fails", (x, z1, z2, 0.5))
                            break
                if convex.status == "fails":
                    break
    if convex.status != "fails":
        convex = TriState("holds") if tested_combo else TriState("unknown")

    lsc = TriState("unknown")
    for x, y in member_pairs[:8]:
        ok_some_radius = False
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            all_good = True
            for _ in range(6):
                step = rng.standard_normal(x.size)
                step *= delta / max(np.linalg.norm(step), 1e-12)
                xp = x + step
                for b, sl in _block_slices(bodies):
                    xp[sl] = b.project(xp[sl])
                near = [y] + [
                    own_body.project(y + rng.standard_normal(y.size) * 10 * delta)
                    for _ in range(8)
                ]
                if not any(succ(xp, z) for z in near):
                    all_good = False
                    break
            if all_good:
                ok_some_radius = True
                break
        if ok_some_radius:
            if lsc.status == "unknown":
                lsc = TriState("holds")
        else:
            lsc = TriState("fails", (x, y))
            break

    return RelationProfile(irreflexive, convex, nonsat, lsc, samples, seed)


def _joint_corners(bodies, cap: int = 32):
    per_block = []
    for b in bodies:
        try:
            vs = b.vertices()
        except EnumerationError:
            return None
        if not len(vs):
            return None
        per_block.append(vs)
    combos = 1
    for vs in per_block:
        combos *= len(vs)
        if combos > cap:
            return None
    out = []
    for pick in itertools.product(*per_block):
        out.append(np.hstack(pick))
    return np.asarray(out)


def _block_slices(bodies):
    out, at = [], 0
    for b in bodies:
        out.append((b, slice(at, at + b.dim)))
        at += b.dim
    return out
