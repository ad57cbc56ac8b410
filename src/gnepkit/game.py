"""Game instances, constraint maps, equilibrium certificates, coercivity probes.

A game couples one PreferenceMap per player with a constraint map K_i.  Three
constraint shapes cover everything here: the slice of a shared joint set
(jointly convex games), a fixed body, and a point-dependent builder (budget
sets).  ``verify_equilibrium`` is the ground-truth check used everywhere:
x is an equilibrium iff every player is feasible (x_i in K_i(x)) and no
player can strictly improve inside K_i(x).  No operator, no VI -- just the
definition, so solver output can be certified independently.  A graded
player with a 1-D block over a shared slice is certified on Python floats
(the float path, _flat_slacks), with the general path's bits, and
verify_equilibria certifies a stack of points with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import _lp
from .convexsets import (
    DEFAULT_EPS_OPEN,
    Ball,
    Box,
    ConvexBody,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    VertexForm,
    _clip_argmax,
    _intervals,
    _ratio_interval,
    _unit_norms,
    intersect,
    is_polyhedral,
    maximize,
)
from .preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    UnionPref,
    UnboundedPreferenceError,
    _improvement_1d,
    _own_quadratic,
    embed_variant,
    max_improvement,
    pref_set,
    utility,
)


@dataclass(frozen=True)
class SharedSlice:
    """K_i(x) = {z_i in X_i : (x_{-i}, z_i) in the game's shared set}."""


@dataclass(frozen=True)
class FixedConstraint:
    body: ConvexBody


@dataclass(frozen=True)
class ParametricConstraint:
    """K_i(x) built from the joint point; batch hook serves the grid oracle."""

    build: Callable
    batch_feasible: Optional[Callable] = None


ConstraintMap = (SharedSlice, FixedConstraint, ParametricConstraint)


@dataclass(frozen=True)
class Tolerances:
    """eps_feas: the largest constraint violation a feasible point may have.
    eps_open: the largest improvement that still counts as none, both for
    the verifier's emptiness test over K_i(x) and for the satiation test of
    a solve's operator T over X_i (a whole-space block).  X_i contains
    K_i(x), so every block T calls satiated passes the verifier's test."""

    eps_feas: float = 1e-7
    eps_open: float = DEFAULT_EPS_OPEN


@dataclass(frozen=True)
class GameInstance:
    preferences: tuple
    constraints: tuple
    shared_set: Optional[ConvexBody] = None
    name: str = ""

    def __post_init__(self):
        prefs = tuple(self.preferences)
        cons = tuple(self.constraints)
        if len(prefs) != len(cons):
            raise ValueError("one constraint map per player required")
        at = 0
        for pm in prefs:
            if pm.block_start != at:
                raise ValueError(
                    f"player {pm.player} block starts at {pm.block_start}, expected {at}"
                )
            at += pm.block_dim
        n = at
        prefs = tuple(embed_variant(pm, n) for pm in prefs)
        for c in cons:
            if not isinstance(c, ConstraintMap):
                raise TypeError(f"unknown constraint map {type(c).__name__}")
        if self.shared_set is not None:
            if self.shared_set.dim != n:
                raise ValueError("shared set dimension mismatch")
            if not all(isinstance(c, SharedSlice) for c in cons):
                raise ValueError("a shared set requires every K_i to be its slice map")
            # K_i(x) is the shared set's rows split at the block, under X_i's
            if not is_polyhedral(self.shared_set):
                raise ValueError(
                    f"shared set kind={self.shared_set.kind!r} is not polyhedral")
            for pm in prefs:
                if not is_polyhedral(pm.ambient):
                    raise ValueError(f"player {pm.player}: X_i kind={pm.ambient.kind!r} "
                                     "is not polyhedral, but the game has a shared set")
        elif any(isinstance(c, SharedSlice) for c in cons):
            raise ValueError("SharedSlice constraint needs a shared set")
        for pm, c in zip(prefs, cons):
            # the preferred set's rows meet K_i's rows in one slack LP
            if (isinstance(pm.variant, (PolyhedralPref, UnionPref))
                    and isinstance(c, FixedConstraint) and not is_polyhedral(c.body)):
                raise ValueError(f"player {pm.player}: K_i kind={c.body.kind!r} is not "
                                 "polyhedral, but the preference is given by rows")
        object.__setattr__(self, "preferences", prefs)
        object.__setattr__(self, "constraints", cons)

    @property
    def n(self) -> int:
        last = self.preferences[-1]
        return last.block_start + last.block_dim

    @property
    def n_players(self) -> int:
        return len(self.preferences)

    @property
    def jointly_convex(self) -> bool:
        return self.shared_set is not None

    @cached_property
    def sampled(self) -> bool:
        """Whether some player's preference is a RelationOracle: the one
        variant known only through samples, so that every verdict on this
        game (a solve's convergence, a certificate) is approximate."""
        return any(isinstance(pm.variant, RelationOracle) for pm in self.preferences)

    def join(self, blocks):
        return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])

    @cached_property
    def _slice_rows(self):
        """Per player, the rows of K_i(x) that do not move with x.

        K_i(x) = {z in X_i : A_i z <= b - A_{-i} x_{-i}}: X_i's rows come
        first, then the shared set's rows split at the block with the own
        part unit-normalised.  A row whose own part is zero is left out: it
        binds only the rivals, and a rival that breaks it is infeasible in
        its own slice.  Each entry is (A, strict, b_X, b, rival, scale);
        only the right-hand side (b - rival @ x) / scale moves.
        """
        out = []
        for pm in self.preferences:
            own, rival, b, strict = _split_rows(self.shared_set, pm.block)
            ambient = _split_rows(pm.ambient, slice(0, pm.block_dim))
            norms, keep = _unit_norms(own)
            out.append((
                np.vstack([ambient[0], own[keep] / norms[keep, None]]),
                np.concatenate([ambient[3], strict[keep]]),
                ambient[2], b[keep], rival[keep], norms[keep],
            ))
        return tuple(out)

    @cached_property
    def _graded_rows(self):
        """The graded players' fixed data for one pass of T
        (operators.GradedRows), None when no player is graded."""
        from .operators import GradedRows

        return GradedRows.of(self.preferences, self.n)

    @cached_property
    def _flat_slices(self):
        """Per player, the float data with which verify_equilibrium certifies
        it (_flat_slacks; _flat_stack for a stack of points), else None.  A
        player has them when its block is a flat one of _graded_rows (one
        coordinate) under a shared slice, and X_i has a row with a finite
        right-hand side, so that the slice's worst margin is finite:
        (i, j, at, c, q, quad) (GradedRows.flat, i the player), the column
        of K_i(x)'s rows and X_i's right-hand sides as float lists, and the
        moving rows (b, rival, scale) of _slice_rows."""
        out = [None] * self.n_players
        R = None if self.shared_set is None else self._graded_rows
        if R is None:
            return tuple(out)
        for i, own in zip(R.index, R.flat):
            A, _, b_X, b, rival, scale = self._slice_rows[i]
            if own is not None and np.isfinite(b_X).any():
                out[i] = (i, *own, A[:, 0].tolist(), b_X.tolist(), b, rival, scale)
        return tuple(out)

    @cached_property
    def _slice_forms(self):
        """Per player, the VertexForm of its slice rows (a bounded slice of
        a block of two or more coordinates, within the size gate), else None.
        Like _slice_rows, only a game with a shared set has these."""
        return tuple(VertexForm.of(rows[0]) for rows in self._slice_rows)


def _lifted_rows(prefs, bodies, n):
    """The product of bodies[i] over the players' blocks as joint rows
    (A, b): each body's closed rows (hrep).  None when some body is not
    polyhedral."""
    A, b = [], []
    for pm, body in zip(prefs, bodies):
        h = body.hrep()
        if h is None:
            return None
        G = np.zeros((len(h[1]), n))
        G[:, pm.block] = h[0]
        A.append(G)
        b.append(h[1])
    return np.vstack(A), np.concatenate(b)


def _shared_within_ambients(shared_set, lifted) -> bool:
    try:
        V = shared_set.vertices()
    except EnumerationError:
        return False
    if not len(V):
        return False
    return bool(np.all(V @ lifted.A.T - lifted.b <= 1e-9))


def jointly_convex_game(choice_sets, variants, shared_set, name="") -> GameInstance:
    """Convenience assembly: players in block order over one shared set.

    The shared set and every X_i must be polyhedral (ValueError otherwise).
    The theory assumes the shared set sits inside the product of the X_i; a
    shared set that pokes out of some X_i would let the VI converge to a
    game-infeasible point.  When containment cannot be confirmed, the shared
    set is intersected with the lifted ambient product (the slices K_i, and
    hence the game, are unchanged by this).
    """
    prefs, cons, at = [], [], 0
    for i, (body, var) in enumerate(zip(choice_sets, variants)):
        prefs.append(PreferenceMap(i, at, body, var))
        cons.append(SharedSlice())
        at += body.dim
    rows = _lifted_rows(prefs, [pm.ambient for pm in prefs], at)
    if rows is not None and len(rows[1]):
        lifted = HPoly(*rows)
        if not _shared_within_ambients(shared_set, lifted):
            shared_set = intersect(shared_set, lifted)
    return GameInstance(tuple(prefs), tuple(cons), shared_set, name)


# --------------------------------------------------------------------------
# constraint evaluation


def _split_rows(body: ConvexBody, block: slice):
    """A polyhedral body's rows (hrep: an equality is its +/- pair) split
    at block: (own, rival, b, strict), where own is A[:, block] and rival
    is A with the block's columns zeroed, so that the slice at x is
    {z : own z <= b - rival @ x}.  Raises ValueError when the body is not
    polyhedral."""
    h = body.hrep()
    if h is None:
        raise ValueError(f"cannot slice kind={body.kind!r}: not polyhedral")
    A, b, strict = h
    rival = A.copy()
    rival[:, block] = 0.0
    return A[:, block], rival, b, strict


def slice_body(body: ConvexBody, x, block: slice) -> HPoly:
    """{z : x with block replaced by z lies in body}, over the block coords,
    as one HPoly on the polyhedral body's rows split at the block (see
    _split_rows).  Raises ValueError when the body is not polyhedral."""
    own, rival, b, strict = _split_rows(body, block)
    return HPoly(own, b - rival @ np.asarray(x, dtype=float), strict)


def constraint_body(game: GameInstance, i: int, x) -> ConvexBody:
    """K_i(x).  A shared-set slice is one HPoly on the player's fixed rows
    (GameInstance._slice_rows, already of unit norm, so taken as they are
    by HPoly._on_unit_rows) with the right-hand side at x, in vertex form
    when GameInstance._slice_forms has one for the player."""
    c = game.constraints[i]
    x = np.asarray(x, dtype=float)
    if isinstance(c, SharedSlice):
        A, strict, b_X, b, rival, scale = game._slice_rows[i]
        rhs = np.concatenate([b_X, (b - rival @ x) / scale])
        form = game._slice_forms[i]
        return HPoly._on_unit_rows(A, rhs, strict) if form is None else form.body(rhs, strict)
    if isinstance(c, FixedConstraint):
        return c.body
    return c.build(x)


def membership_violation(body: ConvexBody, z) -> float:
    """Worst constraint violation of z (negative values mean interior
    margin); an equality's +/- pair gives its absolute residual."""
    z = np.asarray(z, dtype=float)
    worst = -np.inf
    if body._rows is not None:
        A, b, _ = body._rows
        if len(b):
            worst = float((A @ z - b).max())
    if isinstance(body, Ball):
        worst = max(worst, float(np.linalg.norm(z - body.center) - body.radius))
    if worst == -np.inf:
        worst = 0.0 if body.contains(z, eps=1e-9, eps_open=0.0) else np.inf
    return worst


# --------------------------------------------------------------------------
# the verifier


@dataclass(frozen=True)
class EquilibriumCertificate:
    """First-principles audit of a candidate point.

    feasibility_slacks[i] is the worst violation of x_i in K_i(x);
    emptiness_slacks[i] is the player's best strict improvement inside K_i(x)
    (see preferences.max_improvement for per-variant units).  The verdict is
    exactly "all feasibility <= eps_feas and all emptiness <= eps_open".
    approximate is the game's sampled flag: True exactly when some player's
    preference is a RelationOracle, whose emptiness slack rests on samples.
    """

    point: np.ndarray
    feasibility_slacks: np.ndarray
    emptiness_slacks: np.ndarray
    is_equilibrium: bool
    tolerances: Tolerances
    approximate: bool
    seed: int
    notes: tuple = ()


def verify_equilibrium(game: GameInstance, x, tol: Tolerances = Tolerances(),
                       seed: int = 0) -> EquilibriumCertificate:
    """Certify x from the definition: for every player, the worst violation
    of x_i in K_i(x) (feasibility) and the best strict improvement inside
    K_i(x) (emptiness, preferences.max_improvement).  x is an equilibrium
    iff every feasibility slack is at most tol.eps_feas and every emptiness
    slack at most tol.eps_open.  A player whose slice is empty gets slacks
    (inf, 0) and a note; one whose improvement is unbounded over a nonempty
    slice gets an infinite emptiness slack and a note.

    A graded player whose block is one coordinate, over a shared slice
    (GameInstance._flat_slices), is certified on Python floats
    (_flat_slacks), with the bits of the general path; a NaN or an
    unbounded improvement sends it back to the general path, which every
    other player takes.  verify_equilibria certifies a stack of points
    with the same bits, one pass per player (the grid oracle's cross-check).
    Raises ValueError when x is not a vector of the game's size or has a
    non-finite coordinate.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (game.n,):
        raise ValueError(f"point has dim {x.size} (shape {x.shape}), game has {game.n}")
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValueError("point has a non-finite coordinate")
    flats = game._flat_slices
    qx = None
    if any(flats) and game._graded_rows.Q is not None:
        R = game._graded_rows
        qx = (R.Q @ x).take(R.gather).tolist()
    feas, empt, notes = [], [], []
    for i, pm in enumerate(game.preferences):
        got = flats[i] and _flat_slacks(flats[i], x, xs, qx)
        f, e, note = got or _slacks(game, i, pm, x, tol, seed)
        feas.append(f)
        empt.append(e)
        if note:
            notes.append(note)
    ok = all(f <= tol.eps_feas for f in feas) and all(e <= tol.eps_open for e in empt)
    return EquilibriumCertificate(x.copy(), np.array(feas), np.array(empt), ok, tol,
                                  game.sampled, seed, tuple(notes))


def _empty_slice(i):
    return math.inf, 0.0, f"player {i}: constraint slice empty"


def _slacks(game: GameInstance, i: int, pm: PreferenceMap, x, tol: Tolerances, seed: int):
    """(feasibility, emptiness, note or None) of player i at x, the general
    path of verify_equilibrium."""
    if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
        # trips the self-preference guard; graded variants cannot trip it
        pref_set(pm, x, tol.eps_open, seed)
    # an empty slice raises EmptyBodyError, in building it or in maximize
    xi = pm.own(x)
    try:
        K = constraint_body(game, i, x)
        feas = max(membership_violation(K, xi), membership_violation(pm.ambient, xi))
        return feas, max_improvement(pm, x, K, tol.eps_open, seed), None
    except EmptyBodyError:
        return _empty_slice(i)
    except UnboundedPreferenceError as e:
        if K.is_empty(eps_open=0.0):
            return _empty_slice(i)
        return feas, math.inf, str(e)  # the error names the player


def _flat_slacks(F, x, xs, qx):
    """verify_equilibrium's (feasibility, emptiness, note) of a player of
    GameInstance._flat_slices on floats, or None to take the general path.

    The right-hand side of K_i(x) is constraint_body's numpy expression.
    The interval is _ratio_interval's and the improvement
    _improvement_1d's.  Membership is numpy's A @ z - b read one row at a
    time, (0.0 + a z) - r, whose zeros are all +0.0, so the first maximum
    is numpy's max; K_i(x)'s rows begin with X_i's, so it is also X_i's.
    """
    i, j, at, c, q, quad, col, b_X, b, rival, scale = F
    rhs = b_X + ((b - rival @ x) / scale).tolist()
    interval = _ratio_interval(col, rhs)
    if interval is None:
        return _empty_slice(i)
    lo, hi = interval
    xo, feas = xs[j], -math.inf
    for a, r in zip(col, rhs):
        m = (0.0 + a * xo) - r
        if m > feas:
            feas = m
    try:
        empt = _improvement_1d(None if at is None else qx[at], c, q, quad, xo, lo, hi)
    except _lp.UnboundedLP:
        return None
    return (feas, empt, None) if empt == empt else None


def verify_equilibria(game: GameInstance, X, tol: Tolerances = Tolerances(),
                      seed: int = 0):
    """verify_equilibrium at every row of X, with its bits: the arrays
    (feasibility_slacks, emptiness_slacks, is_equilibrium), one row per
    point.  A player of GameInstance._flat_slices is certified over all
    rows at once (_flat_stack); the rows it hands back, and every other
    player, take the general path (_slacks) one row at a time.  Raises
    ValueError when X is not a stack of the game's points or has a
    non-finite coordinate.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != game.n:
        raise ValueError(f"points have shape {X.shape}, game has {game.n} coordinates")
    if not np.isfinite(X).all():
        raise ValueError("point has a non-finite coordinate")
    feas = np.empty((len(X), game.n_players))
    empt = np.empty_like(feas)
    flats = game._flat_slices
    qx = None
    if any(flats) and game._graded_rows.Q is not None:
        R = game._graded_rows
        qx = (R.Q @ X[:, None, :, None]).reshape(len(X), R.Q.shape[0] * game.n)[:, R.gather]
    for i, pm in enumerate(game.preferences):
        rows = range(len(X)) if flats[i] is None else _flat_stack(
            flats[i], X, qx, feas[:, i], empt[:, i])
        for r in rows:
            feas[r, i], empt[r, i], _ = _slacks(game, i, pm, X[r], tol, seed)
    ok = (feas <= tol.eps_feas).all(axis=1) & (empt <= tol.eps_open).all(axis=1)
    return feas, empt, ok


def _flat_stack(F, X, qx, feas, empt):
    """_flat_slacks at every row of X, written into feas and empt; returns
    the rows handed back to the general path.  The same arithmetic in
    numpy: the right-hand sides by one stacked matrix-vector product,
    _intervals (held to _ratio_interval bit for bit), and
    _improvement_1d's terms with _clip_argmax.  The rows have unit norm,
    so a NaN margin comes only with a NaN right-hand side, which empties
    the slice: the row max is the float loop's.
    """
    _, j, at, c, q, quad, col, b_X, b, rival, scale = F
    col = np.array(col)
    B = np.hstack([np.broadcast_to(b_X, (len(X), len(b_X))),
                   (b - (rival @ X[..., None])[..., 0]) / scale])
    lo, hi, empty = _intervals(col, B)
    xo = X[:, j]
    feas[:] = ((0.0 + col * xo[:, None]) - B).max(axis=1)
    if at is None:
        a1 = c
        a0 = -(0.0 + a1 * xo)
    else:
        a1 = qx[:, at] - (0.0 + q * xo) + c
        a0 = -((0.0 + (0.0 + 0.5 * xo * q) * xo) + (0.0 + a1 * xo))
    z = _clip_argmax(a1, q if quad else 0.0, lo, hi)
    val = ((0.0 + (0.0 + 0.5 * z * q) * z) + (0.0 + a1 * z) if quad
           else np.where(a1 != 0.0, a1 * z, 0.0))
    empt[:] = val + a0
    feas[empty], empt[empty] = math.inf, 0.0
    return np.flatnonzero(~empty & ~(np.isfinite(z) & (empt == empt)))


# --------------------------------------------------------------------------
# coercivity evidence


@dataclass(frozen=True)
class CoercivityReport:
    """Sampled evidence for a coercivity condition; never a proof.

    status: "holds_on_samples" (every sampled far point admitted a shrinking
    joint improvement), "violated" (some sampled point admitted none that the
    search could find; witness attached), or "vacuous" (no feasible point
    beyond the radius, e.g. bounded shared sets).
    """

    status: str
    rho: float
    n_checked: int
    witness: object = None
    detail: str = ""


def _prefers_or_stays(pm: PreferenceMap, x, z_i, eps_open) -> bool:
    """z_i == x_i exactly, or (x_{-i}, z_i) strictly preferred at x."""
    xi = pm.own(x)
    z_i = np.asarray(z_i, dtype=float)
    if np.array_equal(z_i, xi) or np.linalg.norm(z_i - xi) <= 1e-12:
        return True
    v = pm.variant
    if isinstance(v, (LinearUtility, QuadUtility)):
        return utility(pm, pm.joined(x, z_i)) - utility(pm, x) > eps_open
    region = pref_set(pm, x, eps_open)
    return region.contains(z_i, eps_open=eps_open)


def _far_samples(body: ConvexBody, rho, samples, rng):
    """Points of the closure with norm > rho, or [] when none can be found."""
    out = []
    if body.is_bounded():
        try:
            vs = body.vertices()
            if len(vs) and np.max(np.linalg.norm(vs, axis=1)) <= rho:
                return []
        except EnumerationError:
            pass
        pts = np.vstack([body.sample(rng, samples), body.boundary_samples(rng, samples)])
        return [p for p in pts if np.linalg.norm(p) > rho][:samples]
    base = body.interior_point()
    if base is None:
        base = body.project(np.zeros(body.dim))
    for _ in range(samples * 4):
        d = rng.standard_normal(body.dim)
        d /= max(np.linalg.norm(d), 1e-12)
        R = rho * rng.uniform(1.5, 6.0)
        p = body.project(base + R * d)
        if np.linalg.norm(p) > rho:
            out.append(p)
        if len(out) >= samples:
            break
    return out


# the scale factors toward the origin and the number of random draws of the search
_GAMMAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
_DRAWS = 60


def _improvement_within(game: GameInstance, x, bodies, radius, shared, eps_open, rng):
    """A joint z with ||z|| <= radius, z_i in bodies[i] (and z in shared when
    given), every block either kept at x_i or strictly preferred; None when
    no probe finds one.  Probes, in order: x scaled toward the origin, each
    player's best response within the radius, the linear players' joint LP,
    then random draws from the bodies scaled inside the radius; a scaled
    point is projected block by block onto the bodies, then onto shared."""
    x = np.asarray(x, dtype=float)
    prefs = game.preferences

    def placed(z):
        z = game.join([body.project(pm.own(z)) for pm, body in zip(prefs, bodies)])
        return z if shared is None else shared.project(z)

    def admissible(z):
        return (
            np.linalg.norm(z) <= radius + 1e-9
            and (shared is None or shared.contains(z, eps=1e-9, eps_open=0.0))
            and all(body.contains(pm.own(z), eps=1e-9, eps_open=0.0)
                    for pm, body in zip(prefs, bodies))
            and all(_prefers_or_stays(pm, x, pm.own(z), eps_open) for pm in prefs)
        )

    def probes():
        for gamma in _GAMMAS:
            yield placed(gamma * x)
        for pm, body in zip(prefs, bodies):
            try:
                z_i = _improve_block_lp(pm, x, body, radius)
            except (_lp.LPError, ValueError):
                continue
            if z_i is not None:
                yield pm.joined(x, z_i)
        yield _joint_improvement_lp(game, x, bodies, radius, shared)
        for _ in range(_DRAWS):
            z = game.join([body.sample(rng, 1)[0] for body in bodies])
            nz = np.linalg.norm(z)
            yield placed(z if nz <= radius else z * (0.99 * radius / nz))

    return next((z for z in probes() if z is not None and admissible(z)), None)


def _improve_block_lp(pm: PreferenceMap, x, body: ConvexBody, radius):
    """The player's best block keeping the joint norm under radius, or None;
    set-valued variants are served by the other probes."""
    if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
        return None
    rest = np.delete(np.asarray(x, dtype=float), np.arange(pm.block.start, pm.block.stop))
    budget2 = radius**2 - rest @ rest
    if budget2 <= 0:
        return None
    cap = np.sqrt(budget2) / np.sqrt(pm.block_dim) * (1 - 1e-6)
    dom = intersect(body, Box(-np.full(pm.block_dim, cap), np.full(pm.block_dim, cap)))
    if dom.is_empty(eps_open=0.0):
        return None
    A2, a1, _ = _own_quadratic(pm, x)
    return maximize(dom, a1, A2)[1]


def _joint_improvement_lp(game: GameInstance, x, bodies, radius, shared):
    """A point of prod bodies (and shared) inside the box inscribed in the
    radius ball where every linear player strictly gains; None when there
    is none, a player is quadratic or a set is not polyhedral."""
    n = game.n
    gain, a0s = [], []
    for pm in game.preferences:
        if isinstance(pm.variant, QuadUtility):
            return None  # quadratic players are served by the probe paths
        if isinstance(pm.variant, LinearUtility):
            _, a1, a0 = _own_quadratic(pm, x)
            if np.linalg.norm(a1) > 1e-13:
                gain.append(pm.joined(np.zeros(n), -a1))
                a0s.append(a0)
    lifted = _lifted_rows(game.preferences, bodies, n)
    h = (np.zeros((0, n)), np.zeros(0)) if shared is None else shared.hrep()
    if not gain or lifted is None:
        return None
    A = np.vstack([gain, lifted[0], h[0], np.eye(n), -np.eye(n)])
    b = np.concatenate([a0s, lifted[1], h[1], np.full(2 * n, radius / np.sqrt(n) * (1 - 1e-6))])
    try:
        s, z = _lp.max_slack(A, b, np.arange(len(b)) < len(gain))
    except (_lp.InfeasibleLP, _lp.UnboundedLP):
        return None
    return z if s > 1e-9 else None


def check_coercivity_jointly_convex(game: GameInstance, rho: float,
                                    samples: int = 32, seed: int = 0,
                                    eps_open: float = DEFAULT_EPS_OPEN) -> CoercivityReport:
    """Evidence for the far-field shrinking-improvement condition on 𝒳."""
    if not game.jointly_convex:
        raise ValueError("this check needs a shared constraint set")
    rng = np.random.default_rng(seed)
    far = _far_samples(game.shared_set, rho, samples, rng)
    if not far:
        return CoercivityReport("vacuous", rho, 0,
                                detail="no feasible point with norm beyond rho found")
    bodies = [pm.ambient for pm in game.preferences]
    for x in far:
        # a radius just under ||x|| admits exactly ||z|| < ||x|| - 1e-9
        radius = np.linalg.norm(x) - 2e-9
        if _improvement_within(game, x, bodies, radius, game.shared_set, eps_open, rng) is None:
            return CoercivityReport("violated", rho, len(far), witness=np.asarray(x),
                                    detail="no shrinking joint improvement found")
    return CoercivityReport("holds_on_samples", rho, len(far))


def check_Cx(game: GameInstance, x, rho_x: float, seed: int = 0,
             eps_open: float = DEFAULT_EPS_OPEN) -> CoercivityReport:
    """Pointwise condition: some z in prod K_i(x), ||z|| <= rho_x, with every
    block either kept at x_i or strictly preferred.  Vacuous when some
    K_i(x) is empty."""
    x = np.asarray(x, dtype=float)
    try:
        bodies = [constraint_body(game, i, x) for i in range(game.n_players)]
        empty = any(K.is_empty(eps_open=0.0) for K in bodies)
    except EmptyBodyError:
        empty = True
    if empty:
        return CoercivityReport("vacuous", rho_x, 0, detail="empty constraint slice")
    z = _improvement_within(game, x, bodies, rho_x, None, eps_open,
                            np.random.default_rng(seed))
    if z is None:
        return CoercivityReport("violated", rho_x, 1, witness=x,
                                detail="no improvement found inside the ball")
    return CoercivityReport("holds_on_samples", rho_x, 1, witness=(x, z))
