"""Game instances, constraint maps, equilibrium certificates, coercivity probes.

A game couples one PreferenceMap per player with a constraint map K_i.  Three
constraint shapes cover everything here: the slice of a shared joint set
(jointly convex games), a fixed body, and a point-dependent builder (budget
sets).  ``verify_equilibrium`` is the ground-truth check used everywhere:
x is an equilibrium iff every player is feasible (x_i in K_i(x)) and no
player can strictly improve inside K_i(x).  No operator, no VI -- just the
definition, so solver output can be certified independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import _lp
from .convexsets import (
    Ball,
    Box,
    ConvexBody,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    Intersection,
    _unit_norms,
    maximize,
)
from .preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    UnboundedPreferenceError,
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
    eps_feas: float = 1e-7
    eps_open: float = 1e-7

    def to_dict(self):
        return {"eps_feas": self.eps_feas, "eps_open": self.eps_open}


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
        elif any(isinstance(c, SharedSlice) for c in cons):
            raise ValueError("SharedSlice constraint needs a shared set")
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

    def join(self, blocks):
        return np.concatenate([np.asarray(b, dtype=float).reshape(-1) for b in blocks])

    @cached_property
    def _slice_rows(self):
        """Per player, the rows of K_i(x) that do not move with x, or None
        when the shared set or X_i is not polyhedral.

        K_i(x) = {z in X_i : A_i z <= b - A_{-i} x_{-i}}: X_i's rows come
        first, then the shared set's rows split at the block with the own
        part unit-normalised.  A row whose own part is zero is left out: it
        binds only the rivals, and a rival that breaks it is infeasible in
        its own slice.  Each entry is (A, strict, b_X, b, rival, scale);
        only the right-hand side (b - rival @ x) / scale moves.
        """
        out = []
        for pm in self.preferences:
            shared = _split_rows(self.shared_set, pm.block)
            ambient = _split_rows(pm.ambient, slice(0, pm.block_dim))
            if shared is None or ambient is None:
                out.append(None)
                continue
            own, rival, b, strict = shared
            norms, keep = _unit_norms(own)
            out.append((
                np.vstack([ambient[0], own[keep] / norms[keep, None]]),
                np.concatenate([ambient[3], strict[keep]]),
                ambient[2], b[keep], rival[keep], norms[keep],
            ))
        return tuple(out)


def _lifted_ambient_poly(prefs, n):
    """Product of the ambient sets as joint H-rows (equalities as +/- pairs);
    None when some ambient is not polyhedral or nothing binds."""
    rows, rhs = [], []
    for pm in prefs:
        h = pm.ambient.closure().hrep()
        if h is None:
            return None
        A, b, _ = h
        C, d = pm.ambient.equalities()
        for M, v, both in ((A, b, False), (C, d, True)):
            if not len(v):
                continue
            G = np.zeros((len(v), n))
            G[:, pm.block] = M
            rows.append(G)
            rhs.append(np.asarray(v, dtype=float))
            if both:
                rows.append(-G)
                rhs.append(-np.asarray(v, dtype=float))
    if not rows:
        return None
    return HPoly(np.vstack(rows), np.concatenate(rhs))


def _shared_within_ambients(shared_set, lifted) -> bool:
    try:
        V = shared_set.closure().vertices()
    except EnumerationError:
        return False
    if not len(V):
        return False
    return bool(np.all(V @ lifted.A.T - lifted.b <= 1e-9))


def jointly_convex_game(choice_sets, variants, shared_set, name="") -> GameInstance:
    """Convenience assembly: players in block order over one shared set.

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
    lifted = _lifted_ambient_poly(prefs, at)
    if lifted is not None and not _shared_within_ambients(shared_set, lifted):
        shared_set = Intersection((shared_set, lifted))
    return GameInstance(tuple(prefs), tuple(cons), shared_set, name)


# --------------------------------------------------------------------------
# constraint evaluation


def _split_rows(body: ConvexBody, block: slice):
    """A polyhedral body's rows, equalities as +/- pairs, split at block:
    (own, rival, b, strict), where own is A[:, block] and rival is A with
    the block's columns zeroed, so that the slice at x is
    {z : own z <= b - rival @ x}.  An intersection stacks its parts' rows.
    None when the body is not polyhedral."""
    if isinstance(body, Intersection):
        parts = [_split_rows(p, block) for p in body.parts]
        if any(p is None for p in parts):
            return None
        return tuple(np.concatenate(cols) for cols in zip(*parts))
    h = body.hrep()
    if h is None:
        return None
    A, b, strict = h
    C, d = body.equalities()
    if len(d):
        A = np.vstack([A, C, -C])
        b = np.concatenate([b, d, -d])
        strict = np.concatenate([strict, np.zeros(2 * len(d), bool)])
    rival = A.copy()
    rival[:, block] = 0.0
    return A[:, block], rival, b, strict


def slice_body(body: ConvexBody, x, block: slice) -> ConvexBody:
    """{z : x with block replaced by z lies in body}, over the block coords."""
    x = np.asarray(x, dtype=float)
    rows = _split_rows(body, block)
    if rows is not None:
        own, rival, b, strict = rows
        return HPoly(own, b - rival @ x, strict)
    if isinstance(body, Ball):
        rest = np.delete(x, np.arange(block.start, block.stop)) - np.delete(
            body.center, np.arange(block.start, block.stop)
        )
        r2 = body.radius**2 - rest @ rest
        if r2 < 0:
            raise EmptyBodyError("ball slice is empty at this rival profile")
        return Ball(body.center[block], float(np.sqrt(r2)))
    if isinstance(body, Intersection):
        return Intersection(tuple(slice_body(p, x, block) for p in body.parts))
    raise ValueError(f"cannot slice kind={body.kind!r}")


def constraint_body(game: GameInstance, i: int, x) -> ConvexBody:
    """K_i(x).  A polyhedral shared-set slice is one HPoly on the player's
    fixed rows (GameInstance._slice_rows) with the right-hand side at x;
    any other shared set is sliced and intersected with X_i."""
    c = game.constraints[i]
    x = np.asarray(x, dtype=float)
    if isinstance(c, SharedSlice):
        rows = game._slice_rows[i]
        if rows is None:
            pm = game.preferences[i]
            return Intersection((pm.ambient, slice_body(game.shared_set, x, pm.block)))
        A, strict, b_X, b, rival, scale = rows
        return HPoly(A, np.concatenate([b_X, (b - rival @ x) / scale]), strict)
    if isinstance(c, FixedConstraint):
        return c.body
    return c.build(x)


def membership_violation(body: ConvexBody, z) -> float:
    """Worst constraint violation of z (negative values mean interior margin)."""
    z = np.asarray(z, dtype=float)
    worst = -np.inf
    h = body.hrep()
    if h is not None:
        A, b, _ = h
        if len(b):
            worst = max(worst, float(np.max(A @ z - b)))
    C, d = body.equalities()
    if len(d):
        worst = max(worst, float(np.max(np.abs(C @ z - d))))
    if isinstance(body, Ball):
        worst = max(worst, float(np.linalg.norm(z - body.center) - body.radius))
    if isinstance(body, Intersection) and body._merged is None:
        for p in body.parts:
            worst = max(worst, membership_violation(p, z))
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
    """

    point: np.ndarray
    feasibility_slacks: np.ndarray
    emptiness_slacks: np.ndarray
    is_equilibrium: bool
    tolerances: Tolerances
    approximate: bool
    seed: int
    notes: tuple = ()

    def to_dict(self):
        return {
            "point": np.asarray(self.point).tolist(),
            "feasibility_slacks": np.asarray(self.feasibility_slacks).tolist(),
            "emptiness_slacks": np.asarray(self.emptiness_slacks).tolist(),
            "is_equilibrium": bool(self.is_equilibrium),
            "tolerances": self.tolerances.to_dict(),
            "approximate": bool(self.approximate),
            "seed": self.seed,
            "notes": list(self.notes),
        }


def verify_equilibrium(game: GameInstance, x, tol: Tolerances = Tolerances(),
                       seed: int = 0) -> EquilibriumCertificate:
    x = np.asarray(x, dtype=float)
    if x.size != game.n:
        raise ValueError(f"point has dim {x.size}, game has {game.n}")
    feas = np.empty(game.n_players)
    empt = np.empty(game.n_players)
    approx = False
    notes = []
    for i, pm in enumerate(game.preferences):
        if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
            # trips the self-preference guard; graded variants cannot trip it
            pref_set(pm, x, tol.eps_open, seed)
        # an empty slice surfaces while building it, in the closed-form
        # (EmptyBodyError) or LP (InfeasibleLP) support of the improvement,
        # or as a quadratic improvement without a KKT point
        empty = False
        try:
            K = constraint_body(game, i, x)
            feas[i] = max(
                membership_violation(K, pm.own(x)),
                membership_violation(pm.ambient, pm.own(x)),
            )
            empt[i], a_i = max_improvement(pm, x, K, tol.eps_open, seed)
        except (EmptyBodyError, _lp.InfeasibleLP):
            empty = True
        except UnboundedPreferenceError as e:
            empty = K.is_empty(eps_open=0.0)
            if not empty:
                empt[i], a_i = np.inf, False
                notes.append(f"player {i}: {e}")
        if empty:
            feas[i], empt[i] = np.inf, 0.0
            notes.append(f"player {i}: constraint slice empty")
            continue
        approx = approx or a_i
    ok = bool(np.all(feas <= tol.eps_feas) and np.all(empt <= tol.eps_open))
    return EquilibriumCertificate(
        x.copy(), feas, empt, ok, tol, approx, seed, tuple(notes)
    )


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

    def to_dict(self):
        w = self.witness
        if isinstance(w, np.ndarray):
            w = w.tolist()
        elif isinstance(w, tuple):
            w = [u.tolist() if isinstance(u, np.ndarray) else u for u in w]
        return {
            "status": self.status,
            "rho": self.rho,
            "n_checked": self.n_checked,
            "witness": w,
            "detail": self.detail,
        }


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


def _shrinking_improvement(game: GameInstance, x, bodies, eps_open, rng):
    """Search a joint z with ||z|| < ||x||, z in prod(bodies) (and the shared
    set when present), every block either kept or strictly preferred."""
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    shared = game.shared_set

    def admissible(z):
        if np.linalg.norm(z) >= nx - 1e-9:
            return False
        if shared is not None and not shared.contains(z, eps=1e-9, eps_open=0.0):
            return False
        for pm, body in zip(game.preferences, bodies):
            if not body.contains(pm.own(z), eps=1e-9, eps_open=0.0):
                return False
        return all(
            _prefers_or_stays(pm, x, pm.own(z), eps_open) for pm in game.preferences
        )

    # ray probes toward the origin
    for gamma in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        z = gamma * x
        blocks = [body.project(pm.own(z)) for pm, body in zip(game.preferences, bodies)]
        z = game.join(blocks)
        if shared is not None:
            z = shared.project(z)
        if admissible(z):
            return z
    # single-player deviations: improve one block, keep the rest
    for pm, body in zip(game.preferences, bodies):
        try:
            val, z_i = _improve_block_lp(pm, x, body, nx)
        except (_lp.LPError, ValueError):
            continue
        if val is None:
            continue
        z = pm.joined(x, z_i)
        if admissible(z):
            return z
    # joint LP: all linear players improve at once inside a shrinking box
    z = _joint_improvement_lp(game, x, bodies, nx)
    if z is not None and admissible(z):
        return z
    # random feasible probes, shrunk toward the origin
    for _ in range(40):
        blocks = [body.sample(rng, 1)[0] for body in bodies]
        z = game.join(blocks) * rng.uniform(0.2, 0.9)
        blocks = [body.project(pm.own(z)) for pm, body in zip(game.preferences, bodies)]
        z = game.join(blocks)
        if shared is not None:
            z = shared.project(z)
        if admissible(z):
            return z
    return None


def _improve_block_lp(pm: PreferenceMap, x, body: ConvexBody, nx):
    """Best single-block improvement keeping the joint norm under nx."""
    rest = np.delete(np.asarray(x, dtype=float), np.arange(pm.block.start, pm.block.stop))
    budget2 = nx**2 - rest @ rest
    if budget2 <= 0:
        return None, None
    cap = np.sqrt(budget2) / np.sqrt(pm.block_dim) * (1 - 1e-6)
    shrink = Box(-np.full(pm.block_dim, cap), np.full(pm.block_dim, cap))
    dom = Intersection((body, shrink))
    if dom.is_empty(eps_open=0.0):
        return None, None
    if isinstance(pm.variant, (LinearUtility, QuadUtility)):
        A2, a1, _ = _own_quadratic(pm, x)
        return maximize(dom, a1, A2)
    # set-valued variants are served by the probe paths
    return None, None


def _joint_improvement_lp(game: GameInstance, x, bodies, nx):
    x = np.asarray(x, dtype=float)
    n = game.n
    cap = nx / np.sqrt(n) * (1 - 1e-6)
    rows, rhs, strict = [], [], []

    def add(A, b, s, block=None):
        full = np.zeros((len(b), n))
        if block is None:
            full[:, :] = A
        else:
            full[:, block] = A
        rows.append(full)
        rhs.append(np.asarray(b, dtype=float))
        strict.append(np.asarray(s, dtype=bool))

    for pm, body in zip(game.preferences, bodies):
        v = pm.variant
        if isinstance(v, LinearUtility):
            A2, a1, a0 = _own_quadratic(pm, x)
            if np.linalg.norm(a1) <= 1e-13:
                continue
            add(-a1[None, :], [a0], [True], pm.block)
        elif isinstance(v, QuadUtility):
            return None  # quadratic players are served by the probe paths
        h = body.closure().hrep()
        if h is None:
            return None
        add(h[0], h[1], np.zeros(len(h[1]), bool), pm.block)
        C, d = body.equalities()
        if len(d):
            add(C, d, np.zeros(len(d), bool), pm.block)
            add(-C, -d, np.zeros(len(d), bool), pm.block)
    if game.shared_set is not None:
        h = game.shared_set.hrep()
        if h is None:
            return None
        add(h[0], h[1], np.zeros(len(h[1]), bool))
    eye = np.eye(n)
    add(eye, np.full(n, cap), np.zeros(n, bool))
    add(-eye, np.full(n, cap), np.zeros(n, bool))
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    s_mask = np.concatenate(strict)
    if not s_mask.any():
        return None
    try:
        s, z = _lp.max_slack(A, b, s_mask, cap=1.0)
    except (_lp.InfeasibleLP, _lp.UnboundedLP):
        return None
    return z if s > 1e-9 else None


def check_coercivity_jointly_convex(game: GameInstance, rho: float,
                                    samples: int = 32, seed: int = 0,
                                    eps_open: float = 1e-7) -> CoercivityReport:
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
        z = _shrinking_improvement(game, x, bodies, eps_open, rng)
        if z is None:
            return CoercivityReport("violated", rho, len(far), witness=np.asarray(x),
                                    detail="no shrinking joint improvement found")
    return CoercivityReport("holds_on_samples", rho, len(far))


def check_Cx(game: GameInstance, x, rho_x: float, seed: int = 0,
             eps_open: float = 1e-7) -> CoercivityReport:
    """Pointwise condition: some z in prod K_i(x), ||z|| <= rho_x, with every
    block either kept at x_i or strictly preferred."""
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    try:
        bodies = [constraint_body(game, i, x) for i in range(game.n_players)]
    except EmptyBodyError:
        return CoercivityReport("vacuous", rho_x, 0, detail="empty constraint slice")

    def admissible(z):
        if np.linalg.norm(z) > rho_x + 1e-9:
            return False
        for pm, body in zip(game.preferences, bodies):
            if not body.contains(pm.own(z), eps=1e-9, eps_open=0.0):
                return False
        return all(
            _prefers_or_stays(pm, x, pm.own(z), eps_open) for pm in game.preferences
        )

    cands = []
    for gamma in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        z = gamma * x
        cands.append(game.join(
            [body.project(pm.own(z)) for pm, body in zip(game.preferences, bodies)]
        ))
    for pm, body in zip(game.preferences, bodies):
        try:
            val, z_i = _improve_block_lp(pm, x, body, rho_x)
        except (_lp.LPError, ValueError):
            continue
        if z_i is not None:
            cands.append(pm.joined(x, z_i))
    z = _joint_improvement_lp(game, x, bodies, rho_x)
    if z is not None:
        cands.append(z)
    for _ in range(60):
        blocks = [b.sample(rng, 1)[0] for b in bodies]
        cand = game.join(blocks)
        n_c = np.linalg.norm(cand)
        if n_c > rho_x:
            cand = cand * (0.99 * rho_x / n_c)
            cand = game.join(
                [b.project(pm.own(cand)) for pm, b in zip(game.preferences, bodies)]
            )
        cands.append(cand)
    for cand in cands:
        if admissible(cand):
            return CoercivityReport("holds_on_samples", rho_x, 1, witness=(x, cand))
    return CoercivityReport("violated", rho_x, 1, witness=x,
                            detail="no improvement found inside the ball")
