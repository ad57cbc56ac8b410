"""Bundled instances and generators used by the tests and the CLI.

The grid-aligned family deserves a note: the oracle certifies only nodes
lying exactly on the h-grid, so every instance built by
``grid_aligned_instances`` places its equilibrium faces and interior maxima
on multiples of the step used in the acceptance runs (0.02).
"""

from __future__ import annotations

import numpy as np

from .convexsets import Box, HPoly, Simplex
from .economy import Consumer, EconomyInstance, Producer
from .game import FixedConstraint, GameInstance, jointly_convex_game
from .preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    UnionPref,
)


def splitting_game() -> GameInstance:
    """Two players each pick a share in [0,1]; together at most one unit.

    Every point of the face x1 + x2 = 1 (and only that face) is an
    equilibrium: on it, neither player can raise their own share.
    """
    shared = HPoly([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    X = [Box([0.0], [1.0]), Box([0.0], [1.0])]
    u = [LinearUtility([1.0]), LinearUtility([1.0])]
    return jointly_convex_game(X, u, shared, name="splitting")


def simplex_argmax_game(c=(1.0, 2.0)) -> GameInstance:
    """One player maximizes <c, p> over the probability simplex."""
    c = np.asarray(c, dtype=float)
    d = c.size
    return jointly_convex_game([Simplex(d)], [LinearUtility(c)], Simplex(d),
                               name="simplex-argmax")


def box_argmax_game(c=(1.0, 1.0), hi=1.0) -> GameInstance:
    c = np.asarray(c, dtype=float)
    d = c.size
    body = Box(np.zeros(d), np.full(d, hi))
    return jointly_convex_game([body], [LinearUtility(c)], body, name="box-argmax")


def one_sided_counterexample() -> GameInstance:
    """Equilibria the VI route cannot see.

    Shared set {x >= 0, 2 x1 + x2 <= 2}, both utilities u_i = x_i.  The point
    (1, 0) is an equilibrium (each player is at the top of their slice), but
    no t in T((1,0)) satisfies the variational inequality there: the VI
    solution set is a strict subset of the equilibrium set.
    """
    shared = HPoly([[-1.0, 0.0], [0.0, -1.0], [2.0, 1.0]], [0.0, 0.0, 2.0])
    X = [Box([0.0], [1.0]), Box([0.0], [2.0])]
    u = [LinearUtility([1.0]), LinearUtility([1.0])]
    return jointly_convex_game(X, u, shared, name="one-sided")


def union_chase_game() -> GameInstance:
    """Single player whose preferred set is a union of two upward windows.

    P(x) = {z : x+0.1 < z < x+0.3} ∪ {z : z > x+0.5} on [0,1]: non-convex but
    always on one side of x, so the hull guard stays quiet and the projection
    dynamics push x to the satiation point x = 1.
    """

    def low(x):
        return (
            np.array([[-1.0], [1.0]]),
            np.array([-(x[0] + 0.1), x[0] + 0.3]),
            np.array([True, True]),
        )

    def high(x):
        return np.array([[-1.0]]), np.array([-(x[0] + 0.5)]), np.array([True])

    var = UnionPref((PolyhedralPref(low), PolyhedralPref(high)))
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]), var)
    return GameInstance((pm,), (FixedConstraint(Box([0.0], [1.0])),), None, "union-chase")


def coercive_inward_game() -> GameInstance:
    """Unbounded orthant, utilities pulling every block toward the origin."""
    shared = HPoly([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    X = [Box([0.0], [np.inf]), Box([0.0], [np.inf])]
    u = [QuadUtility([[-2.0]], [0.0]), QuadUtility([[-2.0]], [0.0])]
    return jointly_convex_game(X, u, shared, name="inward")


def coercive_outward_game() -> GameInstance:
    """Same orthant, utilities pushing outward: coercivity fails."""
    shared = HPoly([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    X = [Box([0.0], [np.inf]), Box([0.0], [np.inf])]
    u = [LinearUtility([1.0]), LinearUtility([1.0])]
    return jointly_convex_game(X, u, shared, name="outward")


# --------------------------------------------------------------------------
# economies


def pure_exchange_economy() -> EconomyInstance:
    """One consumer, one idle producer, one good in two states.

    Endowment (1,1), utility a1 + a2: the unique competitive equilibrium has
    prices (1/2, 1/2) and the consumer eating the endowment.
    """
    consumer = Consumer(
        choice_set=Box([0.0, 0.0], [2.0, 2.0]),
        endowment=[1.0, 1.0],
        shares=[1.0],
        utility=LinearUtility([1.0, 1.0]),
        survival=[0.0, 0.0],
    )
    producer = Producer(Box([0.0, 0.0], [0.0, 0.0]))
    return EconomyInstance(1, 2, (consumer,), (producer,), name="pure-exchange")


def two_consumer_exchange() -> EconomyInstance:
    """Two consumers with complementary endowments, no production."""
    c1 = Consumer(Box([0.0, 0.0], [2.0, 2.0]), [1.0, 0.0], [], LinearUtility([1.0, 1.0]),
                  survival=None)
    c2 = Consumer(Box([0.0, 0.0], [2.0, 2.0]), [0.0, 1.0], [], LinearUtility([1.0, 1.0]),
                  survival=None)
    return EconomyInstance(1, 2, (c1, c2), (), name="two-consumer")


def production_economy() -> EconomyInstance:
    """Flagship plus an active technology that can add up to 1/2 per state."""
    consumer = Consumer(
        choice_set=Box([0.0, 0.0], [3.0, 3.0]),
        endowment=[1.0, 1.0],
        shares=[1.0],
        utility=LinearUtility([1.0, 1.0]),
        survival=[0.0, 0.0],
    )
    producer = Producer(Box([0.0, 0.0], [0.5, 0.5]))
    return EconomyInstance(1, 2, (consumer,), (producer,), name="production")


# --------------------------------------------------------------------------
# random families


def random_jointly_convex(seed: int, n_players: int | None = None) -> GameInstance:
    """Jointly convex games with unit-bounded gradients and inflated X_i.

    The inflation keeps iterates strictly inside every X_i, so T is the
    singleton {-g/|g|} (or the whole space at satiation) and a small hull
    residual transfers directly to small per-player improvement slacks.
    """
    rng = np.random.default_rng(seed)
    n = n_players or int(rng.integers(2, 4))
    rows = [np.eye(n), -np.eye(n)]
    rhs = [np.ones(n), np.zeros(n)]
    x0 = np.full(n, 0.5)
    for _ in range(int(rng.integers(1, 3))):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        rows.append(a[None, :])
        rhs.append(np.array([a @ x0 + rng.uniform(0.1, 0.4)]))
    shared = HPoly(np.vstack(rows), np.concatenate(rhs))
    X, u = [], []
    for i in range(n):
        X.append(Box([-0.5], [1.5]))
        if rng.uniform() < 0.5:
            c = float(rng.choice([-1.0, 1.0]))
            u.append(LinearUtility([c]))
        else:
            m = rng.uniform(-0.3, 1.3)
            gamma = rng.uniform(0.1, 0.27)  # |grad| <= 2*gamma*1.8 <= ~1
            u.append(QuadUtility([[-2.0 * gamma]], [2.0 * gamma * m]))
    return jointly_convex_game(X, u, shared, name=f"rjc-{seed}")


def random_qvi(seed: int) -> GameInstance:
    """Mixed constraint maps: some fixed sub-boxes, sometimes a shared set."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    if rng.uniform() < 0.5:
        return random_jointly_convex(seed + 10_000, n)
    prefs, cons = [], []
    for i in range(n):
        lo = rng.uniform(0.0, 0.3)
        hi = rng.uniform(0.6, 1.0)
        X = Box([-0.5], [1.5])
        if rng.uniform() < 0.5:
            c = float(rng.choice([-1.0, 1.0]))
            var = LinearUtility([c])
        else:
            m = rng.uniform(-0.2, 1.2)
            gamma = rng.uniform(0.1, 0.27)
            var = QuadUtility([[-2.0 * gamma]], [2.0 * gamma * m])
        prefs.append(PreferenceMap(i, i, X, var))
        cons.append(FixedConstraint(Box([lo], [hi])))
    return GameInstance(tuple(prefs), tuple(cons), None, f"rqvi-{seed}")


def grid_aligned_instances(h: float = 0.02):
    """Twenty small games whose equilibrium geometry lies on the h-grid."""

    def snap(v):
        return round(round(v / h) * h, 10)

    out = [
        splitting_game(),
        jointly_convex_game(
            [Box([0.0], [1.0])] * 3,
            [LinearUtility([1.0])] * 3,
            HPoly(np.vstack([-np.eye(3), np.ones((1, 3))]), [0.0] * 3 + [1.0]),
            name="splitting-3",
        ),
        box_argmax_game((1.0, 1.0)),
        box_argmax_game((-0.5, 1.0)),
    ]
    rng = np.random.default_rng(7)
    while len(out) < 20:
        kind = len(out) % 4
        if kind == 0:
            # single player, quad with interior max on the grid
            m = snap(rng.uniform(0.2, 0.8))
            g = jointly_convex_game(
                [Box([0.0], [1.0])],
                [QuadUtility([[-2.0]], [2.0 * m])],
                Box([0.0], [1.0]),
                name=f"quad-int-{m}",
            )
        elif kind == 1:
            # two players, independent quads (product of boxes as shared set)
            m1, m2 = snap(rng.uniform(0.2, 0.8)), snap(rng.uniform(0.2, 0.8))
            g = jointly_convex_game(
                [Box([0.0], [1.0]), Box([0.0], [1.0])],
                [QuadUtility([[-2.0]], [2.0 * m1]), QuadUtility([[-2.0]], [2.0 * m2])],
                Box([0.0, 0.0], [1.0, 1.0]),
                name=f"quad-pair-{m1}-{m2}",
            )
        elif kind == 2:
            # two linear players on a grid-aligned budget face a.x <= b
            a = rng.choice([1.0, 2.0], size=2)
            b = snap(rng.uniform(0.6, 1.4) * a.min())
            rows = np.vstack([-np.eye(2), a[None, :]])
            g = jointly_convex_game(
                [Box([0.0], [1.0]), Box([0.0], [1.0])],
                [LinearUtility([1.0]), LinearUtility([1.0])],
                HPoly(rows, [0.0, 0.0, b]),
                name=f"budget-{a[0]}-{a[1]}-{b}",
            )
        else:
            # mixed: one linear pusher, one boundary-max quad
            m = snap(rng.uniform(1.0, 1.4))
            g = jointly_convex_game(
                [Box([0.0], [1.0]), Box([0.0], [1.0])],
                [LinearUtility([1.0]), QuadUtility([[-2.0]], [2.0 * m])],
                Box([0.0, 0.0], [1.0, 1.0]),
                name=f"mixed-{m}",
            )
        out.append(g)
    return out


# --------------------------------------------------------------------------
# relation catalog


def relation_catalog():
    """Named 1-d relations on [0,1] with their documented sampled profiles.

    Values are (succ, expected) where expected maps check name to the status
    the bundled profile run should report.
    """

    def strict_greater(x, z):
        return float(z[0]) > float(x[0])

    def not_equal(x, z):
        return abs(float(z[0]) - float(x[0])) > 1e-12

    def never(x, z):
        return False

    def band_above(x, z):
        return float(x[0]) + 0.3 <= float(z[0])

    return {
        "strict_greater": (
            strict_greater,
            {
                "irreflexive": "holds",
                "convex_values": "holds",
                "nonsatiated": "fails",  # at the top corner nothing is better
                "lsc_evidence": "holds",
            },
        ),
        "not_equal": (
            not_equal,
            {
                "irreflexive": "holds",
                "convex_values": "fails",  # midpoint of straddling pair is x itself
                "nonsatiated": "holds",
                "lsc_evidence": "holds",
            },
        ),
        "never": (
            never,
            {
                "irreflexive": "holds",
                "convex_values": "unknown",  # vacuous: no members to combine
                "nonsatiated": "fails",
                "lsc_evidence": "unknown",
            },
        ),
        "band_above": (
            band_above,
            {
                "irreflexive": "holds",
                "convex_values": "holds",
                "nonsatiated": "fails",  # fails once x > 0.7
                "lsc_evidence": "holds",
            },
        ),
    }


def catalog_ambient() -> Box:
    return Box([0.0], [1.0])
