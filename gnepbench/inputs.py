"""Seeded inputs for the four workloads, built with gnepkit's public constructors.

Every game is generated here, so each player's utility and constraint are
known in closed form (``Player`` and the shared rows ``A x <= b`` or the fixed
boxes).  The checks in ``closed_form`` use only these records, never the
program's own evaluation of them.

Why the VI and QVI pools are relabelings of one fixed game set: per-game
solve time in these families is heavy-tailed (about a fifth of the games
take 80-90% of the time, and which ones do depends chaotically on the
continuous parameters).  A round of 100 freshly drawn games therefore has an
inter-quartile spread of about 24% of its median total time across seeds,
more than any regression bound could tolerate.  So the games are fixed
family members, and ``--seed`` relabels them: it permutes the players (and
the columns of the shared rows with them), shuffles the rows, and shuffles
the game order.  Relabeling leaves most solves' iteration counts unchanged
and moves the heaviest by a few percent (QVI member 46: 750 or 800).

The pools are small so that a run can hold more than one round within
``--seconds``: VI uses members 0-49 of acceptance criterion 3's loop (about
4-5 s a round), and QVI members 25-49 of criterion 4's loop (about 6 s a
round, two thirds of it in members 44 and 46).
The grid and CLI workloads draw fresh continuous parameters from the seed;
their per-operation cost is set by structure that is fixed per game index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gnepkit import (
    Box,
    Consumer,
    EconomyInstance,
    FixedConstraint,
    GameInstance,
    HPoly,
    LinearUtility,
    PreferenceMap,
    Producer,
    QuadUtility,
    jointly_convex_game,
)
from gnepkit.jsonio import save_instance

VI_MEMBERS = range(50)
QVI_MEMBERS = range(25, 50)
GRID_H = 0.02
GRID_GAMES = 20
CLI_ECONOMIES = 12
CLI_GAMES = 12


@dataclass(frozen=True)
class Player:
    """u(z) = c.z (kind "lin", any block size) or 0.5 q z^2 + c z (kind "quad", 1-D)."""

    kind: str
    c: np.ndarray
    q: float = 0.0
    ambient: tuple = ((-0.5,), (1.5,))
    fixed: Optional[tuple] = None  # (lo, hi) of a FixedConstraint box

    @property
    def dim(self) -> int:
        return len(self.ambient[0])

    def variant(self):
        if self.kind == "lin":
            return LinearUtility(self.c)
        return QuadUtility([[self.q]], self.c)


@dataclass(frozen=True)
class GameCase:
    """A generated game plus everything the closed-form checks need."""

    name: str
    game: GameInstance
    players: tuple
    A: Optional[np.ndarray] = None  # shared rows, joint coordinates
    b: Optional[np.ndarray] = None


def _build(name, players, A=None, b=None, box_shared=False) -> GameCase:
    """box_shared: A, b are the rows of a box, and the game gets that Box as
    its shared set (the slice of a Box takes gnepkit's box path)."""
    X = [Box(*p.ambient) for p in players]
    variants = [p.variant() for p in players]
    if box_shared:
        n = A.shape[1]
        game = jointly_convex_game(X, variants, Box(-b[n:], b[:n]), name=name)
    elif A is not None:
        game = jointly_convex_game(X, variants, HPoly(A, b), name=name)
    else:
        prefs, cons, at = [], [], 0
        for i, (body, var, p) in enumerate(zip(X, variants, players)):
            prefs.append(PreferenceMap(i, at, body, var))
            cons.append(FixedConstraint(Box(*p.fixed)))
            at += body.dim
        game = GameInstance(tuple(prefs), tuple(cons), None, name)
    return GameCase(name, game, tuple(players), A, b)


def _utility_draw(rng, m_lo, m_hi) -> Player:
    # the draw order matches gnepkit.instances so pool member k is family member k
    if rng.uniform() < 0.5:
        return Player("lin", np.array([float(rng.choice([-1.0, 1.0]))]))
    m = rng.uniform(m_lo, m_hi)
    gamma = rng.uniform(0.1, 0.27)
    return Player("quad", np.array([2.0 * gamma * m]), q=-2.0 * gamma)


def _jointly_convex_params(seed: int, n: Optional[int] = None):
    """Members of the ``instances.random_jointly_convex`` family."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 4))
    rows, rhs = [np.eye(n), -np.eye(n)], [np.ones(n), np.zeros(n)]
    x0 = np.full(n, 0.5)
    for _ in range(int(rng.integers(1, 3))):
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        rows.append(a[None, :])
        rhs.append(np.array([a @ x0 + rng.uniform(0.1, 0.4)]))
    players = [_utility_draw(rng, -0.3, 1.3) for _ in range(n)]
    return players, np.vstack(rows), np.concatenate(rhs)


def _qvi_params(seed: int):
    """Members of the ``instances.random_qvi`` family: half moving shared-set
    slices, half fixed boxes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    if rng.uniform() < 0.5:
        return _jointly_convex_params(seed + 10_000, n)
    players = []
    for _ in range(n):
        lo, hi = rng.uniform(0.0, 0.3), rng.uniform(0.6, 1.0)
        p = _utility_draw(rng, -0.2, 1.2)
        players.append(Player(p.kind, p.c, p.q, fixed=((lo,), (hi,))))
    return players, None, None


def _relabel(rng, players, A, b):
    perm = rng.permutation(len(players))
    players = [players[j] for j in perm]
    if A is not None:
        rows = rng.permutation(len(b))
        A, b = A[rows][:, perm], b[rows]
    return players, A, b


def vi_pool(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    cases = []
    for k in VI_MEMBERS:
        players, A, b = _relabel(rng, *_jointly_convex_params(k))
        cases.append(_build(f"rjc-{k}", players, A, b))
    return [cases[j] for j in rng.permutation(len(cases))]


def qvi_pool(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    cases = []
    for k in QVI_MEMBERS:
        players, A, b = _relabel(rng, *_qvi_params(k))
        cases.append(_build(f"rqvi-{k}", players, A, b))
    return [cases[j] for j in rng.permutation(len(cases))]


# --------------------------------------------------------------------------
# grid-aligned games: every equilibrium face and interior maximum on the h-grid


def _unit_box_rows(n):
    return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([np.ones(n), np.zeros(n)])


def grid_pool(seed: int) -> list:
    """Twenty games on [0,1] blocks, the shape of ``instances.grid_aligned_instances``.

    The first four are fixed: the 2- and 3-player splitting games and two
    one-player box games.  The 3-player game splits half a unit over
    [0, 1/2]^3 (26^3 = 17,576 nodes, 351 on the face): on [0, 1]^3 its 132,651
    nodes took 9 of the round's 12.5 s, so one operation set the workload's
    figures and their run-to-run spread.  The other sixteen cycle through four
    kinds whose peaks and budgets are drawn from the seed and snapped to the grid.
    """
    rng = np.random.default_rng([seed, 3])
    h = GRID_H

    def snap(v):
        return round(round(v / h) * h, 10)

    def lin(hi=1.0):
        return Player("lin", np.array([1.0]), ambient=((0.0,), (hi,)))

    def quad(m):
        return Player("quad", np.array([2.0 * m]), q=-2.0, ambient=((0.0,), (1.0,)))

    def face(n, a, budget):
        # x >= 0 and a.x <= budget, as in the splitting and budget games
        return np.vstack([-np.eye(n), np.asarray(a, dtype=float)[None, :]]), \
            np.concatenate([np.zeros(n), [budget]])

    cases = []
    for n, size in ((2, 1.0), (3, 0.5)):
        cases.append(_build(f"splitting-{n}", [lin(size) for _ in range(n)],
                            *face(n, np.ones(n), size)))
    for c in ((1.0, 1.0), (-0.5, 1.0)):
        p = Player("lin", np.array(c), ambient=((0.0, 0.0), (1.0, 1.0)))
        cases.append(_build(f"box-argmax-{c[0]}-{c[1]}", [p], *_unit_box_rows(2), box_shared=True))
    while len(cases) < GRID_GAMES:
        kind = len(cases) % 4
        if kind == 0:
            m = snap(rng.uniform(0.2, 0.8))
            cases.append(_build(f"quad-int-{m}", [quad(m)], *_unit_box_rows(1), box_shared=True))
        elif kind == 1:
            m1, m2 = snap(rng.uniform(0.2, 0.8)), snap(rng.uniform(0.2, 0.8))
            cases.append(_build(f"quad-pair-{m1}-{m2}", [quad(m1), quad(m2)],
                                *_unit_box_rows(2), box_shared=True))
        elif kind == 2:
            a = rng.choice([1.0, 2.0], size=2)
            budget = snap(rng.uniform(0.6, 1.4) * a.min())
            cases.append(_build(f"budget-{a[0]}-{a[1]}-{budget}", [lin(), lin()],
                                *face(2, a, budget)))
        else:
            m = snap(rng.uniform(1.0, 1.4))
            cases.append(_build(f"mixed-{m}", [lin(), quad(m)], *_unit_box_rows(2),
                                box_shared=True))
    return cases


# --------------------------------------------------------------------------
# CLI inputs: instance files plus candidate points with known verdicts


@dataclass(frozen=True)
class EconomyCase:
    """An Arrow-Debreu economy: 1-2 consumers with linear utilities on boxes,
    one producer with a box technology.

    Utilities are c_i = k_i c with k_i > 0, so at p = c / sum(c) every
    consumer is indifferent along its budget line and x_eq below is a
    competitive equilibrium: a_i = e_i + theta_i beta, b = beta, p.
    """

    path: str
    L: int
    S: int
    utilities: np.ndarray  # (I, H)
    endowments: np.ndarray  # (I, H)
    upper: np.ndarray  # (I, H) choice boxes [0, upper]
    shares: np.ndarray  # (I,)
    beta: np.ndarray  # (H,) technology box [0, beta]

    @property
    def H(self) -> int:
        return self.L * self.S

    @property
    def I(self) -> int:
        return len(self.shares)

    def split(self, x):
        x = np.asarray(x, dtype=float)
        H, I = self.H, self.I
        return x[: I * H].reshape(I, H), x[I * H:(I + 1) * H], x[(I + 1) * H:]


@dataclass(frozen=True)
class CliOp:
    """One ``gnep`` command: argv without --out-dir, and the case it checks."""

    argv: tuple
    case: object  # EconomyCase or GameCase
    point: np.ndarray
    label: str


def _point_arg(x) -> str:
    # passed as --point=..., since argparse takes "--point -0.1,0.5" for an option
    return ",".join(repr(float(v)) for v in x)


def _economy_case(rng, k, path) -> EconomyCase:
    L, S = ((1, 2), (2, 1), (2, 2))[k % 3]
    I = 1 + (k // 3) % 2
    H = L * S
    base = rng.uniform(0.2, 1.0, H)
    util = np.array([rng.uniform(0.5, 2.0) * base for _ in range(I)])
    endow = rng.uniform(0.5, 1.5, (I, H))
    if I == 1:
        shares = np.array([1.0])
    else:
        theta = rng.uniform(0.3, 0.7)
        shares = np.array([theta, 1.0 - theta])
    beta = rng.uniform(0.1, 0.5, H)
    upper = endow + shares[:, None] * beta + rng.uniform(0.3, 1.0, (I, H))
    return EconomyCase(path, L, S, util, endow, upper, shares, beta)


def _economy_instance(case: EconomyCase, name: str) -> EconomyInstance:
    consumers = tuple(
        Consumer(Box(np.zeros(case.H), case.upper[i]), case.endowments[i],
                 [case.shares[i]], LinearUtility(case.utilities[i]),
                 survival=np.zeros(case.H))
        for i in range(case.I)
    )
    producer = Producer(Box(np.zeros(case.H), case.beta))
    return EconomyInstance(case.L, case.S, consumers, (producer,), name=name)


def economy_points(case: EconomyCase, k: int, rng):
    """(equilibrium, perturbed) joint points; the perturbation kind cycles."""
    c = case.utilities[0]
    p = c / c.sum()
    A = case.endowments + case.shares[:, None] * case.beta
    x_eq = np.concatenate([A.ravel(), case.beta, p])
    kind = (k // 3) % 3
    if kind == 0:  # tilted prices: some consumer can trade toward a better ratio
        tilt = 1.0 + rng.uniform(0.2, 0.4) * np.where(np.arange(case.H) % 2, 1.0, -1.0)
        q = p * tilt
        x_bad = np.concatenate([A.ravel(), case.beta, q / q.sum()])
    elif kind == 1:  # idle half the technology: profits drop, budgets break
        x_bad = np.concatenate([A.ravel(), 0.5 * case.beta, p])
    else:  # first consumer leaves budget unspent
        A2 = A.copy()
        A2[0] -= rng.uniform(0.05, 0.2)
        x_bad = np.concatenate([A2.ravel(), case.beta, p])
    return x_eq, x_bad


def _face_game_case(rng, k) -> tuple:
    """Budget-face game on [0,1] blocks with a closed-form equilibrium.

    Shared set {0 <= x <= 1, a.x <= B}.  Linear players (c > 0) sit at y_j,
    quadratic players at their peaks m_i, and B = a.x_eq, so every player's
    slice ends exactly at its own coordinate.
    """
    n = 2 + k % 2
    kinds = ["lin" if (k + j) % 3 else "quad" for j in range(n)]
    players, x = [], np.empty(n)
    for j, kind in enumerate(kinds):
        if kind == "lin":
            players.append(Player("lin", np.array([rng.uniform(0.5, 1.5)]),
                                  ambient=((0.0,), (1.0,))))
            x[j] = rng.uniform(0.2, 0.6)
        else:
            gamma, m = rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.4)
            players.append(Player("quad", np.array([2.0 * gamma * m]), q=-2.0 * gamma,
                                  ambient=((0.0,), (1.0,))))
            x[j] = m
    a = rng.uniform(0.5, 2.0, n)
    A, b = _unit_box_rows(n)
    A = np.vstack([A, a[None, :]])
    b = np.concatenate([b, [float(a @ x)]])
    return players, A, b, x


def cli_pool(seed: int, scratch: str) -> list:
    """Write the instance files under ``scratch``; return one round of ops."""
    rng = np.random.default_rng([seed, 4])
    os.makedirs(scratch, exist_ok=True)
    ops = []
    for k in range(CLI_ECONOMIES):
        path = os.path.join(scratch, f"economy-{k}.json")
        case = _economy_case(rng, k, path)
        save_instance(_economy_instance(case, f"economy-{k}"), path)
        for label, x in zip(("equilibrium", "perturbed"), economy_points(case, k, rng)):
            argv = ("economy", path, "--check-only", f"--point={_point_arg(x)}")
            ops.append(CliOp(argv, case, x, label))
    for k in range(CLI_GAMES):
        path = os.path.join(scratch, f"game-{k}.json")
        players, A, b, x_eq = _face_game_case(rng, k)
        case = _build(f"face-{k}", players, A, b)
        save_instance(case.game, path)
        x_bad = x_eq.copy()
        j = int(rng.integers(len(x_eq)))
        step = rng.uniform(0.05, 0.15)
        if k % 4 == 3:
            # up: the face is violated.  The step stays below half of what
            # would empty a rival's slice: gnepkit's verify exits 1 on an
            # empty slice instead of reporting the point infeasible.
            a = A[-1]
            room = min(a[i] * x_eq[i] / a[j] for i in range(len(x_eq)) if i != j)
            x_bad[j] += min(step, 0.5 * room)
        else:
            x_bad[j] -= step  # down: every linear player gains room
        for label, x in (("equilibrium", x_eq), ("perturbed", x_bad)):
            ops.append(CliOp(("verify", path, f"--point={_point_arg(x)}"), case, x, label))
    order = rng.permutation(len(ops))
    return [ops[j] for j in order]
