"""Exchange economies with production and uncertainty, reduced to a GNEP.

Commodities are (good, state) pairs: H = L * S contingent goods, so a bundle
is a vector in R^H.  Prices live on the scaled simplex (they are relative
prices; only the direction matters and the normalization pins it down).

The reduction builds one player per consumer (choice a_i in A_i, constrained
by the budget set induced by prices and distributed profits), one per
producer (choice b_j in the compact technology set B_j, preferring higher
profit <p, b_j>), and one fictitious price player who prefers any price q
giving a larger value of the aggregate excess <q, sum a - sum e - sum b>.
An equilibrium of that game is a competitive equilibrium: markets clear with
free disposal (excess <= 0, zero-priced where slack) and the value of excess
at the equilibrium price vanishes.

Profits enter consumer wealth clamped at zero, max(0, <p, b_j>): budget sets
must never shrink below endowment wealth mid-iteration, where producers are
not yet optimal and raw profits can be negative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .convexsets import ConvexBody, HPoly, Intersection, Simplex, is_polyhedral, support_max
from .game import (
    FixedConstraint,
    GameInstance,
    ParametricConstraint,
    Tolerances,
    verify_equilibrium,
)
from .preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
)
from .solvers import SolveResult, SolverConfig, solve_qvi


class EconomyError(ValueError):
    pass


class SatiatedConsumerError(EconomyError):
    """A consumer cannot strictly improve anywhere: the reduction's
    nonsatiation hypothesis fails before solving starts."""


class HypothesisUncheckedWarning(UserWarning):
    """Walras/clearing conclusions rest on hypotheses this toolkit can only
    sample (oracle preferences) or that were not provided (survival bundles)."""


@dataclass(frozen=True)
class Consumer:
    choice_set: ConvexBody
    endowment: np.ndarray
    shares: np.ndarray
    utility: object
    survival: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "endowment", np.asarray(self.endowment, dtype=float))
        object.__setattr__(self, "shares", np.asarray(self.shares, dtype=float).reshape(-1))
        if self.survival is not None:
            object.__setattr__(self, "survival", np.asarray(self.survival, dtype=float))


@dataclass(frozen=True)
class Producer:
    technology: ConvexBody


@dataclass(frozen=True)
class EconomyInstance:
    L: int
    S: int
    consumers: tuple
    producers: tuple = ()
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "consumers", tuple(self.consumers))
        object.__setattr__(self, "producers", tuple(self.producers))
        H = self.H
        if not self.consumers:
            raise EconomyError("an economy needs at least one consumer")
        J = len(self.producers)
        share_sum = np.zeros(J)
        for i, c in enumerate(self.consumers):
            if c.choice_set.dim != H:
                raise EconomyError(f"consumer {i}: choice set dim != {H}")
            # the budget set is the choice set intersected with a price row
            if not is_polyhedral(c.choice_set):
                raise EconomyError(f"consumer {i}: choice set kind={c.choice_set.kind!r} "
                                   "is not polyhedral")
            if not c.choice_set.is_bounded():
                raise EconomyError(f"consumer {i}: choice set must be compact")
            lo, _ = c.choice_set.bounding_box()
            if np.any(lo < -1e-9):
                raise EconomyError(f"consumer {i}: bundles must be nonnegative")
            if c.endowment.size != H or np.any(c.endowment < 0):
                raise EconomyError(f"consumer {i}: bad endowment")
            if c.shares.size != J:
                raise EconomyError(f"consumer {i}: needs {J} profit shares")
            if np.any(c.shares < -1e-12):
                raise EconomyError(f"consumer {i}: negative shares")
            share_sum += c.shares
            if c.survival is not None:
                if not c.choice_set.contains(c.survival, eps=1e-9, eps_open=0.0):
                    raise EconomyError(f"consumer {i}: survival bundle outside choice set")
                if not np.all(c.endowment > c.survival):
                    raise EconomyError(
                        f"consumer {i}: endowment must strictly dominate survival bundle"
                    )
        if J and not np.allclose(share_sum, 1.0, atol=1e-9):
            raise EconomyError("profit shares must sum to 1 per producer")
        for j, pr in enumerate(self.producers):
            if pr.technology.dim != H:
                raise EconomyError(f"producer {j}: technology dim != {H}")
            if not pr.technology.is_bounded():
                raise EconomyError(f"producer {j}: technology must be compact")
            if not pr.technology.contains(np.zeros(H), eps=1e-9, eps_open=0.0):
                raise EconomyError(f"producer {j}: inaction (0) must be feasible")

    @property
    def H(self) -> int:
        return self.L * self.S

    @property
    def I(self) -> int:
        return len(self.consumers)

    @property
    def J(self) -> int:
        return len(self.producers)

    # block layout of the reduced game: consumers, producers, price
    def consumer_block(self, i: int) -> slice:
        return slice(i * self.H, (i + 1) * self.H)

    def producer_block(self, j: int) -> slice:
        return slice((self.I + j) * self.H, (self.I + j + 1) * self.H)

    @property
    def price_block(self) -> slice:
        return slice((self.I + self.J) * self.H, (self.I + self.J + 1) * self.H)

    @property
    def n(self) -> int:
        return (self.I + self.J + 1) * self.H

    def split(self, x):
        x = np.asarray(x, dtype=float)
        A = np.array([x[self.consumer_block(i)] for i in range(self.I)])
        B = np.array([x[self.producer_block(j)] for j in range(self.J)]).reshape(self.J, self.H)
        p = x[self.price_block]
        return A, B, p


def wealth(econ: EconomyInstance, i: int, p, B) -> float:
    """Endowment value plus distributed clamped profits."""
    c = econ.consumers[i]
    w = float(p @ c.endowment)
    for j in range(econ.J):
        w += c.shares[j] * max(0.0, float(p @ np.asarray(B)[j]))
    return w


def budget_set(econ: EconomyInstance, i: int, p, B) -> ConvexBody:
    """{a in A_i : <p, a> <= wealth_i(p, B)}."""
    p = np.asarray(p, dtype=float)
    w = wealth(econ, i, p, B)
    return Intersection(
        (econ.consumers[i].choice_set, HPoly(p[None, :], [w]))
    )


def _consumer_constraint(econ: EconomyInstance, i: int) -> ParametricConstraint:
    def build(x):
        A, B, p = econ.split(x)
        return budget_set(econ, i, p, B)

    def batch(nodes):
        nodes = np.asarray(nodes, dtype=float)
        P = nodes[:, econ.price_block]
        own = nodes[:, econ.consumer_block(i)]
        w = P @ econ.consumers[i].endowment
        for j in range(econ.J):
            prof = np.einsum("kh,kh->k", P, nodes[:, econ.producer_block(j)])
            w = w + econ.consumers[i].shares[j] * np.maximum(0.0, prof)
        return np.einsum("kh,kh->k", P, own) <= w + 1e-9

    return ParametricConstraint(build, batch)


def to_gnep(econ: EconomyInstance) -> GameInstance:
    """The (I + J + 1)-player reduction; block order: consumers, producers, price."""
    H, I, J, n = econ.H, econ.I, econ.J, econ.n
    prefs, cons = [], []
    for i, c in enumerate(econ.consumers):
        u = c.utility
        if isinstance(u, (LinearUtility, QuadUtility, RelationOracle)):
            var = u
        else:
            raise EconomyError(f"consumer {i}: unsupported utility {type(u).__name__}")
        prefs.append(PreferenceMap(i, i * H, c.choice_set, var))
        cons.append(_consumer_constraint(econ, i))
    price_sl = econ.price_block
    for j, pr in enumerate(econ.producers):
        Q = np.zeros((n, n))
        sl = econ.producer_block(j)
        Q[sl, price_sl] = np.eye(H)
        Q[price_sl, sl] = np.eye(H)
        prefs.append(PreferenceMap(I + j, sl.start, pr.technology, QuadUtility(Q, np.zeros(n))))
        cons.append(FixedConstraint(pr.technology))
    # fictitious player: u = <p, sum a - sum e - sum b>
    Q = np.zeros((n, n))
    cvec = np.zeros(n)
    for i in range(I):
        sl = econ.consumer_block(i)
        Q[price_sl, sl] = np.eye(H)
        Q[sl, price_sl] = np.eye(H)
        cvec[price_sl] -= econ.consumers[i].endowment
    for j in range(J):
        sl = econ.producer_block(j)
        Q[price_sl, sl] -= np.eye(H)
        Q[sl, price_sl] -= np.eye(H)
    simplex_p = Simplex(H, 1.0)
    prefs.append(PreferenceMap(I + J, price_sl.start, simplex_p, QuadUtility(Q, cvec)))
    cons.append(FixedConstraint(simplex_p))
    return GameInstance(tuple(prefs), tuple(cons), None, econ.name or "economy")


# --------------------------------------------------------------------------
# outcomes


@dataclass
class CompetitiveOutcome:
    prices: np.ndarray
    allocations: np.ndarray  # (I, H)
    productions: np.ndarray  # (J, H)
    excess: np.ndarray  # (L, S) signed aggregate excess demand
    clearing_violation: float  # max positive excess (free disposal wants <= 0)
    complementarity_gap: float  # max |p_h * excess_h|
    walras_gap: float  # |<p, excess>|
    producer_gaps: np.ndarray
    fictitious_gap: float
    is_competitive: bool
    certificate: object
    solve: Optional[SolveResult] = None

    def to_dict(self):
        """The fields for outcome.json; the solve run is left out."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solve"}


def _excess(econ: EconomyInstance, A, B) -> np.ndarray:
    """Aggregate excess demand: allocations - endowments - productions."""
    excess = A.sum(axis=0) - sum(c.endowment for c in econ.consumers)
    if econ.J:
        excess = excess - B.sum(axis=0)
    return excess


def outcome_from_point(econ: EconomyInstance, game: GameInstance, x,
                       tol: Tolerances = Tolerances(),
                       solve: Optional[SolveResult] = None) -> CompetitiveOutcome:
    x = np.asarray(x, dtype=float)
    A, B, p = econ.split(x)
    excess = _excess(econ, A, B)
    prod_gaps = np.zeros(econ.J)
    for j in range(econ.J):
        best = support_max(econ.producers[j].technology, p)
        prod_gaps[j] = best - float(p @ B[j])
    fict_gap = float(np.max(excess) - p @ excess)
    cert = verify_equilibrium(game, x, tol)
    verdict = bool(
        cert.is_equilibrium
        and np.max(excess) <= 1e-6
        and abs(p @ excess) <= 1e-6
    )
    return CompetitiveOutcome(
        prices=p.copy(),
        allocations=A.copy(),
        productions=B.copy(),
        excess=excess.reshape(econ.L, econ.S),
        clearing_violation=float(np.max(excess)),
        complementarity_gap=float(np.max(np.abs(p * excess))),
        walras_gap=float(abs(p @ excess)),
        producer_gaps=prod_gaps,
        fictitious_gap=fict_gap,
        is_competitive=verdict,
        certificate=cert,
        solve=solve,
    )


def solve_competitive(econ: EconomyInstance, config: SolverConfig = SolverConfig(),
                      tol: Tolerances = Tolerances()) -> CompetitiveOutcome:
    for i, c in enumerate(econ.consumers):
        u = c.utility
        if isinstance(u, LinearUtility) and np.linalg.norm(u.c) <= 1e-12:
            raise SatiatedConsumerError(f"consumer {i} has a constant utility")
    game = to_gnep(econ)
    res = solve_qvi(game, config, tol)
    return outcome_from_point(econ, game, res.point, tol, solve=res)


def check_market_clearing(econ: EconomyInstance, outcome: CompetitiveOutcome) -> np.ndarray:
    """Recomputed (L, S) excess matrix; entries should be <= 0 at equilibrium."""
    excess = _excess(econ, outcome.allocations, outcome.productions)
    return excess.reshape(econ.L, econ.S)


def check_walras(econ: EconomyInstance, outcome: CompetitiveOutcome) -> float:
    """|<p, excess>|; warns when its hypotheses could not all be verified."""
    sampled = any(isinstance(c.utility, RelationOracle) for c in econ.consumers)
    missing_survival = any(c.survival is None for c in econ.consumers)
    if sampled or missing_survival:
        reasons = []
        if sampled:
            reasons.append("oracle preferences are only sampled")
        if missing_survival:
            reasons.append("no survival bundle provided")
        warnings.warn(
            "Walras-law conclusion not fully grounded: " + "; ".join(reasons),
            HypothesisUncheckedWarning,
            stacklevel=2,
        )
    excess = check_market_clearing(econ, outcome).reshape(-1)
    return float(abs(outcome.prices @ excess))
