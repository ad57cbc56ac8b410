"""The set-valued operator T(x) = prod_i co(N_i(x) ∩ S[0,1]).

N_i(x) is the normal cone to the convexified preferred set of player i at
their own strategy block, with the whole-space convention when that set is
empty (a satiated player constrains nothing).  Blocks whose choice set lives
in a lower-dimensional affine slice (the price simplex) are handled relative
to that slice: gradients and face normals are projected onto the tangent
space, so the lineality directions of the ambient normal cone never enter T.
Without that, T would contain 0 everywhere on such blocks and the variational
reformulation would be vacuous.

The graded blocks (linear and quadratic utilities) are evaluated in one pass
(_graded_sections) over data fixed once per game (GradedRows): one product
Q @ x gives every quadratic own gradient.  A block over a 1-D box then runs
on Python floats, since numpy's per-call cost dwarfs arithmetic on one
coordinate: its satiation test is the verifier's 1-D improvement rule
(preferences._improvement_1d) and its section one of a few fixed ones.  A
graded block over any other X_i tests satiation with maximize.  Set-valued blocks go block by block through
their convexified region's geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lp, convexsets
from .convexsets import (
    DEFAULT_EPS_OPEN,
    EPS_ACTIVE,
    Box,
    ConeSection,
    tangent_projector,
)
from .game import Tolerances
from .preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    UnboundedPreferenceError,
    _improvement_1d,
    convexified_set,
    embed_variant,
    is_satiated,
)


@dataclass(frozen=True)
class OperatorEval:
    """Blockwise sections of T(x), plus the block layout they refer to."""

    blocks: tuple
    starts: tuple

    @property
    def dim(self) -> int:
        return self.starts[-1] + self.blocks[-1].dim

    def block_slice(self, i: int) -> slice:
        return slice(self.starts[i], self.starts[i] + self.blocks[i].dim)


def _fixed_section(*rows, whole_space=False) -> ConeSection:
    gens = np.array(rows, dtype=float).reshape(-1, 1)
    gens.flags.writeable = False
    return ConeSection(1, gens, whole_space)


# every section a boxed block can have when its gradient is finite: whole
# space, or its unit gradient -sign(g) (when g moves) followed by its active
# face normals e_0 then -e_0; shared by every call, so read-only
_WHOLE_1 = _fixed_section(whole_space=True)
_SECTIONS_1 = {rows: _fixed_section(*rows)
               for rows in ((), (1.0,), (-1.0,), (1.0, -1.0), (-1.0, 1.0))}


@dataclass(frozen=True)
class GradedRows:
    """The graded players' fixed data for one pass of T over all their
    blocks (_graded_sections), built once per game (GameInstance._graded_rows).

    Block k is player index[k] with the joint-sized preference map pms[k].
    Q stacks the quadratic players' joint Q (None without one), and gather
    holds the flat positions in Q @ x of their own coordinates, block after
    block; a stacked product is each player's own Q @ x bit for bit, the
    product _own_quadratic and the verifier take.

    flat[k] is (j, at, c, q, quad) when block k is one coordinate, whose
    curvature maximize separates (PreferenceMap refuses a positive one),
    the floats that preferences._improvement_1d reads:
    its joint coordinate j, its position at in gather (None when linear),
    its own c and curvature q, and whether maximize takes q as quadratic;
    else None.  The verifier certifies such a player of a shared slice on
    floats (GameInstance._flat_slices).  A flat block is boxed when X_i is
    a Box with lo < hi: boxed holds (k, lo, hi, lo_thr, hi_thr), its bounds
    and the thresholds of their face tests in _active_normals (inf for an
    infinite bound, which has no row).  general holds (k, slice of gather
    or None, own c, tangent projector or None) of the other blocks, which
    keep the per-block test.
    """

    index: tuple
    pms: tuple
    Q: np.ndarray | None
    gather: np.ndarray
    flat: tuple
    boxed: tuple
    general: tuple

    @staticmethod
    def of(prefs, n: int) -> "GradedRows | None":
        """The rows of the graded players among prefs, a game's n coordinates
        long; None when no player is graded."""
        index, pms, Qs, gather, flat, boxed, general = [], [], [], [], [], [], []
        for i, pm in enumerate(prefs):
            if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
                continue
            pm = embed_variant(pm, n)
            k, v, d, X, j = len(pms), pm.variant, pm.block_dim, pm.ambient, pm.block.start
            index.append(i)
            pms.append(pm)
            span, q, quad = None, 0.0, False
            if isinstance(v, QuadUtility):
                span = slice(len(gather), len(gather) + d)
                gather.extend(range(len(Qs) * n + j, len(Qs) * n + j + d))
                Qs.append(v.Q)
                A2 = v.Q[pm.block, pm.block]
                # maximize's rule: a linear objective up to 1e-13
                q, quad = float(A2[0, 0]), bool(np.abs(A2).max() > 1e-13)
            at = None if span is None else span.start
            flat.append((j, at, float(v.c[j]), q, quad) if d == 1 else None)
            # a pinned coordinate (lo == hi) is an equality: general, as a simplex
            P = tangent_projector(X) if len(X.equalities()[1]) else None
            if isinstance(X, Box) and flat[k] is not None and P is None:
                lo, hi = float(X.lo[0]), float(X.hi[0])
                lo_thr, hi_thr = (-EPS_ACTIVE * (1.0 + abs(b)) if math.isfinite(b) else math.inf
                                  for b in (lo, hi))
                boxed.append((k, lo, hi, lo_thr, hi_thr))
            else:
                general.append((k, span, v.c[pm.block], P))
        if not pms:
            return None
        return GradedRows(tuple(index), tuple(pms), np.array(Qs) if Qs else None,
                          np.array(gather, dtype=int), tuple(flat), tuple(boxed), tuple(general))

    def gradient_rows(self, k: int):
        """(G, c): block k's own gradient at x is G @ x + c, projected onto
        the tangent space of X_i's equalities when it has any; None for a
        linear block, whose gradient is constant."""
        v, block = self.pms[k].variant, self.pms[k].block
        if not isinstance(v, QuadUtility):
            return None
        P = next((P for kk, _, _, P in self.general if kk == k), None)
        G, c = v.Q[block], v.c[block]
        return (G, c) if P is None else (P @ G, P @ c)


def _graded_sections(R: GradedRows, x, eps_open: float) -> list:
    """Sections of N_{co P_i(x)}(x_i) ∩ S[0,1] for every graded block of R.

    Satiation (no improvement over X_i above eps_open, the verifier's
    emptiness test) means an empty preferred set, hence the whole space.
    Otherwise the generators are the (tangent-projected) negated utility
    gradient plus the active face normals of the player's own choice set --
    exactly the normals of the sup-level set at its boundary point x_i.

    A boxed block runs on floats read from the one product Q @ x: its slack
    is preferences._improvement_1d, the verifier's, so every verdict at
    eps_open is the verifier's; the first boxed block whose clip is
    unbounded raises.  Its unit gradient is exactly -sign(g) and a
    face normal repeats it only when they are equal, the 1e-12 rule of
    ConeSection.from_vectors; so its section is one of the fixed ones,
    unless g is infinite and the unit gradient NaN.  A general block tests
    satiation with is_satiated (a maximize over X_i) and builds its
    generators through from_vectors.
    """
    x = np.asarray(x, dtype=float)
    gq = None if R.Q is None else (R.Q @ x).take(R.gather)
    qx, xs = ([] if gq is None else gq.tolist()), x.tolist()
    out = [None] * len(R.pms)
    for k, lo, hi, lo_thr, hi_thr in R.boxed:
        j, at, c, q, quad = R.flat[k]
        xo, gx = xs[j], (None if at is None else qx[at])
        try:
            slack = _improvement_1d(gx, c, q, quad, xo, lo, hi)
        except _lp.UnboundedLP:
            raise UnboundedPreferenceError(
                f"player {R.pms[k].player}: improvement unbounded") from None
        if slack <= eps_open:
            out[k] = _WHOLE_1
            continue
        g = (0.0 if gx is None else gx) + c
        rows = (-g / abs(g),) if abs(g) >= 1e-12 else ()
        # a face normal equal to the unit gradient (exactly ±1.0, or NaN for
        # an infinite g) is not repeated
        if xo - hi >= hi_thr and rows[:1] != (1.0,):
            rows += (1.0,)
        if lo - xo >= lo_thr and rows[:1] != (-1.0,):
            rows += (-1.0,)
        out[k] = _SECTIONS_1.get(rows) or ConeSection(1, np.array(rows).reshape(-1, 1))
    for k, span, c, P in R.general:
        pm = R.pms[k]
        if is_satiated(pm, x, eps_open):
            out[k] = ConeSection.whole(pm.block_dim)
            continue
        gens = [-((0.0 if span is None else gq[span]) + c)]
        gens.extend(convexsets._active_normals(pm.ambient, pm.own(x)))
        if P is not None:
            gens = [P @ v for v in gens]
        out[k] = ConeSection.from_vectors(gens, pm.block_dim)
    return out


def normal_map(pm: PreferenceMap, x, eps_open: float = DEFAULT_EPS_OPEN,
               seed: int = 0) -> ConeSection:
    """Section of N_{co P_i(x)}(x_i) ∩ S[0,1] as unit generators.

    A graded variant is the one-block pass of _graded_sections.  Set-valued
    variants go through the convexified region's geometry, empty at the
    same eps_open; for a relation oracle that region is the hull of the
    sampled members, so the section is as good as the sample (the game's
    sampled flag says when).
    """
    x = np.asarray(x, dtype=float)
    if isinstance(pm.variant, (LinearUtility, QuadUtility)):
        return _graded_sections(GradedRows.of((pm,), x.size), x, eps_open)[0]
    xi = pm.own(x)
    d = pm.block_dim
    region = convexified_set(pm, x, eps_open, seed)
    if region.is_empty(eps_open):
        return ConeSection.whole(d)
    cone = convexsets.normal_cone_generators(region, xi)
    if cone.whole_space:
        return ConeSection.whole(d)
    gens = cone.generators
    if len(pm.ambient.equalities()[1]):
        # the projector is the identity unless the choice set has equalities
        P_t = tangent_projector(pm.ambient)
        gens = [P_t @ v for v in gens]
    return ConeSection.from_vectors(gens, d)


def evaluate_T(game, x, tol: Tolerances = Tolerances(), seed: int = 0) -> OperatorEval:
    """All player blocks of T at the joint point x: the graded ones in one
    pass (_graded_sections), the set-valued ones block by block; a block is
    satiated (the whole space) when its best improvement is at most
    tol.eps_open."""
    x = np.asarray(x, dtype=float)
    prefs = game.preferences
    blocks = [None] * len(prefs)
    R = game._graded_rows
    if R is not None:
        for i, section in zip(R.index, _graded_sections(R, x, tol.eps_open)):
            blocks[i] = section
    for i, pm in enumerate(prefs):
        if blocks[i] is None:
            blocks[i] = normal_map(pm, x, tol.eps_open, seed)
    return OperatorEval(tuple(blocks), tuple(pm.block_start for pm in prefs))


def select(op: OperatorEval) -> np.ndarray:
    """One concrete t in T(x): the min-norm point of each block's generator
    hull; whole-space blocks contribute 0 (0 is in T there)."""
    t = np.zeros(op.dim)
    for i, cone in enumerate(op.blocks):
        sl = op.block_slice(i)
        if cone.whole_space or cone.n_generators == 0:
            continue
        t[sl] = cone.min_norm_point()
    return t
