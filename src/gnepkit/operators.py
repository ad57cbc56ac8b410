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
over the game's fixed rows (GradedRows, built once per game): one product for
every quadratic own gradient, one clip for every satiation test over a 1-D
box, one comparison for every active box face; a graded block over any other
X_i tests satiation with maximize inside the same pass.  Set-valued blocks
go block by block through their convexified region's geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convexsets
from .convexsets import (
    DEFAULT_EPS_OPEN,
    EPS_ACTIVE,
    Box,
    ConeSection,
    _clip_argmax,
    tangent_projector,
)
from .game import Tolerances
from .preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    UnboundedPreferenceError,
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


# the rows of a 1-D box, e_0 then -e_0: its active-face normals
_ROW_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class GradedRows:
    """The graded players' fixed data for one pass of T over all their
    blocks (_graded_sections), built once per game (GameInstance._graded_rows).

    Arrays run over the stacked own coordinates, block after block: block k
    (player index[k], preference map pms[k]) owns cut[k]:cut[k+1], and own
    maps them to joint coordinates.  The own gradient at x is c plus, on a
    quadratic player's coordinates (qpos), take(Q @ x, gather): Q stacks the
    quadratic players' joint Q only (None without one), and a stacked
    product is each player's own Q @ x bit for bit, the product
    _own_quadratic and the verifier take.

    A block is boxed when X_i is a 1-D Box and maximize separates its own
    curvature (a linear objective up to 1e-13, else a nonpositive one): q is
    that curvature, quad says whether maximize takes it as quadratic, and
    q_clip is the curvature it clips with (q, else 0).  The two rows of
    bound and thr are the box's rows e_0 and -e_0: the right-hand sides hi
    and -lo, and the thresholds of _active_normals (inf for an infinite
    bound, no row).  boxed lists those blocks; general lists (k, tangent
    projector or None) of the others, which keep the per-block test: their
    coordinates have q = 0, bound = 0 and no active row.
    """

    index: tuple
    pms: tuple
    cut: tuple
    own: np.ndarray
    Q: np.ndarray | None
    gather: np.ndarray
    qpos: np.ndarray
    c: np.ndarray
    q: np.ndarray
    q_clip: np.ndarray
    quad: np.ndarray
    bound: np.ndarray
    thr: np.ndarray
    boxed: tuple
    general: tuple

    @staticmethod
    def of(prefs, n: int) -> "GradedRows | None":
        """The rows of the graded players among prefs, a game's n coordinates
        long; None when no player is graded."""
        index, pms, Qs, gather, qpos, cols, boxed, general = [], [], [], [], [], [], [], []
        at = 0
        for i, pm in enumerate(prefs):
            if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
                continue
            pm = embed_variant(pm, n)
            k, v, d, X = len(pms), pm.variant, pm.block_dim, pm.ambient
            own = np.arange(pm.block.start, pm.block.stop)
            index.append(i)
            pms.append(pm)
            if isinstance(v, QuadUtility):
                gather.append(len(Qs) * n + own)
                qpos.append(np.arange(at, at + d))
                Qs.append(v.Q)
                A2 = v.Q[pm.block, pm.block]
            else:
                A2 = np.zeros((d, d))
            at += d
            # maximize's rules: a linear objective up to 1e-13, else a
            # separable one only with a nonpositive diagonal
            quad = np.abs(A2).max(initial=0.0) > 1e-13
            q = np.diag(A2)
            if isinstance(X, Box) and d == 1 and (not quad or q[0] <= 0.0):
                bound = np.concatenate([X.hi, -X.lo])[:, None]
                thr = np.where(np.isfinite(bound), -EPS_ACTIVE * (1.0 + np.abs(bound)), np.inf)
                boxed.append(k)
            else:
                q, bound, thr = np.zeros(d), np.zeros((2, d)), np.full((2, d), np.inf)
                P = tangent_projector(X) if len(X.equalities()[1]) else None
                general.append((k, P))
            cols.append((own, v.c[pm.block], q, q if quad else np.zeros(d),
                         np.full(d, quad), bound, thr))
        if not pms:
            return None
        own, c, q, q_clip, quad, bound, thr = (np.concatenate(col, axis=-1) for col in zip(*cols))
        cut = np.cumsum([0] + [pm.block_dim for pm in pms]).tolist()
        none = np.zeros(0, dtype=int)
        return GradedRows(
            tuple(index), tuple(pms), tuple(cut), own, np.array(Qs) if Qs else None,
            np.concatenate([none, *gather]), np.concatenate([none, *qpos]), c, q, q_clip, quad,
            bound, thr, tuple(boxed), tuple(general))

    def gradient_rows(self, k: int):
        """(G, c): block k's own gradient at x is G @ x + c, projected onto
        the tangent space of X_i's equalities when it has any; None for a
        linear block, whose gradient is constant."""
        a, e = self.cut[k], self.cut[k + 1]
        mine = (self.qpos >= a) & (self.qpos < e)
        if not mine.any():
            return None
        G = self.Q.reshape(-1, self.Q.shape[-1])[self.gather[mine]]
        c = self.c[a:e]
        P = dict(self.general).get(k)
        return (G, c) if P is None else (P @ G, P @ c)


def _graded_sections(R: GradedRows, x, eps_open: float) -> list:
    """Sections of N_{co P_i(x)}(x_i) ∩ S[0,1] for every graded block of R.

    Satiation (no improvement over X_i above eps_open, the verifier's
    emptiness test) means an empty preferred set, hence the whole space.
    Otherwise the generators are the (tangent-projected) negated utility
    gradient plus the active face normals of the player's own choice set --
    exactly the normals of the sup-level set at its boundary point x_i.

    A boxed block takes the terms of maximize and _own_quadratic
    elementwise, which over its one coordinate are their sums, so every
    verdict at eps_open is the verifier's.  Its unit gradient is exactly
    -sign(g), and a face normal repeats it only when they are equal to
    1e-12, the rule of ConeSection.from_vectors.  A general block tests
    satiation with is_satiated (a maximize over X_i) and builds its
    generators through from_vectors.
    """
    x = np.asarray(x, dtype=float)
    xo = x[R.own]
    gx = np.zeros(len(xo))
    if R.Q is not None:
        gx[R.qpos] = np.take(R.Q @ x, R.gather)
    g = gx + R.c
    a1 = gx - R.q * xo + R.c
    z = _clip_argmax(a1, R.q_clip, -R.bound[1], R.bound[0])
    if not np.isfinite(z).all():
        k = int(np.searchsorted(R.cut, np.argmin(np.isfinite(z)), side="right")) - 1
        raise UnboundedPreferenceError(f"player {R.pms[k].player}: improvement unbounded")
    slack = (np.where(R.quad, 0.5 * z * R.q * z + a1 * z, a1 * z)
             - (0.5 * xo * R.q * xo + a1 * xo))
    gnorm = np.abs(g)
    moves = gnorm >= 1e-12
    u = -g / np.where(moves, gnorm, 1.0)
    keep = ((_ROW_SIGNS * xo - R.bound >= R.thr)
            & ~(moves & (np.abs(_ROW_SIGNS * u - 1.0) <= 1e-12))).T

    out = [None] * len(R.pms)
    for k in R.boxed:
        a = R.cut[k]
        if slack[a] <= eps_open:
            out[k] = ConeSection.whole(1)
        else:
            gens = _ROW_SIGNS[keep[a]]
            out[k] = ConeSection(1, np.concatenate((u[None, a:a + 1], gens))
                                 if moves[a] else gens)
    for k, P in R.general:
        pm = R.pms[k]
        if is_satiated(pm, x, eps_open):
            out[k] = ConeSection.whole(pm.block_dim)
            continue
        gens = [-g[R.cut[k]:R.cut[k + 1]]]
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
