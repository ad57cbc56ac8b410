"""The set-valued operator T(x) = prod_i co(N_i(x) ∩ S[0,1]).

N_i(x) is the normal cone to the convexified preferred set of player i at
their own strategy block, with the whole-space convention when that set is
empty (a satiated player constrains nothing).  Blocks whose choice set lives
in a lower-dimensional affine slice (the price simplex) are handled relative
to that slice: gradients and face normals are projected onto the tangent
space, so the lineality directions of the ambient normal cone never enter T.
Without that, T would contain 0 everywhere on such blocks and the variational
reformulation would be vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convexsets
from .convexsets import DEFAULT_EPS_OPEN, ConeSection, ConvexBody
from .game import Tolerances
from .preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    convexified_set,
    is_satiated,
    own_gradient,
)

_GRADED = (LinearUtility, QuadUtility)


@dataclass(frozen=True)
class OperatorEval:
    """Blockwise sections of T(x), plus the block layout they refer to."""

    blocks: tuple
    starts: tuple

    @property
    def dim(self) -> int:
        return self.starts[-1] + self.blocks[-1].dim

    @property
    def any_whole_space(self) -> bool:
        return any(b.whole_space for b in self.blocks)

    @property
    def approximate(self) -> bool:
        return any(b.approximate for b in self.blocks)

    def block_slice(self, i: int) -> slice:
        return slice(self.starts[i], self.starts[i] + self.blocks[i].dim)


def tangent_projector(body: ConvexBody) -> np.ndarray:
    """Orthogonal projector onto the tangent space of body's equalities."""
    C, d = body.equalities()
    P = np.eye(body.dim)
    if len(d):
        # rows are unit but possibly redundant; pseudo-inverse is safe
        P -= C.T @ np.linalg.pinv(C @ C.T) @ C
    return P


def normal_map(pm: PreferenceMap, x, eps_open: float = DEFAULT_EPS_OPEN,
               seed: int = 0) -> ConeSection:
    """Section of N_{co P_i(x)}(x_i) ∩ S[0,1] as unit generators.

    Graded variants: satiation (no improvement above eps_open, the verifier's
    emptiness test) means an empty preferred set, hence the whole space.
    Otherwise the generators are the (tangent-projected) negated utility
    gradient plus the active face normals of the player's own choice set --
    exactly the normals of the sup-level set at its boundary point x_i.
    Set-valued variants go through the convexified region's geometry, empty
    at the same eps_open, and inherit its approximate flag.
    """
    x = np.asarray(x, dtype=float)
    xi = pm.own(x)
    d = pm.block_dim
    # the projector is the identity unless the choice set has equalities
    P_t = tangent_projector(pm.ambient) if len(pm.ambient.equalities()[1]) else None

    if isinstance(pm.variant, _GRADED):
        if is_satiated(pm, x, eps_open, seed):
            return ConeSection.whole(d)
        gens = [-own_gradient(pm, x)]
        gens.extend(convexsets._active_normals(pm.ambient, xi))
        if P_t is not None:
            gens = [P_t @ v for v in gens]
        return ConeSection.from_vectors(gens, d)

    region = convexified_set(pm, x, eps_open, seed)
    approx = bool(getattr(region, "approximate", False))
    if region.is_empty(eps_open):
        return ConeSection.whole(d)
    body = region.body if hasattr(region, "body") else region
    cone = convexsets.normal_cone_generators(body, xi)
    if cone.whole_space:
        return ConeSection.whole(d)
    gens = cone.generators
    if P_t is not None:
        gens = [P_t @ v for v in gens]
    return ConeSection.from_vectors(gens, d, approximate=approx or cone.approximate)


def evaluate_T(game, x, tol: Tolerances = Tolerances(), seed: int = 0) -> OperatorEval:
    """All player blocks of T at the joint point x; a block is satiated (the
    whole space) when its best improvement is at most tol.eps_open."""
    blocks, starts = [], []
    for pm in game.preferences:
        starts.append(pm.block_start)
        blocks.append(normal_map(pm, x, tol.eps_open, seed))
    return OperatorEval(tuple(blocks), tuple(starts))


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
