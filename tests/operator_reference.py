"""The reference the operator tests compare against: one graded block of T
at a time, satiation by max_improvement over X_i, then the negated own
gradient plus the active face normals through ConeSection.from_vectors.  It
is kept out of gnepkit, whose one graded path is the pass of
operators._graded_sections over all graded blocks."""

import numpy as np

from gnepkit.convexsets import ConeSection, _active_normals, tangent_projector
from gnepkit.preferences import LinearUtility, max_improvement


def own_gradient(pm, x):
    """Gradient of the player's utility in their own block at joint x."""
    v = pm.variant
    if isinstance(v, LinearUtility):
        return v.c[pm.block].copy() if v.c.size == x.size else v.c.copy()
    if v.Q.shape[0] == x.size:
        return (v.Q @ x + v.c)[pm.block]
    return v.Q @ pm.own(x) + v.c


def graded_section(pm, x, eps_open):
    x = np.asarray(x, dtype=float)
    slack = max_improvement(pm, x, pm.ambient, eps_open)
    if slack <= eps_open:
        return ConeSection.whole(pm.block_dim)
    gens = [-own_gradient(pm, x)]
    gens.extend(_active_normals(pm.ambient, pm.own(x)))
    if len(pm.ambient.equalities()[1]):
        P = tangent_projector(pm.ambient)
        gens = [P @ v for v in gens]
    return ConeSection.from_vectors(gens, pm.block_dim)
