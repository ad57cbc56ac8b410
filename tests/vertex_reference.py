"""The exact vertex reference the vertex tests compare against: one linear
solve per n-row subset, deduplicated pair by pair, kept out of gnepkit,
whose one enumerator is convexsets.VertexForm."""

import itertools
import math

import numpy as np

from gnepkit.convexsets import (
    _VERTEX_DEDUP,
    _VERTEX_FEAS_RTOL,
    _VERTEX_SUBSET_CAP,
    EnumerationError,
)


def sorted_unique_pairwise(vs):
    """convexsets._sorted_unique with its final pass over every pair of kept
    rows, quadratic in their number."""
    vs = vs[np.lexsort(vs.T[::-1])]
    keep = [0]
    for i in range(1, len(vs)):
        if np.linalg.norm(vs[i] - vs[keep[-1]]) > _VERTEX_DEDUP:
            keep.append(i)
    uniq = []
    for v in vs[keep]:
        if all(np.linalg.norm(v - u) > _VERTEX_DEDUP for u in uniq):
            uniq.append(v)
    return np.array(uniq)


def _enumerate_vertices(A, b):
    """Feasible points where n independent rows are tight.

    A row subset that is singular only up to rounding (rows repeating a
    plane) still solves, to some point of a face; the rank of the rows tight
    there tells such a point from a vertex.
    """
    m, n = A.shape
    if math.comb(m, n) > _VERTEX_SUBSET_CAP:
        raise EnumerationError(f"too many row subsets ({m} choose {n})")
    tol = _VERTEX_FEAS_RTOL * (1.0 + np.abs(b))
    out = []
    for S in itertools.combinations(range(m), n):
        sub = A[list(S)]
        try:
            v = np.linalg.solve(sub, b[list(S)])
        except np.linalg.LinAlgError:
            continue
        gap = A @ v - b
        if np.all(gap <= tol) and np.linalg.matrix_rank(A[np.abs(gap) <= tol]) == n:
            out.append(v)
    if not out:
        return np.zeros((0, n))
    return sorted_unique_pairwise(np.array(out))
