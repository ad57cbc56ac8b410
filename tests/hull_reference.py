"""The hull-residual reference the residual tests compare against: one LP in
the generator weights of every block over a vertex list, kept out of
gnepkit, whose hull_residual reads the body's support function (one
maximize, the epigraph's vertices, or one LP in the body's rows)."""

import numpy as np

from gnepkit import _lp


def hull_residual_lp(op, x, V):
    """(r, t): min over t in co T(x) of max_v <t, x - v> by one LP, with the
    cross polytope co{±e_k} for a whole-space block; r = max(max_v <t, x -
    v>, 0) at the LP's t."""
    x = np.asarray(x, dtype=float)
    V = np.asarray(V, dtype=float)
    gens = []
    for i, cone in enumerate(op.blocks):
        sl = op.block_slice(i)
        if cone.whole_space:
            eye = np.eye(sl.stop - sl.start)
            gens.append((sl, np.vstack([eye, -eye])))
        elif cone.n_generators:
            gens.append((sl, cone.generators))
    if not gens:
        return 0.0, np.zeros(op.dim)
    k = [len(G) for _, G in gens]
    nvar = sum(k) + 1
    # row v: <g, x_i - v_i> for every generator g, then -1 for the bound s
    A_ub = np.hstack([(x[sl] - V[:, sl]) @ G.T for sl, G in gens] + [-np.ones((len(V), 1))])
    A_eq = np.zeros((len(gens), nvar))
    at = np.cumsum([0] + k)
    for r in range(len(gens)):
        A_eq[r, at[r]:at[r + 1]] = 1.0
    c = np.zeros(nvar)
    c[-1] = 1.0
    res = _lp.solve_lp(c, A_ub, np.zeros(len(V)), A_eq, np.ones(len(gens)),
                       [(0, None)] * (nvar - 1) + [(None, None)])
    t = np.zeros(op.dim)
    for r, (sl, G) in enumerate(gens):
        t[sl] = G.T @ res.x[at[r]:at[r + 1]]
    return max(float(np.max((x - V) @ t)), 0.0), t
