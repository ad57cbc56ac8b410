"""Projection-type methods for the VI/QVI reformulations, plus a grid oracle.

The VI route treats jointly convex games: iterate x <- proj_X(x - a t) with
t drawn from T(x), declare convergence when the hull residual

    r(x) = min over t in co T(x) of max over vertices v of <t, x - v>

drops below tolerance (a single t must witness all vertices -- that is the
existential quantifier in the VI).  Any point passing this test solves the
VI restricted to the enumerated vertex set exactly, and solving the VI is a
*sufficient* condition for equilibrium; the converse direction is not claimed
and genuinely fails on easy examples.

The QVI route projects blockwise onto the moving sets K_i(x).  Both co T(x)
and K(x) are products over the blocks, so its residual is a sum of one term
per block: a closed form for one generator or a 1-D block, else one small LP.

The grid oracle is the independent ground truth: it enumerates grid nodes
and applies the equilibrium definition directly (feasibility + emptiness of
each player's improvement set), sharing no code path with the residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lp
from .convexsets import (
    ConvexBody,
    EmptyBodyError,
    EnumerationError,
    _clip_argmax,
    _intervals,
    maximize,
)
from .game import (
    FixedConstraint,
    GameInstance,
    SharedSlice,
    Tolerances,
    constraint_body,
    membership_violation,
    verify_equilibrium,
)
from .operators import OperatorEval, evaluate_T, select
from .preferences import LinearUtility, QuadUtility, _own_quadratic, max_improvement


# iterations between periodic residual probes
_RESIDUAL_EVERY = 25
# a step (or a 2-cycle) shorter than this is a stall
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Settings of solve_vi and solve_qvi.

    A solve converges when its hull residual is at most residual_tol, and
    its operator T takes satiation from the solve's Tolerances.eps_open.
    The two numbers are not tied.  A block whose only generator is
    -∇u_i/|∇u_i| adds its improvement over K_i(x) divided by |∇u_i| to the
    residual, so with residual_tol above eps_open a run can converge at a
    point the certificate rejects.  random_qvi(9) at residual_tol=5e-7,
    restarts=4 and default Tolerances converges with residual
    1.476e-7 = 1.192e-7 + 2.84e-8, one term per block, but player 0's
    improvement 1.192e-7 exceeds eps_open = 1e-7; at residual_tol=5e-8 the
    same game is certified.  `converged` is the solver's own claim and the
    certificate judges it.

    method="extragradient" still stops at the halving cap without converging
    on about a third of random_qvi games (52 of seeds 0-149 at
    residual_tol=5e-7, restarts=4 and eps_open=1e-6, none of them certified);
    "projection" is the default.
    """

    method: str = "projection"  # or "extragradient"
    alpha: float = 0.5
    max_iters: int = 5000
    residual_tol: float = 1e-6
    restarts: int = 8
    seed: int = 0
    trace: bool = False


@dataclass
class SolveResult:
    """The best point of a solve.  restarts_used counts the attempts run and
    best_attempt (1 for the first) is the one whose point this is; iterations
    and trace belong to that attempt."""

    point: np.ndarray
    residual: float
    iterations: int
    converged: bool
    restarts_used: int
    best_attempt: int
    problem: str  # "vi" | "qvi"
    certificate: object = None
    trace: Optional[list] = None
    approximate: bool = False


# --------------------------------------------------------------------------
# residual


def _whole_block_generators(d):
    """LP-representable under-approximation of the unit ball: co{±e_k}."""
    eye = np.eye(d)
    return np.vstack([eye, -eye])


def hull_residual(op: OperatorEval, x, vertices):
    """(r, t): r = min over t in co T(x) of max_v <t, x - v>, via one LP.

    Whole-space blocks contribute the cross-polytope generators (which is an
    under-approximation containing 0, so convergence claims stay sound).
    Blocks with a zero cone contribute t_i = 0 and no variables.
    """
    x = np.asarray(x, dtype=float)
    V = np.asarray(vertices, dtype=float)
    m = len(V)
    gens, owners = [], []
    for i, cone in enumerate(op.blocks):
        sl = op.block_slice(i)
        if cone.whole_space:
            G = _whole_block_generators(sl.stop - sl.start)
        elif cone.n_generators == 0:
            continue
        else:
            G = cone.generators
        gens.append((i, sl, G))
    if not gens:
        return 0.0, np.zeros(op.dim)

    nvar = sum(len(G) for _, _, G in gens) + 1
    A_ub = np.zeros((m, nvar))
    at = 0
    for i, sl, G in gens:
        # (k, m): <g, x_i - v_i>
        d = (G @ x[sl])[:, None] - G @ V[:, sl].T
        A_ub[:, at : at + len(G)] = d.T
        at += len(G)
    A_ub[:, -1] = -1.0
    b_ub = np.zeros(m)
    A_eq = np.zeros((len(gens), nvar))
    pos = 0
    for r, (_, _, G) in enumerate(gens):
        A_eq[r, pos : pos + len(G)] = 1.0
        pos += len(G)
    b_eq = np.ones(len(gens))
    c = np.zeros(nvar)
    c[-1] = 1.0
    bounds = [(0, None)] * (nvar - 1) + [(None, None)]
    res = _lp.solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
    lam = res.x[:-1]
    t = np.zeros(op.dim)
    pos = 0
    for i, sl, G in gens:
        t[sl] = G.T @ lam[pos : pos + len(G)]
        pos += len(G)
    r_exact = float(np.max((x - V) @ t)) if m else 0.0
    return max(r_exact, 0.0), t


def _residual_prefilter(op: OperatorEval, x, V) -> float:
    """Cheap lower bound: max_v sum_i min_t <t_i, x_i - v_i>."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(len(V))
    for i, cone in enumerate(op.blocks):
        sl = op.block_slice(i)
        W = x[sl][None, :] - V[:, sl]
        if cone.whole_space:
            total -= np.max(np.abs(W), axis=1)
        elif cone.n_generators:
            total += np.min(W @ cone.generators.T, axis=1)
    return float(np.max(total)) if len(V) else 0.0


def residual_with_filter(op, x, V, tol):
    lb = _residual_prefilter(op, x, V)
    if lb > tol:
        return lb, None
    return hull_residual(op, x, V)


# --------------------------------------------------------------------------
# vertex suppliers and per-block residual terms


def _body_vertices(body: ConvexBody, rng) -> np.ndarray:
    try:
        vs = body.vertices()
    except EnumerationError:
        return body.boundary_samples(rng, 64)
    if not len(vs):
        raise EmptyBodyError("vertex set of an empty body")
    return vs


def _block_terms(K: ConvexBody, cone, xi, rng):
    """(lower bound, exact term, t_i, vertices) of one block of the QVI residual.

    The bound is the block's part of _residual_prefilter; the term is min over
    t_i in co G_i of max over v in K of <t_i, x_i - v>, or None when only the
    block's own LP gives it.  Raises EmptyBodyError when K's closure is empty.
    """
    if cone.n_generators == 1:
        # both are <g, x_i> + sigma_K(-g), with no vertices
        g, C = cone.generators[0], K.closure()
        if C.is_empty():
            raise EmptyBodyError("support over an empty body")
        try:
            r = float(g @ xi) + maximize(C, -g)[0]
            return r, r, g, None
        except _lp.UnboundedLP:
            return np.inf, np.inf, g, None
    V = _body_vertices(K, rng)
    lb = _residual_prefilter(OperatorEval((cone,), (0,)), xi, V)
    if cone.n_generators == 0 and not cone.whole_space:
        # the zero cone: co G_i is the point 0
        return lb, lb, cone.min_norm_point(), V
    if cone.dim == 1:
        # the whole space or unit generators of both signs: co G_i = [-1, 1];
        # max_v t (x_i - v) is convex in t with its only kink at 0
        W = xi[0] - V[:, 0]
        vals = [float(np.max(-W)), 0.0, float(np.max(W))]
        k = int(np.argmin(vals))
        return lb, vals[k], np.array([k - 1.0]), V
    return lb, None, None, V


# --------------------------------------------------------------------------
# iteration core


def _start(game: GameInstance, attempt: int, rng) -> np.ndarray:
    """Attempt 0 starts at interior points of the X_i, later attempts at
    random points; either goes onto the shared set when there is one."""
    blocks = []
    for pm in game.preferences:
        c = pm.ambient.interior_point() if attempt == 0 else pm.ambient.sample(rng, 1)[0]
        blocks.append(pm.ambient.project(np.zeros(pm.block_dim)) if c is None else c)
    x0 = game.join(blocks)
    return game.shared_set.project(x0) if game.jointly_convex else x0


class _SharedSetVI:
    """VI(T, X): projection onto the shared set X, whose vertices are fixed."""

    name = "vi"

    def __init__(self, game, rng):
        self.game = game
        self._vertices = _body_vertices(game.shared_set, rng)

    def project(self, x, t, alpha):
        return self.game.shared_set.project(x - alpha * t)

    def probe(self, op, x, tol=np.inf, eps=np.inf):
        """(r, t, feasible) at x; see residual_with_filter."""
        return (*residual_with_filter(op, x, self._vertices, tol), True)


class _MovingSlicesQVI:
    """QVI(T, K): blockwise projection onto the slices K_i(x), which move with x."""

    name = "qvi"

    def __init__(self, game, rng):
        self.game = game
        self._rng = rng

    def project(self, x, t, alpha):
        game = self.game
        blocks = []
        for i, pm in enumerate(game.preferences):
            target = pm.own(x) - alpha * t[pm.block]
            try:
                blocks.append(constraint_body(game, i, x).project(target))
            except EmptyBodyError:
                # a wandering rival profile has emptied this player's slice,
                # so x has left the shared set: take the step onto the shared
                # set instead, or onto X_i when there is none
                if game.jointly_convex:
                    return game.shared_set.project(x - alpha * t)
                blocks.append(pm.ambient.project(target))
        return game.join(blocks)

    def probe(self, op, x, tol=np.inf, eps=np.inf):
        """(r, t, feasible) at x: r is the sum of the blocks' lower bounds when
        that exceeds tol (t is then None), else the residual; (inf, None,
        False) when a slice is empty."""
        try:
            slices = [constraint_body(self.game, i, x) for i in range(self.game.n_players)]
            terms = [_block_terms(K, op.blocks[i], x[op.block_slice(i)], self._rng)
                     for i, K in enumerate(slices)]
        except EmptyBodyError:
            return np.inf, None, False
        feasible = all(membership_violation(K, pm.own(x)) <= eps
                       for K, pm in zip(slices, self.game.preferences))
        lb = sum(term[0] for term in terms)
        if lb > tol:
            return lb, None, feasible
        r, t = 0.0, np.zeros(op.dim)
        for i, (_, r_i, t_i, V) in enumerate(terms):
            sl = op.block_slice(i)
            if r_i is None:
                t_i = hull_residual(OperatorEval((op.blocks[i],), (0,)), x[sl], V)[1]
                r_i = float(np.max((x[sl] - V) @ t_i))
            r += r_i
            t[sl] = t_i
        return max(r, 0.0), t, feasible


def _run_from(game, x0, config: SolverConfig, problem, tol: Tolerances):
    x = np.asarray(x0, dtype=float)
    alpha = config.alpha
    halvings = 0
    best_r, best_x, best_it = np.inf, x.copy(), 0
    trace = [] if config.trace else None
    x_prev = None
    approx = False

    def probe(k, op_c, xc):
        """Residual at xc, recorded as the best point when feasible; returns
        (r, accepted).  The closing probe (k == max_iters) is not traced."""
        nonlocal best_r, best_x, best_it
        r, _, feas_ok = problem.probe(op_c, xc, config.residual_tol, tol.eps_feas)
        if trace is not None and k < config.max_iters:
            trace.append({"iter": k, "residual": float(r), "alpha": alpha})
        if r < best_r and feas_ok:
            best_r, best_x, best_it = r, xc.copy(), k
        return r, r <= config.residual_tol and feas_ok

    def halve():
        nonlocal alpha, halvings
        alpha *= 0.5
        halvings += 1
        return alpha < 1e-8 or halvings > 60

    last_probe_r = np.inf
    for k in range(config.max_iters):
        op = evaluate_T(game, x, tol, config.seed)
        approx = approx or op.approximate
        t = select(op)

        if k % _RESIDUAL_EVERY == 0 or np.linalg.norm(t) <= 1e-14:
            r, accepted = probe(k, op, x)
            if accepted:
                return x, r, k, True, trace, approx
            # normalized directions limit-cycle at radius ~alpha near interior
            # maxima; damp whenever a probe shows no progress
            if k > 0 and r >= last_probe_r - 1e-12 and halve():
                break
            last_probe_r = r

        if config.method == "extragradient":
            y = problem.project(x, t, alpha)
            t2 = select(evaluate_T(game, y, tol, config.seed))
            # 0 in T(y) makes y a solution candidate: step onto it, so the
            # next iteration's probe judges it
            x_new = y if np.linalg.norm(t2) <= 1e-14 else problem.project(x, t2, alpha)
        else:
            x_new = problem.project(x, t, alpha)

        cycling = x_prev is not None and np.linalg.norm(x_new - x_prev) <= _STEP_TOL
        if np.linalg.norm(x_new - x) <= _STEP_TOL or cycling:
            r, accepted = probe(k, op, x)
            if accepted:
                return x, r, k, True, trace, approx
            # fixed point (or 2-cycle) of this step size that is not a
            # solution: shrink the step and keep going
            if halve():
                break
        x_prev = x
        x = x_new
    else:
        # out of iterations: probe the last iterate with T taken there
        op = evaluate_T(game, x, tol, config.seed)
        approx = approx or op.approximate
    probe(config.max_iters, op, x)
    return best_x, best_r, best_it, best_r <= config.residual_tol, trace, approx


def _solve(game: GameInstance, config: SolverConfig, problem_type,
           tol: Tolerances) -> SolveResult:
    rng = np.random.default_rng(config.seed)
    best = None
    for attempt in range(max(1, config.restarts)):
        x0 = _start(game, attempt, rng)
        problem = problem_type(game, rng)
        x, r, iters, ok, trace, approx = _run_from(game, x0, config, problem, tol)
        cand = SolveResult(x, r, iters, ok, restarts_used=attempt + 1,
                           best_attempt=attempt + 1, problem=problem.name,
                           trace=trace, approximate=approx)
        if best is None or cand.residual < best.residual:
            best = cand
        if ok:
            break
    best.restarts_used = attempt + 1
    best.certificate = verify_equilibrium(game, best.point, tol, seed=config.seed)
    return best


def solve_vi(game: GameInstance, config: SolverConfig = SolverConfig(),
             tol: Tolerances = Tolerances()) -> SolveResult:
    """Solve VI(T, shared set) for a jointly convex game."""
    if not game.jointly_convex:
        raise ValueError("solve_vi needs a jointly convex game (shared set)")
    return _solve(game, config, _SharedSetVI, tol)


def solve_qvi(game: GameInstance, config: SolverConfig = SolverConfig(),
              tol: Tolerances = Tolerances()) -> SolveResult:
    """Solve QVI(T, K): blockwise projections onto the moving constraint sets."""
    return _solve(game, config, _MovingSlicesQVI, tol)


def _residual_at(game, x, problem_type, tol, seed):
    x = np.asarray(x, dtype=float)
    problem = problem_type(game, np.random.default_rng(seed))
    return problem.probe(evaluate_T(game, x, tol, seed), x)[:2]


def vi_residual(game: GameInstance, x, seed: int = 0, tol: Tolerances = Tolerances()):
    """(r, t) of the hull residual at x over the shared set's vertices, with
    T's satiation test at tol.eps_open, as in a solve at tol."""
    if not game.jointly_convex:
        raise ValueError("vi_residual needs a jointly convex game")
    return _residual_at(game, x, _SharedSetVI, tol, seed)


def qvi_residual(game: GameInstance, x, seed: int = 0, tol: Tolerances = Tolerances()):
    """(r, t) of the hull residual at x over the slices K_i(x), summed block
    by block, with T's satiation test at tol.eps_open; (inf, None) when a
    slice is empty."""
    return _residual_at(game, x, _MovingSlicesQVI, tol, seed)


# --------------------------------------------------------------------------
# grid oracle


@dataclass
class OracleResult:
    h: float
    nodes_checked: int
    feasible_count: int
    certified: np.ndarray
    improvements: np.ndarray
    disagreements: list  # {"node", "verifier", "oracle"} dicts
    cross_checked: int


_ORACLE_NODE_CAP = 2_000_000


def _axis_grid(lo, hi, h):
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise EnumerationError("grid over unbounded range")
    k = int(np.floor((hi - lo) / h + 1e-9))
    vals = lo + h * np.arange(k + 1)
    if hi - vals[-1] > 1e-9:
        vals = np.append(vals, hi)
    return vals


def _simplex_grid(dim, scale, h):
    M = scale / h
    if abs(M - round(M)) > 1e-9:
        M = max(1, round(M))
        h = scale / M
    M = int(round(M))
    nodes = []
    for comp in itertools.product(range(M + 1), repeat=dim - 1):
        s = sum(comp)
        if s <= M:
            nodes.append(tuple(comp) + (M - s,))
    return np.array(nodes, dtype=float) * h


def _block_grid(body: ConvexBody, h: float) -> np.ndarray:
    if body.kind == "simplex":
        return _simplex_grid(body.dim, body.scale, h)
    lo, hi = body.bounding_box()
    axes = [_axis_grid(lo[j], hi[j], h) for j in range(body.dim)]
    total = 1
    for a in axes:
        total *= len(a)
    if total > _ORACLE_NODE_CAP:
        raise EnumerationError(f"block grid too large ({total} nodes)")
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    if body.kind == "box":
        return pts
    return pts[_inside_mask(body, pts)]


def _inside_mask(body: ConvexBody, pts: np.ndarray) -> np.ndarray:
    """Rows of pts in the closure of body, to 1e-9: none when body.is_empty()
    (strict rows included; hrep() leaves out the zero row that empties a
    poisoned body), else those within its rows (an equality as its +/-
    pair) when it is polyhedral, else by its own membership test."""
    if body.is_empty():
        return np.zeros(len(pts), dtype=bool)
    h = body.hrep()
    if h is None:
        return np.array([body.contains(z, 1e-9, 0.0) for z in pts], dtype=bool)
    return np.all(pts @ h[0].T - h[1] <= 1e-9, axis=1)


def _feasible_mask(game: GameInstance, nodes: np.ndarray) -> np.ndarray:
    mask = np.ones(len(nodes), dtype=bool)
    for i, (pm, con) in enumerate(zip(game.preferences, game.constraints)):
        if isinstance(con, SharedSlice):
            continue
        if isinstance(con, FixedConstraint):
            mask &= _inside_mask(con.body, nodes[:, pm.block])
        else:  # Parametric
            if con.batch_feasible is not None:
                mask &= np.asarray(con.batch_feasible(nodes), dtype=bool)
            else:
                keep = mask.nonzero()[0]
                for idx in keep:
                    body = con.build(nodes[idx])
                    if membership_violation(body, nodes[idx][pm.block]) > 1e-9:
                        mask[idx] = False
    if game.jointly_convex:
        mask &= _inside_mask(game.shared_set, nodes)
    return mask


def _rival_groups(nodes: np.ndarray, block: slice):
    """(first, inverse): the nodes sharing a rival profile (off-block
    columns) form one group; first[g] is the first node of group g and
    inverse[k] the group of node k."""
    rivals = np.delete(nodes, np.arange(block.start, block.stop), axis=1)
    if rivals.shape[1] == 0:
        return np.zeros(1, dtype=int), np.zeros(len(nodes), dtype=int)
    _, first, inverse = np.unique(np.round(rivals, 12), axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


def _batch_support(body: ConvexBody, C: np.ndarray) -> np.ndarray:
    """Row-wise max of <c, z> over z in body for a matrix of objectives."""
    if body.kind == "box":  # a zero coefficient adds 0, also against an infinite bound
        return (C * np.where(C > 0, body.hi, np.where(C < 0, body.lo, 0.0))).sum(axis=1)
    if body.kind == "simplex":
        return body.scale * C.max(axis=1)
    V = body.vertices()
    if not len(V):
        raise EmptyBodyError("support over empty body")
    return (C @ V.T).max(axis=1)


def _group_maxima(game: GameInstance, pm, reps: np.ndarray, A2, a1):
    """max of 0.5 z'A2 z + <a1[g], z> over K_i(reps[g]) for every rival
    group g in one pass, inf where the slice is empty or the maximum
    unbounded; None when the batch cannot score the player.

    A shared-set slice of a 1-D block is an interval by the ratio test and
    the maximum is a clip; an n-D slice with a vertex form and a linear
    objective takes its best feasible candidate.  A fixed body with a
    linear objective is one support evaluation per group.
    """
    con = game.constraints[pm.player]
    linear = np.abs(A2).max(initial=0.0) <= 1e-13
    if isinstance(con, FixedConstraint):
        if not linear:
            return None
        try:
            return _batch_support(con.body, a1)
        except EmptyBodyError:
            return np.full(len(a1), np.inf)
        except EnumerationError:
            return None
    if not isinstance(con, SharedSlice):
        return None
    A, _, b_X, b, rival, scale = game._slice_rows[pm.player]
    B = np.hstack([np.broadcast_to(b_X, (len(reps), len(b_X))),
                   (b - reps @ rival.T) / scale])
    if pm.block_dim == 1:
        # maximize's 1-D forms: a linear maximum reads no curvature
        q = 0.0 if linear else A2[0, 0]
        if q > 0.0:
            return None
        lo, hi, empty = _intervals(A[:, 0], B)
        lo[empty] = hi[empty] = 0.0
        c = a1[:, 0]
        z = _clip_argmax(c, q, lo, hi)
        M = np.where(c != 0.0, c * z, 0.0) if linear else 0.5 * z * q * z + c * z
        M[empty | ~np.isfinite(z)] = np.inf
        return M
    form = game._slice_forms[pm.player]
    if not linear or form is None:
        return None
    M = form.support(B, a1)
    M[M == -np.inf] = np.inf
    return M


def _improvements_for_player(game: GameInstance, pm, nodes_f: np.ndarray,
                             tol: Tolerances, seed: int) -> np.ndarray:
    """Exact best improvement per feasible node: the graded variants score
    every rival group in one pass (_group_maxima) where they can; the rest
    go group by group (_improvements_per_group)."""
    if not len(nodes_f):
        return np.empty(0)
    if not isinstance(pm.variant, (LinearUtility, QuadUtility)):
        return _improvements_per_group(game, pm, nodes_f, tol, seed)
    first, inverse = _rival_groups(nodes_f, pm.block)
    reps = nodes_f[first]
    # _own_quadratic at every representative: A2 is fixed, a1 moves with the rivals
    v = pm.variant
    if isinstance(v, QuadUtility):
        A2 = v.Q[pm.block, pm.block]
        a1 = reps @ v.Q[pm.block].T - reps[:, pm.block] @ A2 + v.c[pm.block]
    else:
        A2 = np.zeros((pm.block_dim, pm.block_dim))
        a1 = np.tile(v.c[pm.block], (len(reps), 1))
    M = _group_maxima(game, pm, reps, A2, a1)
    if M is None:
        return _improvements_per_group(game, pm, nodes_f, tol, seed)
    Z = nodes_f[:, pm.block]
    a1 = a1[inverse]
    return M[inverse] - (0.5 * np.einsum("kj,jl,kl->k", Z, A2, Z) + np.einsum("kj,kj->k", Z, a1))


def _improvements_per_group(game: GameInstance, pm, nodes_f: np.ndarray,
                            tol: Tolerances, seed: int) -> np.ndarray:
    """Best improvement per feasible node, one constraint_body and maximize
    (or max_improvement per node for set-valued variants) per rival group."""
    out = np.empty(len(nodes_f))
    graded = isinstance(pm.variant, (LinearUtility, QuadUtility))
    i = pm.player
    first, inverse = _rival_groups(nodes_f, pm.block)
    for g, rep in enumerate(nodes_f[first]):
        idx = np.nonzero(inverse == g)[0]
        # an empty slice scores inf, whether building it, its closed-form
        # support, the support LP or the QP finds it empty
        try:
            K = constraint_body(game, i, rep)
            if graded:
                A2, a1, _ = _own_quadratic(pm, rep)
                M, _ = maximize(K, a1, A2)
        except (EmptyBodyError, _lp.InfeasibleLP, _lp.UnboundedLP):
            out[idx] = np.inf
            continue
        if graded:
            Z = nodes_f[idx][:, pm.block]
            vals = 0.5 * np.einsum("kj,jl,kl->k", Z, A2, Z) + Z @ a1
            out[idx] = M - vals
        else:
            for j in idx:
                out[j], _ = max_improvement(pm, nodes_f[j], K, tol.eps_open, seed)
    return out


def grid_oracle(game: GameInstance, h: float, tol: Tolerances = Tolerances(),
                cross_check: bool = True, cross_sample: int = 300,
                seed: int = 0) -> OracleResult:
    """Definition-based equilibrium search on an h-grid.

    Certification is independent of the operator/residual machinery: a node
    passes iff it is feasible and no player can strictly improve within their
    constraint slice (improvements computed by direct maximization).  When
    cross_check is on, every certified node and a sample of rejected ones are
    re-judged by verify_equilibrium and disagreements are reported.
    Raises ValueError unless h is finite and positive.
    """
    if not (np.isfinite(h) and h > 0.0):
        raise ValueError(f"grid step h must be finite and positive, got {h}")
    grids = [_block_grid(pm.ambient, h) for pm in game.preferences]
    total = 1
    for g in grids:
        total *= len(g)
    if total > _ORACLE_NODE_CAP:
        raise EnumerationError(f"joint grid too large ({total} nodes)")
    nodes = grids[0]
    for g in grids[1:]:
        nodes = np.hstack([np.repeat(nodes, len(g), axis=0), np.tile(g, (len(nodes), 1))])
    mask = _feasible_mask(game, nodes)
    nodes_f = nodes[mask]

    imp = np.empty((len(nodes_f), game.n_players))
    for pm in game.preferences:
        imp[:, pm.player] = _improvements_for_player(game, pm, nodes_f, tol, seed)
    ok = np.all(imp <= tol.eps_open, axis=1)
    certified = nodes_f[ok]
    cert_imp = imp[ok]

    disagreements = []
    checked = 0
    if cross_check:
        rng = np.random.default_rng(seed)
        idx_no = np.nonzero(~ok)[0]
        if len(idx_no) > cross_sample:
            idx_no = rng.choice(idx_no, size=cross_sample, replace=False)
        for node, oracle_ok in itertools.chain(
            ((certified[j], True) for j in range(len(certified))),
            ((nodes_f[j], False) for j in idx_no),
        ):
            cert = verify_equilibrium(game, node, tol, seed=seed)
            checked += 1
            if cert.is_equilibrium != oracle_ok:
                disagreements.append(
                    {"node": node, "verifier": cert.is_equilibrium, "oracle": oracle_ok})

    order = np.lexsort(certified.T[::-1]) if len(certified) else np.array([], dtype=int)
    return OracleResult(
        h=h,
        nodes_checked=int(total),
        feasible_count=int(mask.sum()),
        certified=certified[order],
        improvements=cert_imp[order],
        disagreements=disagreements,
        cross_checked=checked,
    )
