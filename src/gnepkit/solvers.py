"""One projection method for the VI/QVI reformulations, plus a grid oracle.

Both routes take one step rule, x <- proj(x - a t) with t selected from
T(x), halving a when the residual stalls.  The VI route treats jointly
convex games: it projects onto the shared set X and declares convergence
when the hull residual

    r(x) = min over t in co T(x) of <t, x> + sigma_X(-t),

sigma_X the support function of X's closure, drops below
SolverConfig.residual_tol, by default the certificate's eps_open (a single t
must witness every point of X -- that is the existential quantifier in the
VI).  hull_residual reads it from the support function alone, over a
bounded or unbounded X, with or without a vertex list; it is exact, save
that a whole-space block of 2 or more dimensions enters as a cross polytope,
which can only raise r.  Any point passing this test solves the VI, and
solving the VI is a *sufficient* condition for equilibrium; the converse
direction is not claimed and genuinely fails on easy examples.

The QVI route projects blockwise onto the moving sets K_i(x).  Both co T(x)
and K(x) are products over the blocks, so its residual is the sum of one
hull_residual per block over that block's slice.

The grid oracle is the independent ground truth: it enumerates grid nodes
and applies the equilibrium definition directly (feasibility + emptiness of
each player's improvement set), sharing no code path with the residual.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lp
from .convexsets import (
    _VERTEX_FORM_SUBSETS,
    DEFAULT_EPS_OPEN,
    EPS_ACTIVE,
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
from .preferences import (
    LinearUtility,
    QuadUtility,
    _own_linear_terms,
    _own_quadratic,
    max_improvement,
)


# iterations between periodic residual probes
_RESIDUAL_EVERY = 25
# a step (or a 2-cycle) shorter than this is a stall
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Settings of solve_vi and solve_qvi.

    A solve converges when its hull residual is at most residual_tol, and
    its operator T takes satiation from the solve's Tolerances.eps_open.
    residual_tol defaults to the default eps_open (DEFAULT_EPS_OPEN, 1e-7),
    the certificate's tolerance, but the two numbers are not tied when
    either is set.  A block whose only generator is -∇u_i/|∇u_i| adds its
    improvement over K_i(x) divided by |∇u_i| to the residual, so with
    residual_tol above eps_open a run can converge at a point the
    certificate rejects.  random_qvi(189), two linear players with unit
    gradients, at residual_tol=5e-7, restarts=4 and default Tolerances
    converges with residual 4.333e-7 = 2.044e-7 + 2.289e-7, one term per
    block, but both improvements exceed eps_open = 1e-7; at
    residual_tol=5e-8 the same game is certified.  `converged` is the
    solver's own claim and the certificate judges it.

    A jointly convex game's run tries one finish step (_Finish) at each
    periodic probe after the first that does not accept: the point nearest
    x on the face the iterates identified, judged by the same probe.  It
    has no option.
    """

    alpha: float = 0.5
    max_iters: int = 5000
    residual_tol: float = DEFAULT_EPS_OPEN
    restarts: int = 8
    seed: int = 0
    trace: bool = False


@dataclass
class SolveResult:
    """The best point of a solve.  restarts_used counts the attempts run and
    best_attempt (1 for the first) is the one whose point this is; iterations
    and trace belong to that attempt.  finish_tried and finish_accepted count
    the finish steps (_Finish) that the probe judged, and those it accepted,
    over all attempts.  approximate is the game's sampled flag, the same as
    the certificate's: True exactly when some player's preference is a
    RelationOracle, known only through samples, so that neither converged
    nor the certificate is then an exact claim."""

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
    finish_tried: int = 0
    finish_accepted: int = 0


# --------------------------------------------------------------------------
# residual


def hull_residual(op: OperatorEval, x, body: ConvexBody):
    """(r, t): r = min over t in co T(x) of <t, x> + sigma_body(-t), and a t
    there; r is +inf where sigma_body(-t) is unbounded for every such t.

    sigma is the support function of body's closure, so on the body r >= 0,
    and r = 0 exactly when x maximises <-t, .> over it for some t in
    co T(x); off the body r may be negative, and r is returned unclipped.
    The first case that applies gives r:
      1. every block's hull co G_i is a point (one generator, or 0 for a
         zero cone): r = <t, x> + maximize(body, -t);
      2. a Ball: r = 0 at t = 0 when every block is the whole space or a
         zero cone, so that 0 is in co T(x); else EnumerationError;
      3. every hull is a point or an interval, body.vertices() enumerates
         a vertex list V (so sigma_body(-t) = max_v <-t, v>) and the
         candidates fit _VERTEX_FORM_SUBSETS: the least of max_v <t, x - v>
         over the epigraph's vertices (_interval_hull_candidates), exact and
         finite;
      4. one LP in the closure's rows (_rows_lp).
    A whole-space block of 2 or more dimensions enters 4 as the cross
    polytope co{±e_k}, which contains 0 and lies in the unit ball, so r can
    only come out too large and a convergence claim stays sound.  Raises
    EmptyBodyError when the closure is empty.
    """
    x = np.asarray(x, dtype=float)
    C = body.closure()
    if C.is_empty():
        raise EmptyBodyError("hull residual over an empty body")
    intervals = _hull_intervals(op)
    if intervals is not None and not intervals[1]:
        return _support_residual(C, x, intervals[0])
    if C._rows is None:
        if all(cone.whole_space or not cone.n_generators for cone in op.blocks):
            return 0.0, np.zeros(op.dim)
        raise EnumerationError("no hull residual over a Ball unless every block's hull "
                               "is a point, or every block is the whole space or 0")
    try:
        V = C.vertices()
    except EnumerationError:
        return _rows_lp(op, x, C)
    if intervals is None or _n_hull_candidates(len(V), len(intervals[1])) > _VERTEX_FORM_SUBSETS:
        return _rows_lp(op, x, C)
    t, W, lo, hi = intervals
    W, lo, hi = np.array(W), np.array(lo), np.array(hi)
    # max_v <t, x - v> = a_v + B_v t_W, with t_W in the box [lo, hi]
    a, B = (x - V) @ t, x[W] - V[:, W]
    S = _interval_hull_candidates(a, B, lo, hi)
    t[W] = S[np.argmin(np.max(a[:, None] + B @ S.T, axis=0))]
    return float(np.max((x - V) @ t)), t


def residual_with_filter(op, x, body):
    """The VI probe's residual: (r, t) of hull_residual over body, r
    clipped at 0.  The benchmark's tracer counts the probes by this name."""
    r, t = hull_residual(op, x, body)
    return max(r, 0.0), t


def _support_residual(body: ConvexBody, x, t):
    """(<t, x> + sigma_body(-t), t) for a nonempty body; +inf when sigma is
    unbounded."""
    try:
        return float(t @ x) + maximize(body, -t)[0], t
    except _lp.UnboundedLP:
        return np.inf, t


def _whole_block_generators(d):
    """LP-representable under-approximation of the unit ball: co{±e_k}."""
    eye = np.eye(d)
    return np.vstack([eye, -eye])


def _rows_lp(op: OperatorEval, x, body: ConvexBody):
    """hull_residual by one LP in the rows (A, b) of the nonempty closure
    body: by LP duality sigma_body(-t) = min b'mu over mu >= 0 with A'mu +
    t = 0, so r is the least of <t, x> + b'mu over t = sum_i G_i' lam_i
    (each block's weights lam_i >= 0 summing to 1; the cross polytope for a
    whole-space block, none for a zero cone) and such mu.  An infeasible LP
    means sigma_body(-t) = +inf for every t of the hull: r = +inf at the
    generators' mean.  Otherwise r is read again at the LP's t by maximize,
    so a convergence claim rests on a t it evaluated."""
    A, b, _ = body._rows
    gens = [(op.block_slice(i),
             _whole_block_generators(cone.dim) if cone.whole_space else cone.generators)
            for i, cone in enumerate(op.blocks) if cone.whole_space or cone.n_generators]
    n = op.dim
    at = np.cumsum([0] + [len(G) for _, G in gens])
    A_eq = np.zeros((n + len(gens), at[-1] + len(b)))
    A_eq[:n, at[-1]:] = A.T
    for k, (sl, G) in enumerate(gens):
        A_eq[sl, at[k]:at[k + 1]] = G.T
        A_eq[n + k, at[k]:at[k + 1]] = 1.0
    c = np.concatenate([G @ x[sl] for sl, G in gens] + [b])
    b_eq = np.concatenate([np.zeros(n), np.ones(len(gens))])
    t = np.zeros(n)
    try:
        lam = _lp.solve_lp(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None)).x
    except _lp.InfeasibleLP:
        for sl, G in gens:
            t[sl] = G.mean(axis=0)
        return np.inf, t
    for k, (sl, G) in enumerate(gens):
        t[sl] = G.T @ lam[at[k]:at[k + 1]]
    return _support_residual(body, x, t)


def _hull_intervals(op: OperatorEval):
    """(t, W, lo, hi) when every block's co G_i is a point or an interval,
    else None: t holds the points (0 on the intervals), and coordinate W[k]
    ranges over [lo[k], hi[k]] (lists, empty when every hull is a point)."""
    t = np.zeros(op.dim)
    W, lo, hi = [], [], []
    for start, cone in zip(op.starts, op.blocks):
        G = cone.generators
        if cone.dim == 1 and (cone.whole_space or len(G) > 1):
            W.append(start)
            lo.append(-1.0 if cone.whole_space else G.min())
            hi.append(1.0 if cone.whole_space else G.max())
        elif len(G) == 1:
            t[start:start + cone.dim] = G[0]
        elif cone.whole_space or len(G):
            return None
    return t, W, lo, hi


def _n_hull_candidates(m: int, d: int) -> int:
    """The number of rows _interval_hull_candidates builds for m pieces
    over d interval coordinates."""
    return sum(math.comb(d, f) * 2 ** (d - f) * (math.comb(m, f + 1) if f else 1)
               for f in range(d + 1))


def _interval_hull_candidates(a, B, lo, hi) -> np.ndarray:
    """Points s of the box [lo, hi] among which one minimises max_v (a_v +
    B_v s): the s of every vertex of the epigraph, clipped into the box.

    A vertex has d + 1 independent tight rows.  So p of the coordinates are
    pinned at a bound and f = d - p are free, with f + 1 pieces equal there:
    one f x f solve per choice of coordinates, bounds and pieces (a singular
    choice has no vertex).  By the fundamental theorem of linear programming
    a minimiser is among them; a row that rounding puts outside the box is
    clipped back, which keeps it feasible.
    """
    m, d = B.shape
    out = []
    for f in range(d + 1):
        S = _subsets(m, f + 1)
        if not len(S):
            break
        for F in itertools.combinations(range(d), f):
            P = [k for k in range(d) if k not in F]
            corners = np.array(list(itertools.product(*zip(lo[P], hi[P]))))
            corners = corners.reshape(2 ** len(P), len(P))
            if f == 0:
                out.append(corners)
                continue
            F = list(F)
            ap = a + corners @ B[:, P].T  # (corners, m): the pieces with P pinned
            M = B[S[:, 1:]][..., F] - B[S[:, :1]][..., F]
            rhs = ap[:, S[:, :1]] - ap[:, S[:, 1:]]
            ok = np.linalg.det(M) != 0.0
            # one factorisation per choice of pieces, one column per corner
            sol = np.linalg.solve(M[ok], rhs[:, ok].transpose(1, 2, 0)).transpose(2, 0, 1)
            s = np.empty(sol.shape[:2] + (d,))
            s[..., P] = corners[:, None, :]
            s[..., F] = sol
            out.append(s.reshape(-1, d))
    S = np.vstack(out)
    return np.clip(S[np.isfinite(S).all(axis=1)], lo, hi)


@functools.lru_cache(maxsize=64)
def _subsets(m: int, k: int) -> np.ndarray:
    """The k-subsets of range(m), one per row, in lexicographic order
    (read-only: every caller shares the cached array)."""
    S = np.array(list(itertools.combinations(range(m), k)), dtype=int).reshape(-1, k)
    S.flags.writeable = False
    return S


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
    """VI(T, X): projection onto the shared set X; the residual reads X's closure."""

    name = "vi"

    def __init__(self, game):
        self.game = game
        self._body = game.shared_set.closure()

    def project(self, x, t, alpha):
        return self.game.shared_set.project(x - alpha * t)

    def probe(self, op, x, eps=np.inf):
        """(r, t, feasible) at x; see residual_with_filter."""
        return (*residual_with_filter(op, x, self._body), True)


class _MovingSlicesQVI:
    """QVI(T, K): blockwise projection onto the slices K_i(x), which move with x."""

    name = "qvi"

    def __init__(self, game):
        self.game = game

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

    def probe(self, op, x, eps=np.inf):
        """(r, t, feasible) at x: co T(x) and K(x) are products over the
        blocks, so r is the sum of each block's unclipped hull_residual over
        its slice, clipped at 0 once; (inf, None, False) when a slice is
        empty."""
        try:
            slices = [constraint_body(self.game, i, x) for i in range(self.game.n_players)]
            terms = [hull_residual(OperatorEval((op.blocks[i],), (0,)), x[op.block_slice(i)], K)
                     for i, K in enumerate(slices)]
        except EmptyBodyError:
            return np.inf, None, False
        feasible = all(membership_violation(K, pm.own(x)) <= eps
                       for K, pm in zip(slices, self.game.preferences))
        r = sum(r_i for r_i, _ in terms)
        return max(r, 0.0), np.concatenate([t_i for _, t_i in terms]), feasible


class _Finish:
    """The finish step of a jointly convex game: at a periodic probe that
    does not accept, the point nearest x on the face the iterates have
    identified, for the probe to judge.

    The face is the shared set's rows tight at x (x comes from an exact
    projection, so these are the rows it lands on) held as equalities, and
    the own gradient set to 0 of every quadratic block whose selected t_i
    was 0 or reversed sign since the previous periodic probe: such a block
    brackets its own maximiser.  The point is x less its least-norm
    correction onto that system, one least-squares solve.
    Projected-gradient iterates identify the optimal face in finitely many
    steps (Calamai & Moré 1987, Math. Prog. 39; Burke & Moré 1988, SIAM J.
    Numer. Anal. 25), so one exact step on it can end a run that halving
    alpha would only approach.
    """

    def __init__(self, game, eps_feas: float):
        self.body = game.shared_set
        self.A, self.b, _ = game.shared_set.hrep()
        self.eps_feas = eps_feas
        self.starts = np.array([pm.block_start for pm in game.preferences])
        R = game._graded_rows
        rows = [] if R is None else [(i, R.gradient_rows(k)) for k, i in enumerate(R.index)]
        self.gradient = {i: Gc for i, Gc in rows if Gc is not None}
        self.tried = self.accepted = 0

    def restart(self):
        self.t_prev = None
        self.flagged = np.zeros(len(self.starts), dtype=bool)

    def observe(self, t):
        """Flag the blocks whose t_i is 0 or opposes the previous iteration's."""
        hit = np.add.reduceat(np.abs(t), self.starts) == 0.0
        if self.t_prev is not None:
            hit |= np.add.reduceat(t * self.t_prev, self.starts) < 0.0
        self.flagged |= hit
        self.t_prev = t

    def take_flags(self):
        """The blocks flagged since the previous periodic probe; starts a
        new window."""
        flagged, self.flagged = self.flagged, np.zeros_like(self.flagged)
        return flagged

    def point(self, x, flagged):
        """The step's point from x, or None when it has no row, does not move,
        its system is inconsistent or it leaves the shared set by more than
        eps_feas."""
        A, b = self.A, self.b
        tight = A @ x - b >= -EPS_ACTIVE * (1.0 + np.abs(b))
        E, f = [A[tight]], [b[tight]]
        for i in np.flatnonzero(flagged):
            if i in self.gradient:
                G, c = self.gradient[i]
                E.append(G)
                f.append(-c)
        E, f = np.vstack(E), np.concatenate(f)
        if not len(f):
            return None
        z = x - np.linalg.lstsq(E, E @ x - f, rcond=None)[0]
        if (np.linalg.norm(z - x) <= _STEP_TOL
                or np.any(np.abs(E @ z - f) > 1e-9 * (1.0 + np.abs(f)))
                or membership_violation(self.body, z) > self.eps_feas):
            return None
        return z


def _run_from(game, x0, config: SolverConfig, problem, tol: Tolerances, finish=None):
    x = np.asarray(x0, dtype=float)
    alpha = config.alpha
    halvings = 0
    best_r, best_x, best_it = np.inf, x.copy(), 0
    trace = [] if config.trace else None
    x_prev = None

    def probe(k, op_c, xc):
        """Residual at xc, recorded as the best point when feasible; returns
        (r, accepted).  The closing probe (k == max_iters) is not traced."""
        nonlocal best_r, best_x, best_it
        r, _, feas_ok = problem.probe(op_c, xc, tol.eps_feas)
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

    def finish_from(k, xc):
        """The finish step after a probe of xc that did not accept: (z, r)
        when the probe accepts z, else None.  A rejected step leaves the
        run as it was (no trace row, no best point)."""
        flagged = finish.take_flags()
        z = finish.point(xc, flagged) if k > 0 else None
        if z is None:
            return None
        finish.tried += 1
        op_z = evaluate_T(game, z, tol, config.seed)
        r, _, feas_ok = problem.probe(op_z, z, tol.eps_feas)
        if not (r <= config.residual_tol and feas_ok):
            return None
        finish.accepted += 1
        if trace is not None:
            trace.append({"iter": k, "residual": float(r), "alpha": alpha})
        return z, r

    if finish is not None:
        finish.restart()
    last_probe_r = np.inf
    for k in range(config.max_iters):
        op = evaluate_T(game, x, tol, config.seed)
        t = select(op)
        if finish is not None:
            finish.observe(t)

        if k % _RESIDUAL_EVERY == 0 or np.linalg.norm(t) <= 1e-14:
            r, accepted = probe(k, op, x)
            if accepted:
                return x, r, k, True, trace
            done = finish_from(k, x) if finish is not None else None
            if done is not None:
                z, r = done
                return z, r, k, True, trace
            # normalized directions limit-cycle at radius ~alpha near interior
            # maxima; damp whenever a probe shows no progress
            if k > 0 and r >= last_probe_r - 1e-12 and halve():
                break
            last_probe_r = r

        x_new = problem.project(x, t, alpha)

        cycling = x_prev is not None and np.linalg.norm(x_new - x_prev) <= _STEP_TOL
        if np.linalg.norm(x_new - x) <= _STEP_TOL or cycling:
            r, accepted = probe(k, op, x)
            if accepted:
                return x, r, k, True, trace
            # fixed point (or 2-cycle) of this step size that is not a
            # solution: shrink the step and keep going
            if halve():
                break
        x_prev = x
        x = x_new
    else:
        # out of iterations: probe the last iterate with T taken there
        op = evaluate_T(game, x, tol, config.seed)
    probe(config.max_iters, op, x)
    return best_x, best_r, best_it, best_r <= config.residual_tol, trace


def _solve(game: GameInstance, config: SolverConfig, problem_type,
           tol: Tolerances) -> SolveResult:
    rng = np.random.default_rng(config.seed)
    finish = _Finish(game, tol.eps_feas) if game.jointly_convex else None
    best = None
    for attempt in range(max(1, config.restarts)):
        x0 = _start(game, attempt, rng)
        problem = problem_type(game)
        x, r, iters, ok, trace = _run_from(game, x0, config, problem, tol, finish)
        cand = SolveResult(x, r, iters, ok, restarts_used=attempt + 1,
                           best_attempt=attempt + 1, problem=problem.name,
                           trace=trace, approximate=game.sampled)
        if best is None or cand.residual < best.residual:
            best = cand
        if ok:
            break
    best.restarts_used = attempt + 1
    if finish is not None:
        best.finish_tried, best.finish_accepted = finish.tried, finish.accepted
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
    return problem_type(game).probe(evaluate_T(game, x, tol, seed), x)[:2]


def vi_residual(game: GameInstance, x, seed: int = 0, tol: Tolerances = Tolerances()):
    """(r, t) of the hull residual at x over the shared set (hull_residual,
    clipped at 0), with T's satiation test at tol.eps_open, as in a solve at
    tol; r is +inf when the support function is unbounded for every t."""
    if not game.jointly_convex:
        raise ValueError("vi_residual needs a jointly convex game")
    return _residual_at(game, x, _SharedSetVI, tol, seed)


def qvi_residual(game: GameInstance, x, seed: int = 0, tol: Tolerances = Tolerances()):
    """(r, t) of the hull residual at x over the slices K_i(x): one
    unclipped hull_residual per block over its slice, summed and clipped at
    0, with T's satiation test at tol.eps_open, as in a solve at tol;
    (inf, None) when a slice is empty."""
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
    columns, rounded to 12 decimals) form one group; first[g] is the lowest
    node index in group g and inverse[k] the group of node k.  Groups come
    in ascending lexicographic order of their profile, -0.0 and +0.0 fall
    in one group, and a one-player game has one group.  One stable lexsort
    with the first rival column as primary key finds them."""
    rivals = np.delete(nodes, np.arange(block.start, block.stop), axis=1)
    if rivals.shape[1] == 0:
        return np.zeros(1, dtype=int), np.zeros(len(nodes), dtype=int)
    rounded = np.round(rivals, 12)
    order = np.lexsort(rounded.T[::-1])
    srt = rounded[order]
    start = np.ones(len(srt), dtype=bool)
    start[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    inverse = np.empty(len(srt), dtype=int)
    inverse[order] = np.cumsum(start) - 1
    return order[start], inverse


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
    group g in one pass (A2 None: no quadratic term), inf where the slice is
    empty or the maximum unbounded; None when the batch cannot score it.

    A shared-set slice of a 1-D block is an interval by the ratio test and
    the maximum is a clip; an n-D slice with a vertex form and a linear
    objective takes its best feasible candidate.  A fixed body with a
    linear objective is one support evaluation per group.
    """
    con = game.constraints[pm.player]
    linear = A2 is None or np.abs(A2).max(initial=0.0) <= 1e-13
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
    # _own_quadratic at every representative: A2 is fixed (None if linear), a1 moves
    v = pm.variant
    A2 = v.Q[pm.block, pm.block] if isinstance(v, QuadUtility) else None
    a1 = _own_linear_terms(pm, reps)
    M = _group_maxima(game, pm, reps, A2, a1)
    if M is None:
        return _improvements_per_group(game, pm, nodes_f, tol, seed)
    Z = nodes_f[:, pm.block]
    # a zero A2's term was +0.0 at a finite node, so 0.0 keeps its bits
    quad = 0.0 if A2 is None else 0.5 * np.einsum("kj,jl,kl->k", Z, A2, Z)
    return M[inverse] - (quad + np.einsum("kj,kj->k", Z, a1[inverse]))


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
        # an empty slice scores inf, found in building it or in maximize
        try:
            K = constraint_body(game, i, rep)
            if graded:
                A2, a1, _ = _own_quadratic(pm, rep)
                M, _ = maximize(K, a1, A2)
        except (EmptyBodyError, _lp.UnboundedLP):
            out[idx] = np.inf
            continue
        if graded:
            Z = nodes_f[idx][:, pm.block]
            quad = 0.0 if A2 is None else 0.5 * np.einsum("kj,jl,kl->k", Z, A2, Z)
            vals = quad + Z @ a1
            out[idx] = M - vals
        else:
            for j in idx:
                out[j] = max_improvement(pm, nodes_f[j], K, tol.eps_open, seed)
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
