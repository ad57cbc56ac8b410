"""Independent checks: closed-form best responses from the generated records.

Nothing here calls gnepkit.  Each function returns a list of problems; an
empty list means the program's output passed.
"""

from __future__ import annotations

import itertools

import numpy as np

FEAS_TOL = 1e-7
ORACLE_IMPROVE_TOL = 1e-7  # grid_oracle's default eps_open
CLI_TOL = 1e-7  # the CLI certifies with default Tolerances
CLI_MARKET_TOL = 1e-6  # outcome_from_point's clearing and Walras limits


def _blocks(players):
    at = 0
    for p in players:
        yield p, slice(at, at + p.dim)
        at += p.dim


def _utility(p, z):
    """u(z) for points z of shape (..., dim)."""
    if p.kind == "lin":
        return z @ p.c
    zz = z[..., 0]
    return 0.5 * p.q * zz * zz + p.c[0] * zz


def _best_1d(p, lo, hi):
    """argmax of the 1-D utility over [lo, hi] (arrays broadcast)."""
    if p.kind == "lin":
        return np.where(p.c[0] >= 0, hi, lo)
    return np.clip(-p.c[0] / p.q, lo, hi)


def _own_interval(case, i, sl, X):
    """K_i(x) = X_i ∩ slice of the shared rows (or the fixed box), for 1-D
    blocks, at each row of X (shape (k, n)).  Returns (lo, hi) arrays."""
    p = case.players[i]
    lo = np.full(len(X), p.ambient[0][0])
    hi = np.full(len(X), p.ambient[1][0])
    if p.fixed is not None:
        return np.maximum(lo, p.fixed[0][0]), np.minimum(hi, p.fixed[1][0])
    a_own = case.A[:, sl.start]
    slack = case.b[None, :] - X @ case.A.T + X[:, sl.start:sl.stop] * a_own[None, :]
    for r, a in enumerate(a_own):
        if a > 1e-12:
            hi = np.minimum(hi, slack[:, r] / a)
        elif a < -1e-12:
            lo = np.maximum(lo, slack[:, r] / a)
    return lo, hi


def improvements(case, X):
    """(feasibility violation, best improvement, empty slice) per node and player.

    X has shape (k, n).  An empty slice K_i(x) counts as improvement 0, as in
    the equilibrium definition.  Blocks of dimension > 1 are supported only
    when their slice is a box fixed by the shared rows (one-player box games).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    k = len(X)
    viol = np.zeros((k, len(case.players)))
    imp = np.zeros((k, len(case.players)))
    empty = np.zeros((k, len(case.players)), dtype=bool)
    joint = np.zeros(k)
    if case.A is not None:
        joint = np.max(X @ case.A.T - case.b[None, :], axis=1)
    for i, (p, sl) in enumerate(_blocks(case.players)):
        z = X[:, sl]
        amb_lo, amb_hi = np.asarray(p.ambient[0]), np.asarray(p.ambient[1])
        amb = np.maximum(np.max(amb_lo - z, axis=1), np.max(z - amb_hi, axis=1))
        if p.dim == 1:
            lo, hi = _own_interval(case, i, sl, X)
            own = z[:, 0]
            viol[:, i] = np.maximum.reduce([amb, lo - own, own - hi])
            empty[:, i] = lo > hi
            best = _best_1d(p, lo, np.maximum(lo, hi))[:, None]
        else:
            if p.kind != "lin" or len(case.players) != 1:
                raise ValueError("multi-dimensional blocks: one linear player only")
            lo_b, hi_b = _box_of_rows(case.A, case.b)
            lo_b, hi_b = np.maximum(lo_b, amb_lo), np.minimum(hi_b, amb_hi)
            viol[:, i] = np.maximum(amb, joint)
            best = np.where(p.c >= 0, hi_b, lo_b)[None, :].repeat(k, axis=0)
        if p.fixed is None:
            viol[:, i] = np.maximum(viol[:, i], joint)
        imp[:, i] = np.where(empty[:, i], 0.0, _utility(p, best) - _utility(p, z))
    return viol, imp, empty


def _box_of_rows(A, b):
    """Bounds of {A x <= b} when every row is +-e_j."""
    n = A.shape[1]
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    for a, v in zip(A, b):
        j = int(np.argmax(np.abs(a)))
        if np.count_nonzero(np.abs(a) > 1e-15) != 1:
            raise ValueError("rows are not axis-aligned")
        if a[j] > 0:
            hi[j] = min(hi[j], v / a[j])
        else:
            lo[j] = max(lo[j], v / a[j])
    return lo, hi


# --------------------------------------------------------------------------
# per-workload judges


def check_solution(case, x, imp_tol=1e-6):
    """x_i in K_i(x) within FEAS_TOL, and no best response gains more than imp_tol."""
    viol, imp, _ = improvements(case, np.asarray(x, dtype=float)[None, :])
    problems = []
    for i in range(len(case.players)):
        if viol[0, i] > FEAS_TOL:
            problems.append(f"{case.name}: player {i} infeasible by {viol[0, i]:.3e}")
        if imp[0, i] > imp_tol:
            problems.append(f"{case.name}: player {i} improves by {imp[0, i]:.3e}")
    return problems


def grid_nodes(case, h):
    """Every joint grid node over the players' ambient boxes (as the oracle
    lays them out: lo + h k, with hi appended when it is off the grid)."""
    axes = []
    for p in case.players:
        for lo, hi in zip(p.ambient[0], p.ambient[1]):
            k = int(np.floor((hi - lo) / h + 1e-9))
            vals = lo + h * np.arange(k + 1)
            if hi - vals[-1] > 1e-9:
                vals = np.append(vals, hi)
            axes.append(vals)
    return np.array(list(itertools.product(*axes)))


def certified_reference(case, h):
    """(nodes, feasible mask, certified mask) from the closed forms."""
    nodes = grid_nodes(case, h)
    viol, imp, _ = improvements(case, nodes)
    feasible = np.all(viol <= 1e-9, axis=1)
    return nodes, feasible, feasible & np.all(imp <= ORACLE_IMPROVE_TOL, axis=1)


def _index_set(nodes, h):
    return {tuple(r) for r in np.rint(np.asarray(nodes, dtype=float) / h).astype(np.int64)}


def check_oracle(case, h, oracle, solve_point, converged):
    nodes, feasible, certified = certified_reference(case, h)
    problems = []
    if not converged:
        problems.append(f"{case.name}: solve_vi did not converge")
    if oracle.nodes_checked != len(nodes):
        problems.append(f"{case.name}: {oracle.nodes_checked} nodes checked, expected {len(nodes)}")
    if oracle.feasible_count != int(feasible.sum()):
        problems.append(f"{case.name}: {oracle.feasible_count} feasible nodes, "
                        f"expected {int(feasible.sum())}")
    if oracle.disagreements:
        problems.append(f"{case.name}: {len(oracle.disagreements)} oracle/verifier disagreements")
    got, want = oracle.certified, nodes[certified]
    if len(got) != len(want) or _index_set(got, h) != _index_set(want, h):
        problems.append(f"{case.name}: certified set has {len(got)} nodes, expected {len(want)}")
    if converged and len(want):
        d = np.abs(want - np.asarray(solve_point)[None, :]).max(axis=1).min()
        if d > h + 1e-9:
            problems.append(f"{case.name}: solver point {d:.3g} from the nearest certified node")
    return problems


# --------------------------------------------------------------------------
# CLI verdicts


def _knapsack(c, p, w, upper):
    """max c.z over {p.z <= w, 0 <= z <= upper} for c >= 0, p >= 0."""
    free = p <= 0
    val = float(c[free] @ upper[free])
    budget = w
    ratio = np.where(free, -np.inf, c / np.where(free, 1.0, p))
    for h in np.argsort(-ratio, kind="stable"):
        if free[h] or budget <= 0:
            continue
        take = min(upper[h], budget / p[h])
        val += c[h] * take
        budget -= p[h] * take
    return val


def economy_verdict(case, x):
    """(expected exit code, per-player improvements, excess) at point x.

    Players: consumers (linear utility on box ∩ budget), the producer
    (profit p.b on its box), and the price player (p.excess on the simplex).
    """
    A, b, p = case.split(x)
    feas, imp = [], []
    excess = A.sum(axis=0) - case.endowments.sum(axis=0) - b
    profit = max(0.0, float(p @ b))
    for i in range(case.I):
        w = float(p @ case.endowments[i]) + case.shares[i] * profit
        a = A[i]
        feas.append(max(float(np.max(-a)), float(np.max(a - case.upper[i])), float(p @ a) - w))
        if p @ case.upper[i] <= w:
            best = float(case.utilities[i] @ case.upper[i])
        else:
            best = _knapsack(case.utilities[i], p, max(w, 0.0), case.upper[i])
        imp.append(best - float(case.utilities[i] @ a))
    feas.append(max(float(np.max(-b)), float(np.max(b - case.beta))))
    imp.append(float(np.maximum(p, 0.0) @ case.beta - p @ b))
    feas.append(max(float(np.max(-p)), abs(float(p.sum()) - 1.0)))
    imp.append(float(np.max(excess) - p @ excess))
    ok = (max(feas) <= CLI_TOL and max(imp) <= CLI_TOL
          and np.max(excess) <= CLI_MARKET_TOL and abs(p @ excess) <= CLI_MARKET_TOL)
    return (0 if ok else 4), np.array(imp), excess


def game_verdict(case, x):
    viol, imp, empty = improvements(case, np.asarray(x, dtype=float)[None, :])
    ok = np.all(viol <= CLI_TOL) and np.all(imp <= CLI_TOL)
    return (0 if ok else 4), empty[0], imp[0]


def check_economy_output(case, x, code, outcome):
    """Exit code, plus Walras gap and clearing recomputed from outcome.json."""
    want, _, _ = economy_verdict(case, x)
    problems = []
    if code != want:
        problems.append(f"{case.path}: exit {code}, expected {want}")
    if outcome is None:
        return problems + [f"{case.path}: no outcome.json"]
    A = np.asarray(outcome["allocations"], dtype=float)
    B = np.asarray(outcome["productions"], dtype=float)
    p = np.asarray(outcome["prices"], dtype=float)
    a_in, b_in, p_in = case.split(x)
    if not (np.array_equal(A, a_in) and np.array_equal(B[0], b_in) and np.array_equal(p, p_in)):
        problems.append(f"{case.path}: outcome.json does not echo the candidate point")
    excess = A.sum(axis=0) - case.endowments.sum(axis=0) - B.sum(axis=0)
    if abs(abs(p @ excess) - outcome["walras_gap"]) > 1e-12:
        problems.append(f"{case.path}: walras_gap {outcome['walras_gap']!r}, "
                        f"recomputed {abs(p @ excess)!r}")
    if abs(np.max(excess) - outcome["clearing_violation"]) > 1e-12:
        problems.append(f"{case.path}: clearing_violation {outcome['clearing_violation']!r}, "
                        f"recomputed {np.max(excess)!r}")
    if bool(outcome["is_competitive"]) != (want == 0):
        problems.append(f"{case.path}: is_competitive {outcome['is_competitive']}")
    return problems


def check_verify_output(case, x, code, certificate):
    want, empty, imp = game_verdict(case, x)
    problems = []
    if code != want:
        problems.append(f"{case.name}: exit {code}, expected {want}")
    if certificate is None:
        return problems + [f"{case.name}: no certificate.json"]
    slacks = np.asarray(certificate["emptiness_slacks"], dtype=float)
    if np.any(np.abs(slacks - imp)[~empty] > 1e-9):
        problems.append(f"{case.name}: emptiness slacks {slacks.tolist()}, "
                        f"closed form {imp.tolist()}")
    if bool(certificate["is_equilibrium"]) != (want == 0):
        problems.append(f"{case.name}: is_equilibrium {certificate['is_equilibrium']}")
    return problems
