import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gnepkit.convexsets import (Ball, Box, ConeSection, EmptyBodyError, EnumerationError, HPoly,
                                Simplex, hull_body)
from gnepkit.economy import to_gnep
from gnepkit.game import (
    FixedConstraint,
    GameInstance,
    Tolerances,
    constraint_body,
    jointly_convex_game,
    verify_equilibrium,
)
from gnepkit.jsonio import jsonable, load_instance
from gnepkit.operators import OperatorEval, evaluate_T
from gnepkit.preferences import (
    LinearUtility,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    _own_quadratic,
    max_improvement,
)
from gnepkit.solvers import (
    SolverConfig,
    _start,
    grid_oracle,
    hull_residual,
    qvi_residual,
    solve_qvi,
    solve_vi,
    vi_residual,
)
import gnepkit.solvers as S
from gnepkit import instances as gi
import grouping_reference
from hull_reference import hull_residual_lp

INSTANCES = Path(__file__).resolve().parents[1] / "instances"


def test_splitting_vi_reaches_face():
    res = solve_vi(gi.splitting_game())
    assert res.converged
    assert abs(res.point.sum() - 1.0) <= 1e-6
    assert res.certificate.is_equilibrium


def test_splitting_qvi_from_origin_bisects():
    g = gi.splitting_game()
    cfg = SolverConfig(alpha=0.5, restarts=1)
    res = solve_qvi(g, cfg)
    assert res.converged
    assert np.allclose(res.point, [0.5, 0.5], atol=1e-6)


def test_simplex_argmax_solution():
    # maximize p1 + 2 p2 over the simplex: unique solution (0, 1)
    res = solve_vi(gi.simplex_argmax_game((1.0, 2.0)))
    assert res.converged
    assert np.allclose(res.point, [0.0, 1.0], atol=1e-6)


def test_union_preference_drifts_to_satiation():
    res = solve_qvi(gi.union_chase_game())
    assert res.converged
    assert res.point[0] == pytest.approx(1.0, abs=1e-6)
    assert res.certificate.is_equilibrium


def test_one_sided_point_rejected_by_vi_residual():
    # (1,0) is a true equilibrium but not a VI solution: one-way theorem only
    g = gi.one_sided_counterexample()
    assert verify_equilibrium(g, np.array([1.0, 0.0])).is_equilibrium
    r, _ = vi_residual(g, np.array([1.0, 0.0]))
    assert r == pytest.approx(1.0, abs=1e-8)


def test_hull_residual_singleton_matches_direct_max():
    g = gi.splitting_game()
    X = g.shared_set
    V = X.vertices()
    for x in (np.array([0.3, 0.3]), np.array([0.1, 0.6])):
        op = evaluate_T(g, x)
        assert all(cone.n_generators == 1 for cone in op.blocks)
        r, t = hull_residual(op, x, X)
        # single generator per block: t is fixed, and r is max_v <t, x - v>
        direct = max(float(t @ (x - v)) for v in V)
        assert r == pytest.approx(direct, abs=1e-9)
        assert max(r, 0.0) == pytest.approx(hull_residual_lp(op, x, V)[0], rel=0.0, abs=1e-15)


def test_residual_zero_exactly_on_solutions():
    g = gi.splitting_game()
    r, _ = vi_residual(g, np.array([0.5, 0.5]))
    assert r <= 1e-10


def test_vi_residual_takes_satiation_from_tol():
    # u = p1 + 2 p2 improves by 5e-7 from here: satiated at eps_open = 1e-6,
    # while at 1e-7 the residual is that improvement over |∇u| = 2**-0.5
    # (the gradient projected onto the simplex)
    g = gi.simplex_argmax_game()
    x = np.array([5e-7, 1 - 5e-7])
    assert vi_residual(g, x, tol=Tolerances(eps_open=1e-6))[0] == pytest.approx(0.0, abs=1e-15)
    assert vi_residual(g, x)[0] == pytest.approx(5e-7 * 2 ** 0.5, rel=1e-6)


@pytest.mark.parametrize("family, solve", [(gi.random_jointly_convex, solve_vi),
                                           (gi.random_qvi, solve_qvi)])
def test_satiated_blocks_pass_the_verifiers_emptiness_test(family, solve):
    # T tests satiation over X_i, which contains K_i(x), at the verifier's
    # eps_open: every whole-space block of T at a returned point has an empty
    # preferred set in its slice
    tol = Tolerances(eps_open=1e-6)
    satiated = 0
    for s in range(20):
        game = family(s)
        x = solve(game, SolverConfig(residual_tol=5e-7, restarts=4), tol).point
        for i, cone in enumerate(evaluate_T(game, x, tol).blocks):
            if cone.whole_space:
                satiated += 1
                pm = game.preferences[i]
                imp = max_improvement(pm, x, constraint_body(game, i, x), tol.eps_open)
                assert imp <= tol.eps_open, (s, i, imp)
    assert satiated


def test_residual_tol_above_eps_open_converges_uncertified():
    # the SolverConfig docstring's example: each block's only generator is a
    # unit -∇u_i, so its residual term is its improvement over K_i(x); both
    # players are linear, so the finish step adds no row and does not end it
    g = gi.random_qvi(189)
    res = solve_qvi(g, SolverConfig(residual_tol=5e-7, restarts=4))
    slacks = res.certificate.emptiness_slacks
    assert res.converged and not res.certificate.is_equilibrium
    assert res.finish_accepted == 0
    assert res.residual == pytest.approx(4.333e-7, rel=1e-3)
    assert slacks == pytest.approx([2.044e-7, 2.289e-7], rel=1e-3)
    assert res.residual == pytest.approx(slacks.sum(), rel=1e-9)
    res = solve_qvi(g, SolverConfig(residual_tol=5e-8, restarts=4))
    assert res.converged and res.certificate.is_equilibrium


def test_default_residual_tol_is_the_certificates_eps_open():
    # one default for both tolerances: at it, random_qvi(189) is certified
    assert SolverConfig().residual_tol == Tolerances().eps_open
    res = solve_qvi(gi.random_qvi(189), SolverConfig(restarts=4))
    assert res.converged and res.certificate.is_equilibrium


def test_finish_step_lands_on_the_face_solution():
    # player 0 maximises -10 (x0 - 0.4)^2, player 1 maximises x1; the shared
    # set caps x1 at 0.7, so the one variational equilibrium is (0.4, 0.7),
    # on that face.  Halving alpha only reaches the satiation zone around
    # x0 = 0.4 (about 1e-4 off); the finish step lands on its maximiser.
    S = HPoly([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
              [1.0, 0.0, 0.7, 0.0, 1.5])
    g = jointly_convex_game(
        [Box([0.0], [1.0])] * 2,
        [QuadUtility([[-20.0, 0.0], [0.0, 0.0]], [8.0, 0.0]), LinearUtility([0.0, 1.0])], S)
    res = solve_vi(g, SolverConfig(trace=True))
    assert res.converged and res.certificate.is_equilibrium
    assert np.allclose(res.point, [0.4, 0.7], rtol=0.0, atol=1e-12)
    assert res.finish_tried == res.finish_accepted == 1
    # the accepted point's probe closes the trace at the rejected probe's iteration
    assert res.iterations == 25
    assert res.trace[-1] == {"iter": 25, "residual": res.residual, "alpha": 0.5 ** 10}
    assert res.trace[-2]["iter"] == res.iterations and res.trace[-2]["residual"] > 0.0


def test_finish_step_bounds_the_vi_pool_iterations():
    # a count, not a time: the 50 games of the benchmark's vi_pool(1) at
    # criterion 3's settings took 3,364 iterations when alpha halved toward
    # each face and take 789 with the finish step
    runs = [solve_vi(case.game, SolverConfig(residual_tol=5e-7, restarts=4),
                     Tolerances(eps_open=1e-6)) for case in _load_gnepbench_inputs().vi_pool(1)]
    assert all(r.converged and r.certificate.is_equilibrium for r in runs)
    assert sum(r.iterations for r in runs) <= 1000
    assert sum(r.finish_accepted for r in runs) > 0


def test_qvi_residual_infeasible_point_is_inf():
    g = gi.one_sided_counterexample()
    r, t = qvi_residual(g, np.array([1.5, 2.5]))
    assert r > 1.0 or t is None


def test_trace_records_residuals():
    res = solve_vi(gi.splitting_game(), SolverConfig(trace=True))
    assert res.trace and {"iter", "residual", "alpha"} <= set(res.trace[0])


def test_restarts_reported():
    res = solve_vi(gi.splitting_game(), SolverConfig(restarts=3))
    assert 1 <= res.restarts_used <= 3


# Jointly convex members of random_qvi beyond criterion 4's seeds 0-99 whose
# blockwise steps leave the shared set so far that a slice is empty.  A step
# onto X_i for that player, in place of the step onto the shared set, leaves
# both unsolved.
@pytest.mark.parametrize("seed", [103, 299])
def test_qvi_certifies_games_whose_steps_leave_the_shared_set(seed):
    res = solve_qvi(gi.random_qvi(seed), SolverConfig(residual_tol=5e-7, restarts=4),
                    Tolerances(eps_open=1e-6))
    assert res.converged and res.certificate.is_equilibrium


# -- grid oracle ---------------------------------------------------------------


def test_oracle_splitting_h005_certifies_face():
    orc = grid_oracle(gi.splitting_game(), h=0.05)
    assert len(orc.certified) == 21
    assert np.allclose(orc.certified.sum(axis=1), 1.0, atol=1e-9)
    assert not orc.disagreements


def test_oracle_linear_game_runs_no_qp(monkeypatch):
    # linear utilities take the support function, not active-set enumeration
    from gnepkit import _lp

    calls = []
    real = _lp.max_concave_quad
    monkeypatch.setattr(_lp, "max_concave_quad", lambda *a, **k: calls.append(1) or real(*a, **k))
    orc = grid_oracle(gi.splitting_game(), h=0.05)
    assert len(orc.certified) == 21 and not orc.disagreements
    assert calls == []


def test_vi_with_quadratic_players_runs_no_qp(monkeypatch):
    # 1-D quadratic best responses (satiation test, verifier) are clips
    from gnepkit import _lp
    from gnepkit.preferences import QuadUtility

    g = gi.random_jointly_convex(0)
    assert any(isinstance(pm.variant, QuadUtility) for pm in g.preferences)
    calls = []
    real = _lp.max_concave_quad
    monkeypatch.setattr(_lp, "max_concave_quad", lambda *a, **k: calls.append(1) or real(*a, **k))
    res = solve_vi(g, SolverConfig(residual_tol=5e-7, restarts=4))
    assert res.converged and res.certificate.is_equilibrium
    assert calls == []


def test_oracle_nodes_sorted_lexicographically():
    orc = grid_oracle(gi.splitting_game(), h=0.05, cross_check=False)
    as_tuples = [tuple(n) for n in np.round(orc.certified, 9)]
    assert as_tuples == sorted(as_tuples)


def test_oracle_empty_when_no_equilibrium_on_grid():
    # quad peak at 0.337 is off every 0.05-grid node
    g = gi.box_argmax_game((1.0,), hi=1.0)
    from gnepkit.game import jointly_convex_game
    from gnepkit.preferences import QuadUtility

    g = jointly_convex_game([Box([0.0], [1.0])],
                            [QuadUtility([[-2.0]], [2 * 0.337])],
                            Box([0.0], [1.0]), name="offgrid")
    orc = grid_oracle(g, h=0.05, cross_check=False)
    assert len(orc.certified) == 0


def test_oracle_too_fine_raises():
    with pytest.raises(EnumerationError):
        grid_oracle(gi.splitting_game(), h=1e-5, cross_check=False)


def test_oracle_agrees_with_verifier_on_bundled_games():
    for g in (gi.splitting_game(), gi.box_argmax_game((-0.5, 1.0))):
        orc = grid_oracle(g, h=0.1, cross_check=True, cross_sample=60)
        assert not orc.disagreements


def test_oracle_fixed_box_zero_coefficient_on_infinite_bound():
    # u = z_0 over K = [0, 1] x [0, inf): the unbounded coordinate has a zero
    # coefficient, so it adds 0 to the support, not 0 * inf
    pm = PreferenceMap(0, 0, Box([0.0, 0.0], [1.0, 1.0]), LinearUtility([1.0, 0.0]))
    g = GameInstance((pm,), (FixedConstraint(Box([0.0, 0.0], [1.0, np.inf])),))
    orc = grid_oracle(g, h=0.5)
    assert not orc.disagreements
    assert sorted(map(tuple, orc.certified)) == [(1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]
    assert all(verify_equilibrium(g, p).is_equilibrium for p in orc.certified)


@pytest.mark.parametrize("strict", [None, [True, False, False]])
def test_oracle_counts_no_node_of_an_empty_fixed_body(strict):
    # a zero row with a negative right-hand side empties the body, and
    # hrep() leaves that row out: no node of the grid is feasible
    from gnepkit.solvers import _inside_mask

    body = HPoly([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 1.0, -1.0], strict)
    assert body.is_empty()
    assert not _inside_mask(body, np.array([[0.5, 0.5]])).any()
    pm = PreferenceMap(0, 0, Box([0.0, 0.0], [1.0, 1.0]), LinearUtility([1.0, 1.0]))
    orc = grid_oracle(GameInstance((pm,), (FixedConstraint(body),)), 0.5)
    assert orc.nodes_checked == 9
    assert orc.feasible_count == 0 and len(orc.certified) == 0


def test_grid_oracle_reads_the_verifiers_a1_bit_for_bit(monkeypatch):
    # the oracle forms a1 for a batch of rival groups and the verifier
    # (_own_quadratic) for one point; a row must have the same bits either
    # way.  Batches of one group are the sharp case: there a plain product
    # of the rows is a dot product, 1 ulp off the verifier's matrix-vector
    # product on about a third of rows
    import gnepkit.solvers as S

    seen, real = [], S._group_maxima
    monkeypatch.setattr(S, "_group_maxima", lambda game, pm, reps, A2, a1: (
        seen.append((pm, reps.copy(), a1.copy())) or real(game, pm, reps, A2, a1)))
    rng = np.random.default_rng(19)
    box = Box([-0.5], [1.5])
    for _ in range(150):
        n = int(rng.integers(2, 6))
        prefs = []
        for i in range(n):
            Q = rng.uniform(-1.0, 1.0, (n, n))
            Q = Q + Q.T
            Q[i, i] = -1.0 - abs(Q[i, i])
            prefs.append(PreferenceMap(i, i, box, QuadUtility(Q, rng.uniform(-1.0, 1.0, n))))
        game = GameInstance(tuple(prefs), (FixedConstraint(box),) * n, None, "a1")
        for pm in game.preferences:
            one_group = np.tile(rng.uniform(-0.5, 1.5, n), (3, 1))
            one_group[:, pm.player] = rng.uniform(-0.5, 1.5, 3)
            for nodes in (one_group, rng.uniform(-0.5, 1.5, (6, n))):
                S._improvements_for_player(game, pm, nodes, Tolerances(), 0)
    assert sum(len(reps) == 1 for _, reps, _ in seen) > 400
    for pm, reps, a1 in seen:
        for rep, row in zip(reps, a1):
            assert np.array_equal(row, _own_quadratic(pm, rep)[1])


def test_whole_space_blocks_enter_residual_conservatively():
    # at a satiated block the residual must still catch other players' slack
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([1.0, 0.0]))   # player 1 satiated at cap
    r, _ = hull_residual(op, np.array([1.0, 0.0]), g.shared_set)
    assert r <= 1e-9   # (1,0) is a genuine VI solution here


# -- the hull residual without an LP ---------------------------------------------
#
# When every block's hull co G_i is a point, hull_residual is one support
# evaluation; when some hull is an interval, it enumerates the vertices of the
# epigraph of max_v <t, x - v> over the box of interval coordinates.  The
# oracle is the LP of hull_reference.


def _section_hull_holds(op, t):
    """t lies in co T(x): each block's point, or its interval ([-1, 1] for a
    whole-space 1-D block)."""
    for i, cone in enumerate(op.blocks):
        ti = t[op.block_slice(i)]
        if cone.dim == 1 and (cone.whole_space or cone.n_generators > 1):
            G = [-1.0, 1.0] if cone.whole_space else cone.generators[:, 0]
            if not min(G) <= ti[0] <= max(G):
                return False
        elif not np.array_equal(ti, cone.generators[0] if cone.n_generators else 0 * ti):
            return False
    return True


def _assert_exact_hull_residual(op, x, body, rel=1e-12):
    x, V = np.asarray(x, dtype=float), body.vertices()
    r, t = hull_residual(op, x, body)
    d = _interval_dim(op)
    if d and S._n_hull_candidates(len(V), d) <= S._VERTEX_FORM_SUBSETS:
        assert r == float(np.max((x - V) @ t))  # bit for bit: the epigraph's vertices
    else:
        assert r == pytest.approx(float(np.max((x - V) @ t)), rel=0.0, abs=1e-15)
    assert _section_hull_holds(op, t)
    r_lp, _ = hull_residual_lp(op, x, V)
    assert abs(max(r, 0.0) - r_lp) <= rel * max(1.0, abs(r_lp)), (r, r_lp)
    return r, t


def _interval_dim(op):
    return sum(c.dim == 1 and (c.whole_space or c.n_generators > 1) for c in op.blocks)


def test_hull_residual_matches_the_lp_on_random_jointly_convex():
    # 20 points per game, three in four on the shared set (projections of
    # far-off draws, mostly on its faces) and one in four off it
    dims = set()
    for eps_open in (1e-7, 1e-6, 1e-2):
        tol = Tolerances(eps_open=eps_open)
        for seed in range(100):
            game = gi.random_jointly_convex(seed)
            rng = np.random.default_rng(seed)
            for k in range(20):
                y = rng.uniform(-1.0, 2.0, game.n)
                x = game.shared_set.project(y) if k % 4 else y
                op = evaluate_T(game, x, tol)
                dims.add(_interval_dim(op))
                _assert_exact_hull_residual(op, x, game.shared_set)
    assert {0, 1, 2} <= dims


def _point(*g):
    return ConeSection(len(g), np.array([g], dtype=float))


def test_hull_residual_hand_cases(monkeypatch):
    monkeypatch.setattr(S, "_rows_lp", None)  # every case below is enumerated
    P = hull_body(np.array([[0.0, 0.0], [1.0, 0.2], [0.0, 1.0], [1.0, 1.0]]))
    x = np.array([0.2, 0.3])
    # d = 0: t is fixed, and max_v <t, x - v> = 0.5 - v0 - v1 is 0.5 at v = 0
    op = OperatorEval((_point(1.0), _point(1.0)), (0, 1))
    r, t = _assert_exact_hull_residual(op, x, P)
    assert np.array_equal(t, [1.0, 1.0]) and r == pytest.approx(0.5, abs=1e-15)
    # d = 1: max(0.2 s + 0.3, -0.8 s + 0.1) is least at s = -0.2
    op = OperatorEval((ConeSection.whole(1), _point(1.0)), (0, 1))
    r, t = _assert_exact_hull_residual(op, x, P)
    assert r == pytest.approx(0.26, abs=1e-15) and t == pytest.approx([-0.2, 1.0], abs=1e-15)
    # d = 2 and d = 3, each with a point block, over a tilted simplex
    for d in (2, 3):
        w = np.linspace(0.5, 2.0, d + 1)
        body = HPoly(np.vstack([-np.eye(d + 1), w]), np.concatenate([np.zeros(d + 1), [1.0]]))
        op = OperatorEval((ConeSection.whole(1),) * d + (_point(-1.0),), tuple(range(d + 1)))
        assert _interval_dim(op) == d
        rng = np.random.default_rng(d)
        for _ in range(10):
            _assert_exact_hull_residual(op, body.project(rng.uniform(-1.0, 2.0, d + 1)), body)


def test_hull_residual_with_all_interval_rows_equal_takes_a_corner():
    # every vertex has the same interval coordinates, so max_v (a_v + B s) =
    # max_v a_v + B s: no two pieces ever cross, and the least is at the
    # corner s_k = -sign(B_k)
    segment = Box([0.3, -0.2, 0.0], [0.3, -0.2, 1.0])
    x = np.array([0.5, 0.4, 1.5])
    op = OperatorEval((ConeSection.whole(1), ConeSection.whole(1), _point(1.0)), (0, 1, 2))
    r, t = _assert_exact_hull_residual(op, x, segment)
    assert np.array_equal(t, [-1.0, -1.0, 1.0])
    assert r == pytest.approx(1.5 - 0.2 - 0.6, abs=1e-15)


def test_hull_residual_off_the_set_and_with_two_signed_generators():
    # x a hair outside the unit square, and a 1-D block whose two unit
    # generators span [-1, 1] without being the whole space
    square = Box([0.0, 0.0], [1.0, 1.0])
    both = ConeSection(1, np.array([[1.0], [-1.0]]))
    for x in ([1.0 + 1e-9, 0.5], [-1e-9, 1.0 + 1e-9], [0.5, -1e-12]):
        for op in (OperatorEval((both, _point(-1.0)), (0, 1)),
                   OperatorEval((_point(1.0), both), (0, 1)),
                   OperatorEval((both, both), (0, 1))):
            _assert_exact_hull_residual(op, x, square)


def _load_gnepbench_inputs():
    spec = importlib.util.spec_from_file_location(
        "gnepbench_inputs", Path(__file__).resolve().parents[1] / "gnepbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def test_vi_pool_hull_residuals_run_no_lp(monkeypatch):
    # all 223 probes of the benchmark's vi_pool(1) enter hull_residual, and
    # none runs an LP: a point hull is one support evaluation over the
    # shared set's vertex form, an interval hull an enumeration of the
    # epigraph's vertices
    from gnepkit import _lp

    cases = _load_gnepbench_inputs().vi_pool(1)
    for case in cases:
        case.game.shared_set.vertices()
    inside, calls, lps = [False], [0], [0]
    real_hull, real_lp = S.hull_residual, _lp.solve_lp

    def hull(*args):
        calls[0] += 1
        inside[0] = True
        try:
            return real_hull(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(S, "hull_residual", hull)
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: (lps.__setitem__(0, lps[0] + inside[0])
                                                           or real_lp(*a, **k)))
    runs = [solve_vi(case.game, SolverConfig(residual_tol=5e-7, restarts=4),
                     Tolerances(eps_open=1e-6)) for case in cases]
    assert all(r.converged and r.certificate.is_equilibrium for r in runs)
    assert calls[0] == 223 and lps[0] == 0


# -- the separable QVI residual --------------------------------------------------
#
# qvi_residual sums one term per block.  The oracle is the joint LP
# (hull_reference) over the Cartesian product of the slices' vertex sets,
# built here only.


def _product_vertices(game, x):
    """Every combination of the slices' vertices at x; None when one is empty."""
    try:
        per = [constraint_body(game, i, x).vertices() for i in range(game.n_players)]
    except EmptyBodyError:
        return None
    if not all(len(P) for P in per):
        return None
    V = per[0]
    for P in per[1:]:
        V = np.hstack([np.repeat(V, len(P), axis=0), np.tile(P, (len(V), 1))])
    return V


def _assert_matches_joint_lp(game, x):
    x = np.asarray(x, dtype=float)
    r, t = qvi_residual(game, x)
    V = _product_vertices(game, x)
    if V is None:
        assert r == np.inf and t is None
        return
    r_joint, _ = hull_residual_lp(evaluate_T(game, x), x, V)
    assert r == pytest.approx(r_joint, rel=0.0, abs=1e-12)
    assert max(float(np.max((x - V) @ t)), 0.0) == pytest.approx(r, rel=0.0, abs=1e-12)


def _boundary_points(game, rng, k):
    """k points whose blocks lie mostly on faces of X_i, where T has several
    generators: projections of far-off draws."""
    out = []
    for _ in range(k):
        blocks = [pm.ambient.project(rng.uniform(-2.0, 4.0, pm.block_dim))
                  for pm in game.preferences]
        out.append(game.join(blocks))
    return out


def test_qvi_residual_matches_joint_lp_on_random_qvi():
    rng = np.random.default_rng(8)
    for seed in range(100):
        game = gi.random_qvi(seed)
        _assert_matches_joint_lp(game, _start(game, 0, rng))
        for _ in range(3):
            _assert_matches_joint_lp(
                game, game.join([pm.ambient.sample(rng, 1)[0] for pm in game.preferences]))


@pytest.mark.parametrize("name", ["two_consumer_exchange", "production_economy"])
def test_qvi_residual_matches_joint_lp_on_bundled_economies(name):
    game = to_gnep(load_instance(INSTANCES / f"{name}.json"))
    rng = np.random.default_rng(9)
    points = [_start(game, k, rng) for k in range(4)] + _boundary_points(game, rng, 12)
    points.append(solve_qvi(game).point)
    for x in points:
        _assert_matches_joint_lp(game, x)


def _decagon():
    angles = (2 * np.arange(10) + 1) * np.pi / 10
    return HPoly(np.stack([np.cos(angles), np.sin(angles)], axis=1),
                 np.full(10, np.cos(np.pi / 10)))


def test_qvi_residual_is_exact_past_the_old_vertex_cap():
    # four 2-D decagon slices: 10**4 product vertices, more than the 4,096
    # at which the product used to be thinned; a satiated player is the
    # whole space, and players on a corner of X_i have three generators
    D = _decagon()
    prefs = [PreferenceMap(0, 0, D, QuadUtility(-2.0 * np.eye(2), [0.2, -0.1]))]
    prefs += [PreferenceMap(i, 2 * i, D, LinearUtility(c))
              for i, c in enumerate([[1.0, 0.3], [-0.4, 1.0], [0.2, -1.0]], start=1)]
    game = GameInstance(tuple(prefs), (FixedConstraint(D),) * 4, None, "decagons")
    V = D.vertices()
    assert len(V) == 10
    rng = np.random.default_rng(10)
    for corners in ([0, 3, 5, 8], [1, 1, 2, 9]):
        x = np.concatenate([[0.1, -0.05]] + [V[k] for k in corners[1:]])
        _assert_matches_joint_lp(game, x)
        _assert_matches_joint_lp(game, x + rng.uniform(-0.3, 0.3, 8))
    for x in _boundary_points(game, rng, 4):
        _assert_matches_joint_lp(game, x)


def test_qvi_residual_matches_joint_lp_with_a_satiated_block():
    # player 0 is satiated at 0.5: its section is the whole space, co{-1, 1}
    prefs = (PreferenceMap(0, 0, Box([0.0], [1.0]), QuadUtility([[-2.0]], [1.0])),
             PreferenceMap(1, 1, Box([0.0, 0.0], [1.0, 1.0]),
                           QuadUtility(-2.0 * np.eye(2), [0.5, 1.0])))
    cons = (FixedConstraint(Box([0.2], [0.9])), FixedConstraint(Box([0.0, 0.1], [0.8, 0.6])))
    game = GameInstance(prefs, cons, None, "satiated")
    assert evaluate_T(game, [0.5, 0.3, 0.3]).blocks[0].whole_space
    for x in ([0.5, 0.3, 0.3], [0.5, 0.25, 0.5], [0.5, 0.0, 1.0], [0.1, 0.9, 0.0]):
        _assert_matches_joint_lp(game, x)


def test_qvi_residual_ball_term_is_exact():
    # one generator g over FixedConstraint(Ball(c, rho)): <g, x_i - c> + rho |g|,
    # where 64 boundary samples gave a lower bound; the satiated 1-D player
    # adds 0 at a feasible point
    c, rho = np.array([0.25, -0.5]), 0.75
    prefs = (PreferenceMap(0, 0, Box([-2.0, -2.0], [2.0, 2.0]), LinearUtility([1.0, 2.0])),
             PreferenceMap(1, 2, Box([0.0], [1.0]), QuadUtility([[-2.0]], [1.0])))
    game = GameInstance(prefs, (FixedConstraint(Ball(c, rho)),
                                FixedConstraint(Box([0.0], [1.0]))), None, "ball")
    for xi in ([0.1, -0.3], [0.25, -0.5], [-0.4, -0.2]):
        x = np.array(xi + [0.5])
        g = evaluate_T(game, x).blocks[0].generators[0]
        r, t = qvi_residual(game, x)
        assert np.array_equal(t[:2], g) and t[2] == 0.0
        assert r == pytest.approx(float(g @ (x[:2] - c)) + rho * np.linalg.norm(g),
                                  rel=0.0, abs=1e-15)
    # and the solve reaches the ball's support point c + rho (1, 2) / sqrt(5)
    res = solve_qvi(game)
    assert res.converged and res.certificate.is_equilibrium
    assert np.allclose(res.point, [*(c + rho * np.array([1.0, 2.0]) / np.sqrt(5.0)), 0.5],
                       rtol=0.0, atol=2e-6)


def test_ball_choice_set_is_solved_and_certified():
    # a Ball on its own, as X_i and as K_i: u = x1 + x2 peaks at (1, 1) / sqrt(2)
    disc = Ball([0.0, 0.0], 1.0)
    game = GameInstance((PreferenceMap(0, 0, disc, LinearUtility([1.0, 1.0])),),
                        (FixedConstraint(disc),))
    res = solve_qvi(game)
    assert res.converged and res.certificate.is_equilibrium
    assert np.allclose(res.point, [2 ** -0.5, 2 ** -0.5], rtol=0.0, atol=1e-12)


# -- relation-oracle players, end to end --------------------------------------


def _nearer(k, target):
    """Prefers own values strictly nearer target than the current x_k."""
    return RelationOracle(lambda x, z: abs(z[0] - target) < abs(x[k] - target) - 1e-9,
                          budget=64)


def test_relation_oracle_player_is_solved_and_certified_approximately():
    box = Box([0.0], [1.0])
    g = GameInstance((PreferenceMap(0, 0, box, _nearer(0, 0.3)),), (FixedConstraint(box),))
    res = solve_qvi(g, SolverConfig(restarts=2))
    assert res.converged and abs(res.point[0] - 0.3) <= 0.01
    assert res.certificate.is_equilibrium
    assert res.approximate and res.certificate.approximate
    assert jsonable(res)["approximate"] is True
    orc = grid_oracle(g, h=0.05)
    assert np.allclose(orc.certified, [[0.3]]) and not orc.disagreements


def test_relation_oracle_players_meet_on_the_shared_face():
    box = Box([0.0], [1.0])
    g = jointly_convex_game([box, box], [_nearer(0, 0.3), _nearer(1, 0.8)],
                            HPoly([[1.0, 1.0]], [1.0]))
    for solve in (solve_vi, solve_qvi):
        res = solve(g, SolverConfig(restarts=2))
        x = res.point
        assert res.converged and res.certificate.is_equilibrium
        assert abs(x.sum() - 1.0) <= 1e-6 and 0.2 - 1e-6 <= x[0] <= 0.3 + 1e-6
        assert res.approximate and jsonable(res)["approximate"] is True
    orc = grid_oracle(g, h=0.1)
    assert np.allclose(orc.certified, [[0.2, 0.8], [0.3, 0.7]]) and not orc.disagreements


def _catalog_game(name):
    box = gi.catalog_ambient()
    succ, _ = gi.relation_catalog()[name]
    return GameInstance((PreferenceMap(0, 0, box, RelationOracle(succ)),), (FixedConstraint(box),))


# not_equal is left out: its convexified preferred set holds x, so every
# solve raises SelfPreferenceError
@pytest.mark.parametrize("name", [*sorted(set(gi.relation_catalog()) - {"not_equal"}), "graded"])
def test_approximate_exactly_when_a_player_is_a_relation_oracle(name):
    """The solve and its certificate read one flag, the game's: a `never`
    relation, whose preferred set no sample ever hits, is as approximate as
    any other relation, and a graded game is exact."""
    g = gi.splitting_game() if name == "graded" else _catalog_game(name)
    res = solve_qvi(g, SolverConfig(restarts=2))
    assert g.sampled == res.approximate == res.certificate.approximate == (name != "graded")


def _batch_family(seed):
    """A seeded game of a 1-D linear, a 1-D concave quadratic and a 2-D
    player linear in its own block but coupled to both rivals, over the
    unit box with two random cuts, and a coarse grid reaching outside it,
    where slices are empty."""
    from gnepkit.convexsets import Box, HPoly
    from gnepkit.preferences import LinearUtility, QuadUtility

    rng = np.random.default_rng(seed)
    n = 4
    Q1 = np.zeros((n, n))
    Q1[1, 1] = -rng.uniform(0.5, 2.0)
    Q1[1, [0, 2, 3]] = Q1[[0, 2, 3], 1] = rng.uniform(-1.0, 1.0, 3)
    Q2 = np.zeros((n, n))
    Q2[2:, :2] = rng.uniform(-1.0, 1.0, (2, 2))
    Q2[:2, 2:] = Q2[2:, :2].T
    variants = [LinearUtility(rng.uniform(-1.0, 1.0, n)),
                QuadUtility(Q1, rng.uniform(-1.0, 1.0, n)),
                QuadUtility(Q2, rng.uniform(-1.0, 1.0, n))]
    cuts = np.abs(rng.standard_normal((2, n))) + 0.1
    A = np.vstack([np.eye(n), -np.eye(n), cuts])
    b = np.concatenate([np.ones(n), np.zeros(n), cuts.sum(axis=1) * rng.uniform(0.4, 0.7, 2)])
    X = [Box([0.0], [1.0]), Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0])]
    game = jointly_convex_game(X, variants, HPoly(A, b))
    axis = np.linspace(-0.25, 1.25, 7)
    nodes = np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)
    return game, nodes


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_batch_matches_the_per_group_loop(seed):
    from gnepkit.solvers import (_group_maxima, _improvements_for_player,
                                 _improvements_per_group, _rival_groups)

    game, nodes = _batch_family(seed)
    tol = Tolerances()
    for pm in game.preferences:
        first, _ = _rival_groups(nodes, pm.block)
        A2 = pm.variant.Q[pm.block, pm.block] if isinstance(pm.variant, QuadUtility) else None
        a1 = np.array([_own_quadratic(pm, x)[1] for x in nodes[first]])
        assert _group_maxima(game, pm, nodes[first], A2, a1) is not None  # batched
        got = _improvements_for_player(game, pm, nodes, tol, 0)
        want = _improvements_per_group(game, pm, nodes, tol, 0)
        inf = np.isinf(want)
        assert np.array_equal(np.isinf(got), inf), pm.player
        assert inf.any() and not inf.all(), pm.player
        assert np.allclose(got[~inf], want[~inf], rtol=0.0, atol=1e-12), pm.player


def test_oracle_batch_keeps_the_zero_matrix_bits_for_linear_players():
    """A linear player's batch takes no zero A2: its improvements have the
    bits the zero matrix's +0.0 term gave them, down to a signed zero (a
    player with c < 0 at its own lower bound improves by -0.0)."""
    X = [Box([0.0], [1.0]), Box([0.0], [1.0])]
    game = jointly_convex_game(X, [LinearUtility([-1.0]), LinearUtility([0.5])],
                               HPoly([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.5, 0.0, 0.0]))
    axis = np.linspace(0.0, 1.0, 5)
    nodes = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    for pm in game.preferences:
        first, inverse = S._rival_groups(nodes, pm.block)
        a1 = np.array([_own_quadratic(pm, x)[1] for x in nodes[first]])
        M, Z = S._group_maxima(game, pm, nodes[first], None, a1), nodes[:, pm.block]
        want = M[inverse] - (0.5 * np.einsum("kj,jl,kl->k", Z, np.zeros((1, 1)), Z)
                             + np.einsum("kj,kj->k", Z, a1[inverse]))
        got = S._improvements_for_player(game, pm, nodes, Tolerances(), 0)
        assert got.tobytes() == want.tobytes(), pm.player
        assert bool(np.signbit(got[got == 0.0]).any()) is (pm.player == 0)


def _grouping_cases():
    """(nodes, block) pairs for _rival_groups, with ties big enough (up to
    66 rows a group) that a sort which is not stable reorders them."""
    rng = np.random.default_rng(29)
    axis = np.linspace(-1.0, 1.0, 21)
    box2 = np.stack([m.ravel() for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    levels = rng.choice([-0.5, -0.25, 0.0, 0.25], size=(600, 4))
    zeros = rng.choice([-0.0, 0.0, 1.0], size=(300, 3))
    simplex, box = S._block_grid(Simplex(3), 0.1), S._block_grid(Box([-1.0], [1.0]), 0.1)
    joined = np.hstack([np.repeat(simplex, len(box), axis=0), np.tile(box, (len(simplex), 1))])
    return {
        "one-rival-column": (box2, slice(1, 2)),
        "three-rival-columns": (levels, slice(1, 2)),
        "signed-zeros": (zeros, slice(2, 3)),
        "offsets": (_offset_nodes(), slice(0, 1)),
        "simplex-box/simplex-player": (joined, slice(0, 3)),
        "simplex-box/box-player": (joined, slice(3, 4)),
        "single-node": (np.array([[0.5, -0.5, 0.0]]), slice(1, 2)),
        "one-player": (box2, slice(0, 2)),
    }


def _offset_nodes():
    """Rows whose two rival columns sit on three levels, moved by +-1e-13
    (which round to the level) or by 6e-13 (which does not)."""
    rng = np.random.default_rng(31)
    base = rng.choice([-0.3, 0.2, 0.7], size=(400, 3))
    return base + rng.choice([-1e-13, 0.0, 1e-13, 6e-13], size=base.shape)


@pytest.mark.parametrize("case", list(_grouping_cases()))
def test_rival_groups_equal_the_unique_reference(case):
    nodes, block = _grouping_cases()[case]
    first, inverse = S._rival_groups(nodes, block)
    want_first, want_inverse = grouping_reference.rival_groups(nodes, block)
    assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)


def test_rival_groups_round_and_merge_signed_zeros():
    # -0.0 and +0.0 are one profile; +-1e-13 rounds onto its level and
    # 6e-13 does not, so the offset rows make more groups than the three
    # levels squared and fewer than their raw profiles
    first, inverse = S._rival_groups(np.array([[1.0, -0.0], [2.0, 0.0], [3.0, -0.0]]),
                                     slice(0, 1))
    assert np.array_equal(first, [0]) and np.array_equal(inverse, [0, 0, 0])
    nodes = _offset_nodes()
    first, _ = S._rival_groups(nodes, slice(0, 1))
    assert 9 < len(first) < len(np.unique(nodes[:, 1:], axis=0))


def test_rival_groups_equal_the_reference_on_random_node_sets():
    rng = np.random.default_rng(2901)
    for _ in range(300):
        k, n = int(rng.integers(2, 7)), int(rng.integers(1, 120))
        nodes = rng.choice([-1.5, -0.5, -0.0, 0.0, 0.5], size=(n, k))
        nodes += rng.choice([0.0, 1e-13, -1e-13], size=(n, k))
        lo = int(rng.integers(0, k))
        block = slice(lo, int(rng.integers(lo + 1, k + 1)))
        first, inverse = S._rival_groups(nodes, block)
        want_first, want_inverse = grouping_reference.rival_groups(nodes, block)
        assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)


def _oracle_fields(orc):
    return (orc.certified.tobytes(), orc.improvements.tobytes(), orc.feasible_count,
            orc.cross_checked,
            [(d["node"].tobytes(), d["verifier"], d["oracle"]) for d in orc.disagreements])


@pytest.mark.parametrize("games, h", [
    (gi.grid_aligned_instances, 0.02),
    (lambda: [gi.simplex_argmax_game(), gi.box_argmax_game(), gi.union_chase_game()], 0.05),
], ids=["grid-aligned", "argmax-and-union-chase"])
def test_grid_oracle_keeps_its_bits_under_the_reference_grouping(games, h, monkeypatch):
    """union_chase_game's relation oracle takes the per-group path
    (_improvements_per_group); the others score groups in one batch."""
    got = [_oracle_fields(grid_oracle(g, h=h, cross_check=True)) for g in games()]
    monkeypatch.setattr(S, "_rival_groups", grouping_reference.rival_groups)
    want = [_oracle_fields(grid_oracle(g, h=h, cross_check=True)) for g in games()]
    assert got == want


def test_vertex_form_game_runs_no_support_lp(monkeypatch):
    # once the player's vertex form is built (one boundedness LP), support
    # over a 2-D slice is the best feasible candidate, in the verifier and
    # in the oracle's batch alike
    from gnepkit import _lp

    games = [gi.box_argmax_game((-0.5, 1.0)), _batch_family(0)[0]]
    for g in games:
        for i in range(g.n_players):
            constraint_body(g, i, np.zeros(g.n))
    calls = []
    real = _lp.solve_lp
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    for x in ([0.0, 1.0], [1.0, 1.0], [0.5, 0.5]):
        verify_equilibrium(games[0], np.array(x))
    orc = grid_oracle(games[0], h=0.05)
    assert np.array_equal(orc.certified, [[0.0, 1.0]]) and not orc.disagreements
    assert orc.cross_checked > 50
    orc = grid_oracle(games[1], h=0.25, cross_sample=50)
    assert not orc.disagreements and orc.cross_checked >= 50
    assert calls == []


def test_residual_over_an_unbounded_shared_set_is_exact():
    # the shared set of coercive_inward_game is the orthant, which has no
    # vertices: the residual at the start point (1, 1), which the
    # certificate rejects, is 2 from one LP in the orthant's rows, and the
    # solve goes on to the equilibrium (0, 0) as an exact claim
    g = gi.coercive_inward_game()
    assert vi_residual(g, np.array([1.0, 1.0]))[0] == 2.0
    for solve in (solve_vi, solve_qvi):
        res = solve(g)
        assert res.converged and res.certificate.is_equilibrium and not res.approximate
        assert np.array_equal(res.point, [0.0, 0.0])


@pytest.mark.parametrize("n", [10, 16, 24])
def test_vi_certifies_jointly_convex_games_past_the_vertex_cap(n):
    # the shared set is the unit cube cut by 1-2 rows, whose (2n + 1 or 2)
    # choose n row subsets exceed the vertex enumeration's cap, so the
    # residual reads support LPs and the LP in the rows
    for s in range(5):
        game = gi.random_jointly_convex(s, n_players=n)
        with pytest.raises(EnumerationError):
            game.shared_set.vertices()
        res = solve_vi(game)
        assert res.converged and res.certificate.is_equilibrium, s


def test_rows_lp_matches_the_vertex_lp_on_bounded_bodies(monkeypatch):
    # with vertices() refused, every hull that is not a point takes the LP in
    # the closure's rows; on a bounded body it is the LP dual of the vertex
    # LP of hull_reference, so both give the same r
    games = [gi.random_jointly_convex(s) for s in range(20)]
    vertices = [g.shared_set.vertices() for g in games]
    calls = []
    real = S._rows_lp
    monkeypatch.setattr(S, "_rows_lp", lambda *a: calls.append(1) or real(*a))

    def refused(self):
        raise EnumerationError("vertex path patched off")

    monkeypatch.setattr(HPoly, "vertices", refused)
    for s, (game, V) in enumerate(zip(games, vertices)):
        X = game.shared_set
        rng = np.random.default_rng(s)
        for k in range(10):
            y = rng.uniform(-1.0, 2.0, game.n)
            x = X.project(y) if k % 4 else y
            op = evaluate_T(game, x, Tolerances(eps_open=1e-2))
            r, t = hull_residual(op, x, X)
            assert _section_hull_holds(op, t)
            assert r == pytest.approx(float(np.max((x - V) @ t)), rel=0.0, abs=1e-12)
            assert max(r, 0.0) == pytest.approx(hull_residual_lp(op, x, V)[0], rel=0.0, abs=1e-9)
    assert len(calls) > 20


def test_ball_hull_residual_holds_zero_or_refuses():
    # a Ball has no rows: a hull that is not a point is exact only when every
    # block is the whole space or a zero cone (0 in co T(x), so r = 0 on the
    # ball); any other hull is refused, naming the Ball
    disc = Ball([0.0, 0.0], 1.0)
    x = np.array([0.3, -0.4])
    whole = OperatorEval((ConeSection.whole(1), ConeSection.zero(1)), (0, 1))
    r, t = hull_residual(whole, x, disc)
    assert r == 0.0 and np.array_equal(t, [0.0, 0.0])
    two = OperatorEval((ConeSection(2, np.array([[1.0, 0.0], [0.0, 1.0]])),), (0,))
    with pytest.raises(EnumerationError, match="Ball"):
        hull_residual(two, x, disc)
