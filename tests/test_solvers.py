from pathlib import Path

import numpy as np
import pytest

from gnepkit.convexsets import Ball, Box, ConeSection, EmptyBodyError, EnumerationError, HPoly
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
    max_improvement,
)
from gnepkit.solvers import (
    SolverConfig,
    _body_vertices,
    _start,
    grid_oracle,
    hull_residual,
    qvi_residual,
    solve_qvi,
    solve_vi,
    vi_residual,
)
from gnepkit import instances as gi

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


def test_extragradient_also_converges():
    res = solve_vi(gi.splitting_game(), SolverConfig(method="extragradient"))
    assert res.converged and abs(res.point.sum() - 1.0) <= 1e-6


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
    V = g.shared_set.vertices()
    for x in (np.array([0.3, 0.3]), np.array([0.1, 0.6])):
        op = evaluate_T(g, x)
        r, t = hull_residual(op, x, V)
        # single generator per block: the LP must equal max_v <t, x - v>
        direct = max(float(t @ (x - v)) for v in V)
        assert r == pytest.approx(max(direct, 0.0), abs=1e-9)


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
                imp, _ = max_improvement(pm, x, constraint_body(game, i, x), tol.eps_open)
                assert imp <= tol.eps_open, (s, i, imp)
    assert satiated


def test_residual_tol_above_eps_open_converges_uncertified():
    # the SolverConfig docstring's example: each block's only generator is a
    # unit -∇u_i, so its residual term is its improvement over K_i(x)
    g = gi.random_qvi(9)
    res = solve_qvi(g, SolverConfig(residual_tol=5e-7, restarts=4))
    slacks = res.certificate.emptiness_slacks
    assert res.converged and not res.certificate.is_equilibrium
    assert res.residual == pytest.approx(1.476e-7, rel=1e-3)
    assert slacks == pytest.approx([1.192e-7, 2.844e-8], rel=1e-3)
    assert res.residual == pytest.approx(slacks.sum(), rel=1e-9)
    res = solve_qvi(g, SolverConfig(residual_tol=5e-8, restarts=4))
    assert res.converged and res.certificate.is_equilibrium


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


def test_whole_space_blocks_enter_residual_conservatively():
    # at a satiated block the residual must still catch other players' slack
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([1.0, 0.0]))   # player 1 satiated at cap
    V = g.shared_set.vertices()
    r, _ = hull_residual(op, np.array([1.0, 0.0]), V)
    assert r <= 1e-9   # (1,0) is a genuine VI solution here


# -- the separable QVI residual --------------------------------------------------
#
# qvi_residual sums one term per block.  The oracle is the joint LP: hull_residual
# over the Cartesian product of the slices' vertex sets, built here only.


def _product_vertices(game, x):
    """Every combination of the slices' vertices at x; None when one is empty."""
    rng = np.random.default_rng(0)
    try:
        per = [_body_vertices(constraint_body(game, i, x), rng)
               for i in range(game.n_players)]
    except EmptyBodyError:
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
    r_joint, _ = hull_residual(evaluate_T(game, x), x, V)
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
