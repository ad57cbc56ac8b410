import numpy as np
import pytest

from gnepkit.convexsets import Box, ConeSection, EnumerationError
from gnepkit.game import Tolerances, verify_equilibrium
from gnepkit.operators import OperatorEval, evaluate_T
from gnepkit.solvers import (
    SolverConfig,
    grid_oracle,
    hull_residual,
    qvi_residual,
    solve_qvi,
    solve_vi,
    vi_residual,
)
from gnepkit import instances as gi


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


def test_whole_space_blocks_enter_residual_conservatively():
    # at a satiated block the residual must still catch other players' slack
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([1.0, 0.0]))   # player 1 satiated at cap
    V = g.shared_set.vertices()
    r, _ = hull_residual(op, np.array([1.0, 0.0]), V)
    assert r <= 1e-9   # (1,0) is a genuine VI solution here
