"""The block operator T: normal cones of convexified preferences."""

import numpy as np
import pytest

import gnepkit as gk
from gnepkit import convexsets, game as gmod, preferences, solvers
from gnepkit.convexsets import Box, HPoly, Simplex
from gnepkit.game import FixedConstraint, GameInstance, Tolerances
from gnepkit.operators import evaluate_T, normal_map, select
from gnepkit.preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    UnboundedPreferenceError,
    max_improvement,
)
from gnepkit import instances as gi

from operator_reference import graded_section

SQ2 = np.sqrt(2.0)


def test_splitting_blocks_are_minus_one():
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([0.3, 0.3]))
    assert not any(blk.whole_space for blk in op.blocks)
    for blk in op.blocks:
        assert len(blk.generators) == 1
        assert np.allclose(blk.generators[0], [-1.0], atol=1e-12)


def test_satiated_block_is_whole_space():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([1.0])))
    blk = normal_map(pm, np.array([0.5]))
    assert blk.whole_space


def test_interior_nonsatiated_block_is_gradient_direction():
    pm = PreferenceMap(0, 0, Box([0.0, 0.0], [1.0, 1.0]),
                       LinearUtility(np.array([3.0, 4.0])))
    blk = normal_map(pm, np.array([0.5, 0.5]))
    assert len(blk.generators) == 1
    assert np.allclose(blk.generators[0], [-0.6, -0.8], atol=1e-9)


def test_boundary_block_adds_ambient_face_normals():
    pm = PreferenceMap(0, 0, Box([0.0, 0.0], [1.0, 1.0]),
                       LinearUtility(np.array([1.0, 0.0])))
    blk = normal_map(pm, np.array([0.5, 0.0]))   # on the x2 = 0 face
    G = np.asarray(blk.generators)
    assert any(np.allclose(g, [-1.0, 0.0], atol=1e-9) for g in G)
    assert any(np.allclose(g, [0.0, -1.0], atol=1e-9) for g in G)


def test_simplex_tangent_reduction():
    # on the price simplex the operator lives in the sum-zero tangent plane
    pm = PreferenceMap(0, 0, Simplex(2), LinearUtility(np.array([1.0, 2.0])))
    blk = normal_map(pm, np.array([0.5, 0.5]))
    G = np.asarray(blk.generators)
    assert len(G) == 1
    assert abs(G[0].sum()) < 1e-9             # tangent to {sum = const}
    assert np.allclose(G[0], [1 / SQ2, -1 / SQ2], atol=1e-9)


def test_simplex_vertex_satiation():
    pm = PreferenceMap(0, 0, Simplex(2), LinearUtility(np.array([1.0, 2.0])))
    blk = normal_map(pm, np.array([0.0, 1.0]))  # the utility's argmax vertex
    assert blk.whole_space


def test_select_rules():
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([0.3, 0.3]))
    assert np.allclose(select(op), [-1.0, -1.0], atol=1e-9)


def test_select_whole_space_contributes_zero():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([1.0])))
    g = GameInstance((pm,), (FixedConstraint(Box([0.0], [1.0])),), None, "sat")
    op = evaluate_T(g, np.array([0.5]))
    assert op.blocks[0].whole_space
    assert np.allclose(select(op), [0.0])


def test_operator_eval_block_slices():
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([0.2, 0.7]))
    assert op.dim == 2
    assert op.block_slice(0) == slice(0, 1)
    assert op.block_slice(1) == slice(1, 2)


# -- the one graded pass against the per-block reference ---------------------


def _assert_same_section(got, want):
    assert got.whole_space == want.whole_space
    assert got.generators.shape == want.generators.shape
    assert np.array_equal(got.generators, want.generators)


def _assert_matches_reference(game, x, eps_open):
    op = evaluate_T(game, x, Tolerances(eps_open=eps_open))
    graded = 0
    for pm, got in zip(game.preferences, op.blocks):
        if isinstance(pm.variant, (LinearUtility, QuadUtility)):
            _assert_same_section(got, graded_section(pm, x, eps_open))
            graded += 1
        else:
            _assert_same_section(got, normal_map(pm, x, eps_open))
    return graded


@pytest.mark.parametrize("family,solve", [
    (gi.random_jointly_convex, "vi"),
    (gi.random_qvi, "qvi"),
])
def test_graded_pass_equals_reference_at_every_iterate(monkeypatch, family, solve):
    """Criteria 3 and 4's families at their settings: every operator
    evaluation of every solve has the reference's sections, bit for bit."""
    tol = Tolerances(eps_open=1e-6)
    seen = []

    def checked(game, x, tol=Tolerances(), seed=0):
        seen.append(_assert_matches_reference(game, x, tol.eps_open))
        return evaluate_T(game, x, tol, seed)

    monkeypatch.setattr(solvers, "evaluate_T", checked)
    run = gk.solve_vi if solve == "vi" else gk.solve_qvi
    for s in range(100):
        run(family(s), gk.SolverConfig(residual_tol=5e-7, restarts=4), tol)
    assert len(seen) > 1000 and sum(seen) > 2000


def _pm(ambient, variant):
    return PreferenceMap(0, 0, ambient, variant)


def _points(lo, hi, rng, k=40):
    """Interior draws, face and corner points of [lo, hi] and a little outside."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    pts = list(rng.uniform(lo, hi, size=(k, lo.size)))
    for p in rng.uniform(lo, hi, size=(k, lo.size)):
        j = rng.integers(lo.size)
        p[j] = lo[j] if rng.uniform() < 0.5 else hi[j]
        pts.append(p)
    pts.append(lo.copy())
    pts.append(hi.copy())
    pts.append(hi + 1e-9)
    return pts


def _cross_game():
    """Two players on 3-D and 1-D boxes: diagonal own curvature with one flat
    coordinate, and couplings between the blocks."""
    Q = np.zeros((4, 4))
    Q[:3, :3] = np.diag([-1.0, -2.0, 0.0])
    Q[0, 3] = Q[3, 0] = 0.7
    Q[1, 3] = Q[3, 1] = -0.4
    Q[3, 3] = -1.5
    X = [Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), Box([-1.0], [2.0])]
    prefs = (PreferenceMap(0, 0, X[0], QuadUtility(Q, [0.3, 1.1, -0.2, 0.0])),
             PreferenceMap(1, 3, X[1], QuadUtility(-Q, [0.0, 0.0, 0.0, 0.5])))
    return GameInstance(prefs, tuple(FixedConstraint(b) for b in X), None, "cross")


def test_nd_box_block_with_diagonal_curvature_equals_reference():
    game = _cross_game()
    rng = np.random.default_rng(3)
    pts = _points([0.0, 0.0, 0.0, -1.0], [1.0, 1.0, 1.0, 2.0], rng)
    assert sum(_assert_matches_reference(game, x, 1e-7) for x in pts) == 2 * len(pts)
    pm = _pm(Box([0.0, -1.0], [1.0, 1.0]), LinearUtility([1.0, -1e-13]))
    for x in _points([0.0, -1.0], [1.0, 1.0], rng):
        _assert_same_section(normal_map(pm, x), graded_section(pm, x, 1e-7))


def test_block_with_cross_terms_inside_equals_reference():
    Q = np.array([[-2.0, 0.5], [0.5, -1.0]])
    pm = _pm(Box([0.0, 0.0], [1.0, 1.0]), QuadUtility(Q, [0.8, 0.1]))
    for x in _points([0.0, 0.0], [1.0, 1.0], np.random.default_rng(4)):
        _assert_same_section(normal_map(pm, x), graded_section(pm, x, 1e-7))


def test_simplex_block_equals_reference():
    pm = _pm(Simplex(3), QuadUtility(-np.eye(3), [0.2, 0.5, 0.1]))
    rng = np.random.default_rng(5)
    pts = list(rng.dirichlet(np.ones(3), size=40)) + list(np.eye(3))
    pts.append(np.array([0.0, 0.5, 0.5]))
    for x in pts:
        _assert_same_section(normal_map(pm, x), graded_section(pm, x, 1e-7))
    lin = _pm(Simplex(2), LinearUtility([1.0, 2.0]))
    for x in ([0.5, 0.5], [0.0, 1.0], [1.0, 0.0]):
        _assert_same_section(normal_map(lin, x), graded_section(lin, np.array(x), 1e-7))


def test_hpoly_block_equals_reference():
    body = HPoly([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    for variant in (LinearUtility([1.0, 0.5]), QuadUtility(-np.eye(2), [0.9, 0.2])):
        pm = _pm(body, variant)
        for x in ([0.2, 0.3], [0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [0.0, 0.4], [0.9, 0.2]):
            _assert_same_section(normal_map(pm, x), graded_section(pm, np.array(x), 1e-7))


@pytest.mark.parametrize("pm,x", [
    (_pm(Box([0.0], [1.0]), QuadUtility([[-2.0]], [1.0])), [0.5 + 3e-4]),
    (_pm(Box([0.0], [1.0]), LinearUtility([1.0])), [1.0 - 2e-7]),
    (_pm(Box([0.0, 0.0], [1.0, 1.0]), QuadUtility(np.diag([-2.0, -1.0]), [1.0, 0.3])),
     [0.5 + 1e-4, 0.3 - 2e-4]),
])
def test_satiation_edge_is_the_verifiers(pm, x):
    """At eps_open equal to the verifier's own slack the block is satiated,
    one step of eps_open below it is not, in the pass and the reference."""
    x = np.asarray(x)
    slack, _ = max_improvement(pm, x, pm.ambient)
    assert slack > 0.0
    for eps, whole in ((slack, True), (np.nextafter(slack, -np.inf), False)):
        got = normal_map(pm, x, eps)
        assert got.whole_space is whole
        _assert_same_section(got, graded_section(pm, x, eps))


def test_mixed_game_keeps_block_order():
    """A row-given player between two graded ones: its section is today's
    set-valued one and the graded blocks around it are the reference's."""
    X = [Box([0.0], [1.0]), Box([0.0, 0.0], [1.0, 1.0]), Box([-0.5], [1.5])]
    prefs = (PreferenceMap(0, 0, X[0], LinearUtility([1.0])),
             PreferenceMap(1, 1, X[1], PolyhedralPref.constant([[-1.0, -1.0]], [-1.2])),
             PreferenceMap(2, 3, X[2], QuadUtility([[-1.0]], [0.4])))
    game = GameInstance(prefs, tuple(FixedConstraint(b) for b in X), None, "mixed")
    for x in ([0.3, 0.2, 0.4, 0.4], [1.0, 0.5, 0.5, 1.5], [0.0, 0.6, 0.6, -0.5]):
        assert _assert_matches_reference(game, np.array(x), 1e-7) == 2
        op = evaluate_T(game, np.array(x))
        assert [b.dim for b in op.blocks] == [1, 2, 1]
        assert op.starts == (0, 1, 3)


def test_linear_players_stack_no_joint_matrix():
    """A linear player's own gradient is its c: the graded rows hold no
    n x n array for it, and Q stacks only the quadratic players' joint Q."""
    n = 60
    X = Box([0.0], [1.0])
    rng = np.random.default_rng(6)
    prefs = [PreferenceMap(i, i, X, LinearUtility([rng.normal()])) for i in range(n)]
    game = GameInstance(tuple(prefs), (FixedConstraint(X),) * n, None, "linear")
    R = game._graded_rows
    assert R.Q is None
    assert max(a.size for a in vars(R).values() if isinstance(a, np.ndarray)) < n * n
    for x in rng.uniform(-0.1, 1.1, size=(5, n)):
        assert _assert_matches_reference(game, x, 1e-7) == n
    prefs[3] = PreferenceMap(3, 3, X, QuadUtility([[-2.0]], [0.9]))
    prefs[40] = PreferenceMap(40, 40, X, QuadUtility([[-0.5]], [-0.2]))
    game = GameInstance(tuple(prefs), (FixedConstraint(X),) * n, None, "two quadratic")
    assert game._graded_rows.Q.shape == (2, n, n)
    for x in rng.uniform(-0.1, 1.1, size=(5, n)):
        assert _assert_matches_reference(game, x, 1e-7) == n


def test_gradient_rows_give_the_own_gradient():
    """GradedRows.gradient_rows(k) (the finish step's rows): G @ x + c is
    block k's own gradient, the quadratic players' rows of the joint Q,
    projected onto the simplex's tangent space over a Simplex X_i; a linear
    block has none."""
    Q = np.array([[-1.0, 0.2, 0.3, 0.0], [0.2, -2.0, 0.1, 0.5],
                  [0.3, 0.1, -1.5, 0.0], [0.0, 0.5, 0.0, -1.0]])
    c = np.array([0.4, 0.1, -0.2, 0.7])
    prefs = (PreferenceMap(0, 0, Box([0.0], [1.0]), LinearUtility([1.0, 0.0, 0.0, 0.0])),
             PreferenceMap(1, 1, Simplex(2), QuadUtility(Q, c)),
             PreferenceMap(2, 3, Box([0.0], [1.0]), QuadUtility(Q, c)))
    game = GameInstance(prefs, tuple(FixedConstraint(pm.ambient) for pm in prefs), None, "rows")
    R = game._graded_rows
    assert R.gradient_rows(0) is None
    P = np.eye(2) - 0.5
    x = np.array([0.3, 0.6, 0.4, 0.8])
    for k, (sl, proj) in enumerate([(slice(1, 3), P), (slice(3, 4), np.eye(1))], start=1):
        G, g0 = R.gradient_rows(k)
        assert np.allclose(G @ x + g0, proj @ (Q[sl] @ x + c[sl]), rtol=0.0, atol=1e-15)


def test_evaluate_T_on_box_blocks_runs_no_improvement_search(monkeypatch):
    """Every block of random_jointly_convex(0) is a 1-D box: the pass needs
    neither the verifier's improvement nor a maximize."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(preferences, "max_improvement",
                        counted("max_improvement", preferences.max_improvement))
    for mod in (convexsets, preferences, gmod, solvers):
        monkeypatch.setattr(mod, "maximize", counted("maximize", convexsets.maximize))
    game = gi.random_jointly_convex(0)
    rng = np.random.default_rng(0)
    pts = [game.shared_set.project(p) for p in rng.uniform(-0.5, 1.5, size=(20, game.n))]
    ops = [evaluate_T(game, x) for x in pts]
    assert sum(b.n_generators for op in ops for b in op.blocks) > 0
    assert calls == []


@pytest.mark.parametrize("ambient", [Box([0.0, 0.0], [1.0, np.inf]), Box([-np.inf], [0.0])])
def test_unbounded_improvement_raises_in_pass_and_reference(ambient):
    c = np.array([0.0, 1.0]) if ambient.dim == 2 else np.array([-1.0])
    pm = _pm(ambient, LinearUtility(c))
    x = np.zeros(ambient.dim)
    for section in (normal_map, graded_section):
        with pytest.raises(UnboundedPreferenceError, match="player 0: improvement unbounded"):
            section(pm, x, 1e-7)
