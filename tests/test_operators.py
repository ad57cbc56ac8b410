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

from operator_reference import graded_section, own_gradient

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


def _cross_game(q1=-1.5):
    """Two players on 3-D and 1-D boxes: diagonal own curvature with one flat
    coordinate, and couplings between the blocks; q1 is player 1's own
    curvature."""
    Q = np.zeros((4, 4))
    Q[:3, :3] = np.diag([-1.0, -2.0, 0.0])
    Q[0, 3] = Q[3, 0] = 0.7
    Q[1, 3] = Q[3, 1] = -0.4
    Q[3, 3] = -1.5
    Q1 = -Q
    Q1[3, 3] = q1
    X = [Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]), Box([-1.0], [2.0])]
    prefs = (PreferenceMap(0, 0, X[0], QuadUtility(Q, [0.3, 1.1, -0.2, 0.0])),
             PreferenceMap(1, 3, X[1], QuadUtility(Q1, [0.0, 0.0, 0.0, 0.5])))
    return GameInstance(prefs, tuple(FixedConstraint(b) for b in X), None, "cross")


def test_nd_box_block_with_diagonal_curvature_equals_reference():
    with pytest.raises(ValueError, match="player 1: the own block of Q is not negative"):
        _cross_game(1.5)
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
    slack = max_improvement(pm, x, pm.ambient)
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


# -- edge cases of the float pass over 1-D boxes -------------------------------

_EPS = convexsets.EPS_ACTIVE
_BOXES = [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
          (0.5, 0.5), (0.0, np.inf), (-np.inf, -0.0), (-np.inf, np.inf), (-2.0, 3.0)]
# linear coefficients: signed zeros and both sides of the 1e-12 cut
_SMALL = [0.0, -0.0, 1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0),
          -1e-12, -np.nextafter(1e-12, 0.0), 0.7, -0.7]
# own curvatures: linear within maximize's 1e-13, and concave
_CURVES = [-0.0, 0.0, -1e-14, 1e-14, -0.5, -2.0]


def _edge_coordinates(lo, hi):
    """Signed zeros, the bounds, and points either side of EPS_ACTIVE
    (1 + |bound|) from each finite face."""
    out = [0.0, -0.0]
    for b, inward in ((lo, 1.0), (hi, -1.0)):
        if np.isfinite(b):
            tol = _EPS * (1.0 + abs(b))
            out += [b, b + inward * 0.5 * tol, b + inward * 2.0 * tol, b + inward * tol,
                    np.nextafter(b + inward * tol, -inward * np.inf),
                    np.nextafter(b + inward * tol, inward * np.inf), b - inward * 1e-9]
    if np.isfinite(lo) and np.isfinite(hi):
        out.append(0.5 * (lo + hi))
    return out


def _edge_game(rng, m):
    """m players on 1-D boxes: linear ones with small or signed-zero
    coefficients, quadratic ones with an own curvature of _CURVES coupled
    to the others."""
    prefs = []
    for j in range(m):
        X = Box(*([b] for b in _BOXES[rng.integers(len(_BOXES))]))
        if rng.uniform() < 0.5:
            v = LinearUtility([_SMALL[rng.integers(len(_SMALL))]])
        else:
            Q = np.zeros((m, m))
            Q[j] = Q[:, j] = rng.choice([0.0, -0.0, 0.3, -0.6], size=m)
            Q[j, j] = _CURVES[rng.integers(len(_CURVES))]
            c = np.zeros(m)
            c[j] = _SMALL[rng.integers(len(_SMALL))]
            v = QuadUtility(Q, c)
        prefs.append(PreferenceMap(j, j, X, v))
    return GameInstance(tuple(prefs), tuple(FixedConstraint(pm.ambient) for pm in prefs),
                        None, "edges")


def _assert_same_bits(got, want):
    assert got.whole_space == want.whole_space
    assert got.generators.dtype == want.generators.dtype
    assert got.generators.shape == want.generators.shape
    assert got.generators.tobytes() == want.generators.tobytes()


def test_float_pass_equals_reference_at_edges():
    """The pass over 1-D box blocks against the per-block reference, bit for
    bit, at signed zeros, bounds and points within EPS_ACTIVE of a face, on
    one-sided and infinite boxes, for gradients of 0 and either side of
    1e-12, and at eps_open equal to a block's own slack and one step below;
    a game with an unbounded block raises, naming the first in block order."""
    rng = np.random.default_rng(25)
    seen = {"whole": 0, "moves": 0, "still": 0, "raised": 0, "edge": 0}
    for _ in range(1500):
        game = _edge_game(rng, int(rng.integers(1, 4)))
        x = np.array([rng.choice(_edge_coordinates(float(pm.ambient.lo[0]),
                                                   float(pm.ambient.hi[0])))
                      for pm in game.preferences])
        unbounded, slacks = [], []
        for pm in game.preferences:
            try:
                slacks.append(max_improvement(pm, x, pm.ambient))
            except UnboundedPreferenceError:
                unbounded.append(pm.player)
        if unbounded:
            seen["raised"] += 1
            with pytest.raises(UnboundedPreferenceError,
                               match=f"^player {unbounded[0]}: improvement unbounded$"):
                evaluate_T(game, x)
            continue
        for eps in (0.0, 1e-7, *slacks, *(np.nextafter(t, -np.inf) for t in slacks)):
            op = evaluate_T(game, x, Tolerances(eps_open=float(eps)))
            for pm, got, t in zip(game.preferences, op.blocks, slacks):
                _assert_same_bits(got, graded_section(pm, x, eps))
                seen["edge"] += t == eps
                g = own_gradient(pm, x)[0]
                seen["whole" if got.whole_space else "moves" if abs(g) >= 1e-12 else "still"] += 1
    assert min(seen.values()) > 50, seen


def test_float_pass_sections_at_the_gradient_cut():
    """A linear block on [0, 1] at 0.5, non-satiated at eps_open 0: its
    gradient direction enters the section from exactly 1e-12 on."""
    for c, moves in ((1e-12, True), (np.nextafter(1e-12, 0.0), False),
                     (np.nextafter(1e-12, 1.0), True), (-1e-12, True), (0.0, False),
                     (-0.0, False)):
        pm = _pm(Box([0.0], [1.0]), LinearUtility([c]))
        got = normal_map(pm, np.array([0.5]), 0.0)
        want = graded_section(pm, np.array([0.5]), 0.0)
        _assert_same_bits(got, want)
        assert got.generators.tolist() == ([[-np.sign(c)]] if moves else [])
        assert got.whole_space is bool(c == 0.0)


def test_fixed_sections_are_read_only():
    """A boxed block's section is shared between calls, so writing into its
    generators raises."""
    pm = _pm(Box([0.0], [1.0]), LinearUtility([1.0]))
    for x, eps in (([0.5], 1e-7), ([1.0], 1e-7), ([0.0], 1e-7), ([1.0], 1.0)):
        section = normal_map(pm, np.array(x), eps)
        with pytest.raises(ValueError, match="read-only"):
            section.generators[...] = 0.0
    game = gi.splitting_game()
    for section in evaluate_T(game, np.array([0.3, 0.3])).blocks:
        with pytest.raises(ValueError, match="read-only"):
            section.generators[0, 0] = 2.0
    assert evaluate_T(game, np.array([0.3, 0.3])).blocks[0].generators.tolist() == [[-1.0]]


def test_normal_map_over_a_flat_union_hull():
    """Two pieces on the plane z_2 = 0.5 in R^3: their hull is the flat
    rectangle [0, 1]^2 x {0.5}.  In its relative interior the normal cone is
    the plane's normal line, whose hull of ±e_2 holds 0; above the plane
    only the side it lies on is active."""
    from gnepkit.preferences import UnionPref

    plane = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    left = PolyhedralPref.constant([[1.0, 0.0, 0.0], *plane], [0.2, 0.5, -0.5], [False] * 3)
    right = PolyhedralPref.constant([[-1.0, 0.0, 0.0], *plane], [-0.8, 0.5, -0.5], [False] * 3)
    pm = _pm(Box([0.0] * 3, [1.0] * 3), UnionPref((left, right)))
    inside = normal_map(pm, np.array([0.5, 0.5, 0.5]))
    assert not inside.whole_space
    assert np.array_equal(inside.generators, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(inside.min_norm_point(), np.zeros(3))
    above = normal_map(pm, np.array([0.5, 0.5, 0.9]))
    assert np.array_equal(above.generators, [[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("ambient", [Box([0.0, 0.0], [1.0, np.inf]), Box([-np.inf], [0.0])])
def test_unbounded_improvement_raises_in_pass_and_reference(ambient):
    c = np.array([0.0, 1.0]) if ambient.dim == 2 else np.array([-1.0])
    pm = _pm(ambient, LinearUtility(c))
    x = np.zeros(ambient.dim)
    for section in (normal_map, graded_section):
        with pytest.raises(UnboundedPreferenceError, match="player 0: improvement unbounded"):
            section(pm, x, 1e-7)


def _nonordered_game(seed):
    """2-3 players with [0, 1] or [0, 1]^2 blocks under the cube cut by one
    row a z <= 0.6 sum(a), a >= 0; player i strictly prefers {z : (z - x_i)
    g_k(x) > 0 for each k}, 1 or 2 rows g_k affine in all of x: a
    preference neither complete nor transitive in general."""
    from gnepkit.game import jointly_convex_game

    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 3, int(rng.integers(2, 4)))
    n = int(dims.sum())
    a = rng.uniform(0.0, 1.0, n)
    shared = HPoly(np.vstack([np.eye(n), -np.eye(n), a]),
                   np.concatenate([np.ones(n), np.zeros(n), [0.6 * a.sum()]]))
    variants, at = [], 0
    for d in map(int, dims):
        K = int(rng.integers(1, 3))
        G0, G1, sl = rng.normal(size=(K, d)), 0.5 * rng.normal(size=(K, d, n)), slice(at, at + d)

        def build(x, G0=G0, G1=G1, sl=sl):
            G = G0 + G1 @ x
            return -G, -G @ x[sl], np.ones(len(G), dtype=bool)
        variants.append(PolyhedralPref(build))
        at += d
    game = jointly_convex_game([Box(np.zeros(d), np.ones(d)) for d in dims], variants, shared)
    return game, 0.6 * rng.uniform(0.0, 1.0, (10, n))


def test_nonordered_sections_run_no_lp_and_equal_the_max_slack_path(monkeypatch):
    """Open preferred sets are decided by the least-distance NNLS: after a
    game is built, evaluate_T runs no LP, and its sections equal, bit for
    bit, those of the path that asked an LP for the largest strict margin
    (tests/emptiness_reference.py; is_empty(0.0) of a strict region read
    its margin as well).  Seeds 0-5, 10 points each."""
    import emptiness_reference
    from gnepkit import _lp

    sections = []
    for seed in range(6):
        game, points = _nonordered_game(seed)
        with monkeypatch.context() as m:
            m.setattr(_lp, "solve_lp", lambda *a, **k: pytest.fail("evaluate_T ran an LP"))
            got = [evaluate_T(game, x) for x in points]
        with monkeypatch.context() as m:
            m.setattr(HPoly, "is_empty", emptiness_reference.is_empty)
            want = [evaluate_T(game, x) for x in points]
        for op, ref in zip(got, want):
            for sec, ref_sec in zip(op.blocks, ref.blocks):
                _assert_same_section(sec, ref_sec)
                sections.append(sec)
    assert sum(sec.whole_space for sec in sections) >= 10
    assert sum(sec.n_generators > 0 for sec in sections) >= 10
