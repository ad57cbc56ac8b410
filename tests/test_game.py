import itertools

import numpy as np
import pytest

from gnepkit.convexsets import Ball, Box, HPoly, Simplex, intersect
from gnepkit.game import (
    FixedConstraint,
    GameInstance,
    SharedSlice,
    Tolerances,
    check_Cx,
    check_coercivity_jointly_convex,
    constraint_body,
    jointly_convex_game,
    membership_violation,
    slice_body,
    verify_equilibria,
    verify_equilibrium,
)
from gnepkit.jsonio import jsonable
from gnepkit.preferences import (LinearUtility, PolyhedralPref, PreferenceMap, QuadUtility,
                                 RelationOracle)
from gnepkit import game as game_module
from gnepkit import instances as gi


# -- slices ------------------------------------------------------------------


def test_slice_box():
    B = Box([0.0, 0.0], [1.0, 2.0])
    S = slice_body(B, np.array([0.5, 1.5]), slice(1, 2))
    assert S.contains([1.9]) and not S.contains([2.1])


def test_slice_hpoly_triangle():
    T = HPoly([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    S = slice_body(T, np.array([0.25, 0.3]), slice(0, 1))
    # fixing x2 = 0.3 leaves x1 in [0, 0.7]
    assert S.contains([0.0]) and S.contains([0.7]) and not S.contains([0.71])


def test_slice_ball():
    # only polyhedral bodies are sliced
    with pytest.raises(ValueError, match="cannot slice kind='ball'"):
        slice_body(Ball([0.0, 0.0], 1.0), np.array([0.0, 0.6]), slice(0, 1))


def test_non_polyhedral_shared_set_or_choice_set_refused():
    box, ball = Box([0.0], [1.0]), Ball([0.0, 0.0], 1.0)
    lin = [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])]
    with pytest.raises(ValueError, match="kind='ball' is not polyhedral"):
        jointly_convex_game([box, box], lin, ball)
    prefs = tuple(PreferenceMap(i, i, box, v) for i, v in enumerate(lin))
    with pytest.raises(ValueError, match="shared set kind='ball' is not polyhedral"):
        GameInstance(prefs, (SharedSlice(), SharedSlice()), ball)
    # X_i is cut by the shared set's rows, so it must be polyhedral too
    prefs = (PreferenceMap(0, 0, Ball([0.5], 0.5), lin[0]), prefs[1])
    with pytest.raises(ValueError, match="player 0: X_i kind='ball' is not polyhedral"):
        GameInstance(prefs, (SharedSlice(), SharedSlice()), Box([0.0, 0.0], [1.0, 1.0]))
    # as is an X_i cut by a preference's rows
    with pytest.raises(ValueError, match="player 0: X_i kind='ball' is not polyhedral"):
        PreferenceMap(0, 0, ball, PolyhedralPref.constant([[1.0, 0.0]], [0.5]))


def test_row_preference_over_non_polyhedral_fixed_body_refused():
    # the preferred set's rows meet K_i's rows in one slack LP
    X = Box([0.0, 0.0], [1.0, 1.0])
    rows = PolyhedralPref.constant([[1.0, 0.0]], [0.0])
    with pytest.raises(ValueError, match="player 0: K_i kind='ball' is not polyhedral"):
        GameInstance((PreferenceMap(0, 0, X, rows),), (FixedConstraint(Ball([0.0, 0.0], 0.5)),))
    # a utility over the same Ball stays fine
    GameInstance((PreferenceMap(0, 0, X, LinearUtility([1.0, 0.0])),),
                 (FixedConstraint(Ball([0.0, 0.0], 0.5)),))


def test_slice_empty_when_rivals_outside():
    T = HPoly([[1.0, 1.0]], [1.0])
    S = slice_body(T, np.array([0.0, 1.5]), slice(0, 1))
    assert not S.contains([0.0])  # needs x1 <= -0.5, clipped below by nothing


def _strict_equality_game():
    """Two 2-D players over an HPoly with strict rows and an equality as a
    +/- pair, inside a Box and a Simplex(2, 1.5) that it pokes out of, so
    the shared set becomes an intersect() with the lifted ambients."""
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 4))
    a = rng.standard_normal(4)
    A = np.vstack([A, a, -a])
    x0 = np.array([0.3, 0.2, 0.75, 0.75])
    b = A @ x0 + np.concatenate([rng.uniform(0.1, 0.5, 5), [0.0, 0.0]])
    strict = np.array([True, False, True, False, False, False, False])
    return jointly_convex_game(
        [Box([-1.0, -1.0], [2.0, 2.0]), Simplex(2, 1.5)],
        [LinearUtility([1.0, -1.0]), LinearUtility([0.5, 1.0])],
        HPoly(A, b, strict),
    ), x0


def _slice_families():
    for s in range(12):
        g = gi.random_jointly_convex(s)
        yield g, np.full(g.n, 0.5)
    for s in range(40):
        g = gi.random_qvi(s)
        if g.jointly_convex:
            yield g, np.full(g.n, 0.5)
    yield _strict_equality_game()
    # a shared set with equalities(): the budget line x_0 + x_1 = 1
    yield jointly_convex_game([Box([0.0], [1.0])] * 2, [LinearUtility([1.0])] * 2,
                              Simplex(2)), np.array([0.25, 0.75])


def test_cached_slice_rows_match_intersection_bit_for_bit():
    # K_i(x) from the cached rows against intersect(X_i, slice_body), at a
    # feasible point and at wandering ones.  Where a rival breaks a row with
    # no own part, the exact slice is empty (poisoned) and K_i(x) keeps the
    # rows the player can move: the same A, b and strict
    rng = np.random.default_rng(9)
    poisoned = played = 0
    for g, x_feas in _slice_families():
        assert g.shared_set.contains(x_feas)
        for x in [x_feas] + list(rng.uniform(-1.0, 2.0, (6, g.n))):
            for i, pm in enumerate(g.preferences):
                K = constraint_body(g, i, x)
                M = intersect(pm.ambient, slice_body(g.shared_set, x, pm.block))
                assert isinstance(K, HPoly) and not K._poisoned
                for field in ("A", "b", "strict"):
                    assert getattr(K, field).tobytes() == getattr(M, field).tobytes()
                poisoned += M._poisoned
                played += 1
    assert 0 < poisoned < played


def _unit_row_games():
    yield from gi.grid_aligned_instances()
    for seed in range(20):
        yield gi.random_jointly_convex(seed)
        yield gi.random_qvi(seed)


def test_slices_on_unit_rows_equal_the_normalised_slices_bit_for_bit():
    # the stored slice rows are unit as HPoly keeps them (each norm taken as
    # exactly 1.0), so HPoly._on_unit_rows builds the body the normalising
    # constructor builds, at a feasible point and at wandering ones
    from gnepkit.convexsets import _unit_norms

    rng = np.random.default_rng(3)
    played = 0
    for g in _unit_row_games():
        if not g.jointly_convex:
            continue
        x0 = g.shared_set.project(np.zeros(g.n))
        for x in [x0] + list(rng.uniform(-1.0, 2.0, (3, g.n))):
            for i in range(g.n_players):
                A, strict, b_X, b, rival, scale = g._slice_rows[i]
                norms, keep = _unit_norms(A)
                assert keep.all() and np.all(norms == 1.0)
                rhs = np.concatenate([b_X, (b - rival @ x) / scale])
                K, M = HPoly._on_unit_rows(A, rhs, strict), HPoly(A, rhs, strict)
                assert not K._poisoned and not M._poisoned
                for field in ("A", "b", "strict"):
                    assert getattr(K, field).tobytes() == getattr(M, field).tobytes()
                    assert getattr(K, field).shape == getattr(M, field).shape
                K = constraint_body(g, i, x)
                assert K.b.tobytes() == M.b.tobytes() and K.A is A
                played += 1
    assert played > 100


def test_rival_breaking_its_own_row_is_the_rivals_infeasibility():
    # S = {x0 <= 1, x1 <= 1, x0 + x1 <= 1.5} at x1 = 1.7: the exact slice
    # over x0 is empty, as the rival breaks x1 <= 1.  K_0(x) keeps the rows
    # player 0 can move, [-0.5, -0.2], and the break shows in player 1's slack
    g = jointly_convex_game(
        [Box([-0.5], [1.5])] * 2, [LinearUtility([1.0])] * 2,
        HPoly([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5]),
    )
    x = np.array([-0.3, 1.7])
    assert slice_body(g.shared_set, x, slice(0, 1)).is_empty()
    lo, hi = constraint_body(g, 0, x).bounding_box()
    assert lo == pytest.approx([-0.5]) and hi == pytest.approx([-0.2])
    cert = verify_equilibrium(g, x)
    assert cert.feasibility_slacks[0] <= 0.0
    assert cert.feasibility_slacks[1] == pytest.approx(0.7)
    assert cert.emptiness_slacks[0] == pytest.approx(0.1)


def test_membership_violation_values():
    B = Box([0.0, 0.0], [1.0, 1.0])
    assert membership_violation(B, np.array([0.5, 0.5])) <= 0
    assert membership_violation(B, np.array([1.2, 0.5])) == pytest.approx(0.2, abs=1e-9)


def test_equality_pairs_keep_membership_and_grid_verdicts():
    # a Simplex, an intersect() with a Simplex part and an HPoly with a +/-
    # pair carry their equality in the rows: the worst violation and the
    # grid mask equal those of the other rows and |C z - d| taken apart (to
    # the rounding of a matrix product that has one row more or less)
    from gnepkit.solvers import _inside_mask

    u = np.ones((1, 3)) / np.sqrt(3.0)
    a = np.array([[1.0, -2.0, 0.5]]) / np.linalg.norm([1.0, -2.0, 0.5])
    cube = np.vstack([np.eye(3), -np.eye(3)])
    cases = [
        (Simplex(3, 1.5), -np.eye(3), np.zeros(3), u, np.array([1.5 / np.sqrt(3.0)])),
        (intersect(Simplex(3, 1.5), HPoly([[1.0, 0.0, 0.0]], [0.9])),
         np.vstack([-np.eye(3), [1.0, 0.0, 0.0]]), np.array([0.0, 0.0, 0.0, 0.9]),
         u, np.array([1.5 / np.sqrt(3.0)])),
        (HPoly(np.vstack([cube, a, -a]), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.1, -0.1]),
         cube, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), a, np.array([0.1])),
    ]
    rng = np.random.default_rng(2)
    for K, A, b, C, d in cases:
        assert np.array_equal(K.equalities()[0], C)
        base = K.sample(rng, 20)
        pts = np.vstack([base] + [base + s * rng.standard_normal(base.shape)
                                  for s in (1e-10, 1e-9, 1e-8, 0.1)])
        for z in pts:
            want = max(np.max(A @ z - b), np.max(np.abs(C @ z - d)))
            assert membership_violation(K, z) == pytest.approx(want, rel=0.0, abs=1e-15)
        want = np.all(pts @ A.T - b <= 1e-9, axis=1) & np.all(np.abs(pts @ C.T - d) <= 1e-9, axis=1)
        assert np.array_equal(_inside_mask(K, pts), want)
        assert 0 < want.sum() < len(pts)


# -- assembly ----------------------------------------------------------------


def test_blocks_must_be_contiguous():
    p0 = PreferenceMap(0, 0, Box([0.0], [1.0]), LinearUtility([1.0]))
    p1_gap = PreferenceMap(1, 2, Box([0.0], [1.0]), LinearUtility([1.0]))
    with pytest.raises(ValueError):
        GameInstance((p0, p1_gap),
                     (FixedConstraint(Box([0.0], [1.0])),) * 2, None, "gap")


def test_shared_set_requires_shared_slices():
    p0 = PreferenceMap(0, 0, Box([0.0], [1.0]), LinearUtility([1.0]))
    with pytest.raises(ValueError):
        GameInstance((p0,), (FixedConstraint(Box([0.0], [1.0])),),
                     Box([0.0], [1.0]), "mixed")


def test_shared_set_wrapped_when_it_pokes_out_of_ambients():
    # shared face allows x2 up to 1.1 but X_2 = [0,1]: assembly must clip,
    # otherwise the VI can converge to a game-infeasible point
    shared = HPoly([[-1.0, 0.0], [0.0, -1.0], [2.0, 1.0]], [0.0, 0.0, 1.1])
    g = jointly_convex_game([Box([0.0], [1.0])] * 2,
                            [LinearUtility([1.0])] * 2, shared)
    assert not g.shared_set.contains(np.array([0.04, 1.02]))
    assert g.shared_set.contains(np.array([0.05, 1.0]))


def test_contained_shared_set_left_alone():
    g = gi.splitting_game()
    assert isinstance(g.shared_set, HPoly)


# -- certificates ------------------------------------------------------------


def test_splitting_interior_point_slack():
    g = gi.splitting_game()
    cert = verify_equilibrium(g, np.array([0.3, 0.3]))
    assert not cert.is_equilibrium
    assert np.allclose(cert.emptiness_slacks, [0.4, 0.4], atol=1e-9)


def test_splitting_face_point_certified():
    g = gi.splitting_game()
    cert = verify_equilibrium(g, np.array([0.25, 0.75]))
    assert cert.is_equilibrium
    assert max(cert.feasibility_slacks) <= 1e-7


def test_one_sided_equilibrium_certified():
    g = gi.one_sided_counterexample()
    cert = verify_equilibrium(g, np.array([1.0, 0.0]))
    assert cert.is_equilibrium


def test_zero_gradient_on_unbounded_axis_certified():
    # c_j == 0 along an infinite bound contributes 0, not 0 * inf = nan
    X = Box([0.0, 0.0], [1.0, np.inf])
    g = GameInstance((PreferenceMap(0, 0, X, LinearUtility([1.0, 0.0])),),
                     (FixedConstraint(X),), None, "zero-gradient")
    cert = verify_equilibrium(g, np.array([1.0, 5.0]))
    assert cert.is_equilibrium
    assert list(cert.emptiness_slacks) == [0.0]
    assert not any("improvement unbounded" in n for n in cert.notes)


def test_unbounded_improvement_note_names_the_player_once():
    X = Box([0.0], [np.inf])
    g = GameInstance((PreferenceMap(0, 0, X, LinearUtility([1.0])),),
                     (FixedConstraint(X),), None, "unbounded")
    cert = verify_equilibrium(g, np.array([1.0]))
    assert not cert.is_equilibrium
    assert cert.notes == ("player 0: improvement unbounded",)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_refused(bad):
    """A point with a non-finite coordinate is refused, as a point of the
    wrong size is, not judged with NaN slacks."""
    g = gi.splitting_game()
    for x in ([bad, 0.5], [0.5, bad]):
        with pytest.raises(ValueError, match="non-finite"):
            verify_equilibrium(g, np.array(x))
    with pytest.raises(ValueError, match="has dim 3"):
        verify_equilibrium(g, np.array([0.5, 0.5, bad]))


def test_infeasible_point_rejected():
    g = gi.splitting_game()
    cert = verify_equilibrium(g, np.array([0.8, 0.8]))
    assert not cert.is_equilibrium
    assert max(cert.feasibility_slacks) > 1e-3


def _rival_empties_first_slice(own_body, utility):
    # x_0 + x_last <= 1 with x_last = 1.5 leaves player 0 no feasible point
    n = own_body.dim + 1
    return jointly_convex_game(
        [own_body, Box([0.0], [2.0])], [utility, LinearUtility([1.0])],
        HPoly([np.ones(n)], [1.0]),
    ), np.concatenate([np.zeros(own_body.dim), [1.5]])


@pytest.mark.parametrize("case", ["1d-closed-form", "2d-lp", "quadratic"])
def test_empty_slice_reported_infeasible(case):
    if case == "1d-closed-form":
        # slice {0 <= z <= -0.2}: the closed-form support raises EmptyBodyError
        g, x, player = gi.splitting_game(), np.array([1.2, 0.5]), 1
    elif case == "2d-lp":
        # the 2-D slice has a vertex form, and none of its candidates is
        # feasible: maximize raises EmptyBodyError without an LP (an LP
        # support over rows without a vertex form raises it too)
        g, x = _rival_empties_first_slice(Box([0.0, 0.0], [1.0, 1.0]),
                                          LinearUtility([1.0, 1.0]))
        player = 0
    else:
        # the 1-D quadratic's closed form raises EmptyBodyError
        g, x = _rival_empties_first_slice(Box([0.0], [1.0]),
                                          QuadUtility(-np.eye(2), np.array([1.0, 0.0])))
        player = 0
    cert = verify_equilibrium(g, x)
    assert not cert.is_equilibrium
    assert cert.feasibility_slacks[player] == np.inf
    assert cert.notes == (f"player {player}: constraint slice empty",)


def test_verify_1d_game_runs_no_lp(monkeypatch):
    from gnepkit import _lp

    g = gi.splitting_game()  # building it enumerates the 2-D shared set
    calls = []
    solve_lp = _lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(_lp, "solve_lp", counted)
    cert = verify_equilibrium(g, np.array([0.5, 0.5]))
    assert cert.is_equilibrium
    assert calls == []


def test_verify_flat_players_build_no_slice(monkeypatch):
    # a graded player with a 1-D block over a shared slice is certified on
    # floats: no slice is built, maximized or scanned, at grid nodes,
    # solved points and points off them (outside X_i, empty slices)
    from gnepkit import convexsets, preferences
    from gnepkit.solvers import solve_vi

    games = [g for g in gi.grid_aligned_instances() if g.n == g.n_players]
    games += [g for g, _ in _benchmark_grid_games() if g.n == g.n_players]
    games += [gi.random_jointly_convex(seed) for seed in range(5)]
    points = {id(g): _grid_nodes(g, 0.1) for g in games}
    for g in games[-5:]:
        x = solve_vi(g).point
        points[id(g)] += [x, x + 1e-3, x - 0.3, x + 1.0]
    assert all(F is not None for g in games for F in g._flat_slices)

    def refused(*args, **kwargs):
        raise AssertionError("the general path ran")

    monkeypatch.setattr(HPoly, "_on_unit_rows", refused)
    monkeypatch.setattr(convexsets, "maximize", refused)
    monkeypatch.setattr(preferences, "maximize", refused)
    monkeypatch.setattr(game_module, "membership_violation", refused)
    verdicts, notes = set(), set()
    for g in games:
        for x in points[id(g)]:
            cert = verify_equilibrium(g, x)
            verdicts.add(cert.is_equilibrium)
            notes.update(cert.notes)
    assert verdicts == {True, False}
    assert any("constraint slice empty" in n for n in notes)


def test_verify_shared_slice_builds_no_rows(monkeypatch):
    # the slices are built on the game's stored unit rows, and membership
    # and the maxima read rows in place: no row is normalised or copied
    from gnepkit import convexsets

    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapper

    # 1-D slices of linear and quadratic players, and the 2-D vertex-form
    # slice of a box_argmax game
    games = [gi.splitting_game(), *gi.grid_aligned_instances()[1:5], gi.random_jointly_convex(4)]
    assert any(form is not None for g in games for form in g._slice_forms)
    for g in games:
        # the stored rows and forms are the game's, built once
        assert len(g._slice_rows) == len(g._slice_forms) == g.n_players
    monkeypatch.setattr(convexsets, "_unit_norms", counted("_unit_norms", convexsets._unit_norms))
    monkeypatch.setattr(game_module, "_unit_norms", counted("_unit_norms", game_module._unit_norms))
    monkeypatch.setattr(convexsets.ConvexBody, "hrep", counted("hrep", convexsets.ConvexBody.hrep))
    for g in games:
        for x in (np.full(g.n, 0.25), np.full(g.n, 0.5), np.full(g.n, 2.0)):
            verify_equilibrium(g, x)
    assert calls == []


def _grid_nodes(game, h):
    """Every node of the grid the oracle lays over the X_i at step h."""
    from gnepkit.solvers import _block_grid

    grids = [_block_grid(pm.ambient, h) for pm in game.preferences]
    return [np.concatenate(p) for p in itertools.product(*grids)]


def _assert_same_certificate(g, x):
    from verifier_reference import verify_equilibrium as reference

    a, b = verify_equilibrium(g, x), reference(g, x)
    assert a.feasibility_slacks.tobytes() == b.feasibility_slacks.tobytes()
    assert a.emptiness_slacks.tobytes() == b.emptiness_slacks.tobytes()
    assert (a.is_equilibrium, a.approximate, a.notes) == (b.is_equilibrium, b.approximate, b.notes)
    return a.is_equilibrium


def _benchmark_grid_games():
    """The shapes of the benchmark's grid games: three linear players
    splitting half a unit over [0, 1/2]^3, whose slices tie a +0.0 lower
    end with a -0.0 one (again with a first player who prefers less, whose
    slack takes its sign from that end), and a 2-D linear block over a
    shared Box whose lower corner is -0.0."""
    def split(c0):
        return jointly_convex_game(
            [Box([0.0], [0.5])] * 3, [LinearUtility([c0]), *[LinearUtility([1.0])] * 2],
            HPoly(np.vstack([-np.eye(3), np.ones((1, 3))]), [0.0] * 3 + [0.5]), name="split-half")

    X = Box([-0.0, -0.0], [1.0, 1.0])
    block = jointly_convex_game([X], [LinearUtility([-0.5, 1.0])], X, name="box-block")
    return [(split(1.0), 0.1), (split(-1.0), 0.1), (block, 0.05)]


def _coupled_variants(q):
    """Player 0's own curvature q, coupled to player 1 by a joint Q."""
    Q = np.array([[q, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.0]])
    return [QuadUtility(Q, [1.0, 0.0, -0.0]), QuadUtility([[-2.0]], [0.5]),
            LinearUtility([-0.0])]


@pytest.mark.parametrize("q", [1.0000000000000002e-13, 2.0])
def test_a_convex_own_curvature_is_refused(q):
    # one ulp above maximize's 1e-13 cut is convex: no concave best response
    split = HPoly(np.vstack([-np.eye(3), np.ones((1, 3))]), [0.0] * 3 + [0.5])
    with pytest.raises(ValueError, match="player 0: the own block of Q is not negative"):
        jointly_convex_game([Box([-0.0], [0.5])] * 3, _coupled_variants(q), split)


def _flat_path_edges():
    """Games and points at the edges of the verifier's float path: points
    outside X_i and points whose slices are empty, signed zero coordinates
    and bounds, flat own curvatures either side of -1e-13 and up to
    maximize's 1e-13 cut (one ulp above it is refused:
    test_a_convex_own_curvature_is_refused), joint Q with couplings and a
    block-sized Q, an X_i without rows (the general path), and unbounded
    slices (an unbounded improvement takes the general path too)."""
    split = HPoly(np.vstack([-np.eye(3), np.ones((1, 3))]), [0.0] * 3 + [0.5])
    X = Box([-0.0], [0.5])
    axis = [-0.25, -0.0, 0.0, 0.125, 0.25, 0.5, 0.75]
    points = [np.array(p) for p in itertools.product(axis, repeat=3)]
    cases = []
    for q in (-1e-13, -1.0000000000000002e-13, 1e-13, -0.0, -2.0):
        cases.append((jointly_convex_game([X] * 3, _coupled_variants(q), split), points))
    # upper ends at -0.0, where a zero gain and a0 keep their signs
    below = [np.array(p) for p in itertools.product([-0.5, -0.25, -0.0, 0.0], repeat=3)]
    for c in (1.0, -1.0, -0.0):
        variants = [LinearUtility([c]), QuadUtility([[-2.0]], [c]), QuadUtility([[-2.0]], [-c])]
        cases.append((jointly_convex_game([Box([-0.5], [-0.0])] * 3, variants, split), below))
    # X_i without rows: its membership is 0 inside, so no slice margin shows
    free = jointly_convex_game(
        [Box([-np.inf], [np.inf])] * 2, [QuadUtility([[-2.0]], [1.0])] * 2,
        HPoly([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0]))
    cases.append((free, [np.array(p) for p in itertools.product([-0.5, -0.0, 0.25, 2.0], repeat=2)]))
    one = jointly_convex_game([Box([0.0], [1.0])], [QuadUtility([[-2.0]], [1.0])],
                              HPoly([[1.0], [-1.0]], [0.7, -0.0]))
    cases.append((one, [np.array([v]) for v in (-0.5, -0.0, 0.0, 0.3, 0.5, 0.7, 0.9, 1.5)]))
    line = [np.array(p) for p in itertools.product([-1.0, -0.0, 0.0, 0.5, 3.0], repeat=2)]
    cases += [(gi.coercive_inward_game(), line), (gi.coercive_outward_game(), line)]
    return cases


def test_certificates_equal_the_reference_verifier_bit_for_bit():
    # every node of the h = 0.1 grid over the bundled grid games (feasible
    # or not), every node of the benchmark-shaped grid games (216, 216, 441),
    # the float path's edges, and the solved points of the random families
    # with two points off each: slacks byte for byte, signed zeros included
    from gnepkit.solvers import solve_qvi, solve_vi

    verdicts = set()
    grids = [(g, 0.1) for g in gi.grid_aligned_instances()] + _benchmark_grid_games()
    for g, h in grids:
        for x in _grid_nodes(g, h):
            verdicts.add(_assert_same_certificate(g, x))
    for g, points in _flat_path_edges():
        for x in points:
            verdicts.add(_assert_same_certificate(g, x))
    for seed in range(50):
        for g, solve in ((gi.random_jointly_convex(seed), solve_vi),
                         (gi.random_qvi(seed), solve_qvi)):
            x = solve(g).point
            for y in (x, x + 1e-3, x - 0.3):
                verdicts.add(_assert_same_certificate(g, y))
    assert verdicts == {True, False}


# -- the batched verifier -------------------------------------------------------


def _assert_batch_equals_the_verifier(g, X):
    """verify_equilibria on the stack X against verify_equilibrium row by
    row: slacks byte for byte, verdicts equal; returns the verdicts."""
    X = np.asarray(X, dtype=float).reshape(-1, g.n)
    feas, empt, ok = verify_equilibria(g, X)
    certs = [verify_equilibrium(g, x) for x in X]
    assert feas.shape == empt.shape == (len(X), g.n_players) and ok.shape == (len(X),)
    for r, c in enumerate(certs):
        assert feas[r].tobytes() == c.feasibility_slacks.tobytes(), (g.name, X[r])
        assert empt[r].tobytes() == c.emptiness_slacks.tobytes(), (g.name, X[r])
        assert ok[r] == c.is_equilibrium, (g.name, X[r])
    return set(ok.tolist())


def test_batched_certificates_equal_the_verifier_on_the_grid_games():
    # every node, feasible or not, of the bundled grid games (h = 0.1), the
    # argmax games and union_chase (h = 0.05), and the benchmark-shaped games
    from gnepkit.solvers import _feasible_mask

    grids = [(g, 0.1) for g in gi.grid_aligned_instances(0.1)]
    grids += [(g, 0.05) for g in (gi.simplex_argmax_game(), gi.box_argmax_game(),
                                  gi.union_chase_game())]
    verdicts = set()
    for g, h in grids + _benchmark_grid_games():
        X = np.array(_grid_nodes(g, h))
        assert _feasible_mask(g, X).any()
        verdicts |= _assert_batch_equals_the_verifier(g, X)
    assert verdicts == {True, False}


def _crossing_game():
    """Two linear players sharing x0 + x1 <= 1 over [0, 1] each: at
    x1 = 1 + d player 0's slice is [0, -d], a crossing by d."""
    split = HPoly([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
    return jointly_convex_game([Box([0.0], [1.0])] * 2,
                               [LinearUtility([1.0]), LinearUtility([-1.0])], split)


def _relation_game():
    """A relation-oracle player (the general path) beside a linear one of a
    shared slice (the batch) in one game."""
    nearer = RelationOracle(lambda x, z: abs(z[0] - 0.3) < abs(x[0] - 0.3) - 1e-9, budget=16)
    return jointly_convex_game([Box([0.0], [1.0])] * 2, [nearer, LinearUtility([1.0])],
                               HPoly([[1.0, 1.0]], [1.0]))


def test_batched_certificates_equal_the_verifier_at_the_edges(monkeypatch):
    """The float path's edges (signed zeros, points outside X_i, empty and
    unbounded slices), crossings within and beyond the ratio test's
    rounding threshold (_LDP_EMPTY_RTOL: 1e-10 relative), overflowing
    coordinates whose argmax or slack is not finite, and a relation-oracle
    player; a row that the batch hands back takes the general path alone."""
    from gnepkit import _lp

    cases = list(_flat_path_edges())
    rtol = _lp._LDP_EMPTY_RTOL
    cross = [[0.0, 1.0 + d] for d in (0.0, 0.5 * rtol, 0.9 * rtol, 1.5 * rtol, 3 * rtol, 1e-3)]
    cases.append((_crossing_game(), cross + [[-0.0, 1.0], [0.5, 0.5], [1.0, -0.0]]))
    big = [-1e308, -1e200, -0.0, 1e155, 1e308]
    cases.append((gi.coercive_inward_game(), list(itertools.product(big, repeat=2))))
    # a finite argmax at x = 1e300 whose slack is inf - inf
    steep = jointly_convex_game([Box([0.0], [1.0])], [QuadUtility([[-2.0]], [1e10])],
                                HPoly([[1.0], [-1.0]], [0.7, -0.0]))
    cases.append((steep, [[v] for v in (1e300, -1e300, 1e200, 0.5)]))
    cases.append((_relation_game(), list(itertools.product([-0.0, 0.0, 0.3, 0.5, 1.0], repeat=2))))
    verdicts = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for g, points in cases:
            verdicts |= _assert_batch_equals_the_verifier(g, points)
    assert verdicts == {True, False}

    # the crossing: a small one collapses to a point, a larger one is empty
    feas = verify_equilibria(_crossing_game(), cross)[0][:, 0]
    assert np.isfinite(feas[:3]).all() and np.isinf(feas[3:]).all()
    # only the rows handed back run the general path: a NaN slack, an
    # unbounded improvement, every row of a relation-oracle player
    calls = []
    slacks = game_module._slacks
    monkeypatch.setattr(game_module, "_slacks",
                        lambda g, i, *a: calls.append(i) or slacks(g, i, *a))
    outward = np.array([[0.0, 0.0], [1.0, 2.0], [0.5, -1.0]])
    assert np.isinf(verify_equilibria(gi.coercive_outward_game(), outward)[1]).all()
    assert calls == [0, 0, 0, 1, 1, 1]
    calls.clear()
    verify_equilibria(_relation_game(), np.array([[0.3, 0.7], [0.2, 0.5]]))
    assert calls == [0, 0]
    calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):
        empt = verify_equilibria(steep, [[0.5], [1e300]])[1][:, 0]
    assert np.isnan(empt).tolist() == [False, True]
    assert calls == [0]


def test_batched_verifier_refuses_what_the_verifier_refuses():
    g = gi.splitting_game()
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            verify_equilibria(g, [[0.5, 0.5], [0.5, bad]])
    for X in (np.zeros(2), np.zeros((3, 3)), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            verify_equilibria(g, X)
    feas, empt, ok = verify_equilibria(g, np.empty((0, 2)))
    assert feas.shape == empt.shape == (0, 2) and ok.shape == (0,)
    feas, empt, ok = verify_equilibria(gi.coercive_inward_game(), np.empty((0, 2)))
    assert feas.shape == (0, 2) and ok.shape == (0,)


def test_certificate_serializes():
    g = gi.splitting_game()
    d = jsonable(verify_equilibrium(g, np.array([0.5, 0.5])))
    assert d["is_equilibrium"] is True
    assert len(d["emptiness_slacks"]) == 2


# -- coercivity samplers ------------------------------------------------------


def test_bounded_instance_vacuous():
    rep = check_coercivity_jointly_convex(gi.splitting_game(), rho=3.0)
    assert rep.status == "vacuous"


def test_inward_unbounded_holds():
    rep = check_coercivity_jointly_convex(gi.coercive_inward_game(), rho=5.0)
    assert rep.status == "holds_on_samples"
    assert rep.n_checked > 0


def test_outward_unbounded_violated_with_witness():
    rep = check_coercivity_jointly_convex(gi.coercive_outward_game(), rho=5.0)
    assert rep.status == "violated"
    x = np.asarray(rep.witness)
    assert np.linalg.norm(x) > 5.0
    assert check_Cx(gi.coercive_outward_game(), x, rho_x=5.0).status == "violated"


def test_inward_far_point_has_nearby_dominator():
    g = gi.coercive_inward_game()
    rep = check_Cx(g, np.array([8.0, 8.0]), rho_x=5.0)
    assert rep.status == "holds_on_samples"
    _, z = rep.witness
    assert np.linalg.norm(z) <= 5.0 + 1e-9


def test_empty_slice_is_vacuous_for_Cx():
    # K_i(8, 8) = {z >= 0 : z + 8 <= 2} is empty for both players
    g = jointly_convex_game([Box([0.0], [np.inf])] * 2, [LinearUtility([1.0])] * 2,
                            HPoly([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 2.0]))
    x = np.array([8.0, 8.0])
    assert constraint_body(g, 0, x).is_empty()
    rep = check_Cx(g, x, rho_x=5.0)
    assert rep.status == "vacuous" and rep.n_checked == 0


def _orthant_game(seed):
    """1-3 players on the unbounded orthant, linear or concave-quadratic
    utilities, sometimes a budget row; with a radius for the coercivity check
    and a point of the shared set with a radius for C_x."""
    rng = np.random.default_rng([seed, 9])
    m = int(rng.integers(1, 4))
    u = []
    for _ in range(m):
        c = rng.uniform(-1.0, 1.0, 1)
        if rng.uniform() < 0.5:
            u.append(LinearUtility(c))
        else:
            u.append(QuadUtility([[-rng.uniform(0.5, 2.0)]], c))
    A, b = -np.eye(m), np.zeros(m)
    if rng.uniform() < 0.4:
        A = np.vstack([A, rng.uniform(0.2, 1.0, (1, m))])
        b = np.append(b, rng.uniform(2.0, 20.0))
    g = jointly_convex_game([Box([0.0], [np.inf])] * m, u, HPoly(A, b))
    rho = float(rng.uniform(1.0, 8.0))
    x = g.shared_set.project(rng.uniform(0.0, 12.0, m))
    rho_x = float(rng.uniform(0.3, 1.2) * np.linalg.norm(x))
    return g, (A, b), rho, x, rho_x


def _assert_improvement(g, A, b, x, z, radius, shared):
    """z is within radius, in X_i = [0, inf) per block (and in A z <= b when
    shared, else in each slice K_i(x)), and every player keeps x_i or gains
    more than 1e-7, by direct evaluation of u_i(z) = c.z + z'Qz / 2."""
    assert np.linalg.norm(z) <= radius + 1e-9
    assert np.all(z >= -1e-9)
    if shared:
        assert np.all(A @ z <= b + 1e-9)
    for pm in g.preferences:
        y = pm.joined(x, pm.own(z))
        if not shared:
            assert np.all(A @ y <= b + 1e-9)
        if np.linalg.norm(pm.own(z) - pm.own(x)) <= 1e-12:
            continue
        v = pm.variant
        Q = v.Q if isinstance(v, QuadUtility) else np.zeros((g.n, g.n))
        assert v.c @ y + 0.5 * y @ Q @ y - (v.c @ x + 0.5 * x @ Q @ x) > 1e-7


# pinned (check_coercivity_jointly_convex, check_Cx) statuses of
# _orthant_game(seed), seeds 0-59: H holds_on_samples, V violated, 0 vacuous
_ORTHANT_STATUSES = (
    "VV VH VV HH HH HH HH HH HH HH HH VV HH HH VV HH HH HH VV HH "
    "HH HH HV HH HH HH HV HH HH HH HH HV HH HH HH HH HH HH HH HH "
    "VV HV HH HH 0V HH HH VV HH HV HH HH HV HH HH HV HH HH HH HH"
).split()


def test_orthant_family_statuses_and_witnesses(monkeypatch):
    """Both checks keep their statuses on a seeded family of unbounded games,
    and every improvement the search returns passes an independent check."""
    found = []
    search = game_module._improvement_within

    def recording(game, x, bodies, radius, shared, eps_open, rng):
        z = search(game, x, bodies, radius, shared, eps_open, rng)
        found.append((x, z, radius, shared is not None))
        return z

    monkeypatch.setattr(game_module, "_improvement_within", recording)
    code = {"holds_on_samples": "H", "violated": "V", "vacuous": "0"}
    for seed, want in enumerate(_ORTHANT_STATUSES):
        g, (A, b), rho, x, rho_x = _orthant_game(seed)
        found.clear()
        coercive = check_coercivity_jointly_convex(g, rho)
        cx = check_Cx(g, x, rho_x)
        assert code[coercive.status] + code[cx.status] == want, seed
        if cx.status == "holds_on_samples":
            wx, wz = cx.witness
            assert np.array_equal(wx, x) and any(z is wz for _, z, _, _ in found)
        if coercive.status == "holds_on_samples":
            assert sum(shared for *_, shared in found) == coercive.n_checked
        for fx, z, radius, shared in found:
            if z is not None:
                _assert_improvement(g, A, b, fx, z, radius, shared)


@pytest.mark.parametrize("seed, x", [
    (150, [8.674469173885882, -1.1641532182693481e-09]),
    (167, [11.1863193026511, -1.0477378964424133e-09]),
])
def test_far_point_just_outside_orthant_has_shrinking_improvement(seed, x):
    """Far samples 1e-9 outside the orthant, where scaling x toward the
    origin cannot help the player at 0: a random draw scaled inside the
    radius finds a shrinking joint improvement, so coercivity holds."""
    g, (A, b), rho, _, _ = _orthant_game(seed)
    x = np.array(x)
    assert check_coercivity_jointly_convex(g, rho).status == "holds_on_samples"
    z = game_module._improvement_within(
        g, x, [pm.ambient for pm in g.preferences], np.linalg.norm(x) - 2e-9,
        g.shared_set, 1e-7, np.random.default_rng(0))
    assert np.linalg.norm(z) < np.linalg.norm(x) - 1e-9
    _assert_improvement(g, A, b, x, z, np.linalg.norm(x), True)


def _box_block_game(d, seed):
    """Three players, each with a d-D block on [-0.5, 1.5]^d and a linear
    or diagonal concave quadratic utility (player 0 always quadratic), under
    the unit cube cut by one row, as in instances.random_jointly_convex."""
    rng = np.random.default_rng(seed)
    n = 3 * d
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    cut = 0.5 * a.sum() + rng.uniform(0.1, 0.4)
    shared = HPoly(np.vstack([np.eye(n), -np.eye(n), a]),
                   np.concatenate([np.ones(n), np.zeros(n), [cut]]))
    variants = []
    for i in range(3):
        if i and rng.uniform() < 0.5:
            variants.append(LinearUtility(rng.choice([-1.0, 1.0], d)))
        else:
            gamma = rng.uniform(0.1, 0.27, d)
            m = rng.uniform(-0.3, 1.3, d)
            variants.append(QuadUtility(np.diag(-2.0 * gamma), 2.0 * gamma * m))
    return jointly_convex_game([Box(np.full(d, -0.5), np.full(d, 1.5))] * 3, variants, shared)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 16])
def test_certificates_on_box_blocks_up_to_16_dimensions(d, monkeypatch):
    # a quadratic best response over a d-D slice is one NNLS and one KKT
    # solve; up to 4-D its slacks equal those of the active-set enumeration.
    # Some slices of player 0 (d = 1 and 5) are empty, by an LP too.
    from gnepkit import _lp
    from qp_reference import max_concave_quad

    for seed in range(3):
        game = _box_block_game(d, seed)
        for t in (0.4, 0.1, 0.0):
            x = np.full(game.n, t)
            cert = verify_equilibrium(game, x)
            for i, f in enumerate(cert.feasibility_slacks):
                if np.isfinite(f):
                    continue
                assert f"player {i}: constraint slice empty" in cert.notes
                K = constraint_body(game, i, x)
                with pytest.raises(_lp.InfeasibleLP):
                    _lp.max_linear(np.zeros(d), K.A, K.b)
            assert len(cert.notes) == np.isinf(cert.feasibility_slacks).sum()
            if d <= 4:
                with monkeypatch.context() as m:
                    m.setattr(_lp, "max_concave_quad", max_concave_quad)
                    want = verify_equilibrium(game, x)
                assert np.allclose(cert.emptiness_slacks, want.emptiness_slacks,
                                   rtol=0.0, atol=1e-12)
                assert np.array_equal(cert.feasibility_slacks, want.feasibility_slacks)
