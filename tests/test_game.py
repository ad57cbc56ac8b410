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
    verify_equilibrium,
)
from gnepkit.jsonio import jsonable
from gnepkit.preferences import LinearUtility, PolyhedralPref, PreferenceMap, QuadUtility
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
        # the support LP raises InfeasibleLP
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
