import numpy as np
import pytest

from gnepkit.convexsets import Box, EmptyBodyError, Simplex
from gnepkit.preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    SelfPreferenceError,
    UnboundedPreferenceError,
    UnionPref,
    convexified_set,
    is_satiated,
    max_improvement,
    pref_set,
    relation_profile,
    utility,
)


def linear_player(c=(1.0,), lo=0.0, hi=1.0):
    d = len(c)
    return PreferenceMap(0, 0, Box([lo] * d, [hi] * d), LinearUtility(np.asarray(c)))


def test_utility_values():
    pm = linear_player((2.0, -1.0))
    assert utility(pm, np.array([0.5, 0.5])) == pytest.approx(0.5)
    q = PreferenceMap(0, 0, Box([0, 0], [1, 1]), QuadUtility(-2 * np.eye(2), [0.0, 0.0]))
    assert utility(q, np.array([0.5, 0.5])) == pytest.approx(-0.5)


def test_pref_set_linear_is_strict_upper_set():
    pm = linear_player((1.0,))
    P = pref_set(pm, np.array([0.4]))
    assert P.contains([0.6])
    assert not P.contains([0.4])   # strict: the point itself is never preferred
    assert not P.contains([0.2])


def test_pref_set_quadratic_contains_only_improvements():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([1.2])))
    x = np.array([0.2])
    P = pref_set(pm, x)
    u0 = utility(pm, x)
    for z in [0.3, 0.6, 0.59, 0.9]:
        zv = np.array([z])
        better = utility(pm, pm.joined(x, zv)) > u0 + 1e-12
        assert P.contains(zv) == better, z


def test_pref_set_empty_at_satiation():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([1.0])))
    x = np.array([0.5])  # interior maximum of -(z-0.5)^2
    P = pref_set(pm, x)
    assert P.is_empty()
    assert is_satiated(pm, x)


def test_polyhedral_self_preference_guard():
    # constant rows admitting the anchor itself: invalid preference at x
    bad = PolyhedralPref.constant([[1.0]], [2.0], strict=[False])
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]), bad)
    with pytest.raises(SelfPreferenceError):
        pref_set(pm, np.array([0.5]))


def test_union_hull_guard_fires_when_hull_swallows_anchor():
    lo = PolyhedralPref.constant([[1.0]], [0.2])
    hi = PolyhedralPref.constant([[-1.0]], [-0.8])
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]), UnionPref((lo, hi)))
    with pytest.raises(SelfPreferenceError):
        convexified_set(pm, np.array([0.5]))


def test_union_hull_guard_skips_a_flat_cloud():
    # two pieces on the plane z_2 = 0.5, either side of x_i: their hull holds
    # x_i in its relative interior but has no interior in R^3.  hull_body
    # builds it in the plane, with z_2 = 0.5 as an equality pair; that pair
    # is tight at x_i, so x_i is not strictly inside every row, the guard
    # does not fire and no SelfPreferenceError is raised
    plane = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    left = PolyhedralPref.constant([[1.0, 0.0, 0.0], *plane], [0.2, 0.5, -0.5], [False] * 3)
    right = PolyhedralPref.constant([[-1.0, 0.0, 0.0], *plane], [-0.8, 0.5, -0.5], [False] * 3)
    pm = PreferenceMap(0, 0, Box([0.0] * 3, [1.0] * 3), UnionPref((left, right)))
    region = pref_set(pm, np.full(3, 0.5))
    assert region.contains([0.1, 0.5, 0.5]) and not region.contains([0.5, 0.5, 0.5])


def test_union_one_sided_hull_bridges_the_gap():
    def low(x):
        return (np.array([[-1.0], [1.0]]),
                np.array([-(x[0] + 0.1), x[0] + 0.3]),
                np.array([True, True]))

    def high(x):
        return np.array([[-1.0]]), np.array([-(x[0] + 0.5)]), np.array([True])

    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       UnionPref((PolyhedralPref(low), PolyhedralPref(high))))
    H = convexified_set(pm, np.array([0.2]))
    assert H.contains([0.4]) and H.contains([0.9])
    assert H.contains([0.6])          # the hull covers the gap between pieces
    assert not H.contains([0.2])      # but never the anchor itself


def test_oracle_irreflexivity_guard():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]), RelationOracle(lambda x, z: True))
    with pytest.raises(SelfPreferenceError):
        pref_set(pm, np.array([0.5]))


def test_max_improvement_linear_closed_form():
    pm = linear_player((1.0,))
    over = Box([0.0], [1.0])
    s = max_improvement(pm, np.array([0.3]), over)
    assert s == pytest.approx(0.7, abs=1e-9)


def test_max_improvement_quad_boundary():
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([2.4])))
    over = Box([0.0], [1.0])
    # u(z) = -(z - 1.2)^2 + const, max on [0,1] at z=1
    s = max_improvement(pm, np.array([0.5]), over)
    want = -(1 - 1.2) ** 2 - (-(0.5 - 1.2) ** 2)
    assert s == pytest.approx(want, abs=1e-9)


def test_max_improvement_unbounded():
    pm = PreferenceMap(0, 0, Box([0.0], [np.inf]), LinearUtility(np.array([1.0])))
    with pytest.raises(UnboundedPreferenceError):
        max_improvement(pm, np.array([1.0]), Box([0.0], [np.inf]))


def test_max_improvement_polyhedral_slack_signs():
    # preferred set {z > x + 0.1}: positive slack while reachable, -1 when not
    def above(x):
        return np.array([[-1.0]]), np.array([-(x[0] + 0.1)]), np.array([True])

    pm = PreferenceMap(0, 0, Box([0.0], [1.0]), PolyhedralPref(above))
    s_mid = max_improvement(pm, np.array([0.4]), Box([0.0], [1.0]))
    assert s_mid > 1e-3
    # unreachable set: the best margin goes negative by the shortfall
    s_top = max_improvement(pm, np.array([1.0]), Box([0.0], [1.0]))
    assert s_top == pytest.approx(-0.1, abs=1e-6)


def test_polyhedral_slack_one_verdict_for_one_set():
    # {x in Simplex(3) : x1 <= 0.9} is the same set whether the simplex is
    # the domain or a part of it; the sum's +/- pair carries no slack
    from gnepkit.convexsets import HPoly, intersect
    from gnepkit.preferences import _poly_slack

    rows = (np.array([[0.0, 1.0, 0.0]]), np.array([0.9]), np.array([False]))
    want = _poly_slack(rows, Simplex(3))
    assert want == pytest.approx(1.0 / 3.0, abs=1e-9)
    for over in (intersect(Simplex(3), HPoly([[1.0, 0.0, 0.0]], [5.0])),
                 HPoly(*Simplex(3).hrep())):
        assert _poly_slack(rows, over) == pytest.approx(want, abs=1e-12)


def test_satiation_threshold():
    # u = z - z^2 peaks at 0.5: at 0.5 + d the best improvement is d^2
    pm = PreferenceMap(0, 0, Box([0.0], [1.0]),
                       QuadUtility(np.array([[-2.0]]), np.array([1.0])))
    assert is_satiated(pm, np.array([0.5]))
    assert is_satiated(pm, np.array([0.5 + 1e-6]))   # 1e-12 improvement left
    assert not is_satiated(pm, np.array([0.4]))
    for eps_open in (1e-7, 1e-6):
        assert is_satiated(pm, np.array([0.5 + np.sqrt(0.99 * eps_open)]), eps_open)
        assert not is_satiated(pm, np.array([0.5 + np.sqrt(1.01 * eps_open)]), eps_open)


# -- sampled relation profiles ----------------------------------------------


def test_relation_profile_statuses_are_tristate():
    prof = relation_profile(lambda x, z: float(z[0]) > float(x[0]),
                            [Box([0.0], [1.0])], 0, seed=0)
    for f in (prof.irreflexive, prof.convex_values, prof.nonsatiated,
              prof.lsc_evidence):
        assert f.status in {"holds", "fails", "unknown"}


def test_relation_profile_catches_irreflexivity_violation():
    prof = relation_profile(lambda x, z: True, [Box([0.0], [1.0])], 0, seed=0)
    assert prof.irreflexive.status == "fails"
    assert prof.irreflexive.witness is not None


def test_relation_profile_seed_reproducible():
    succ = lambda x, z: abs(float(z[0]) - float(x[0])) > 1e-12
    p1 = relation_profile(succ, [Box([0.0], [1.0])], 0, seed=3)
    p2 = relation_profile(succ, [Box([0.0], [1.0])], 0, seed=3)
    assert p1.convex_values.status == p2.convex_values.status == "fails"
    w1, w2 = p1.convex_values.witness, p2.convex_values.witness
    assert np.allclose(np.hstack([np.ravel(a) for a in w1[:3]]),
                       np.hstack([np.ravel(a) for a in w2[:3]]))


def test_relation_profile_simplex_blocks():
    # satiation never fails for strict dominance in the simplex interior
    succ = lambda x, z: float(z[0]) > float(x[0]) + 0.05
    prof = relation_profile(succ, [Simplex(2)], 0, samples=60, seed=1)
    assert prof.irreflexive.status == "holds"
    assert prof.nonsatiated.status == "fails"  # fails at the e1 vertex
