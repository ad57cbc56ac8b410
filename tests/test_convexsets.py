"""Bodies, membership, projection, separation, and normal cones.

The separation/normal-cone checks deliberately use a projection-based oracle
(g is a normal at y iff project(y + delta*g) returns y) so the geometric
routines are judged by independent machinery.
"""

import itertools

import numpy as np
import pytest

from gnepkit.convexsets import (
    Ball,
    Box,
    ConeSection,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    InteriorPointError,
    Simplex,
    body_from_dict,
    hull_body,
    intersect,
    maximize,
    normal_cone_generators,
    polar_check,
    separate,
    support_max,
    tangent_projector,
)

SQ2 = np.sqrt(2.0)


def unit_square():
    return Box([0.0, 0.0], [1.0, 1.0])


def triangle():
    # {x >= 0, x1 + x2 <= 1}
    return HPoly([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])


# -- membership ------------------------------------------------------------


def test_box_membership_and_projection():
    B = unit_square()
    assert B.contains([0.5, 0.5])
    assert not B.contains([1.5, 0.5])
    assert np.allclose(B.project([2.0, -1.0]), [1.0, 0.0])


@pytest.mark.parametrize("lo, hi", [
    ([-np.inf, 0.0, -1.5, -np.inf, -0.0], [np.inf, np.inf, 2.0, 3.0, 0.0]),
    ([-np.inf, -np.inf], [np.inf, np.inf]),
    ([0.0, 1.0, -np.inf], [0.0, 1.0, -2.0]),
    ([-1.0], [np.inf]),
])
def test_box_rows_match_the_coordinate_loop(lo, hi):
    # per coordinate the hi row, then the lo row, finite bounds only: the
    # rows a loop over the coordinates builds, bit for bit
    from verifier_reference import box_rows

    B = Box(lo, hi)
    A, b, strict = B.hrep()
    A_ref, b_ref = box_rows(B)
    assert A.shape == A_ref.shape and b.shape == b_ref.shape
    assert A.tobytes() == A_ref.tobytes() and b.tobytes() == b_ref.tobytes()
    assert strict.dtype == bool and not strict.any() and len(strict) == len(b)
    # hrep() hands out copies
    A[:], b[:] = 7.0, 7.0
    assert B.hrep()[0].tobytes() == A_ref.tobytes()


def test_membership_monotone_in_slack(rng):
    B = triangle()
    for _ in range(100):
        x = rng.uniform(-0.3, 1.3, 2)
        for e1, e2 in [(0.0, 1e-6), (1e-8, 1e-4)]:
            if B.contains(x, eps=e1):
                assert B.contains(x, eps=e2)


def test_strict_rows_demand_margin():
    # open upper halfplane of the square: {x in [0,1]^2 : x2 > 0.5}
    P = HPoly([[1.0, 0], [-1, 0], [0, 1], [0, -1]], [1.0, 0, 1, -0.5],
              strict=np.array([False, False, False, True]))
    assert P.contains([0.5, 0.7])
    assert not P.contains([0.5, 0.5])          # on the open face
    assert not P.contains([0.5, 0.5 + 1e-9])   # inside closure, below margin
    assert P.closure().contains([0.5, 0.5])


def test_simplex_kind_and_projection(rng):
    S = Simplex(3, scale=2.0)
    z = S.project(rng.uniform(-1, 3, 3))
    assert z.sum() == pytest.approx(2.0, abs=1e-9)
    assert z.min() >= -1e-12
    assert S.contains([1.0, 0.5, 0.5])
    assert not S.contains([2.0, 0.5, -0.5])


def test_ball_projection():
    B = Ball(center=[1.0, 0.0], radius=0.5)
    assert np.allclose(B.project([3.0, 0.0]), [1.5, 0.0])
    assert B.contains([1.2, 0.1])


def test_hpoly_projection_matches_exact(rng):
    # random bounded polyhedra: least-distance NNLS vs exact QP enumeration
    from qp_reference import max_concave_quad

    for _ in range(30):
        d = int(rng.integers(1, 4))
        A = rng.standard_normal((int(rng.integers(d + 2, d + 6)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = A @ rng.uniform(-0.3, 0.3, d) + rng.uniform(0.2, 1.0, len(A))
        P = HPoly(A, b)
        y = rng.standard_normal(d) * 2
        z = P.project(y)
        _, z_exact = max_concave_quad(-np.eye(d), y, A, b)
        assert np.allclose(z, z_exact, atol=1e-9)


def test_hpoly_projection_exact_on_seeded_family():
    # 300 polytopes (n <= 5, m <= 19) with thin slack on some rows.  Draws
    # 12, 84, 96, 126, 245 and 256 defeat sweep methods that stop on a small
    # move (Dykstra): they end feasible but 2e-3 to 3e-2 off the projection.
    from qp_reference import max_concave_quad

    rng = np.random.default_rng(0)
    for k in range(300):
        d = int(rng.integers(1, 6))
        A = rng.standard_normal((int(rng.integers(d + 1, 20)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        c = rng.uniform(-0.5, 0.5, d)
        b = A @ c + rng.uniform(0.05, 1.0, len(A))
        y = c + rng.uniform(1.0, 3.0) * rng.standard_normal(d)
        z = HPoly(A, b).project(y)
        _, z_exact = max_concave_quad(-np.eye(d), y, A, b)
        assert np.allclose(z, z_exact, atol=1e-9), (k, z, z_exact)


def test_hpoly_projection_onto_empty_raises():
    P = HPoly([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(EmptyBodyError):
        P.project(np.array([0.5]))


# The slab {x <= 0, x >= g} crosses by g when g > 0.  A crossing below the
# least-distance rounding threshold (7.5e-17, which a solver point produced,
# or 1e-12) is a point; 1e-9 and 1e-7 are empty.  Inside that band the NNLS
# of _lp.project_polyhedron sees the crossing at the scale of the start
# point's distance, so its verdict depends on the start (nnls_agrees False).
@pytest.mark.parametrize("g,empty,nnls_agrees", [
    (-1e-6, False, True),
    (-1e-9, False, True),
    (0.0, False, True),
    (7.5e-17, False, False),
    (1e-12, False, False),
    (1e-11, False, False),
    (-0.0, False, True),
    (1e-9, True, True),
    (1e-7, True, True),
])
def test_interval_slab_one_emptiness_verdict(g, empty, nnls_agrees):
    from gnepkit import _lp

    A, b = np.array([[1.0], [-1.0]]), np.array([0.0, -g])
    P = HPoly(A, b)
    starts = [-5.0, -1.0, -1e-3, 0.0, 1e-3, 1.0, 5.0]
    assert P.is_empty(eps_open=0.0) is empty
    if nnls_agrees:
        for y in starts:
            try:
                _lp.project_polyhedron(np.array([y]), A, b)
                nnls_empty = False
            except _lp.InfeasibleLP:
                nnls_empty = True
            assert nnls_empty is empty, y
    if empty:
        assert P.vertices().shape == (0, 1)
        assert P.interior_point() is None
        with pytest.raises(EmptyBodyError):
            P.bounding_box()
        for c in (1.0, -1.0):
            with pytest.raises(EmptyBodyError):
                support_max(P, np.array([c]))
        for y in starts:
            with pytest.raises(EmptyBodyError):
                P.project(np.array([y]))
        return
    lo, hi = (v[0] for v in P.bounding_box())
    # a crossing that is not empty collapses to its midpoint
    assert lo <= hi and lo == pytest.approx(min(g, 0.5 * g), abs=1e-12)
    want = [[lo]] if hi - lo <= 1e-9 else [[lo], [hi]]
    assert np.array_equal(P.vertices(), want)
    assert support_max(P, np.array([1.0])) == hi
    assert support_max(P, np.array([-1.0])) == -lo
    ip = P.interior_point()
    assert (ip is not None) == bool(hi - lo > 2e-9)
    for y in starts:
        assert P.project(np.array([y]))[0] == pytest.approx(np.clip(y, lo, hi), abs=1e-12)


_SLAB_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _slab_bodies(g):
    """The 2-D slab {x0 <= 0, x0 >= g} x [0, 1] built five ways: as an HPoly,
    in a shared vertex form, as a slice of a 3-D body, as an intersect()
    with a Box, and as a player's constraint slice in a game."""
    from gnepkit.convexsets import VertexForm
    from gnepkit.game import constraint_body, jointly_convex_game, slice_body
    from gnepkit.preferences import LinearUtility

    b = np.array([0.0, -g, 1.0, 0.0])
    # the rival x2 = 0.5 shifts the slab's rows back onto x0 in [g, 0]
    S = HPoly([[1.0, 0.0, 1.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
              [0.5, -0.5 - g, 1.0, 0.0])
    X = [Box([-1.0, 0.0], [1.0, 1.0]), Box([0.0], [1.0])]
    game = jointly_convex_game(X, [LinearUtility(np.ones(k.dim)) for k in X], S)
    return {
        "hpoly": HPoly(_SLAB_A, b),
        "vertex_form": VertexForm.of(_SLAB_A).body(b),
        "slice_body": slice_body(S, [0.0, 0.0, 0.5], slice(0, 2)),
        "intersection": intersect(Box([-5.0, 0.0], [5.0, 1.0]), HPoly(_SLAB_A[:2], b[:2])),
        "constraint_body": constraint_body(game, 0, [0.0, 0.0, 0.5]),
    }


# The 2-D slab {x0 <= 0, x0 >= g} x [0, 1] gets one emptiness verdict from
# its rows, whoever built it: a bounded body decides it by the feasibility
# test of its vertex candidates (to 1e-8), so crossings of 1e-12 and 1e-9
# are a segment, which a least-distance program or a Chebyshev LP would call
# empty, and 1e-7 is empty.
@pytest.mark.parametrize("g,empty", [
    (-1e-6, False), (0.0, False), (1e-12, False), (1e-9, False), (1e-7, True), (1e-3, True),
])
def test_slab_2d_one_emptiness_verdict(g, empty):
    from vertex_reference import _enumerate_vertices

    W = _enumerate_vertices(_SLAB_A, np.array([0.0, -g, 1.0, 0.0]))
    assert (len(W) == 0) is empty
    rng = np.random.default_rng(5)
    starts = [rng.uniform(-3.0, 3.0, 2) for _ in range(4)] + [np.full(2, 100.0), np.zeros(2)]
    cs = [rng.standard_normal(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    for name, K in _slab_bodies(g).items():
        assert K.is_empty(eps_open=0.0) is empty, name
        if empty:
            assert K.vertices().shape == (0, 2), name
            assert K.interior_point() is None, name
            for query in [K.bounding_box] + [lambda c=c: maximize(K, c) for c in cs] + [
                    lambda y=y: K.project(y) for y in starts]:
                with pytest.raises(EmptyBodyError):
                    query()
            continue
        assert _same_point_set(K.vertices(), W), name
        assert len(K.vertices()) == (4 if g < 0.0 else 2), name
        lo, hi = K.bounding_box()
        assert np.allclose(lo, W.min(axis=0), atol=1e-9), name
        assert np.allclose(hi, W.max(axis=0), atol=1e-9), name
        for c in cs:
            val, z = maximize(K, c)
            assert val == pytest.approx(np.max(W @ c), abs=1e-9), name
            assert K.contains(z, eps=1e-8), name
        for y in starts:
            p = K.project(y)
            assert K.contains(p, eps=1e-8), name
            assert np.linalg.norm(p - y) <= np.min(np.linalg.norm(W - y, axis=1)) + 1e-9, name


def test_poisoned_part_empties_intersection():
    # S = {x0 <= 1, x1 <= 1, x0 + x1 <= 1.5} at x1 = 1.7: the rival breaks
    # x1 <= 1, so the slice over x0 is empty whatever x0 is
    from gnepkit.game import slice_body

    S = HPoly([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5])
    I = intersect(Box([-0.5], [1.5]), slice_body(S, [0.2, 1.7], slice(0, 1)))
    assert I.is_empty()
    assert I.vertices().shape == (0, 1)
    assert not any(I.contains([z]) for z in np.linspace(-1.0, 2.0, 31))
    with pytest.raises(EmptyBodyError):
        I.project(np.array([2.0]))
    with pytest.raises(EmptyBodyError):
        support_max(I, np.array([1.0]))
    # in 2-D the maximum is an LP over the kept rows, blind to the zero row
    P = HPoly([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 1.0, -1.0])
    with pytest.raises(EmptyBodyError):
        support_max(P, np.array([1.0, 1.0]))


# Two 2-D bodies that a violated zero row empties: the unit square with
# 0 <= -1, and {x0 < 1, x1 <= 1} with 0 <= -1.  The kept rows alone are
# nonempty, so any query that reads only them answers for a nonempty body.
@pytest.mark.parametrize("P", [
    HPoly([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]],
          [1.0, 1.0, 0.0, 0.0, -1.0]),
    HPoly([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [1.0, 1.0, -1.0],
          strict=[True, False, False]),
], ids=["closed", "strict"])
def test_poisoned_hpoly_one_emptiness_verdict(P):
    from gnepkit.operators import OperatorEval
    from gnepkit.solvers import hull_residual

    rng = np.random.default_rng(0)
    op = OperatorEval((ConeSection.whole(2),), (0,))
    for body in (P, P.closure()):
        assert body.is_empty() and body.is_empty(eps_open=0.0)
        assert body.vertices().shape == (0, 2)
        assert body.interior_point() is None
        assert not body.contains([0.5, 0.5], eps=1.0)
        for query in (body.bounding_box, body.is_bounded,
                      lambda: body.project(np.array([0.5, 0.5])),
                      lambda: body.sample(rng, 3),
                      lambda: body.boundary_samples(rng, 3),
                      lambda: maximize(body, [1.0, 0.0]),
                      lambda: support_max(body, [0.0, 1.0]),
                      lambda: hull_residual(op, np.array([0.5, 0.5]), body)):
            with pytest.raises(EmptyBodyError):
                query()


def test_interval_projection_is_a_clip():
    # equal to np.clip on the closed-form interval, bit for bit, and to the
    # least-distance program to 1e-15 of the sizes involved: that program
    # rounds at the scale of |y| (up to 9 ulps here), the clip returns the
    # bound itself
    from gnepkit import _lp

    rng = np.random.default_rng(5)
    checked = 0
    for B in _one_d_family(rng):
        lo, hi = B._interval
        for y in rng.uniform(-6.0, 6.0, 8):
            z = B.project(np.array([y]))
            assert np.array_equal(z, np.clip([y], lo, hi))
            ref = _lp.project_polyhedron(np.array([y]), B.A, B.b)
            assert abs(z[0] - ref[0]) <= 1e-15 * (1.0 + abs(y) + abs(z[0]))
            checked += 1
    assert checked == 960


def _one_d_family(rng):
    """Seeded 1-D bodies: bounded, one-sided, point-sized, and intersections
    with a Box and with a 1-D Simplex; rows are not unit-normalized."""
    out = []
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        up = rng.uniform(0.0, 1.0, int(rng.integers(1, 4)))
        dn = rng.uniform(0.0, 1.0, int(rng.integers(1, 4)))
        sc_up = rng.uniform(0.2, 5.0, up.size)
        sc_dn = rng.uniform(0.2, 5.0, dn.size)
        rows = np.concatenate([sc_up, -sc_dn])[:, None]
        rhs = np.concatenate([sc_up * (hi + up), -sc_dn * (lo - dn)])
        out.append(HPoly(rows, rhs))
        out.append(HPoly(sc_up[:, None], sc_up * (hi + up)))
        out.append(HPoly(-sc_dn[:, None], -sc_dn * (lo - dn)))
        out.append(HPoly([[2.0], [-3.0]], [2.0 * lo, -3.0 * lo]))
        out.append(intersect(Box([lo - 0.5], [hi + 0.5]), HPoly(rows, rhs)))
        s = rng.uniform(0.1, 2.0)
        out.append(intersect(Simplex(1, s), HPoly([[1.0], [-1.0]], [s + up[0], dn[0] - s])))
    return out


def test_interval_closed_forms_match_exact_reference(monkeypatch):
    from gnepkit import _lp
    from vertex_reference import _enumerate_vertices

    bodies = _one_d_family(np.random.default_rng(3))
    refs = []
    for B in bodies:
        A, b, _ = B.hrep()
        sup = []
        for c in (1.0, -1.0):
            try:
                sup.append(_lp.max_linear([c], A, b)[0])
            except _lp.UnboundedLP:
                sup.append(np.inf)
        bounded = bool(np.all(np.isfinite(sup)))
        refs.append((sup, _enumerate_vertices(A, b) if bounded else None))

    def no_lp(*args, **kwargs):
        raise AssertionError("1-D body query ran an LP")

    monkeypatch.setattr(_lp, "solve_lp", no_lp)
    for k, (B, (sup, V)) in enumerate(zip(bodies, refs)):
        lo, hi = B.bounding_box()
        assert hi[0] == pytest.approx(sup[0], abs=1e-9), k
        assert lo[0] == pytest.approx(-sup[1], abs=1e-9), k
        assert not B.is_empty()
        for c, s in zip((2.5, -0.5), sup):
            if np.isfinite(s):
                assert support_max(B, np.array([c])) == pytest.approx(abs(c) * s, abs=1e-9), k
            else:
                with pytest.raises(_lp.UnboundedLP):
                    support_max(B, np.array([c]))
        if V is None:
            with pytest.raises(EnumerationError):
                B.vertices()
        else:
            assert np.allclose(B.vertices(), V, atol=1e-9), k
        ip = B.interior_point()
        assert ip is None or (lo[0] < ip[0] < hi[0])


def _interval_inputs():
    """1-D bodies for the float interval: the closed-form family and the
    emptiness test's slabs, crossings of 1e-9 and 1e-11 at 0 and at 1, and
    every sign pattern of up to 4 rows over right-hand sides that tie +0.0
    with -0.0 or are infinite or NaN, then seeded longer ones, whose runs of
    one side numpy reduces in SIMD lanes."""
    bodies = _one_d_family(np.random.default_rng(3))
    for g in (-1e-6, -1e-9, -1e-11, -0.0, 0.0, 7.5e-17, 1e-12, 1e-11, 1e-9, 1e-7):
        bodies += [HPoly([[1.0], [-1.0]], [0.0, -g]), HPoly([[-1.0], [1.0]], [-1.0 - g, 1.0])]
    special = [0.0, -0.0, -1.0, np.inf, np.nan]
    for m in range(1, 5):
        for signs in itertools.product([1.0, -1.0], repeat=m):
            for rhs in itertools.product(special, repeat=m):
                bodies.append(HPoly(np.array(signs)[:, None], rhs))
    rng = np.random.default_rng(11)
    for k in range(2000):
        m = int(rng.integers(5, 13))
        signs = rng.choice([1.0, -1.0], m, p=[0.8, 0.2])
        values = [0.0, -0.0, 0.5] if k % 2 else special + [-np.inf, -np.nan, 1e-9, 1e-11, 1.0]
        bodies.append(HPoly(signs[:, None], rng.choice(values, m) * signs))
    return bodies


def test_interval_floats_equal_intervals_bit_for_bit():
    # HPoly._interval reads the ratio test as floats; _intervals, the batched
    # numpy rule, is its reference: lo, hi and the empty verdict, byte for byte
    from gnepkit.convexsets import _intervals

    with np.errstate(invalid="ignore"):
        for k, P in enumerate(_interval_inputs()):
            lo, hi, empty = _intervals(P.A[:, 0], P.b[None])
            got = P._interval
            assert (got is None) == bool(empty[0]), k
            if got is not None:
                assert np.float64(got[0]).tobytes() == lo.tobytes(), (k, P.b, got, lo)
                assert np.float64(got[1]).tobytes() == hi.tobytes(), (k, P.b, got, hi)


def _one_row_at_a_time(a, b):
    """The ratio test's ends as a plain loop: each row in order, the later
    of two equal ratios kept."""
    lo, hi = -np.inf, np.inf
    for ai, bi in zip(a, b):
        r = bi / ai
        if ai > 0:
            if r <= hi:
                hi = r
        elif r >= lo:
            lo = r
    return lo, hi


@pytest.mark.parametrize("length", [8, 9, 10])
def test_intervals_zero_ties_follow_the_rows_in_order(length):
    # runs of 8 to 10 rows of one side over every pattern of {+0.0, -0.0, 1}
    # (numpy reduces runs this long in SIMD lanes, whose order depends on
    # the host), then seeded bodies with both sides: each zero end has the
    # sign of the last row that attains it, byte for byte
    from gnepkit.convexsets import _intervals

    B = np.array(list(itertools.product([0.0, -0.0, 1.0], repeat=length)))
    rng = np.random.default_rng(length)
    cases = [(np.ones(length), B), (-np.ones(length), B)]
    for _ in range(20):
        a = rng.choice([1.0, -1.0], length)
        cases.append((a, rng.choice([0.0, -0.0, 1.0, -1.0], (200, length)) * a))
    for a, B in cases:
        lo, hi, empty = _intervals(a, B)
        for g, b in enumerate(B):
            ref_lo, ref_hi = _one_row_at_a_time(a, b)
            if ref_lo - ref_hi > 0:
                continue  # a crossing: emptiness or its midpoint
            assert not empty[g]
            assert lo[g].tobytes() == np.float64(ref_lo).tobytes(), (a, b)
            assert hi[g].tobytes() == np.float64(ref_hi).tobytes(), (a, b)


def test_interval_reads_a_zero_tie_as_floats(monkeypatch):
    # a benchmark grid slice: [0, 1/2] cut by x >= 0 and x <= 0.3 ties the
    # lower ends +0.0 and -0.0; the float form reads it without _intervals
    from gnepkit import convexsets

    monkeypatch.setattr(convexsets, "_intervals", None)
    P = HPoly([[1.0], [-1.0], [-1.0], [1.0]], [0.5, -0.0, 0.0, 0.3])
    assert np.float64(P._interval[0]).tobytes() == np.float64(-0.0).tobytes()
    assert P._interval[1] == 0.3


def test_intersection_merges_polyhedral_parts():
    I = intersect(unit_square(), HPoly([[1.0, 1.0]], [1.0]))
    assert I.contains([0.2, 0.2])
    assert not I.contains([0.9, 0.9])
    z = I.project([1.0, 1.0])
    assert np.allclose(z, [0.5, 0.5], atol=1e-7)


def test_empty_intersection_detected():
    I = intersect(Box([0.0], [1.0]), Box([2.0], [3.0]))
    assert I.is_empty()
    with pytest.raises(EmptyBodyError):
        I.project(np.array([0.5]))


def test_equalities_travel_in_the_rows():
    # hrep() carries each equality as an exact +/- pair, so the HPoly of a
    # Simplex's rows, an intersect() with a Simplex part and a saved copy
    # all report the simplex's sum row; a strict or inexact pair is none
    C, d = Simplex(3, 1.5).equalities()
    A, b, strict = Simplex(3, 1.5).hrep()
    assert np.array_equal(A, np.vstack([-np.eye(3), C, -C]))
    assert np.array_equal(b, [0.0, 0.0, 0.0, d[0], -d[0]]) and not strict.any()
    for K in (HPoly(A, b), intersect(Simplex(3, 1.5), HPoly([[1.0, 0.0, 0.0]], [1.0])),
              body_from_dict(HPoly(A, b).to_dict())):
        Ck, dk = K.equalities()
        assert np.array_equal(Ck, C) and np.array_equal(dk, d)
    assert not len(HPoly(A, b, strict=[False] * 4 + [True]).equalities()[1])
    assert not len(HPoly(A, b + [0.0, 0.0, 0.0, 0.0, 1e-12]).equalities()[1])


def test_box_with_a_fixed_coordinate_reports_its_equality():
    # a coordinate with lo == hi is an exact +/- pair in Box.hrep(), so the
    # box reports the equality that an intersect() with the box reads from
    # the same rows, and both bodies get one tangent projector, zeroing x0
    B = Box([0.0, 0.0], [0.0, 1.0])
    K = intersect(B, HPoly([[1.0, 1.0]], [5.0]))
    for C, d in (B.equalities(), K.equalities()):
        assert np.array_equal(C, [[1.0, 0.0]]) and np.array_equal(d, [0.0])
    assert np.array_equal(tangent_projector(B), tangent_projector(K))
    assert np.array_equal(tangent_projector(B), np.diag([0.0, 1.0]))
    assert not len(Box([0.0, -np.inf], [1.0, np.inf]).equalities()[1])
    assert np.array_equal(Box([2.0, 3.0], [2.0, 3.0]).equalities()[1], [2.0, 3.0])


def test_closure_keeps_a_known_bound(monkeypatch):
    # a compact region cut by a strict row, as _with_rows builds one: its
    # closure has the same rows, so it is bounded and has vertices with no
    # recession-cone LP
    from gnepkit import _lp
    from gnepkit.preferences import _with_rows

    calls = []
    real = _lp.solve_lp
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    X = intersect(Box([0.0, 0.0], [2.0, 2.0]), HPoly([[1.0, 1.0]], [3.0]))
    K = _with_rows(X, np.array([[1.0, -1.0]]), np.array([0.5]), np.array([True])).closure()
    assert not K.strict.any() and K.is_bounded()
    assert _same_point_set(K.vertices(), np.array(
        [[0.0, 0.0], [0.5, 0.0], [1.75, 1.25], [1.0, 2.0], [0.0, 2.0]]))
    assert calls == []


# -- vertices / hulls / support --------------------------------------------


def test_vertices_triangle():
    V = triangle().vertices()
    want = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert V.shape == (3, 2)
    for w in want:
        assert np.min(np.abs(V - w).sum(axis=1)) < 1e-9


def test_hull_body_square(rng):
    pts = np.array([[0.0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    H = hull_body(pts)
    assert H.contains([0.5, 0.25])
    assert not H.contains([1.2, 0.5])


def _criterion_1_hulls():
    """The full-dimensional hull bodies of the criterion-1 draws."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, size=(dim + 1 + int(rng.integers(0, 4)), dim))
        try:
            body = hull_body(pts)
        except EnumerationError:
            continue
        if isinstance(body, HPoly) and "_vertices" in vars(body):
            yield body


def test_hull_body_keeps_qhull_vertices():
    # qhull splits a facet into coplanar simplices, so a row subset can be
    # singular only up to rounding; enumeration from the rows still returns
    # exactly the stored vertices
    from vertex_reference import _enumerate_vertices

    checked = 0
    for body in _criterion_1_hulls():
        V, W = body.vertices(), _enumerate_vertices(body.A, body.b)
        assert V.shape == W.shape and np.allclose(V, W, atol=1e-9)
        checked += 1
    assert checked > 150


def test_hull_body_round_trip_enumerates_qhull_vertices():
    # a hull rebuilt from its dict has no stored vertices and enumerates
    checked = 0
    for body in _criterion_1_hulls():
        back = body_from_dict(body.to_dict())
        assert "_vertices" not in vars(back)
        V, W = body.vertices(), back.vertices()
        assert V.shape == W.shape and np.allclose(V, W, atol=1e-9)
        checked += 1
    assert checked > 150


def test_is_bounded_is_one_recession_lp(monkeypatch):
    # no bounding-box LPs: a vertex-form body, a hull and a 1-D interval
    # need no LP, rows of rank < n none either, and any other n-D body one
    # LP on its recession cone, which its emptiness verdict runs first to
    # know whether it has a vertex form (a bounded body is then decided by
    # its vertex candidates, an unbounded one by the least-distance NNLS)
    from gnepkit import _lp
    from gnepkit.convexsets import VertexForm

    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cases = [(VertexForm.of(square).body(np.ones(4)), True, []),
             (hull_body(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), True, []),
             (HPoly([[1.0], [-1.0]], [1.0, 0.0]), True, []),
             (HPoly([[1.0], [-2.0]], [1.0, 5.0]), True, []),
             (HPoly([[1.0]], [1.0]), False, []),
             (HPoly(square[:2], [1.0, 1.0]), False, []),  # a strip: rank 1
             (triangle(), True, ["cone", "lp"]),
             (HPoly(-np.eye(2), np.zeros(2)), False, ["cone", "lp"])]  # the orthant
    for P, bounded, lps in cases:
        calls = []
        monkeypatch.setattr(_lp, "solve_lp",
                            lambda *a, real=_lp.solve_lp, **k: calls.append("lp") or real(*a, **k))
        monkeypatch.setattr(_lp, "recession_cone_is_zero",
                            lambda A, real=_lp.recession_cone_is_zero: calls.append("cone") or real(A))
        assert not P.is_empty()
        assert P.is_bounded() is bounded and P.is_bounded() is bounded
        assert calls == lps
        monkeypatch.undo()


def test_polygon_over_the_gate_enumerates_in_chunks():
    # a regular 300-gon has 44,850 row pairs, over _VERTEX_FORM_SUBSETS: a
    # one-off vertex form enumerates it, a chunk of candidates at a time
    import tracemalloc

    from gnepkit.convexsets import _VERTEX_FORM_SUBSETS, _VERTEX_SUBSET_CAP
    from vertex_reference import _enumerate_vertices

    polygon = _regular_polygon
    P = polygon(300)
    assert 300 * 299 // 2 > _VERTEX_FORM_SUBSETS and P._form is None
    assert P.is_bounded()
    tracemalloc.start()
    try:
        V = P.vertices()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert len(V) == 300 and _same_point_set(V, _enumerate_vertices(P.A, P.b))
    lo, hi = P.bounding_box()
    assert np.allclose(lo, V.min(axis=0)) and np.allclose(hi, V.max(axis=0))
    m = 2
    while m * (m - 1) // 2 <= _VERTEX_SUBSET_CAP:
        m += 1
    Q = polygon(m)
    for query in (Q.vertices, Q.bounding_box):
        with pytest.raises(EnumerationError, match="too many row subsets"):
            query()


def _regular_polygon(m):
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return HPoly(np.column_stack([np.cos(t), np.sin(t)]), np.ones(m))


def test_sorted_unique_window_equals_pairwise_pass():
    # the window scan keeps exactly the rows the pass over every pair kept:
    # on the criterion-1 hulls' candidates, the 300-gon's, and clusters whose
    # near-duplicates lexsort leaves apart (ties in x0, or x0 within 1e-9)
    from gnepkit.convexsets import _sorted_unique
    from vertex_reference import sorted_unique_pairwise

    inputs = [body._candidates for body in _criterion_1_hulls() if body.dim > 1]
    inputs.append(_regular_polygon(300)._candidates)
    rng = np.random.default_rng(8)
    for _ in range(200):
        base = rng.integers(-2, 3, size=(12, 3)).astype(float) * 0.5
        jitter = rng.choice([0.0, 4e-10, -6e-10, 9e-10, 3e-9], size=base.shape)
        inputs.append(np.vstack([base, base[::-1] + jitter]))
    inputs.append(np.array([[0.0, 0.0], [0.0, 1.0], [1e-10, 0.0], [1e-10, 1.0 + 1e-10]]))
    for C in inputs:
        assert np.array_equal(_sorted_unique(C), sorted_unique_pairwise(C))
    assert len(_sorted_unique(inputs[-1])) == 2


def test_polygon_300_dedup_compares_linearly(monkeypatch):
    # the 300-gon's dedup makes O(n) norm comparisons, where the pass over
    # every pair of kept vertices made about n^2 / 2 (its vertices() took
    # 0.36-0.47 s against 0.21-0.30 s with the window, unloaded 2-core
    # x86_64 host; the count does not depend on the host's load)
    from gnepkit.convexsets import _sorted_unique
    from vertex_reference import sorted_unique_pairwise

    C = _regular_polygon(300)._candidates
    calls = []
    norm = np.linalg.norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    counts = []
    for dedup in (_sorted_unique, sorted_unique_pairwise):
        calls.clear()
        assert len(dedup(C)) == 300
        counts.append(len(calls))
    assert counts[0] <= 3 * len(C)
    assert counts[1] > 300 * 299 // 4


def test_unbounded_bounding_box_raises_enumeration_error():
    # an unbounded n-D body has no vertex set to box; 1-D rays keep their
    # infinite end
    orthant = HPoly(-np.eye(2), np.zeros(2))
    for K in (orthant, intersect(orthant, HPoly([[1.0, -1.0]], [5.0])),
              HPoly([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])):
        with pytest.raises(EnumerationError):
            K.bounding_box()
        with pytest.raises(EnumerationError):
            K.vertices()
    lo, hi = HPoly([[-1.0]], [0.0]).bounding_box()
    assert lo[0] == 0.0 and hi[0] == np.inf


def test_hull_body_degenerate_segment():
    H = hull_body(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    assert H.contains([0.5, 0.5, 0.0])
    assert not H.contains([0.5, 0.4, 0.0])
    assert not H.contains([0.5, 0.5, 0.1])


@pytest.mark.parametrize("dim,rank", [(3, 2), (4, 2), (4, 3)])
def test_hull_body_flat_cloud(dim, rank):
    # a cloud of rank 2 to dim - 1: its hull in the affine span, and the
    # directions orthogonal to the span as equality pairs
    from vertex_reference import _enumerate_vertices

    rng = np.random.default_rng(10 * dim + rank)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :rank]
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=rank)))
    offset = rng.uniform(-1, 1, dim)
    pts = np.vstack([corners, np.full((1, rank), 0.5)]) @ basis.T + offset
    H = hull_body(pts)
    assert isinstance(H, HPoly) and H.is_bounded()
    V = H.vertices()
    assert len(V) == 2 ** rank
    assert np.allclose(np.sort(V, axis=0), np.sort(pts[:-1], axis=0), atol=1e-12)
    assert np.allclose(_enumerate_vertices(H.A, H.b), V, atol=1e-9)
    normal = np.linalg.qr(basis, mode="complete")[0][:, rank]
    for p in pts:
        assert H.contains(p, eps=1e-12)
        assert not H.contains(p + 1e-6 * normal, eps=1e-12)
    assert not H.contains(1.01 * corners[-1] @ basis.T + offset, eps=1e-12)


def test_hull_body_interval_1d():
    H = hull_body(np.array([[2.0], [-1.0], [0.5]]))
    assert H.contains([0.0]) and H.contains([2.0]) and not H.contains([2.1])


@pytest.mark.parametrize("body,c,want", [
    (unit_square(), [1.0, 2.0], 3.0),
    (unit_square(), [-1.0, 2.0], 2.0),
    (Simplex(3), [1.0, 5.0, 2.0], 5.0),
    (Ball([0.0, 0.0], 2.0), [3.0, 4.0], 10.0),
])
def test_support_max_closed_forms(body, c, want):
    assert support_max(body, np.array(c)) == pytest.approx(want, abs=1e-9)


def test_support_max_matches_vertex_scan(rng):
    # maximize's value and argmax against a vertex scan; support_max is its value
    bodies = [
        triangle(),
        Box([-1.0, 0.0, 2.0], [0.5, 1.0, 3.0]),
        Simplex(3, 2.0),
        HPoly([[1.0], [-2.0]], [0.7, 1.0]),
        intersect(Box([-1.0], [1.0]), HPoly([[3.0]], [0.9])),
        HPoly(triangle().A, triangle().b, strict=[True, False, True]),
        intersect(Simplex(3), HPoly([[1.0, 0.0, 0.0]], [0.4])),
    ]
    for P in bodies:
        V = P.closure().vertices()
        for _ in range(25):
            c = rng.standard_normal(P.dim)
            val, z = maximize(P, c)
            assert support_max(P, c) == val
            assert val == pytest.approx((V @ c).max(), abs=1e-8)
            assert np.allclose(z, V[np.argmax(V @ c)], atol=1e-8)
    # a ball against a fine scan of its boundary circle
    B = Ball([0.5, -1.0], 2.0)
    t = np.linspace(0.0, 2 * np.pi, 100_001)
    circle = B.center + B.radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    for _ in range(25):
        c = rng.standard_normal(2)
        val, z = maximize(B, c)
        assert val == pytest.approx((circle @ c).max(), abs=1e-8)
        assert np.allclose(z, circle[np.argmax(circle @ c)], atol=1e-4)
        assert c @ z == pytest.approx(val, abs=1e-12)


def test_maximize_quadratic_matches_grid(rng):
    # exact KKT maximum against a dense grid, as for _lp.max_concave_quad
    g = np.linspace(-1.0, 1.0, 401)
    grid = np.stack([m.ravel() for m in np.meshgrid(g, g, indexing="ij")], axis=1)
    for P in (Box([-0.5, -1.0], [1.0, 0.25]), triangle()):
        Z = grid[[P.contains(z, eps=1e-12) for z in grid]]
        for _ in range(10):
            G = rng.standard_normal((2, 2))
            Q = -(G @ G.T) - 0.1 * np.eye(2)
            c = rng.uniform(-2.0, 2.0, 2)
            val, z = maximize(P, c, Q)
            vals = 0.5 * np.einsum("ki,ij,kj->k", Z, Q, Z) + Z @ c
            assert vals.max() - 1e-9 <= val <= vals.max() + 0.05
            assert val == pytest.approx(0.5 * z @ Q @ z + c @ z, abs=1e-12)
            assert P.contains(z, eps=1e-9)


@pytest.mark.parametrize("g", [-2e-8, -5e-9, -1e-9, -1e-10, 0.0, 1e-9])
def test_quadratic_maximum_over_a_thin_or_crossing_slab(g):
    # {x0 <= g, x0 >= 0} x [0, 1]: empty at -2e-8 by its vertex form; from
    # -5e-9 to -1e-10 the least-distance program finds it empty within its
    # rounding and the hull of its vertices answers, as HPoly.project does
    body = HPoly([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [g, 0.0, 1.0, 0.0])
    for c in ([0.3, 0.4], [-0.3, 0.4], [1.0, 1.0], [-1.0, 2.0], [0.0, 0.0]):
        if g == -2e-8:
            with pytest.raises(EmptyBodyError):
                maximize(body, c, -np.eye(2))
            continue
        val, z = maximize(body, c, -np.eye(2))
        assert np.allclose(z, body.project(c), rtol=0.0, atol=1e-15), c
        assert val == -0.5 * z @ z + np.dot(c, z)
        assert body.margins(z).max() <= 1e-8


def test_maximize_errors():
    from gnepkit import _lp

    orthant = HPoly([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
    with pytest.raises(_lp.UnboundedLP):
        maximize(orthant, [1.0, 0.5])
    with pytest.raises(_lp.UnboundedLP):
        maximize(orthant, [0.0, 1.0], np.diag([-1.0, 0.0]))
    with pytest.raises(_lp.UnboundedLP):
        maximize(Box([0.0], [np.inf]), [1.0])
    with pytest.raises(_lp.UnboundedLP):
        maximize(HPoly([[-1.0]], [0.0]), [1.0], np.zeros((1, 1)))
    # an intersection refuses a non-polyhedral part, so a Ball with a
    # nonzero Q is the one body maximize cannot answer
    with pytest.raises(ValueError, match="kind='ball' is not polyhedral"):
        intersect(Ball([0.0, 0.0], 1.0), unit_square())
    with pytest.raises(EnumerationError):
        maximize(Ball([0.0, 0.0], 1.0), [1.0, 0.0], -np.eye(2))


def _separable_family(rng, q_lo, q_hi):
    """Diagonal Q <= 0 over boxes in 1-4 D and over 1-D polyhedra.

    Box coordinates with q_j == 0 get a nonzero c_j, so every argmax is
    unique; 1-D draws have q in [q_lo, q_hi].
    """
    out = []
    for _ in range(60):
        d = int(rng.integers(1, 5))
        lo = rng.uniform(-2.0, 1.0, d)
        hi = lo + rng.uniform(0.0, 2.0, d)
        q = -rng.uniform(q_lo, q_hi, d)
        if d > 1:
            q[rng.uniform(size=d) < 0.4] = 0.0
        c = rng.uniform(-3.0, 3.0, d)
        c[(q == 0) & (np.abs(c) < 0.1)] = 1.0
        out.append((Box(lo, hi), c, np.diag(q)))
    for _ in range(60):
        lo = rng.uniform(-2.0, 1.0)
        hi = lo + rng.uniform(0.0, 2.0)
        a = rng.uniform(0.5, 3.0)
        Q = np.array([[-rng.uniform(q_lo, q_hi)]])
        c = rng.uniform(-3.0, 3.0, 1)
        out.extend([
            (HPoly([[a], [-a]], [a * hi, -a * lo]), c, Q),
            (intersect(Box([lo - 0.5], [hi]), HPoly([[-a]], [-a * lo])), c, Q),
            (Box([lo], [np.inf]), c, Q),                # one-sided intervals
            (HPoly([[a]], [a * hi]), c, Q),
            (Box([lo], [lo]), c, Q),                    # point intervals
            (HPoly([[1.0], [-1.0]], [hi, -hi]), c, Q),
        ])
    return out


def test_maximize_separable_matches_enumerator():
    # the per-coordinate clips against the active-set enumeration they replace
    from qp_reference import max_concave_quad

    rng = np.random.default_rng(17)
    # |q| < 1: the enumerator's KKT solve pivots on the bound's row and lands
    # exactly on the bound, so 1-D bodies agree bit for bit
    for body, c, Q in _separable_family(rng, 0.05, 0.95):
        A, b, _ = body.hrep()
        want_val, want_z = max_concave_quad(Q, c, A, b)
        val, z = maximize(body, c, Q)
        if body.dim == 1:
            assert (val, z[0]) == (want_val, want_z[0]), body
        else:
            assert val == pytest.approx(want_val, abs=1e-12), body
            assert np.allclose(z, want_z, rtol=0.0, atol=1e-12), body
    # |q| >= 1: the enumerator can pivot on q and stop an ulp off the bound;
    # the clip returns the bound itself
    for body, c, Q in _separable_family(rng, 1.0, 5.0):
        A, b, _ = body.hrep()
        want_val, want_z = max_concave_quad(Q, c, A, b)
        val, z = maximize(body, c, Q)
        assert val == pytest.approx(want_val, abs=1e-12), body
        assert np.allclose(z, want_z, rtol=0.0, atol=1e-12), body
        if body.dim == 1:
            assert z[0] == np.clip(-c[0] / Q[0, 0], *body.bounding_box()), body


def test_maximize_separable_runs_no_enumeration(monkeypatch):
    from gnepkit import _lp

    def no_qp(*args, **kwargs):
        raise AssertionError("separable maximization enumerated active sets")

    monkeypatch.setattr(_lp, "max_concave_quad", no_qp)
    for body, c, Q in _separable_family(np.random.default_rng(18), 0.05, 5.0):
        maximize(body, c, Q)
    with pytest.raises(_lp.UnboundedLP):   # q_j == 0 with c_j pointing at inf
        maximize(Box([0.0, 0.0], [1.0, np.inf]), [1.0, 2.0], np.diag([-1.0, 0.0]))
    with pytest.raises(_lp.UnboundedLP):
        maximize(Box([0.0, -np.inf], [1.0, 0.0]), [1.0, -2.0], np.diag([-1.0, 0.0]))


def test_maximize_box_zero_gradient_ignores_infinite_bounds():
    # c_j == 0 against an infinite bound once gave 0 * inf = nan and raised
    X = Box([0.0, 0.0], [1.0, np.inf])
    val, z = maximize(X, [1.0, 0.0])
    assert val == 1.0 and np.array_equal(z, [1.0, 0.0])
    val, z = maximize(X, [1.0, 0.0], np.diag([-0.5, 0.0]))
    assert val == 0.75 and np.array_equal(z, [1.0, 0.0])
    # finite bounds keep the old value bit for bit, zero terms' signs included
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        lo = rng.uniform(-2.0, 1.0, d)
        hi = lo + rng.uniform(0.0, 2.0, d)
        c = rng.choice([-1.5, -0.0, 0.0, 2.0], d)
        old = np.sum(np.where(c >= 0, c * hi, c * lo))
        assert maximize(Box(lo, hi), c)[0].hex() == float(old).hex()


# -- separation -------------------------------------------------------------


def test_separate_box_corner_frozen():
    # at the (1,1) corner of the unit square the mean of the active outward
    # normals is (1,1)/sqrt(2)
    t = separate(unit_square(), np.array([1.0, 1.0]))
    assert np.allclose(t, [1 / SQ2, 1 / SQ2], atol=1e-9)


def test_separate_exterior_residual_direction():
    t = separate(unit_square(), np.array([2.0, 0.5]))
    assert np.allclose(t, [1.0, 0.0], atol=1e-9)


def test_separate_interior_raises():
    with pytest.raises(InteriorPointError):
        separate(unit_square(), np.array([0.5, 0.5]))


def test_separate_open_halfspace_boundary():
    # open preference set {z : 3 z1 + 4 z2 < 7}; anchor on its boundary
    P = HPoly([[3.0, 4.0]], [7.0], strict=np.array([True]))
    y = np.array([1.0, 1.0])
    t = separate(P, y)
    assert np.allclose(t, [0.6, 0.8], atol=1e-9)
    # members satisfy <t, z - y> < 0 strictly
    for z in [np.array([0.0, 0.0]), np.array([1.0, 0.9]), np.array([-2.0, 3.0])]:
        assert t @ (z - y) < 0


def test_separation_inequality_on_random_polytopes(rng):
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, size=(dim + 2, dim))
        try:
            body = hull_body(pts)
        except Exception:
            continue
        V = body.closure().vertices()
        if not len(V):
            continue
        y = V[rng.integers(len(V))]
        t = separate(body, y)
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-9)
        assert (V @ t - t @ y).max() <= 1e-8


# -- normal cones ------------------------------------------------------------


def _is_normal_direction(body, y, g, delta=1e-6):
    """Projection oracle: g is normal at y iff stepping out along g projects
    straight back to y."""
    z = body.project(y + delta * g)
    return np.linalg.norm(z - y) <= 10 * delta * 1e-2 + 1e-9


def test_normal_cone_box_corner():
    gens = normal_cone_generators(unit_square(), np.array([1.0, 1.0]))
    assert not gens.whole_space
    G = gens.generators
    assert len(G) == 2
    for e in np.eye(2):
        assert np.min(np.abs(G - e).sum(axis=1)) < 1e-9


def test_normal_cone_empty_body_is_whole_space():
    empty = HPoly([[1.0], [-1.0]], [0.0, -1.0])
    gens = normal_cone_generators(empty, np.array([0.3]))
    assert gens.whole_space


def test_normal_cone_interior_is_zero():
    gens = normal_cone_generators(unit_square(), np.array([0.4, 0.6]))
    assert not gens.whole_space
    assert len(gens.generators) == 0


def test_normal_cone_generators_pass_projection_oracle(rng):
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(dim + 2, dim))
        try:
            body = hull_body(pts)
        except Exception:
            continue
        V = body.closure().vertices()
        if not len(V):
            continue
        anchor = V[rng.integers(len(V))]
        gens = normal_cone_generators(body, anchor)
        assert not gens.whole_space
        for g in gens.generators:
            assert _is_normal_direction(body, anchor, g), (anchor, g)


def test_normal_cone_exterior_contains_residual(rng):
    body = triangle()
    y = np.array([1.0, 1.0])
    gens = normal_cone_generators(body, y)
    r = y - body.project(y)
    r /= np.linalg.norm(r)
    assert any(np.allclose(g, r, atol=1e-8) for g in gens.generators)


# -- cone sections -----------------------------------------------------------


def test_cone_from_vectors_normalizes_and_dedupes():
    C = ConeSection.from_vectors([[2.0, 0.0], [1.0, 0.0], [0.0, 3.0]], 2)
    assert len(C.generators) == 2
    assert np.allclose(np.linalg.norm(C.generators, axis=1), 1.0)


def test_min_norm_point_frozen():
    C = ConeSection.from_vectors([[1.0, 0.0], [0.0, 1.0]], 2)
    assert np.allclose(C.min_norm_point(), [0.5, 0.5], atol=1e-9)


def test_min_norm_point_wolfe_condition(rng):
    for _ in range(30):
        d = int(rng.integers(1, 4))
        G = rng.standard_normal((int(rng.integers(1, 5)), d))
        C = ConeSection.from_vectors(G, d)
        if not len(C.generators):
            continue
        p = C.min_norm_point()
        # optimality of the hull point: <g, p> >= |p|^2 for every generator
        assert np.all(C.generators @ p >= p @ p - 1e-7)


def test_min_norm_point_closed_forms_match_enumeration():
    from qp_reference import min_norm_hull_point

    rng = np.random.default_rng(23)
    cones = [ConeSection.from_vectors(rng.uniform(0.1, 10.0) * rng.standard_normal(d), d)
             for d in (1, 2, 3, 4) for _ in range(500)]
    cones += [ConeSection.from_vectors([[s * rng.uniform(0.1, 10.0)],
                                        [-s * rng.uniform(0.1, 10.0)]], 1)
              for s in (1.0, -1.0) for _ in range(50)]
    for C in cones:
        want = min_norm_hull_point(C.generators)
        assert C.min_norm_point().tobytes() == want.tobytes(), C.generators


def test_min_norm_point_equals_the_support_reference():
    # one NNLS against Wolfe's support enumeration, hulls of 2-6 generators
    from qp_reference import min_norm_hull_point

    rng = np.random.default_rng(31)
    for _ in range(400):
        d = int(rng.integers(1, 5))
        C = ConeSection.from_vectors(rng.standard_normal((int(rng.integers(2, 7)), d)), d)
        if C.n_generators < 2:
            continue
        want = min_norm_hull_point(C.generators)
        assert np.allclose(C.min_norm_point(), want, rtol=0.0, atol=1e-12), C.generators


def test_polar_check():
    C = ConeSection.from_vectors([[1.0, 0.0]], 2)
    assert polar_check(C, np.array([-1.0, 0.0]))
    assert polar_check(C, np.array([0.0, 1.0]))     # orthogonal is fine
    assert not polar_check(C, np.array([1.0, 0.0]))
    W = ConeSection.whole(2)
    assert polar_check(W, np.zeros(2))
    assert not polar_check(W, np.array([1e-3, 0.0]))


# -- vertex form -------------------------------------------------------------


# The 2-D slab {x0 <= 0, x0 >= g} x [-1, 1] in vertex form: its verdict is
# the feasibility test of vertex enumeration (to 1e-8), so crossings of
# 1e-12 and 1e-9 are a segment, which a least-distance program would call
# empty, and 1e-7 is empty.
@pytest.mark.parametrize("g,empty", [
    (-1e-6, False), (0.0, False), (1e-12, False), (1e-9, False), (1e-7, True), (1e-3, True),
])
def test_vertex_form_slab_one_emptiness_verdict(g, empty):
    from gnepkit.convexsets import VertexForm

    P = VertexForm.of(_SLAB_A).body(np.array([0.0, -g, 1.0, 1.0]))
    assert P.is_empty(eps_open=0.0) is empty
    _check_one_verdict(P, np.random.default_rng(5))


def test_hpoly_project_reads_the_emptiness_verdict():
    # {x0 <= 0, x0 >= g} x [-1, 1] gets one verdict from every start: at
    # g = 1e-12 its vertex candidates see a segment, which projects even
    # where the least-distance program alone would call it empty; at
    # g = 1e-7 they see none, and every projection raises
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    thin, crossed = HPoly(A, [0.0, -1e-12, 1.0, 1.0]), HPoly(A, [0.0, -1e-7, 1.0, 1.0])
    assert not thin.is_empty(eps_open=0.0) and crossed.is_empty(eps_open=0.0)
    for y0 in (-1e-3, 0.0, 1e-3, 1.0, 5.0, 100.0):
        y = np.array([y0, 0.3])
        assert np.allclose(thin.project(y), [0.0, 0.3], atol=1e-9)
        with pytest.raises(EmptyBodyError):
            crossed.project(y)


def _same_point_set(V, W, tol=1e-9):
    return len(V) == len(W) and all(
        np.min(np.linalg.norm(W - v, axis=1)) <= tol for v in V) and all(
        np.min(np.linalg.norm(V - w, axis=1)) <= tol for w in W)


def _check_one_verdict(P, rng):
    """Every query of P answers for the body _enumerate_vertices describes."""
    from gnepkit import _lp
    from vertex_reference import _enumerate_vertices

    assert P._form is not None
    W = _enumerate_vertices(P.A, P.b)
    empty = P.is_empty(eps_open=0.0)
    assert empty is (len(W) == 0)
    V = P.vertices()
    assert _same_point_set(V, W)
    starts = [rng.uniform(-3.0, 3.0, P.dim) for _ in range(4)] + [np.full(P.dim, 100.0)]
    c = rng.standard_normal(P.dim)
    if empty:
        for query in (P.bounding_box, lambda: maximize(P, c), lambda: P.sample(rng, 2)):
            with pytest.raises(EmptyBodyError):
                query()
        for y in starts:
            with pytest.raises(EmptyBodyError):
                P.project(y)
        assert P.interior_point() is None
        return
    lo, hi = P.bounding_box()
    assert np.allclose(lo, W.min(axis=0), atol=1e-9) and np.allclose(hi, W.max(axis=0), atol=1e-9)
    val, z = maximize(P, c)
    assert val == pytest.approx(np.max(W @ c), abs=1e-9)
    assert P.contains(z, eps=1e-8) and c @ z == pytest.approx(val, abs=1e-12)
    if P.interior_point() is not None:  # a body the LP sees as nonempty
        assert val == pytest.approx(_lp.max_linear(c, P.A, P.b)[0], abs=1e-7)
    for y in starts:
        p = P.project(y)
        assert P.contains(p, eps=1e-8)
        # the projection is no farther than any vertex
        assert np.linalg.norm(p - y) <= np.min(np.linalg.norm(W - y, axis=1)) + 1e-9


def _vertex_form_slices(seed):
    """Slices K_0(x) of seeded shared polytopes over 2-D and 3-D blocks.
    X_0 is the unit box and so is the shared set's own part, so every box
    row comes twice (degenerate vertices, as in box-argmax's 8 rows); two
    random cuts move with the rivals, and rivals outside [0, 1] can empty
    the slice."""
    from gnepkit.game import constraint_body, jointly_convex_game
    from gnepkit.preferences import LinearUtility

    rng = np.random.default_rng(seed)
    out = []
    for d in (2, 3):
        n = d + 2
        cuts = np.abs(rng.standard_normal((2, n))) + 0.1
        A = np.vstack([np.eye(n), -np.eye(n), cuts])
        b = np.concatenate([np.ones(n), np.zeros(n), cuts.sum(axis=1) * rng.uniform(0.3, 0.6, 2)])
        X = [Box(np.zeros(d), np.ones(d)), Box([0.0], [1.0]), Box([0.0], [1.0])]
        lin = [LinearUtility(np.ones(k.dim)) for k in X]
        game = jointly_convex_game(X, lin, HPoly(A, b))
        for _ in range(12):
            x = np.concatenate([rng.uniform(0.0, 1.0, d), rng.uniform(-0.5, 1.5, 2)])
            out.append(constraint_body(game, 0, x))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vertex_form_slices_match_enumeration(seed):
    bodies = _vertex_form_slices(seed)
    rng = np.random.default_rng(seed)
    for P in bodies:
        _check_one_verdict(P, rng)
    verdicts = [P.is_empty(eps_open=0.0) for P in bodies]
    assert any(verdicts) and not all(verdicts)


def test_vertex_form_refuses_unbounded_and_oversized_rows():
    from gnepkit.convexsets import _VERTEX_FORM_SUBSETS, VertexForm

    assert VertexForm.of(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]] / np.array(
        [[1.0], [1.0], [np.sqrt(2.0)]]))) is not None
    # a cone and a strip are unbounded whatever the right-hand side
    assert VertexForm.of(np.array([[-1.0, 0.0], [0.0, -1.0]])) is None
    assert VertexForm.of(np.array([[1.0, 0.0], [-1.0, 0.0]])) is None
    assert VertexForm.of(np.array([[1.0], [-1.0]])) is None  # 1-D bodies are intervals
    m = 2
    while m * (m - 1) // 2 <= _VERTEX_FORM_SUBSETS:
        m += 1
    t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    assert VertexForm.of(np.column_stack([np.cos(t), np.sin(t)])) is None
    assert VertexForm.of(np.column_stack([np.cos(t), np.sin(t)])[:m - 1]) is not None


# w - p.lo for the budget sets below: -1e-6 leaves lo out of the budget
# (empty), 0 leaves the one point lo (the face of lo when p has zeros), and
# the rest are ever thinner slivers around lo
_BUDGET_OFFSETS = (-1e-6, 0.0, 1e-12, 1e-9, 1e-7, 1e-3)


def _budget_sets(seed):
    """Seeded budget sets {a in [lo, hi] : <p, a> <= w} over H = 2..5 goods,
    as economy.budget_set builds them, with w = p.lo + each offset of
    _BUDGET_OFFSETS and one interior budget, for prices with and without
    zero entries."""
    rng = np.random.default_rng(seed)
    out = []
    for H in (2, 3, 4, 5):
        lo = rng.uniform(0.0, 0.5, H)
        hi = lo + rng.uniform(0.5, 2.0, H)
        for zeros in (0, H // 2):
            p = rng.uniform(0.1, 1.0, H)
            p[rng.choice(H, size=zeros, replace=False)] = 0.0
            inner = p @ (hi - lo) * rng.uniform(0.2, 0.8)
            for off in _BUDGET_OFFSETS + (inner,):
                out.append(intersect(Box(lo, hi), HPoly(p[None], [p @ lo + off])))
    return out


def _check_budget_set(K, rng, calls):
    """One emptiness verdict from every query of K, none of them an LP, and
    support equal to the LP's and vertices to _enumerate_vertices."""
    from gnepkit import _lp
    from vertex_reference import _enumerate_vertices

    assert K._form is not None
    W = _enumerate_vertices(K.A, K.b)
    empty = K.is_empty(eps_open=0.0)
    assert empty is (len(W) == 0)
    assert _same_point_set(K.vertices(), W)
    starts = [rng.uniform(-1.0, 3.0, K.dim) for _ in range(4)] + [np.full(K.dim, 100.0)]
    # a random objective, the price row (tied on the budget face: values
    # only) and a unit vector (tied where p has zeros)
    cs = [rng.standard_normal(K.dim), K.A[-1], np.eye(K.dim)[0]]
    if empty:
        for query in [K.bounding_box, K.is_bounded, lambda: K.sample(rng, 2)] + [
                lambda c=c: maximize(K, c) for c in cs]:
            with pytest.raises(EmptyBodyError):
                query()
        for y in starts:
            with pytest.raises(EmptyBodyError):
                K.project(y)
        assert calls == []
        assert K.interior_point() is None
        return
    assert K.is_bounded()
    lo, hi = K.bounding_box()
    assert np.allclose(lo, W.min(axis=0), atol=1e-9) and np.allclose(hi, W.max(axis=0), atol=1e-9)
    best = [maximize(K, c) for c in cs]
    assert all(K.contains(p, eps=1e-8) for p in K.sample(rng, 5))
    for y in starts:
        q = K.project(y)
        assert K.contains(q, eps=1e-8)
        assert np.linalg.norm(q - y) <= np.min(np.linalg.norm(W - y, axis=1)) + 1e-9
    assert calls == []
    for c, (val, z) in zip(cs, best):
        assert val == pytest.approx(np.max(W @ c), abs=1e-9)
        assert val == pytest.approx(_lp.max_linear(c, K.A, K.b)[0], abs=1e-9)
        assert K.contains(z, eps=1e-8) and c @ z == pytest.approx(val, abs=1e-12)
    x = K.interior_point()
    assert x is None or K.contains(x)
    calls.clear()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_budget_sets_match_exact_references(seed, monkeypatch):
    # the choice box makes a budget set compact, so its one HPoly takes
    # the vertex form with no LP: every query but interior_point reads its
    # candidates, and -1e-6 is the one offset that empties it
    from gnepkit import _lp

    calls = []
    real = _lp.solve_lp
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(seed)
    bodies = _budget_sets(seed)
    for K in bodies:
        _check_budget_set(K, rng, calls)
    verdicts = [K.is_empty(eps_open=0.0) for K in bodies]
    assert verdicts == [off < 0 for _ in range(8) for off in _BUDGET_OFFSETS + (1.0,)]


def _clip_grid():
    """Every (c, q, lo, hi) with lo <= hi over values that hold both signed
    zeros and both infinities."""
    vals = [-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 3.0, np.inf]
    rows = [(c, q, lo, hi) for c in vals for q in (-np.inf, -2.0, -0.5, -0.0, 0.0, 1.0)
            for lo in vals for hi in vals if lo <= hi]
    return (np.array(col) for col in zip(*rows))


def _same_bits(a, b):
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_clip_argmax_equals_the_np_clip_form_bit_for_bit():
    # _clip_argmax and its one-coordinate form _interval_argmax against the
    # np.clip form they replace, signed zeros included: whole, in chunks of
    # every few sizes (numpy's vector loops and their tails) and with the
    # curvature as one scalar, as the grid oracle passes it
    from gnepkit import _lp
    from gnepkit.convexsets import _clip_argmax, _interval_argmax
    from verifier_reference import clip_argmax

    C, Q, L, H = _clip_grid()
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = clip_argmax(C, Q, L, H)
        assert _same_bits(_clip_argmax(C, Q, L, H), ref)
        for n in (1, 2, 3, 5, 8, 17):
            for s in range(0, len(C), n):
                k = slice(s, s + n)
                assert _same_bits(_clip_argmax(C[k], Q[k], L[k], H[k]), ref[k])
        for q in (-2.0, 0.0):
            assert _same_bits(_clip_argmax(C, q, L, H), clip_argmax(C, q, L, H))
    assert np.isnan(ref).any() and np.isinf(ref).any()
    for c, q, lo, hi, z in zip(C, Q, L, H, ref):
        if not np.isfinite(z):
            with pytest.raises(_lp.UnboundedLP):
                _interval_argmax(float(c), float(q), float(lo), float(hi))
        else:
            assert _same_bits(_interval_argmax(float(c), float(q), float(lo), float(hi)), z)


def test_quadratic_maximum_over_a_one_point_simplex():
    # Simplex(1, 2) is the point {2}: the maximum of -0.5 z^2 - z there is -4
    val, z = maximize(Simplex(1, 2.0), [-1.0], [[-1.0]])
    assert z.tolist() == [2.0] and val == pytest.approx(-4.0, abs=1e-12)


# -- open faces ---------------------------------------------------------------


def _open_face_bodies(rng):
    """Seeded strict bodies in 1-3 dimensions at scales 0.1 to 1e3, each as
    (kind, scale, body): rows near a random point inside a box of side
    2 scale ("bounded"), without the box and with every other draw's first
    row opposed ("unbounded"), and the bounded rows in a vertex form
    ("vertex_form"), about half of them strict.  Every third nonempty
    body's strict rows are moved so that its largest strict margin is
    eps_open = 1e-7 off by 2e-9 to 1e-7 times 1 + scale, either way."""
    from emptiness_reference import max_strict_margin
    from gnepkit.convexsets import VertexForm

    out = []
    for k in range(660):
        d, kind = 1 + k % 3, ("bounded", "unbounded", "vertex_form")[k // 3 % 3]
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        m = int(rng.integers(1, d + 2)) if kind == "unbounded" else int(rng.integers(d + 1, 2 * d + 2))
        A = rng.standard_normal((m, d))
        A /= np.linalg.norm(A, axis=1)[:, None]
        b = A @ rng.uniform(-scale, scale, d) + scale * rng.uniform(-0.4, 1.0, m)
        strict = rng.random(m) < 0.5
        strict[0] = True
        if kind == "unbounded" and k % 2:
            A, b = np.vstack([A, -A[0]]), np.append(b, scale * rng.uniform(-0.3, 0.3) - b[0])
            strict = np.append(strict, rng.random() < 0.5)
        if kind != "unbounded":
            A = np.vstack([A, np.eye(d), -np.eye(d)])
            b = np.concatenate([b, np.full(2 * d, scale)])
            strict = np.concatenate([strict, rng.random(2 * d) < 0.25])
        margin = max_strict_margin(A, b, strict) if k % 3 == 0 else None
        if margin is not None and margin < 1e6:
            off = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(np.log10(2e-9), -7.0)
            b = b + (1e-7 + off * (1.0 + scale) - margin) * strict
        if kind == "vertex_form" and d > 1:
            out.append((kind, scale, VertexForm.of(A).body(b, strict)))
        else:
            out.append((kind, scale, HPoly(A, b, strict)))
    return out


def test_open_face_verdict_equals_the_max_slack_reference():
    # one least-distance NNLS on the strict rows moved in by eps_open
    # against the LP of the largest strict margin, on every seeded body
    # whose margin is off eps_open by more than 1e-9 (1 + scale)
    from emptiness_reference import max_strict_margin

    eps_open, seen = 1e-7, {}
    for kind, scale, P in _open_face_bodies(np.random.default_rng(28)):
        s = max_strict_margin(P.A, P.b, P.strict)
        if s is not None and abs(s - eps_open) <= 1e-9 * (1.0 + scale):
            continue
        want = s is None or s <= eps_open
        assert P.is_empty(eps_open) is want, (kind, scale, s)
        seen[kind, want] = seen.get((kind, want), 0) + 1
    assert sum(seen.values()) >= 600
    assert all(seen.get((kind, v), 0) >= 20 for kind in ("bounded", "unbounded", "vertex_form")
               for v in (True, False)), seen


def _box_cut(L, margin, dim):
    """{z in [0, L]^dim : sum(z) > dim L - sqrt(dim) margin}, whose largest
    strict margin is `margin` (at z = L 1), as a plain HPoly and, for
    dim > 1, as a VertexForm body."""
    from gnepkit.convexsets import VertexForm

    A = np.vstack([np.eye(dim), -np.eye(dim), -np.ones(dim) / np.sqrt(dim)])
    b = np.concatenate([np.full(dim, float(L)), np.zeros(dim), [-(np.sqrt(dim) * L - margin)]])
    strict = np.arange(len(b)) == len(b) - 1
    bodies = [HPoly(A, b, strict)]
    if dim > 1:
        bodies.append(VertexForm.of(A).body(b, strict))
    return bodies


@pytest.mark.parametrize("L", [1, 10, 100])
@pytest.mark.parametrize("margin,empty", [(0.0, True), (5e-8, True), (9e-8, True), (1.1e-7, False)])
@pytest.mark.parametrize("dim", [1, 2])
def test_box_cut_open_face_verdict(L, margin, empty, dim):
    # the vertex form and the interval accept a candidate within 1e-8 (1 +
    # |b|) and 1e-10 (|lo| + |hi|): read through them, the strict row moved
    # in by eps_open would leave z = L 1 at L = 10 and 100, margin 0
    from emptiness_reference import is_empty

    for P in _box_cut(L, margin, dim):
        assert P.is_empty() is empty and is_empty(P, 1e-7) is empty
        assert not P.is_empty(eps_open=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_is_empty_at_zero_asks_about_the_closure(dim):
    # {z0 < 0, z0 >= 0} (x [0, 1]) has no strict interior, so no point with
    # any margin, but its closure is a point or a segment: is_empty(0.0),
    # which normal_cone_generators, the verifier and the probes ask, is the
    # closure's verdict, as for a body without strict rows
    from gnepkit import _lp
    from gnepkit.convexsets import VertexForm

    A, b = _SLAB_A[:2 * dim, :dim], np.array([0.0, 0.0, 1.0, 0.0][:2 * dim])
    strict = np.arange(2 * dim) == 0
    bodies = [HPoly(A, b, strict)] + ([VertexForm.of(A).body(b, strict)] if dim > 1 else [])
    for P in bodies:
        assert not P.is_empty(eps_open=0.0) and P.is_empty() and P.is_empty(eps_open=1e-12)
        assert not P.closure().is_empty()
        assert not normal_cone_generators(P, np.full(dim, 0.5)).whole_space
    if dim > 1:
        # crossed by 1e-9: a segment to the vertex candidates, empty to the
        # least-distance program; is_empty(0.0) is still the closure's verdict
        P = VertexForm.of(A).body(b - [0.0, 1e-9, 0.0, 0.0], strict)
        assert not P.is_empty(eps_open=0.0) and not P.closure().is_empty()
        with pytest.raises(_lp.InfeasibleLP):
            _lp.project_polyhedron(np.zeros(2), P.A, P.b)


def test_emptiness_runs_no_lp(monkeypatch):
    # every emptiness verdict, of the closure and of the open faces, is the
    # interval, the vertex candidates or the least-distance NNLS.  A plain
    # n-D body's boundedness (one recession LP, which tells whether it has
    # a vertex form) is asked first; it is not an emptiness test
    from gnepkit import _lp

    bodies = [P for _, _, P in _open_face_bodies(np.random.default_rng(5))[:60]]
    bodies += _box_cut(10, 0.0, 2) + _box_cut(10, 1.1e-7, 1) + [
        HPoly(_SLAB_A[:2], [-1.0, 0.0]),  # the crossed strip: rank 1
        HPoly(-np.eye(2), np.zeros(2), [True, False]),  # the orthant
        HPoly([[1.0, 1.0], [-1.0, -1.0]], [-1.0, 0.0]),  # a crossed unbounded slab
        _regular_polygon(300),  # over the vertex form's gate
        HPoly([[1.0, 0.0], [0.0, 0.0]], [1.0, -1.0], [True, False])]  # poisoned
    for P in bodies:
        if P.dim > 1:
            P._form
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: pytest.fail("an LP decided emptiness"))
    verdicts = [(P._empty, P.is_empty(eps_open=0.0), P.is_empty()) for P in bodies]
    assert {v[0] for v in verdicts} == {True, False} and {v[2] for v in verdicts} == {True, False}


def test_maximize_over_an_empty_strip_raises_one_error():
    # {x0 <= -1, x0 >= 0} in 2-D has rank 1, so no vertex form: its linear
    # maximum is one LP, its quadratic one NNLS, and both say EmptyBodyError
    P = HPoly(_SLAB_A[:2], [-1.0, 0.0])
    assert P.is_empty()
    for Q in (None, -np.eye(2)):
        with pytest.raises(EmptyBodyError):
            maximize(P, [0.3, 0.4], Q)


def test_unbounded_body_beyond_the_chebyshev_box_is_not_empty():
    # {x0 >= 2e6, |x1| <= 1} lies outside the Chebyshev LP's box of 1e6, so
    # that LP finds no centre; the least-distance NNLS calls it nonempty, and
    # interior_point and sample start from the projection of the origin
    P = HPoly([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [-2e6, 1.0, 1.0])
    assert not P.is_empty() and not P.is_bounded()
    assert P.interior_point() is None
    pts = P.sample(np.random.default_rng(0), 3)
    assert pts.shape == (3, 2) and np.allclose(pts, [2e6, 0.0], atol=1e-2)
    assert np.allclose(P.project(np.zeros(2)), [2e6, 0.0], rtol=0.0, atol=1e-6)
