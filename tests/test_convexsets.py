"""Bodies, membership, projection, separation, and normal cones.

The separation/normal-cone checks deliberately use a projection-based oracle
(g is a normal at y iff project(y + delta*g) returns y) so the geometric
routines are judged by independent machinery.
"""

import numpy as np
import pytest

from gnepkit.convexsets import (
    Ball,
    Box,
    ConeSection,
    EmptyBodyError,
    EnumerationError,
    HPoly,
    Intersection,
    InteriorPointError,
    Simplex,
    body_from_dict,
    hull_body,
    maximize,
    normal_cone_generators,
    polar_check,
    separate,
    support_max,
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
    from gnepkit import _lp

    for _ in range(30):
        d = int(rng.integers(1, 4))
        A = rng.standard_normal((int(rng.integers(d + 2, d + 6)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = A @ rng.uniform(-0.3, 0.3, d) + rng.uniform(0.2, 1.0, len(A))
        P = HPoly(A, b)
        y = rng.standard_normal(d) * 2
        z = P.project(y)
        _, z_exact = _lp.max_concave_quad(-np.eye(d), y, A, b)
        assert np.allclose(z, z_exact, atol=1e-9)


def test_hpoly_projection_exact_on_seeded_family():
    # 300 polytopes (n <= 5, m <= 19) with thin slack on some rows.  Draws
    # 12, 84, 96, 126, 245 and 256 defeat sweep methods that stop on a small
    # move (Dykstra): they end feasible but 2e-3 to 3e-2 off the projection.
    from gnepkit import _lp

    rng = np.random.default_rng(0)
    for k in range(300):
        d = int(rng.integers(1, 6))
        A = rng.standard_normal((int(rng.integers(d + 1, 20)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        c = rng.uniform(-0.5, 0.5, d)
        b = A @ c + rng.uniform(0.05, 1.0, len(A))
        y = c + rng.uniform(1.0, 3.0) * rng.standard_normal(d)
        z = HPoly(A, b).project(y)
        _, z_exact = _lp.max_concave_quad(-np.eye(d), y, A, b)
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
    assert lo <= hi and lo == pytest.approx(min(g, 0.0), abs=1e-12)
    want = [[lo]] if hi - lo <= 1e-9 else [[lo], [hi]]
    assert np.array_equal(P.vertices(), want)
    assert support_max(P, np.array([1.0])) == hi
    assert support_max(P, np.array([-1.0])) == -lo
    ip = P.interior_point()
    assert (ip is not None) == bool(hi - lo > 2e-9)
    for y in starts:
        assert P.project(np.array([y]))[0] == pytest.approx(np.clip(y, lo, hi), abs=1e-12)


# The 2-D slab {x <= 0, x >= g, 0 <= y <= 1}.  The Chebyshev LP meets its
# r >= 0 bound only up to its tolerance and returns r = -g/2 for small g;
# a negative radius is empty, r = -0.0 (g = 0, a segment) is not.
@pytest.mark.parametrize("g,empty", [
    (-1e-6, False), (0.0, False), (1e-12, True), (1e-9, True), (1e-7, True), (1e-3, True),
])
def test_slab_2d_one_emptiness_verdict(g, empty):
    P = HPoly([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -g, 1.0, 0.0])
    assert P.is_empty(eps_open=0.0) is empty
    if empty:
        assert P.vertices().shape == (0, 2)
        assert P.interior_point() is None
        with pytest.raises(EmptyBodyError):
            P.bounding_box()
        return
    V = P.vertices()
    assert len(V) == (2 if g == 0.0 else 4)
    assert np.allclose(V[:, 0].min(), min(g, 0.0), atol=1e-12)


def test_poisoned_part_empties_intersection():
    # S = {x0 <= 1, x1 <= 1, x0 + x1 <= 1.5} at x1 = 1.7: the rival breaks
    # x1 <= 1, so the slice over x0 is empty whatever x0 is
    from gnepkit.game import slice_body

    S = HPoly([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.5])
    I = Intersection((Box([-0.5], [1.5]), slice_body(S, [0.2, 1.7], slice(0, 1))))
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
    from gnepkit.solvers import _body_vertices

    rng = np.random.default_rng(0)
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
                      lambda: _body_vertices(body, rng)):
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
        P = B._merged if isinstance(B, Intersection) else B
        lo, hi = P._interval
        for y in rng.uniform(-6.0, 6.0, 8):
            z = B.project(np.array([y]))
            assert np.array_equal(z, np.clip([y], lo, hi))
            ref = _lp.project_polyhedron(np.array([y]), P.A, P.b)
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
        out.append(Intersection((Box([lo - 0.5], [hi + 0.5]), HPoly(rows, rhs))))
        s = rng.uniform(0.1, 2.0)
        out.append(Intersection((Simplex(1, s), HPoly([[1.0], [-1.0]], [s + up[0], dn[0] - s]))))
    return out


def test_interval_closed_forms_match_exact_reference(monkeypatch):
    from gnepkit import _lp
    from gnepkit.convexsets import EnumerationError, _enumerate_vertices

    bodies = _one_d_family(np.random.default_rng(3))
    refs = []
    for B in bodies:
        A, b, _ = B.hrep()
        C, d = B.equalities()
        eq = (C, d) if len(d) else (None, None)
        sup = []
        for c in (1.0, -1.0):
            try:
                sup.append(_lp.max_linear([c], A, b, *eq)[0])
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


def test_intersection_merges_polyhedral_parts():
    I = Intersection((unit_square(), HPoly([[1.0, 1.0]], [1.0])))
    assert I.contains([0.2, 0.2])
    assert not I.contains([0.9, 0.9])
    z = I.project([1.0, 1.0])
    assert np.allclose(z, [0.5, 0.5], atol=1e-7)


def test_empty_intersection_detected():
    I = Intersection((Box([0.0], [1.0]), Box([2.0], [3.0])))
    assert I.is_empty()
    with pytest.raises(EmptyBodyError):
        I.project(np.array([0.5]))


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
    from gnepkit.convexsets import _enumerate_vertices

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


def test_hull_body_degenerate_segment():
    H = hull_body(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
    assert H.contains([0.5, 0.5, 0.0])
    assert not H.contains([0.5, 0.4, 0.0])
    assert not H.contains([0.5, 0.5, 0.1])


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
        Intersection((Box([-1.0], [1.0]), HPoly([[3.0]], [0.9]))),
        HPoly(triangle().A, triangle().b, strict=[True, False, True]),
        Intersection((Simplex(3), HPoly([[1.0, 0.0, 0.0]], [0.4]))),
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
        Intersection((Ball([0.0, 0.0], 1.0), unit_square()))
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
            (Intersection((Box([lo - 0.5], [hi]), HPoly([[-a]], [-a * lo]))), c, Q),
            (Box([lo], [np.inf]), c, Q),                # one-sided intervals
            (HPoly([[a]], [a * hi]), c, Q),
            (Box([lo], [lo]), c, Q),                    # point intervals
            (HPoly([[1.0], [-1.0]], [hi, -hi]), c, Q),
        ])
    return out


def test_maximize_separable_matches_enumerator():
    # the per-coordinate clips against the active-set enumeration they replace
    from gnepkit import _lp

    rng = np.random.default_rng(17)
    # |q| < 1: the enumerator's KKT solve pivots on the bound's row and lands
    # exactly on the bound, so 1-D bodies agree bit for bit
    for body, c, Q in _separable_family(rng, 0.05, 0.95):
        A, b, _ = body.hrep()
        want_val, want_z = _lp.max_concave_quad(Q, c, A, b)
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
        want_val, want_z = _lp.max_concave_quad(Q, c, A, b)
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
    from gnepkit.convexsets import _min_norm_hull_point

    rng = np.random.default_rng(23)
    cones = [ConeSection.from_vectors(rng.uniform(0.1, 10.0) * rng.standard_normal(d), d)
             for d in (1, 2, 3, 4) for _ in range(500)]
    cones += [ConeSection.from_vectors([[s * rng.uniform(0.1, 10.0)],
                                        [-s * rng.uniform(0.1, 10.0)]], 1)
              for s in (1.0, -1.0) for _ in range(50)]
    for C in cones:
        want = _min_norm_hull_point(C.generators)
        assert C.min_norm_point().tobytes() == want.tobytes(), C.generators


def test_polar_check():
    C = ConeSection.from_vectors([[1.0, 0.0]], 2)
    assert polar_check(C, np.array([-1.0, 0.0]))
    assert polar_check(C, np.array([0.0, 1.0]))     # orthogonal is fine
    assert not polar_check(C, np.array([1.0, 0.0]))
    W = ConeSection.whole(2)
    assert polar_check(W, np.zeros(2))
    assert not polar_check(W, np.array([1e-3, 0.0]))
