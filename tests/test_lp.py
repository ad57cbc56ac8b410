import numpy as np
import pytest

from gnepkit import _lp


def test_max_linear_square():
    # max x + 2y over [0,1]^2 -> 3 at (1,1)
    A = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    b = np.array([1.0, 1, 0, 0])
    val, x = _lp.max_linear(np.array([1.0, 2.0]), A, b)
    assert val == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(x, [1, 1], atol=1e-9)


def test_infeasible_raises():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(_lp.InfeasibleLP):
        _lp.max_linear(np.array([1.0]), A, b)


def test_unbounded_raises():
    with pytest.raises(_lp.UnboundedLP):
        _lp.max_linear(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]))


def test_max_slack_unit_square():
    # deepest interior point of [0,1]^2 when all rows strict: margin 1/2
    A = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    b = np.array([1.0, 1, 0, 0])
    strict = np.ones(4, dtype=bool)
    s, x = _lp.max_slack(A, b, strict)
    assert s == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)


def test_chebyshev_center_square():
    A = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    b = np.array([1.0, 1, 0, 0])
    x, r = _lp.chebyshev_center(A, b)
    assert r == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)


def _quad_grid_oracle(Q, c, A, b, lo=-2.0, hi=2.0, steps=241):
    """Dense grid argmax; only used to validate the exact KKT enumeration."""
    d = len(c)
    axes = [np.linspace(lo, hi, steps)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    Z = np.stack([m.ravel() for m in mesh], axis=1)
    feas = np.all(Z @ A.T - b <= 1e-9, axis=1)
    Z = Z[feas]
    vals = 0.5 * np.einsum("ki,ij,kj->k", Z, Q, Z) + Z @ c
    j = vals.argmax()
    return vals[j], Z[j]


def test_project_polyhedron_far_points_and_thin_slab():
    # unit square: far points land on the right vertex to relative precision
    A = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    b = np.array([1.0, 1, 0, 0])
    for y, want in (([1e6, 3e6], [1, 1]), ([-1e6, 0.5], [0, 0.5]), ([2.0, -3.0], [1, 0])):
        assert np.allclose(_lp.project_polyhedron(np.array(y), A, b), want, atol=1e-9)
    # a slab 1e-9 wide is thin but nonempty; it must not be reported empty
    A = np.array([[1.0], [-1.0]])
    b = np.array([1e-9, 0.0])
    assert _lp.project_polyhedron(np.array([5.0]), A, b) == pytest.approx([1e-9], abs=1e-15)
    assert _lp.project_polyhedron(np.array([-5.0]), A, b) == pytest.approx([0.0], abs=1e-15)
    with pytest.raises(_lp.InfeasibleLP):
        _lp.project_polyhedron(np.array([5.0]), A, np.array([0.0, -1e-6]))


def test_max_concave_quad_interior_max():
    # max -(x-0.3)^2 - (y+0.2)^2 over [-1,1]^2
    Q = -2.0 * np.eye(2)
    c = np.array([0.6, -0.4])
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    val, x = _lp.max_concave_quad(Q, c, A, b)
    assert np.allclose(x, [0.3, -0.2], atol=1e-9)
    assert val == pytest.approx(0.5 * x @ Q @ x + c @ x, abs=1e-12)


def test_max_concave_quad_matches_grid(rng):
    for _ in range(20):
        d = int(rng.integers(1, 3))
        G = rng.standard_normal((d, d))
        Q = -(G @ G.T) - 0.2 * np.eye(d)
        c = rng.uniform(-1, 1, d)
        A = np.vstack([np.eye(d), -np.eye(d), rng.standard_normal((1, d))])
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = np.concatenate([np.full(2 * d, 1.5), [1.0]])
        val, x = _lp.max_concave_quad(Q, c, A, b)
        gval, _ = _quad_grid_oracle(Q, c, A, b)
        assert val >= gval - 1e-6        # exact beats any grid point
        assert np.all(A @ x - b <= 1e-7)  # and stays feasible


def test_max_concave_quad_with_equality():
    # max -(x^2 + y^2) on the line x + y = 1 inside the square -> (0.5, 0.5)
    Q = -2.0 * np.eye(2)
    c = np.zeros(2)
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    val, x = _lp.max_concave_quad(Q, c, A, b,
                                  A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert np.allclose(x, [0.5, 0.5], atol=1e-9)


def test_max_concave_quad_unbounded_linear():
    with pytest.raises(_lp.UnboundedLP):
        _lp.max_concave_quad(np.zeros((1, 1)), np.array([1.0]),
                             np.array([[-1.0]]), np.array([0.0]))


def _qp_draws(rng):
    """Seeded concave QPs in 2-4 D, as (kind, Q, c, A, b, A_eq, b_eq): a
    rotated -Q with eigenvalues in [0.5, 3] (definite), with its smallest
    one at 1e-2 down to 1e-10, with 1 to d-1 zero ones (singular, bounded or
    on an orthant-like body), under equalities, at degenerate vertices, and
    over bodies that a cut empties.  Bounded bodies are the box [-2, 2]^d
    cut by 1-2 rows."""
    def rotated(d, low):
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        ev = rng.uniform(0.5, 3.0, d)
        ev[: len(low)] = low
        return -(U * ev) @ U.T

    def cut_box(d, gap_lo=0.05):
        A = rng.standard_normal((int(rng.integers(1, 3)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = A @ rng.uniform(-0.5, 0.5, d) + rng.uniform(gap_lo, 1.0, len(A))
        return np.vstack([A, np.eye(d), -np.eye(d)]), np.concatenate([b, np.full(2 * d, 2.0)])

    out = []
    for kind, low in [("definite", [])] * 40 + [("small", [1e-2]), ("small", [1e-6]),
                                                ("small", [1e-8]), ("small", [1e-10])] * 15:
        d = int(rng.integers(2, 5))
        out.append((kind, rotated(d, low), rng.uniform(-3, 3, d), *cut_box(d), None, None))
    for _ in range(60):
        d = int(rng.integers(2, 5))
        Q = rotated(d, [0.0] * int(rng.integers(1, d)))
        if rng.uniform() < 0.5:
            A, b = cut_box(d)
        else:
            A = -np.eye(d)[: int(rng.integers(1, d + 1))]
            b = np.zeros(len(A))
        out.append(("singular", Q, rng.uniform(-3, 3, d), A, b, None, None))
    for _ in range(30):
        d = int(rng.integers(2, 5))
        A_eq = rng.standard_normal((int(rng.integers(1, d)), d))
        A_eq /= np.linalg.norm(A_eq, axis=1, keepdims=True)
        Q = rotated(d, [0.0] * int(rng.integers(0, d)))
        out.append(("equality", Q, rng.uniform(-3, 3, d), *cut_box(d), A_eq,
                    A_eq @ rng.uniform(-0.5, 0.5, d)))
    for _ in range(30):
        # rows through a vertex of the unit cube, the first sometimes twice:
        # more rows tight at the argmax than its KKT system can take
        d = int(rng.integers(2, 4))
        v = rng.integers(0, 2, d).astype(float)
        a = rng.standard_normal((int(rng.integers(1, 3)), d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        a = a[[0] * int(rng.integers(1, 3)) + list(range(len(a)))]
        A = np.vstack([np.eye(d), -np.eye(d), a])
        b = np.concatenate([np.ones(d), np.zeros(d), a @ v])
        Q = rotated(d, [0.0] * int(rng.integers(0, 2)))
        out.append(("degenerate", Q, -Q @ v + 3.0 * np.where(v > 0, 1.0, -1.0), A, b, None, None))
    for _ in range(20):
        d = int(rng.integers(2, 5))
        A, b = cut_box(d)
        A = np.vstack([A, -A[0]])
        b = np.append(b, -b[0] - rng.uniform(1e-3, 0.5))   # crosses row 0
        out.append(("empty", rotated(d, []), rng.uniform(-3, 3, d), A, b, None, None))
    return out


def _outcome(f):
    try:
        return f()
    except _lp.InfeasibleLP:
        return "empty"
    except _lp.UnboundedLP:
        return "unbounded"


def _ascends_without_bound(Q, c, A, A_eq):
    """Whether some r with A r <= 0, A_eq r = 0 and Q r = 0 has c'r > 0."""
    from scipy.linalg import null_space

    N = null_space(Q, rcond=1e-9)
    if not N.shape[1]:
        return False
    eq = (None, None) if A_eq is None else (A_eq @ N, np.zeros(len(A_eq)))
    val, _ = _lp.max_linear(c @ N, A @ N, np.zeros(len(A)), *eq, bounds=[(-1, 1)] * N.shape[1])
    return val > 1e-6


def test_max_concave_quad_equals_the_active_set_reference():
    # one NNLS and one KKT solve against the exhaustive KKT enumeration.  Where
    # they differ the NNLS is right: an empty body (the enumeration finds no
    # KKT point and says unbounded), or an unbounded one on which the
    # enumeration's KKT solve of a numerically singular system returns a
    # point 1e12 or more away
    from qp_reference import max_concave_quad

    seen = {}
    for kind, Q, c, A, b, A_eq, b_eq in _qp_draws(np.random.default_rng(29)):
        want = _outcome(lambda: max_concave_quad(Q, c, A, b, A_eq, b_eq))
        got = _outcome(lambda: _lp.max_concave_quad(Q, c, A, b, A_eq, b_eq))
        if isinstance(got, tuple):
            val, z = got
            assert np.all(A @ z - b <= 1e-8 * (1.0 + np.abs(b).max()))
            assert val == 0.5 * z @ Q @ z + c @ z
            if A_eq is not None:
                assert np.allclose(A_eq @ z, b_eq, rtol=0.0, atol=1e-12)
        if isinstance(got, tuple) and isinstance(want, tuple):
            key = "equal"
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-12), kind
            if np.all(np.linalg.eigvalsh(Q) < 0.0):   # a unique argmax
                assert np.allclose(got[1], want[1], rtol=0.0, atol=1e-8), kind
        elif got == "empty":
            key = "empty"
            assert want == "unbounded"
            with pytest.raises(_lp.InfeasibleLP):
                _lp.max_linear(np.zeros(len(c)), A, b, A_eq, b_eq)
        else:
            key = "unbounded" if want == "unbounded" else "unbounded, reference off"
            assert got == "unbounded" and _ascends_without_bound(Q, c, A, A_eq), kind
            assert want == "unbounded" or np.abs(want[1]).max() > 1e12
        seen[kind, key] = seen.get((kind, key), 0) + 1
    assert seen == {("definite", "equal"): 40, ("small", "equal"): 60,
                    ("singular", "equal"): 44, ("singular", "unbounded"): 11,
                    ("singular", "unbounded, reference off"): 5,
                    ("equality", "equal"): 27, ("equality", "empty"): 3,
                    ("degenerate", "equal"): 30, ("empty", "empty"): 20}
