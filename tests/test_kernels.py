"""Projection kernels against exact small-problem oracles."""

import numpy as np
import pytest

from gnepkit import _lp
from gnepkit.convexsets import project_simplex
from qp_reference import max_concave_quad


def _project_simplex_oracle(y, scale=1.0):
    # exact KKT enumeration: active set = coordinates clipped to zero
    d = len(y)
    best, best_d = None, np.inf
    for mask in range(1 << d):
        free = [j for j in range(d) if not (mask >> j) & 1]
        if not free:
            continue
        lam = (sum(y[j] for j in free) - scale) / len(free)
        z = np.zeros(d)
        ok = True
        for j in free:
            z[j] = y[j] - lam
            if z[j] < -1e-12:
                ok = False
                break
        if not ok:
            continue
        # zero coordinates must want to stay at zero
        if any(y[j] - lam > 1e-12 for j in range(d) if (mask >> j) & 1):
            continue
        dist = np.sum((z - y) ** 2)
        if dist < best_d:
            best, best_d = z, dist
    return best


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_simplex_projection_matches_kkt_oracle(d, rng):
    for _ in range(50):
        y = rng.uniform(-2, 2, d)
        scale = float(rng.uniform(0.5, 3.0))
        got = project_simplex(y, scale)
        want = _project_simplex_oracle(y, scale)
        assert np.allclose(got, want, atol=1e-9)
        assert got.min() >= -1e-12
        assert got.sum() == pytest.approx(scale, abs=1e-9)


def test_simplex_projection_fixed_point():
    z = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(z), z, atol=1e-12)


def _project_poly_oracle(A, b, y):
    # exact euclidean projection via concave-QP enumeration:
    # argmax -0.5|z|^2 + <y, z>  over  Az <= b
    _, z = max_concave_quad(-np.eye(len(y)), y, A, b)
    return z


def test_dykstra_matches_qp_oracle(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        A = rng.standard_normal((int(rng.integers(d + 1, d + 5)), d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        c = rng.uniform(-0.5, 0.5, d)
        b = A @ c + rng.uniform(0.3, 1.0, len(A))
        y = c + rng.uniform(1.0, 3.0) * rng.standard_normal(d)
        got = _lp.project_polyhedron(y, A, b)
        want = _project_poly_oracle(A, b, y)
        assert np.allclose(got, want, atol=1e-9), (got, want)


def test_dykstra_interior_point_unmoved():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    y = np.array([0.4, 0.7])
    assert np.allclose(_lp.project_polyhedron(y, A, b), y, atol=1e-12)
