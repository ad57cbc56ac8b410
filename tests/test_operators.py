"""The block operator T: normal cones of convexified preferences."""

import numpy as np
import pytest

from gnepkit.convexsets import Box, Simplex
from gnepkit.operators import evaluate_T, normal_map, select
from gnepkit.preferences import LinearUtility, PreferenceMap, QuadUtility
from gnepkit import instances as gi

SQ2 = np.sqrt(2.0)


def test_splitting_blocks_are_minus_one():
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([0.3, 0.3]))
    assert not op.any_whole_space
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
    from gnepkit.game import FixedConstraint, GameInstance

    g = GameInstance((pm,), (FixedConstraint(Box([0.0], [1.0])),), None, "sat")
    op = evaluate_T(g, np.array([0.5]))
    assert op.any_whole_space
    assert np.allclose(select(op), [0.0])


def test_operator_eval_block_slices():
    g = gi.splitting_game()
    op = evaluate_T(g, np.array([0.2, 0.7]))
    assert op.dim == 2
    assert op.block_slice(0) == slice(0, 1)
    assert op.block_slice(1) == slice(1, 2)
