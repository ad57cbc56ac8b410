import json
import math

import numpy as np
import pytest

from gnepkit.convexsets import Ball, Box, HPoly, Simplex, body_from_dict
from gnepkit.jsonio import (
    NotSerializableError,
    canonical_dumps,
    economy_from_dict,
    economy_to_dict,
    game_from_dict,
    game_to_dict,
    jsonable,
    load_instance,
    save_instance,
    variant_from_dict,
    variant_to_dict,
)
from gnepkit.preferences import (
    LinearUtility,
    PolyhedralPref,
    QuadUtility,
    RelationOracle,
    UnionPref,
)
from gnepkit import instances as gi


def test_canonical_is_sorted_compact_and_newline_terminated():
    s = canonical_dumps({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}\n'


def test_canonical_rejects_nothing_but_encodes_nonfinite_as_strings():
    s = canonical_dumps({"v": [np.inf, -np.inf, np.nan]})
    assert json.loads(s)["v"] == ["Infinity", "-Infinity", "NaN"]


def test_canonical_handles_numpy_scalars():
    s = canonical_dumps({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
    assert json.loads(s) == {"i": 3, "f": 0.25, "b": True}


@pytest.mark.parametrize("body", [
    Box([0.0, -1.0], [1.0, 2.0]),
    Simplex(3, scale=2.0),
    Ball([0.5, 0.5], 0.25),
    HPoly([[1.0, 1.0], [-1.0, 0.0]], [1.0, 0.0]),
])
def test_body_round_trip(body, rng):
    clone = body_from_dict(body.to_dict())
    for _ in range(20):
        x = rng.uniform(-1.5, 2.5, body.dim)
        assert body.contains(x) == clone.contains(x)


@pytest.mark.parametrize("v", [
    LinearUtility([1.0, -2.0]),
    QuadUtility([[-2.0, 0.0], [0.0, -1.0]], [0.5, 0.0]),
    PolyhedralPref.constant([[1.0]], [0.3]),
    UnionPref((PolyhedralPref.constant([[1.0]], [0.2]),
               PolyhedralPref.constant([[-1.0]], [-0.8]))),
])
def test_variant_round_trip(v):
    w = variant_from_dict(variant_to_dict(v))
    assert type(w) is type(v)
    assert canonical_dumps(variant_to_dict(v)) == canonical_dumps(variant_to_dict(w))


def test_relation_oracle_not_serializable():
    with pytest.raises(NotSerializableError):
        variant_to_dict(RelationOracle(lambda x, z: False))


def test_x_dependent_rows_not_serializable():
    with pytest.raises(NotSerializableError):
        variant_to_dict(PolyhedralPref(lambda x: None))


def test_game_round_trip_preserves_solutions():
    from gnepkit.solvers import solve_vi

    g = gi.splitting_game()
    g2 = game_from_dict(game_to_dict(g))
    assert canonical_dumps(game_to_dict(g2)) == canonical_dumps(game_to_dict(g))
    r1, r2 = solve_vi(g), solve_vi(g2)
    assert np.allclose(r1.point, r2.point)


def test_intersection_file_loads_as_its_rows_and_saves_losslessly():
    # an X_i of kind "intersection" loads as one HPoly, saves as "hpoly",
    # and loads again with the same equalities, tangent projector and T
    from gnepkit.convexsets import intersect, tangent_projector
    from gnepkit.game import FixedConstraint, GameInstance
    from gnepkit.operators import evaluate_T
    from gnepkit.preferences import PreferenceMap

    X = {"kind": "intersection",
         "parts": [Simplex(3).to_dict(), HPoly([[1.0, 0.0, 0.0]], [0.6]).to_dict()]}
    pm = PreferenceMap(0, 0, body_from_dict(X), QuadUtility(-np.eye(3), [1.0, 2.0, 0.5]))
    g = GameInstance((pm,), (FixedConstraint(body_from_dict(X)),), None, "sum-row")
    d = game_to_dict(g)
    assert d["players"][0]["ambient"]["kind"] == "hpoly"
    g2 = game_from_dict(json.loads(canonical_dumps(d)))
    assert canonical_dumps(game_to_dict(g2)) == canonical_dumps(d)
    X1, X2 = g.preferences[0].ambient, g2.preferences[0].ambient
    C, dd = X1.equalities()
    assert len(dd) == 1 and np.allclose(C, np.ones((1, 3)) / np.sqrt(3.0))
    for a, b in zip(X1.equalities(), X2.equalities()):
        assert np.array_equal(a, b)
    P = tangent_projector(X1)
    assert np.array_equal(P, tangent_projector(X2))
    assert np.array_equal(P, tangent_projector(intersect(Simplex(3), HPoly([[1.0, 0, 0]], [0.6]))))
    assert np.allclose(P @ np.ones(3), 0.0)
    for x in ([0.2, 0.3, 0.5], [0.6, 0.4, 0.0], [0.0, 0.0, 1.0]):
        T1, T2 = evaluate_T(g, np.array(x)), evaluate_T(g2, np.array(x))
        for s1, s2 in zip(T1.blocks, T2.blocks):
            assert np.array_equal(s1.generators, s2.generators)
            assert s1.whole_space == s2.whole_space
        assert all(abs(v.sum()) < 1e-12 for s in T1.blocks for v in s.generators)


def test_economy_round_trip():
    e = gi.pure_exchange_economy()
    e2 = economy_from_dict(economy_to_dict(e))
    assert canonical_dumps(economy_to_dict(e2)) == canonical_dumps(economy_to_dict(e))


def test_save_load_identity_for_bundled_instances(tmp_path):
    for name, inst in [
        ("g.json", gi.splitting_game()),
        ("e.json", gi.two_consumer_exchange()),
    ]:
        p = tmp_path / name
        save_instance(inst, p)
        first = p.read_bytes()
        save_instance(load_instance(p), p)
        assert p.read_bytes() == first


def test_load_rejects_unknown_type(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"type":"mystery"}')
    with pytest.raises(ValueError):
        load_instance(p)


# -- result records encode as their fields -------------------------------------


def test_solve_result_shape_with_certificate_and_trace():
    from gnepkit.solvers import SolverConfig, solve_vi

    res = solve_vi(gi.splitting_game(), SolverConfig(trace=True))
    d = jsonable(res)
    assert set(d) == {"point", "residual", "iterations", "converged", "restarts_used",
                      "best_attempt", "problem", "certificate", "trace", "approximate",
                      "finish_tried", "finish_accepted"}
    assert d["point"] == res.point.tolist() and d["problem"] == "vi"
    assert d["finish_tried"] == res.finish_tried and d["finish_accepted"] == res.finish_accepted
    assert d["converged"] is True and d["approximate"] is False
    cert = d["certificate"]
    assert set(cert) == {"point", "feasibility_slacks", "emptiness_slacks", "is_equilibrium",
                         "tolerances", "approximate", "seed", "notes"}
    assert cert["tolerances"] == {"eps_feas": 1e-7, "eps_open": 1e-7}
    assert cert["notes"] == [] and cert["is_equilibrium"] is True
    assert d["trace"] and all(set(row) == {"iter", "residual", "alpha"} for row in d["trace"])


def test_coercivity_report_with_tuple_witness():
    from gnepkit.game import CoercivityReport

    rep = CoercivityReport("holds_on_samples", 2.0, 1,
                           witness=(np.array([1.0, 2.0]), np.array([0.5, np.inf])))
    assert canonical_dumps(rep) == (
        '{"detail":"","n_checked":1,"rho":2.0,"status":"holds_on_samples",'
        '"witness":[[1.0,2.0],[0.5,"Infinity"]]}\n')


def test_relation_profile_nests_its_tristates():
    from gnepkit.preferences import RelationProfile, TriState

    prof = RelationProfile(TriState("holds"),
                           TriState("fails", (np.array([0.1]), np.array([0.9]), 0.5)),
                           TriState("fails", np.array([1.0])), TriState("unknown"), 40, 3)
    assert canonical_dumps(prof) == (
        '{"convex_values":{"status":"fails","witness":[[0.1],[0.9],0.5]},'
        '"irreflexive":{"status":"holds","witness":null},'
        '"lsc_evidence":{"status":"unknown","witness":null},'
        '"nonsatiated":{"status":"fails","witness":[1.0]},"samples":40,"seed":3}\n')


def test_operator_eval_nests_its_cone_sections():
    from gnepkit.convexsets import ConeSection
    from gnepkit.operators import OperatorEval

    op = OperatorEval((ConeSection.whole(1), ConeSection.from_vectors([[2.0, 0.0]], 2)), (0, 1))
    assert canonical_dumps(op) == (
        '{"blocks":[{"dim":1,"generators":[],"whole_space":true},'
        '{"dim":2,"generators":[[1.0,0.0]],"whole_space":false}],'
        '"starts":[0,1]}\n')


def test_oracle_result_with_a_disagreement():
    from gnepkit.solvers import OracleResult

    orc = OracleResult(0.25, 25, 15, np.array([[0.5, 0.5]]), np.array([[0.0, -1.0]]),
                       [{"node": np.array([0.5, 0.25]), "verifier": True, "oracle": False}], 16)
    assert canonical_dumps(orc) == (
        '{"certified":[[0.5,0.5]],"cross_checked":16,'
        '"disagreements":[{"node":[0.5,0.25],"oracle":false,"verifier":true}],'
        '"feasible_count":15,"h":0.25,"improvements":[[0.0,-1.0]],"nodes_checked":25}\n')


def test_competitive_outcome_leaves_out_the_solve_run():
    from gnepkit.economy import solve_competitive

    out = solve_competitive(gi.pure_exchange_economy())
    assert out.solve is not None
    d = jsonable(out)
    assert set(d) == {"prices", "allocations", "productions", "excess", "clearing_violation",
                      "complementarity_gap", "walras_gap", "producer_gaps", "fictitious_gap",
                      "is_competitive", "certificate"}
    assert d["certificate"] == jsonable(out.certificate)


def test_manifest_config_is_the_solver_config(tmp_path):
    from gnepkit.cli import main

    p = tmp_path / "g.json"
    save_instance(gi.splitting_game(), p)
    assert main(["solve", str(p), "--alpha", "0.25", "--out-dir", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["config"] == {"alpha": 0.25, "max_iters": 5000, "residual_tol": 1e-7,
                             "restarts": 8, "seed": 0, "trace": False}


@pytest.mark.parametrize("inst", [gi.splitting_game(), gi.pure_exchange_economy()])
def test_instances_are_not_encoded_as_records(inst):
    with pytest.raises(NotSerializableError):
        jsonable(inst)
