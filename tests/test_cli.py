"""End-to-end command tests; everything runs through cli.main(argv)."""

import json
import os

import numpy as np
import pytest

from gnepkit.cli import build_parser, main
from gnepkit.convexsets import Box
from gnepkit.economy import to_gnep
from gnepkit.game import FixedConstraint, GameInstance, verify_equilibrium
from gnepkit.jsonio import canonical_dumps, game_to_dict, load_instance, save_instance
from gnepkit.preferences import PolyhedralPref, PreferenceMap
from gnepkit.solvers import grid_oracle
from gnepkit import instances as gi

INST = os.path.join(os.path.dirname(__file__), "..", "instances")


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def splitting(tmp_path):
    p = tmp_path / "splitting.json"
    save_instance(gi.splitting_game(), p)
    return p


@pytest.fixture
def exchange(tmp_path):
    p = tmp_path / "exchange.json"
    save_instance(gi.pure_exchange_economy(), p)
    return p


def test_solve_writes_result_and_exits_zero(splitting, tmp_path):
    out = tmp_path / "out"
    assert run("solve", splitting, "--out-dir", out) == 0
    res = json.loads((out / "result.json").read_text())
    assert res["converged"] is True
    assert abs(sum(res["point"]) - 1.0) <= 1e-6
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "solve"
    assert "result.json" in man["outputs"]


def test_solve_max_iters_zero(tmp_path):
    # the start of the splitting game is a solution: the closing probe accepts it
    assert run("solve", os.path.join(INST, "splitting_game.json"), "--max-iters", 0,
               "--out-dir", tmp_path / "o") == 0


def test_solve_trace_csv(splitting, tmp_path):
    out = tmp_path / "o"
    assert run("solve", splitting, "--trace", "--out-dir", out) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iter,residual,alpha"
    assert len(lines) >= 2


def test_verify_equilibrium_exit_codes(splitting, tmp_path):
    assert run("verify", splitting, "--point", "0.5,0.5",
               "--out-dir", tmp_path / "a") == 0
    assert run("verify", splitting, "--point", "0.3,0.3",
               "--out-dir", tmp_path / "b") == 4
    cert = json.loads((tmp_path / "b" / "certificate.json").read_text())
    assert cert["is_equilibrium"] is False


def test_verify_empty_slice_exit_4(splitting, tmp_path):
    assert run("verify", splitting, "--point=1.2,0.5", "--out-dir", tmp_path / "e") == 4
    cert = json.loads((tmp_path / "e" / "certificate.json").read_text())
    assert cert["feasibility_slacks"][1] == "Infinity"
    assert cert["is_equilibrium"] is False


def test_point_with_negative_first_coordinate(splitting, exchange, tmp_path):
    assert run("verify", splitting, "--point", "-0.05,0.3",
               "--out-dir", tmp_path / "v") == 4
    cert = json.loads((tmp_path / "v" / "certificate.json").read_text())
    assert cert["point"] == [-0.05, 0.3]
    assert run("economy", exchange, "--check-only", "--point", "-0.05,1,0,0,0.5,0.5",
               "--out-dir", tmp_path / "e") == 4


def test_verify_dim_mismatch_exit_5(splitting, tmp_path):
    assert run("verify", splitting, "--point", "0.5",
               "--out-dir", tmp_path / "c") == 5


def test_verify_point_file(splitting, tmp_path):
    pf = tmp_path / "pt.json"
    pf.write_text('{"point": [0.25, 0.75]}')
    assert run("verify", splitting, "--point-file", pf,
               "--out-dir", tmp_path / "d") == 0


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_non_finite_point_exits_2_and_writes_nothing(splitting, exchange, tmp_path, capsys,
                                                      coord):
    # from --point or from a --point-file, which json reads NaN and Infinity into
    text = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}[coord]
    pf = tmp_path / "pt.json"
    pf.write_text(f'{{"point": [{text}, 0.5]}}')
    cases = [("verify", splitting, "--point", f"{coord},0.5"),
             ("verify", splitting, "--point-file", pf),
             ("economy", exchange, "--check-only", "--point", f"1,1,0,0,{coord},0.5")]
    for k, args in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert run(*args, "--out-dir", out) == 2, args
        assert not out.exists()
    assert capsys.readouterr().err.count("point coordinates must be finite") == len(cases)


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", bad, "--out-dir", tmp_path / "o") == 2


def test_missing_file_exit_2(tmp_path):
    assert run("solve", tmp_path / "nope.json", "--out-dir", tmp_path / "o") == 2


def test_oracle_csv_and_json(splitting, tmp_path):
    out = tmp_path / "o"
    assert run("oracle", splitting, "--h", "0.05", "--out-dir", out) == 0
    data = json.loads((out / "oracle.json").read_text())
    assert len(data["certified"]) == 21
    lines = (out / "oracle.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,improvement0,improvement1"
    assert len(lines) == 22


def test_oracle_too_fine_exit_6(splitting, tmp_path):
    assert run("oracle", splitting, "--h", "1e-5",
               "--out-dir", tmp_path / "o") == 6


@pytest.mark.parametrize("command, flag, value", [
    *(("solve", "--alpha", v) for v in ("0", "-1", "nan", "inf")),
    *(("solve", "--tol", v) for v in ("-1", "nan", "inf")),
    ("solve", "--max-iters", "-3"),
    ("solve", "--seed", "-1"),
    ("economy", "--alpha", "nan"),
    ("economy", "--tol", "-1e-7"),
    ("economy", "--max-iters", "-1"),
    ("solve", "--method", "projection"),
])
def test_bad_solver_flag_exits_2(splitting, exchange, tmp_path, command, flag, value):
    # --alpha must be finite and positive, --tol finite and >= 0, and
    # --max-iters and --seed >= 0; the projection step is the only method, so
    # --method is an unknown flag: an argparse error, exit 2, nothing written
    out = tmp_path / "o"
    instance = splitting if command == "solve" else exchange
    with pytest.raises(SystemExit) as e:
        run(command, instance, flag, value, "--out-dir", out)
    assert e.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("h", ["0", "-0.1", "nan", "inf"])
def test_oracle_rejects_a_grid_step_that_is_not_finite_and_positive(splitting, tmp_path, h):
    # an argparse error: exit 2, nothing written
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as e:
        run("oracle", splitting, "--h", h, "--out-dir", out)
    assert e.value.code == 2
    assert not out.exists()
    with pytest.raises(ValueError, match="finite and positive"):
        grid_oracle(load_instance(splitting), float(h))


def test_economy_outputs(exchange, tmp_path):
    out = tmp_path / "o"
    assert run("economy", exchange, "--out-dir", out) == 0
    data = json.loads((out / "outcome.json").read_text())
    assert np.allclose(data["prices"], [0.5, 0.5], atol=1e-4)
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "l,s,price,excess"
    assert len(lines) == 3


def test_economy_check_only(exchange, tmp_path):
    out = tmp_path / "o"
    pt = "1,1,0,0,0.5,0.5"
    assert run("economy", exchange, "--check-only", "--point", pt,
               "--out-dir", out) == 0
    assert run("economy", exchange, "--check-only", "--point",
               "2,2,0,0,0.5,0.5", "--out-dir", tmp_path / "p") == 4


def test_economy_manifest_records_the_solve(exchange, tmp_path):
    # a solving run records its SolverConfig and, with --trace, its trace;
    # a --check-only run solves nothing and records only its seed
    config = {"alpha": 0.5, "max_iters": 5000, "residual_tol": 1e-7, "restarts": 8,
              "seed": 0, "trace": True}
    for flags, changed in (((), {}), (("--alpha", "0.25", "--tol", "1e-8"),
                                      {"alpha": 0.25, "residual_tol": 1e-8})):
        out = tmp_path / f"solve{len(flags)}"
        assert run("economy", exchange, *flags, "--trace", "--out-dir", out) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["outputs"] == ["diagnostics.csv", "outcome.json", "trace.csv"]
        assert (out / "trace.csv").read_text().startswith("iter,residual,alpha\n")
        assert man["config"] == {**config, **changed}
    out = tmp_path / "check"
    assert run("economy", exchange, "--check-only", "--trace", "--point", "1,1,0,0,0.5,0.5",
               "--out-dir", out) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"] == {"check_only": True, "seed": 0}
    assert man["outputs"] == ["diagnostics.csv", "outcome.json"]


def test_verify_economy_instance(tmp_path):
    # verify reduces an economy file to its game, as solve and oracle do
    path = os.path.join(INST, "pure_exchange.json")
    assert run("verify", path, "--point", "1,1,0,0,0.5,0.5", "--out-dir", tmp_path) == 0
    cert = verify_equilibrium(to_gnep(load_instance(path)), np.array([1, 1, 0, 0, 0.5, 0.5]))
    assert (tmp_path / "certificate.json").read_text() == canonical_dumps(cert)


def test_reproducible_outputs(splitting, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", splitting, "--trace", "--out-dir", a) == 0
    assert run("solve", splitting, "--trace", "--out-dir", b) == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def _outputs(d):
    """Every file under d, the manifest without its wall_time_s."""
    out = {}
    for name in sorted(os.listdir(d)):
        data = (d / name).read_bytes()
        if name == "manifest.json":
            data = {k: v for k, v in json.loads(data).items() if k != "wall_time_s"}
        out[name] = data
    return out


def test_cached_parser_keeps_no_state_between_calls(splitting, exchange, tmp_path):
    # main reuses one parser per process; each call's outputs equal those of
    # a lone call (a fresh parser), whatever ran before it
    assert build_parser() is build_parser()
    pt = "1,1,0,0,0.5,0.5"
    calls = [("solve", splitting, "--trace", "--qvi"), ("solve", splitting),
             ("economy", exchange, "--check-only", "--point", pt),
             ("verify", exchange, "--point", pt)]
    lone = []
    for k, argv in enumerate(calls):
        build_parser.cache_clear()
        assert run(*argv, "--out-dir", tmp_path / f"lone{k}") == 0
        lone.append(_outputs(tmp_path / f"lone{k}"))
    assert "trace.csv" in lone[0] and "trace.csv" not in lone[1]
    build_parser.cache_clear()
    for k, argv in enumerate(calls):
        assert run(*argv, "--out-dir", tmp_path / f"seq{k}") == 0
        assert _outputs(tmp_path / f"seq{k}") == lone[k]
    # an argparse error exits 2 and --version exits 0; the next call still runs
    for argv, code in ((("solve",), 2), (("solve", splitting, "--method", "newton"), 2),
                       (("--version",), 0)):
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == code
        assert run("solve", splitting, "--out-dir", tmp_path / "after") == 0
        assert _outputs(tmp_path / "after") == lone[1]


def test_bundled_instance_files_load():
    # every file shipped under instances/ must parse and round-trip
    from gnepkit.jsonio import load_instance

    names = sorted(os.listdir(INST))
    assert names
    for n in names:
        load_instance(os.path.join(INST, n))



def _split_file(tmp_path, budget=1.0, lo=0.0):
    """Splitting game on boxes [lo, 1] with shared set {x >= 0, x1 + x2 <= budget}."""
    r = 2 ** -0.5
    players = [{"ambient": {"kind": "box", "lo": [lo], "hi": [1.0]},
                "block_start": i, "player": i,
                "variant": {"kind": "linear", "c": [1.0 - i, float(i)]}} for i in (0, 1)]
    game = {"type": "game", "schema_version": 1, "name": "split",
            "constraints": [{"kind": "shared_slice"}] * 2, "players": players,
            "shared_set": {"kind": "hpoly", "A": [[-1.0, 0.0], [0.0, -1.0], [r, r]],
                           "b": [0.0, 0.0, r * budget], "strict": [0, 0, 0]}}
    p = tmp_path / f"split_{budget}_{lo}.json"
    p.write_text(json.dumps(game))
    return p


def test_empty_shared_set_is_a_solver_failure_exit_3(tmp_path):
    assert run("solve", _split_file(tmp_path), "--out-dir", tmp_path / "ok") == 0
    empty = _split_file(tmp_path, budget=-1.0)
    assert run("solve", empty, "--out-dir", tmp_path / "vi") == 3
    assert run("solve", empty, "--qvi", "--out-dir", tmp_path / "qvi") == 3
    assert run("verify", empty, "--point", "0.5,0.5", "--out-dir", tmp_path / "v") == 4


def test_box_with_lo_above_hi_exit_2(tmp_path):
    assert run("solve", _split_file(tmp_path, lo=2.0), "--out-dir", tmp_path / "o") == 2


def test_convex_own_block_exit_2(tmp_path, capsys):
    # a quadratic player whose own curvature is positive has no concave best
    # response: refused at load
    game = json.loads(_split_file(tmp_path).read_text())
    game["players"][1]["variant"] = {"kind": "quad", "Q": [[0.0, 0.0], [0.0, 2.0]],
                                     "c": [0.0, 1.0]}
    path = tmp_path / "convex.json"
    path.write_text(json.dumps(game))
    assert run("verify", path, "--point", "0.5,0.5", "--out-dir", tmp_path / "v") == 2
    assert run("solve", path, "--out-dir", tmp_path / "s") == 2
    assert capsys.readouterr().err.count("player 1: the own block of Q is not negative") == 2
    assert not any((tmp_path / d).exists() for d in ("v", "s"))


def test_non_polyhedral_shared_set_or_choice_set_exit_2(tmp_path, capsys):
    # a Ball cannot be a shared set or a consumer choice set, so these files
    # are written by hand: the splitting game over a disc, and the pure
    # exchange economy with a disc of bundles
    game = json.loads(canonical_dumps(game_to_dict(gi.splitting_game())))
    game["shared_set"] = {"kind": "ball", "center": [0.5, 0.5], "radius": 0.5}
    shared = tmp_path / "ball_shared.json"
    shared.write_text(json.dumps(game))
    with open(os.path.join(INST, "pure_exchange.json")) as fh:
        econ = json.load(fh)
    econ["consumers"][0]["choice_set"] = {"kind": "ball", "center": [1.0, 1.0], "radius": 1.0}
    choice = tmp_path / "ball_choice.json"
    choice.write_text(json.dumps(econ))
    for path, point, says in ((shared, "0.5,0.5", "shared set kind='ball'"),
                              (choice, "1,1,0,0,0.5,0.5", "consumer 0: choice set kind='ball'")):
        assert run("verify", path, "--point", point, "--out-dir", tmp_path / "v") == 2
        assert run("solve", path, "--out-dir", tmp_path / "s") == 2
        assert capsys.readouterr().err.count(says) == 2
    assert run("economy", choice, "--out-dir", tmp_path / "e") == 2
    assert says in capsys.readouterr().err
    assert not any((tmp_path / d).exists() for d in ("v", "s", "e"))


def test_row_preference_over_non_polyhedral_fixed_body_exit_2(tmp_path, capsys):
    # a row preference over a Ball K_i is refused at load, not inside verify
    pm = PreferenceMap(0, 0, Box([0.0, 0.0], [1.0, 1.0]),
                       PolyhedralPref.constant([[1.0, 0.0]], [0.0]))
    game = GameInstance((pm,), (FixedConstraint(Box([0.0, 0.0], [0.5, 0.5])),))
    doc = json.loads(canonical_dumps(game_to_dict(game)))
    doc["constraints"][0]["body"] = {"kind": "ball", "center": [0.0, 0.0], "radius": 0.5}
    path = tmp_path / "ball_fixed.json"
    path.write_text(json.dumps(doc))
    assert run("verify", path, "--point", "0,0", "--out-dir", tmp_path / "v") == 2
    assert "player 0: K_i kind='ball' is not polyhedral" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()
