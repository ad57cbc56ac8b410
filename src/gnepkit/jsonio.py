"""Canonical JSON for instances and run artifacts.

Canonical means: keys sorted, compact separators, trailing newline, and no
NaN/Infinity literals (non-finite floats are encoded as strings so the same
inputs always produce byte-identical files).
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .convexsets import body_from_dict
from .economy import Consumer, EconomyInstance, Producer
from .game import FixedConstraint, GameInstance, SharedSlice
from .preferences import (
    LinearUtility,
    PolyhedralPref,
    PreferenceMap,
    QuadUtility,
    RelationOracle,
    UnionPref,
)

SCHEMA_VERSION = 1


class NotSerializableError(TypeError):
    pass


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to strings.

    A record with a to_dict method encodes as its dict; any other dataclass
    encodes as {field name: value}.  Instances have one schema,
    save_instance, so they are refused here.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    if obj is None or isinstance(obj, str):
        return obj
    if hasattr(obj, "to_dict"):
        return jsonable(obj.to_dict())
    if isinstance(obj, (GameInstance, EconomyInstance)):
        raise NotSerializableError(
            f"{type(obj).__name__} has its own schema; use save_instance")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise NotSerializableError(f"cannot encode {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# preference variants


def variant_to_dict(v) -> dict:
    if isinstance(v, LinearUtility):
        return {"kind": "linear", "c": v.c}
    if isinstance(v, QuadUtility):
        return {"kind": "quad", "Q": v.Q, "c": v.c}
    if isinstance(v, PolyhedralPref):
        if not v.serializable:
            raise NotSerializableError("x-dependent polyhedral rows need code, not JSON")
        return {"kind": "polyhedral", "A": v.A, "b": v.b, "strict": v.strict}
    if isinstance(v, UnionPref):
        return {"kind": "union", "pieces": [variant_to_dict(p) for p in v.pieces]}
    if isinstance(v, RelationOracle):
        raise NotSerializableError(
            "relation oracles are callables; use the named catalog instead")
    raise NotSerializableError(f"unknown variant {type(v).__name__}")


def variant_from_dict(d: dict):
    kind = d["kind"]
    if kind == "linear":
        return LinearUtility(np.asarray(d["c"], dtype=float))
    if kind == "quad":
        return QuadUtility(np.asarray(d["Q"], dtype=float),
                           np.asarray(d["c"], dtype=float))
    if kind == "polyhedral":
        return PolyhedralPref.constant(d["A"], d["b"], d.get("strict"))
    if kind == "union":
        return UnionPref(tuple(variant_from_dict(p) for p in d["pieces"]))
    raise ValueError(f"unknown variant kind {kind!r}")


# --------------------------------------------------------------------------
# games


def game_to_dict(game: GameInstance) -> dict:
    players = []
    for pm in game.preferences:
        players.append({
            "player": pm.player,
            "block_start": pm.block_start,
            "ambient": pm.ambient.to_dict(),
            "variant": variant_to_dict(pm.variant),
        })
    cons = []
    for c in game.constraints:
        if isinstance(c, SharedSlice):
            cons.append({"kind": "shared_slice"})
        elif isinstance(c, FixedConstraint):
            cons.append({"kind": "fixed", "body": c.body.to_dict()})
        else:
            raise NotSerializableError(
                "parametric constraints need code, not JSON (economies have "
                "their own schema)")
    return {
        "type": "game",
        "schema_version": SCHEMA_VERSION,
        "name": game.name,
        "players": players,
        "constraints": cons,
        "shared_set": game.shared_set.to_dict() if game.shared_set is not None else None,
    }


def game_from_dict(d: dict) -> GameInstance:
    prefs = tuple(
        PreferenceMap(p["player"], p["block_start"], body_from_dict(p["ambient"]),
                      variant_from_dict(p["variant"]))
        for p in d["players"]
    )
    cons = []
    for c in d["constraints"]:
        if c["kind"] == "shared_slice":
            cons.append(SharedSlice())
        elif c["kind"] == "fixed":
            cons.append(FixedConstraint(body_from_dict(c["body"])))
        else:
            raise ValueError(f"unknown constraint kind {c['kind']!r}")
    shared = d.get("shared_set")
    return GameInstance(prefs, tuple(cons),
                        body_from_dict(shared) if shared is not None else None,
                        d.get("name", ""))


# --------------------------------------------------------------------------
# economies


def economy_to_dict(econ: EconomyInstance) -> dict:
    consumers = []
    for c in econ.consumers:
        consumers.append({
            "choice_set": c.choice_set.to_dict(),
            "endowment": c.endowment,
            "shares": c.shares,
            "utility": variant_to_dict(c.utility),
            "survival": c.survival,
        })
    return {
        "type": "economy",
        "schema_version": SCHEMA_VERSION,
        "name": econ.name,
        "L": econ.L,
        "S": econ.S,
        "consumers": consumers,
        "producers": [{"technology": p.technology.to_dict()} for p in econ.producers],
    }


def economy_from_dict(d: dict) -> EconomyInstance:
    consumers = []
    for c in d["consumers"]:
        surv = c.get("survival")
        consumers.append(Consumer(
            body_from_dict(c["choice_set"]),
            np.asarray(c["endowment"], dtype=float),
            np.asarray(c["shares"], dtype=float),
            variant_from_dict(c["utility"]),
            None if surv is None else np.asarray(surv, dtype=float),
        ))
    producers = tuple(Producer(body_from_dict(p["technology"])) for p in d["producers"])
    return EconomyInstance(int(d["L"]), int(d["S"]), tuple(consumers), producers,
                           d.get("name", ""))


# --------------------------------------------------------------------------
# file-level entry points


def save_instance(obj, path) -> None:
    if isinstance(obj, GameInstance):
        dump_json(game_to_dict(obj), path)
    elif isinstance(obj, EconomyInstance):
        dump_json(economy_to_dict(obj), path)
    else:
        raise NotSerializableError(f"cannot save {type(obj).__name__}")


def load_instance(path):
    d = load_json(path)
    kind = d.get("type")
    if kind == "game":
        return game_from_dict(d)
    if kind == "economy":
        return economy_from_dict(d)
    raise ValueError(f"instance file must have type 'game' or 'economy', got {kind!r}")
