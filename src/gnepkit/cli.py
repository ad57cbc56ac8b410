"""Command-line front end.

Exit codes: 0 success/equilibrium, 2 parse or instance error (raised while
loading the instance or reading --point/--point-file), 3 solver failure
(including the self-preference guard and an empty constraint set met while
solving), 4 verified non-equilibrium, 5 dimension mismatch, 6 problem too
large for the grid oracle.  Unexpected internal errors exit 1.

Every command writes a manifest.json listing its inputs, configuration, and
output files.  All JSON outputs are canonical (sorted keys, compact, no
non-finite literals), so re-running a command with the same inputs and seed
reproduces them byte for byte; only the manifest's wall_time_s field varies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .convexsets import EmptyBodyError, EnumerationError
from .economy import (
    EconomyError,
    EconomyInstance,
    outcome_from_point,
    solve_competitive,
    to_gnep,
)
from .game import Tolerances, verify_equilibrium
from .jsonio import canonical_dumps, load_instance
from .preferences import SelfPreferenceError
from .solvers import SolverConfig, grid_oracle, solve_qvi, solve_vi

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_NOT_EQUILIBRIUM = 4
EXIT_DIM_MISMATCH = 5
EXIT_TOO_LARGE = 6


def _fmt(v: float) -> str:
    return repr(float(v))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _manifest(args, command: str, config, outputs: list, t0: float) -> None:
    man = {
        "schema_version": 1,
        "command": command,
        "instance": args.instance,
        "instance_sha256": _sha256(args.instance),
        "config": config,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "outputs": sorted(outputs),
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    _write(args.out_dir, "manifest.json", canonical_dumps(man))


def _load_game(args):
    inst = load_instance(args.instance)
    if isinstance(inst, EconomyInstance):
        return to_gnep(inst)
    return inst


def _parse_point(args, n: int) -> np.ndarray:
    if getattr(args, "point", None) is not None:
        vals = [float(tok) for tok in args.point.replace(" ", "").split(",") if tok]
    elif getattr(args, "point_file", None) is not None:
        with open(args.point_file) as fh:
            data = json.load(fh)
        vals = data["point"] if isinstance(data, dict) else data
    else:
        raise ValueError("provide --point or --point-file")
    x = np.asarray(vals, dtype=float)
    if x.size != n:
        raise _DimMismatch(f"point has {x.size} coordinates, instance needs {n}")
    return x


class _DimMismatch(ValueError):
    pass


class _InputError(Exception):
    """The instance file or the point could not be read, or is invalid."""


@contextlib.contextmanager
def _reading_input():
    """Mark errors raised while loading and parsing as input errors (exit 2),
    apart from those main reports with their own exit code."""
    try:
        yield
    except (json.JSONDecodeError, _DimMismatch):
        raise
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise _InputError(e) from e


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        method=args.method,
        alpha=args.alpha,
        max_iters=args.max_iters,
        residual_tol=args.tol,
        seed=args.seed,
        trace=args.trace,
    )


def _trace_csv(trace) -> str:
    lines = ["iter,residual,alpha"]
    for row in trace or []:
        lines.append(f"{row['iter']},{_fmt(row['residual'])},{_fmt(row['alpha'])}")
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    with _reading_input():
        game = _load_game(args)
    config = _solver_config(args)
    use_qvi = args.qvi or not game.jointly_convex
    res = solve_qvi(game, config) if use_qvi else solve_vi(game, config)
    outputs = [_write(args.out_dir, "result.json", canonical_dumps(res))]
    if args.trace:
        outputs.append(_write(args.out_dir, "trace.csv", _trace_csv(res.trace)))
    _manifest(args, "solve", config, [os.path.basename(p) for p in outputs], t0)
    if not res.converged:
        return EXIT_SOLVER
    if res.certificate is not None and res.certificate.is_equilibrium:
        return EXIT_OK
    return EXIT_NOT_EQUILIBRIUM


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    with _reading_input():
        game = _load_game(args)
        x = _parse_point(args, game.n)
    cert = verify_equilibrium(game, x, Tolerances(), seed=args.seed)
    _write(args.out_dir, "certificate.json", canonical_dumps(cert))
    _manifest(args, "verify", {"seed": args.seed}, ["certificate.json"], t0)
    return EXIT_OK if cert.is_equilibrium else EXIT_NOT_EQUILIBRIUM


def _oracle_csv(result, n_players: int) -> str:
    nodes = np.asarray(result.certified)
    imps = np.asarray(result.improvements)
    dim = nodes.shape[1] if nodes.size else 0
    head = [f"x{j}" for j in range(dim)] + [f"improvement{i}" for i in range(n_players)]
    lines = [",".join(head)] if head else ["empty"]
    for node, imp in zip(nodes, imps):
        lines.append(",".join(_fmt(v) for v in node) + ","
                     + ",".join(_fmt(v) for v in imp))
    return "\n".join(lines) + "\n"


def cmd_oracle(args) -> int:
    t0 = time.perf_counter()
    with _reading_input():
        game = _load_game(args)
    if game.n > 4:
        raise EnumerationError(f"oracle supports joint dimension <= 4, got {game.n}")
    result = grid_oracle(game, h=args.h, seed=args.seed,
                         cross_check=not args.no_cross_check)
    _write(args.out_dir, "oracle.json", canonical_dumps(result))
    _write(args.out_dir, "oracle.csv", _oracle_csv(result, game.n_players))
    _manifest(args, "oracle", {"h": args.h, "seed": args.seed},
              ["oracle.json", "oracle.csv"], t0)
    return EXIT_OK


def _diagnostics_csv(econ, outcome) -> str:
    prices = np.asarray(outcome.prices).reshape(econ.L, econ.S)
    excess = np.asarray(outcome.excess)
    lines = ["l,s,price,excess"]
    for l in range(econ.L):
        for s in range(econ.S):
            lines.append(f"{l},{s},{_fmt(prices[l, s])},{_fmt(excess[l, s])}")
    return "\n".join(lines) + "\n"


def cmd_economy(args) -> int:
    t0 = time.perf_counter()
    with _reading_input():
        econ = load_instance(args.instance)
        if not isinstance(econ, EconomyInstance):
            raise ValueError("economy command needs an economy instance")
        if args.check_only:
            game = to_gnep(econ)
            x = _parse_point(args, game.n)
    if args.check_only:
        outcome = outcome_from_point(econ, game, x)
        config, converged = {"check_only": True, "seed": args.seed}, True
    else:
        config = _solver_config(args)
        outcome = solve_competitive(econ, config)
        converged = outcome.solve.converged
    outputs = [_write(args.out_dir, "outcome.json", canonical_dumps(outcome)),
               _write(args.out_dir, "diagnostics.csv", _diagnostics_csv(econ, outcome))]
    if args.trace and outcome.solve is not None:
        outputs.append(_write(args.out_dir, "trace.csv", _trace_csv(outcome.solve.trace)))
    _manifest(args, "economy", config, [os.path.basename(p) for p in outputs], t0)
    if not converged:
        return EXIT_SOLVER
    return EXIT_OK if outcome.is_competitive else EXIT_NOT_EQUILIBRIUM


def _add_common(p, solver_flags: bool = True):
    p.add_argument("instance", help="path to a game or economy JSON file")
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.add_argument("--seed", type=int, default=0)
    if solver_flags:
        default = SolverConfig()
        p.add_argument("--method", choices=["projection", "extragradient"],
                       default=default.method)
        p.add_argument("--alpha", type=float, default=default.alpha)
        p.add_argument("--max-iters", type=int, default=default.max_iters)
        # the tolerance of the certificate's emptiness test (see SolverConfig)
        p.add_argument("--tol", type=float, default=Tolerances().eps_open,
                       help="hull residual convergence tolerance "
                            "(default: the certificate's eps_open)")
        p.add_argument("--trace", action="store_true",
                       help="also write trace.csv (iter,residual,alpha)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gnep",
        description="Solve, verify, and grid-check generalized games "
                    "with set-valued preferences.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run the VI/QVI solver and certify the output")
    _add_common(ps)
    ps.add_argument("--qvi", action="store_true",
                    help="force the QVI formulation even for jointly convex games")
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="certify a candidate point from first principles")
    _add_common(pv, solver_flags=False)
    pv.add_argument("--point", help="comma-separated coordinates")
    pv.add_argument("--point-file", help="JSON file: [..] or {\"point\": [..]}")
    pv.set_defaults(func=cmd_verify)

    po = sub.add_parser("oracle", help="definition-based grid search for equilibria")
    _add_common(po, solver_flags=False)
    po.add_argument("--h", type=float, default=0.05, help="grid step")
    po.add_argument("--no-cross-check", action="store_true")
    po.set_defaults(func=cmd_oracle)

    pe = sub.add_parser("economy", help="competitive equilibrium of an exchange economy")
    _add_common(pe)
    pe.add_argument("--check-only", action="store_true",
                    help="skip solving; run diagnostics on --point/--point-file")
    pe.add_argument("--point", help="comma-separated joint point for --check-only")
    pe.add_argument("--point-file")
    pe.set_defaults(func=cmd_economy)
    return ap


def _fold_point(argv):
    """Join `--point V` into `--point=V`, so that argparse does not read a
    point with a negative first coordinate (`-0.05,0.3`) as an option."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--point":
            val = next(it, None)
            out.append(tok if val is None else f"--point={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_fold_point(argv))
    try:
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON at line {e.lineno} column {e.colno}: {e.msg}",
              file=sys.stderr)
        return EXIT_PARSE
    except _DimMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIM_MISMATCH
    except (_InputError, EconomyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (SelfPreferenceError, EmptyBodyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except EnumerationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except Exception as e:  # pragma: no cover - unexpected internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
