"""The four workloads: how each builds its inputs, runs one operation, and
judges the output.

An operation ends in one of three states:
  ok      the program claimed success and the independent check agrees;
  failed  the program reported failure (no convergence, a rejected
          certificate, an error exit code);
  wrong   the program claimed success and the independent check disagrees.
The result line counts failed + wrong as ``failed``; ``correct`` is false
when any operation was wrong.  Operations are timed with
``calibration.clock``, which leaves out the time of the host-speed kernel.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import gnepkit as gk
from gnepkit import cli

import calibration
import closed_form
import inputs

SOLVER = gk.SolverConfig(residual_tol=5e-7, restarts=4)
TOL = gk.Tolerances(eps_open=1e-6)
ORACLE_CROSS_SAMPLE = 50


@dataclass
class Outcome:
    seconds: float
    state: str  # "ok" | "failed" | "wrong"
    problems: list = field(default_factory=list)
    iterations: int = 0
    restarts: int = 0


def _judge(claimed: bool, problems: list) -> str:
    if not claimed:
        return "failed"
    return "wrong" if problems else "ok"


def _solve_op(solve):
    def op(case):
        t0 = calibration.clock()
        res = solve(case.game, SOLVER, TOL)
        dt = calibration.clock() - t0
        claimed = bool(res.converged and res.certificate.is_equilibrium)
        problems = closed_form.check_solution(case, res.point)
        if not claimed:
            problems.insert(0, f"{case.name}: converged={res.converged}, "
                               f"certified={res.certificate.is_equilibrium}")
        return Outcome(dt, _judge(claimed, problems), problems,
                       res.iterations, res.restarts_used)
    return op


def oracle_op(case):
    t0 = calibration.clock()
    res = gk.solve_vi(case.game, SOLVER, TOL)
    orc = gk.grid_oracle(case.game, h=inputs.GRID_H, cross_check=True,
                         cross_sample=ORACLE_CROSS_SAMPLE)
    dt = calibration.clock() - t0
    problems = closed_form.check_oracle(case, inputs.GRID_H, orc, res.point, res.converged)
    return Outcome(dt, _judge(res.converged, problems), problems,
                   res.iterations, res.restarts_used)


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def make_cli_op(out_root: str):
    """One in-process ``gnep`` command per operation, outputs under out_root."""

    def op(item, slot):
        out_dir = os.path.join(out_root, f"op{slot}")
        main_file = "outcome.json" if item.argv[0] == "economy" else "certificate.json"
        target = os.path.join(out_dir, main_file)
        if os.path.exists(target):
            os.remove(target)
        t0 = calibration.clock()
        try:
            code = cli.main(list(item.argv) + ["--out-dir", out_dir])
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
        dt = calibration.clock() - t0
        if code not in (0, 4):
            return Outcome(dt, "failed", [f"{item.argv[0]} {item.argv[1]}: exit {code}"])
        written = _read_json(target)
        if item.argv[0] == "economy":
            problems = closed_form.check_economy_output(item.case, item.point, code, written)
        else:
            problems = closed_form.check_verify_output(item.case, item.point, code, written)
        return Outcome(dt, _judge(True, problems), problems)

    return op


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, scratch) -> list of items for one round
    run: object  # (scratch) -> callable(item, slot) -> Outcome


def _per_item(op):
    return lambda scratch: (lambda item, slot: op(item))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vi-jointly-convex",
            lambda seed, scratch: inputs.vi_pool(seed),
            _per_item(_solve_op(gk.solve_vi)),
        ),
        Workload(
            "qvi-moving-slices",
            lambda seed, scratch: inputs.qvi_pool(seed),
            _per_item(_solve_op(gk.solve_qvi)),
        ),
        Workload(
            "oracle-grid",
            lambda seed, scratch: inputs.grid_pool(seed),
            _per_item(oracle_op),
        ),
        Workload(
            "certify-cli",
            lambda seed, scratch: inputs.cli_pool(seed, os.path.join(scratch, "instances")),
            lambda scratch: make_cli_op(os.path.join(scratch, "outputs")),
        ),
    )
}
