"""Tests of the benchmark's own checks: a planted fault must count as failed.

    python3 gnepbench/selftest.py

Each case runs a real operation once as a control (it must pass), then again
with one gnepkit entry point replaced by a version that returns a known wrong
answer while claiming success (it must be judged "wrong").  Exits 0 when
every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gnepkit as gk  # noqa: E402
import gnepkit.cli  # noqa: E402

import closed_form  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


@contextlib.contextmanager
def replaced(obj, attr, value):
    orig = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield orig
    finally:
        setattr(obj, attr, orig)


def non_equilibrium_point():
    """A solver that returns a fixed-box player's worst point, claiming success."""
    case = next(c for c in inputs.qvi_pool(0)
                if c.players[0].fixed is not None and c.players[0].kind == "lin")
    p = case.players[0]
    worst = p.fixed[0][0] if p.c[0] > 0 else p.fixed[1][0]  # gains |c| (hi - lo) >= 0.3

    def lying_solve(game, config, tol):
        res = gk.solve_qvi(game, config, tol)
        res.point = res.point.copy()
        res.point[0] = worst
        return res

    return (workloads._solve_op(gk.solve_qvi)(case),
            workloads._solve_op(lying_solve)(case))


def dropped_grid_node():
    """An oracle that loses one certified node of the splitting game."""
    case = next(c for c in inputs.grid_pool(0) if c.name == "splitting-2")
    control = workloads.oracle_op(case)
    real = gk.grid_oracle

    def lossy_oracle(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, certified=res.certified[1:],
                                   improvements=res.improvements[1:])

    with replaced(gk, "grid_oracle", lossy_oracle):
        return control, workloads.oracle_op(case)


def wrong_exit_code(scratch):
    """A CLI whose verdict exit codes are swapped (0 <-> 4)."""
    items = inputs.cli_pool(0, os.path.join(scratch, "instances"))
    item = next(i for i in items if i.label == "equilibrium")
    op = workloads.make_cli_op(os.path.join(scratch, "outputs"))
    control = op(item, 0)
    real = gnepkit.cli.main

    def swapped(argv):
        code = real(argv)
        return {0: 4, 4: 0}.get(code, code)

    with replaced(gnepkit.cli, "main", swapped):
        return control, op(item, 0)


def cli_verdicts_cover_both_codes():
    """The closed forms must expect exit 0 at every equilibrium and 4 at every
    perturbed point, or the CLI workload would not test the verdict."""
    bad = []
    for item in inputs.cli_pool(0, os.path.join(HERE, "out", "selftest-cover")):
        if isinstance(item.case, inputs.EconomyCase):
            want = closed_form.economy_verdict(item.case, item.point)[0]
        else:
            want = closed_form.game_verdict(item.case, item.point)[0]
        if want != (0 if item.label == "equilibrium" else 4):
            bad.append(f"{item.argv[1]} {item.label}: expects exit {want}")
    return bad


def main():
    scratch = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    failures = []
    try:
        for name, case in (("non-equilibrium point", non_equilibrium_point),
                           ("grid set with one node dropped", dropped_grid_node),
                           ("wrong exit code", lambda: wrong_exit_code(scratch))):
            control, faulted = case()
            ok = control.state == "ok" and faulted.state == "wrong"
            print(f"{'PASS' if ok else 'FAIL'} {name}: control {control.state}, "
                  f"planted fault {faulted.state} ({'; '.join(faulted.problems)[:160]})")
            if not ok:
                failures.append(name)
        bad = cli_verdicts_cover_both_codes()
        print(f"{'PASS' if not bad else 'FAIL'} CLI verdicts: " + ("; ".join(bad) or
              "exit 0 expected at every equilibrium, 4 at every perturbed point"))
        if bad:
            failures.append("cli verdicts")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(os.path.join(HERE, "out", "selftest-cover"), ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
