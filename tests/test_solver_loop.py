"""Characterisation of the solver loop: every probe site, pinned.

Each case fixes the iteration at which a run stopped, the attempts it ran
and the one its point came from, its convergence flag, every trace row, and
the returned point and residual.  Together the cases reach the periodic probe
(every splitting and random game), the stall and 2-cycle probe
(``random_jointly_convex(5)``, ``random_qvi(0)``), and the final probe
after the loop runs out (an iteration cap of 10 or of 0; such a run must
report the residual of the point it returns) or breaks on the halving cap
(``random_qvi(21)`` and ``random_qvi(4)`` from a step of 1e-11, whose first
stall halves it below the cap in every attempt; both run all four attempts
without converging, and the best point comes from the first attempt in one
and from the fourth in the other, so restarts and best-of-attempts are
covered too).  ``random_qvi(103)`` leaves the shared set
at its first step and takes the shared-set fallback of the QVI projection.
Any change to the order of projections, residuals, halvings or rng draws
shows up here."""

from dataclasses import dataclass

import numpy as np
import pytest

import gnepkit as gk
from gnepkit import instances as gi

INF = float("inf")


@dataclass
class Case:
    name: str
    game: object
    problem: str
    config: dict
    iterations: int
    restarts_used: int
    best_attempt: int
    converged: bool
    point: list
    residual: float
    trace: list


CASES = [
    Case(
        "splitting-vi-projection", gi.splitting_game, "vi", {},
        iterations=0, restarts_used=1, best_attempt=1, converged=True,
        point=[0.5, 0.5],
        residual=0.0,
        trace=[
            (0, 0.0, 0.5),
        ],
    ),
    Case(
        "splitting-vi-max-iters-0", gi.splitting_game, "vi", {"max_iters": 0},
        iterations=0, restarts_used=1, best_attempt=1, converged=True,
        point=[0.5, 0.5],
        residual=0.0,
        trace=[],
    ),
    Case(
        "simplex-argmax-vi", gi.simplex_argmax_game, "vi", {},
        iterations=2, restarts_used=1, best_attempt=1, converged=True,
        point=[0.0, 1.0],
        residual=0.0,
        trace=[
            (0, 0.7071067811865475, 0.5),
            (2, 0.0, 0.5),
        ],
    ),
    Case(
        "random-jointly-convex-5", lambda: gi.random_jointly_convex(5), "vi", {"residual_tol": 5e-07, "restarts": 4},
        iterations=19, restarts_used=1, best_attempt=1, converged=True,
        point=[0.7458643366901148, 0.0, 1.0],
        residual=0.0,
        trace=[
            (0, 1.5, 0.5),
            (2, 0.37132316330988524, 0.5),
            (6, 0.24999999999999978, 0.25),
            (8, 0.12499999999999986, 0.125),
            (11, 0.1250000000000001, 0.0625),
            (14, 0.1250000000000001, 0.03125),
            (17, 0.1250000000000001, 0.015625),
            (19, 0.0, 0.0078125),
        ],
    ),
    Case(
        "union-chase-qvi", gi.union_chase_game, "qvi", {},
        iterations=1, restarts_used=1, best_attempt=1, converged=True,
        point=[1.0],
        residual=0.0,
        trace=[
            (0, 0.5, 0.5),
            (1, 0.0, 0.5),
        ],
    ),
    Case(
        "random-qvi-0", lambda: gi.random_qvi(0), "qvi", {"residual_tol": 5e-07, "restarts": 4},
        iterations=25, restarts_used=1, best_attempt=1, converged=True,
        point=[0.350642364252171, 0.05185455552622531, 0.16536331477371136],
        residual=0.0,
        trace=[
            (0, 1.2137704444737747, 0.5),
            (3, 2.5, 0.5),
            (8, 1.835244873499657, 0.25),
            (11, 1.5441101806810509, 0.125),
            (14, 1.4737194796417274, 0.0625),
            (17, 1.4737194796417274, 0.03125),
            (20, 0.5277244290258823, 0.015625),
            (23, 0.354548614252171, 0.0078125),
            (25, 0.0, 0.00390625),
        ],
    ),
    Case(
        "random-qvi-0-iteration-cap", lambda: gi.random_qvi(0), "qvi", {"residual_tol": 5e-07, "restarts": 1, "max_iters": 10},
        iterations=10, restarts_used=1, best_attempt=1, converged=False,
        point=[0.35454861425217105, 0.16122955552622525, 0.26692581477371125],
        residual=0.7707752564117922,
        trace=[
            (0, 1.2137704444737747, 0.5),
            (3, 2.5, 0.5),
            (8, 1.835244873499657, 0.25),
        ],
    ),
    Case(
        "random-qvi-103", lambda: gi.random_qvi(103), "qvi", {"residual_tol": 5e-07, "restarts": 4},
        iterations=2, restarts_used=1, best_attempt=1, converged=True,
        point=[0.3398438171269619, 0.23630957827397175, 0.49313368779656885],
        residual=0.0,
        trace=[
            (0, 0.6962967638232751, 0.5),
            (2, 0.0, 0.5),
        ],
    ),
    Case(
        "random-qvi-21-halving-cap", lambda: gi.random_qvi(21), "qvi",
        {"alpha": 1e-11, "restarts": 4, "residual_tol": 5e-07},
        iterations=0, restarts_used=4, best_attempt=1, converged=False,
        point=[0.5, 0.5],
        residual=0.6019182241646808,
        trace=[
            (0, 0.6019182241646808, 1e-11),
            (0, 0.6019182241646808, 1e-11),
        ],
    ),
    Case(
        "random-qvi-4-halving-cap", lambda: gi.random_qvi(4), "qvi",
        {"alpha": 1e-11, "restarts": 4, "residual_tol": 5e-07},
        iterations=1, restarts_used=4, best_attempt=4, converged=False,
        point=[0.6323344095582408, 0.9486541096750626, 0.5872499829208457],
        residual=0.7975623974479514,
        trace=[
            (0, 0.8681605271411361, 1e-11),
            (1, 0.7975623974479514, 1e-11),
        ],
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_solver_loop_is_pinned(case):
    solve, residual = ((gk.solve_vi, gk.vi_residual) if case.problem == "vi"
                       else (gk.solve_qvi, gk.qvi_residual))
    game = case.game()
    tol = gk.Tolerances(eps_open=1e-6)
    res = solve(game, gk.SolverConfig(trace=True, **case.config), tol)
    assert res.problem == case.problem
    assert res.iterations == case.iterations
    assert res.restarts_used == case.restarts_used
    assert res.best_attempt == case.best_attempt
    assert res.converged == case.converged
    assert np.allclose(res.point, case.point, rtol=0.0, atol=1e-12)
    assert res.residual == pytest.approx(case.residual, rel=0.0, abs=1e-12)
    rows = [(r["iter"], r["residual"], r["alpha"]) for r in res.trace]
    assert [(k, a) for k, _, a in rows] == [(k, a) for k, _, a in case.trace]
    assert [r for _, r, _ in rows] == pytest.approx(
        [r for _, r, _ in case.trace], rel=0.0, abs=1e-12)
    if not res.converged:
        # a run that ran out or broke on the halving cap reports the residual
        # of the point it returns
        assert res.residual == pytest.approx(residual(game, res.point, tol=tol)[0], rel=0.0, abs=1e-12)
