"""Characterisation of the solver loop: every probe site, pinned.

Each case fixes the iteration at which a run stopped, the attempts it ran
and the one its point came from, its convergence flag, every trace row, and
the returned point and residual.  Together the cases reach the periodic probe
(every splitting and random game), the stall and 2-cycle probe
(``random_jointly_convex(5)``, ``random_qvi(0)``), the extragradient step
onto an extrapolated point where 0 is in T (``simplex_argmax``), the final
probe after the loop runs out (an iteration cap of 10 or of 0; such a run
must report the residual of the point it returns) or breaks on the halving
cap (``random_qvi(21)`` and ``random_qvi(4)`` with extragradient, which run
all four attempts without converging; the best point comes from the fourth
attempt in one and from the first in the other, so restarts and
best-of-attempts are covered too).  ``random_qvi(103)`` leaves the shared set
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
        "splitting-vi-extragradient", gi.splitting_game, "vi", {"method": "extragradient"},
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
        "simplex-argmax-vi-extragradient", gi.simplex_argmax_game, "vi", {"method": "extragradient"},
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
            (20, 0.47586987349965704, 0.015625),
            (23, 0.15118420760627682, 0.0078125),
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
        "random-qvi-21-extragradient", lambda: gi.random_qvi(21), "qvi",
        {"residual_tol": 5e-07, "restarts": 4, "method": "extragradient"},
        iterations=42, restarts_used=4, best_attempt=4, converged=False,
        point=[0.6356391491688835, 0.07823025884545198],
        residual=0.0445093338412493,
        trace=[
            (0, 0.8008889003195794, 0.5),
            (2, 0.29179022955124073, 0.5),
            (5, 0.29179022955124073, 0.25),
            (7, 0.16679022955124076, 0.125),
            (9, 0.10429022955124076, 0.0625),
            (11, 0.07304022955124076, 0.03125),
            (13, 0.05741522955124075, 0.015625),
            (15, 0.04960272955124075, 0.0078125),
            (17, 0.04569647955124075, 0.00390625),
            (18, 0.04569647955124075, 0.001953125),
            (20, 0.04471991705124075, 0.0009765625),
            (21, 0.04471991705124075, 0.00048828125),
            (22, 0.04471991705124075, 0.000244140625),
            (24, 0.04459784673874075, 0.0001220703125),
            (25, 0.04459784673874075, 6.103515625e-05),
            (26, 0.04453681158249075, 6.103515625e-05),
            (27, 0.04453681158249075, 3.0517578125e-05),
            (29, 0.04452155279342825, 1.52587890625e-05),
            (31, 0.044513923398897, 7.62939453125e-06),
            (33, 0.04451010870163138, 3.814697265625e-06),
            (34, 0.04451010870163138, 1.9073486328125e-06),
            (35, 0.04451010870163138, 9.5367431640625e-07),
            (37, 0.044509631864473174, 4.76837158203125e-07),
            (39, 0.04450939344589407, 2.384185791015625e-07),
            (40, 0.04450939344589407, 1.1920928955078125e-07),
            (42, 0.0445093338412493, 5.960464477539063e-08),
            (43, 0.0445093338412493, 2.9802322387695312e-08),
            (44, 0.0445093338412493, 1.4901161193847656e-08),
        ],
    ),
    Case(
        "random-qvi-4-extragradient", lambda: gi.random_qvi(4), "qvi",
        {"restarts": 4, "method": "extragradient"},
        iterations=57, restarts_used=4, best_attempt=1, converged=False,
        point=[0.32913829227632707, 0.9486541096750626, 0.319559717005067],
        residual=0.22667601425025893,
        trace=[
            (0, 1.0266321146439275, 0.5),
            (2, 0.6258911015448375, 0.5),
            (5, 0.6258911015448375, 0.25),
            (8, 0.3758911015448375, 0.125),
            (12, 0.3758911015448375, 0.0625),
            (16, 0.2508911015448375, 0.03125),
            (20, 0.2508911015448375, 0.015625),
            (24, 0.24307860154483749, 0.0078125),
            (25, 0.23526610154483749, 0.00390625),
            (26, 0.23135985154483749, 0.00390625),
            (28, 0.22745360154483749, 0.001953125),
            (29, 0.22745360154483749, 0.0009765625),
            (30, 0.22745360154483749, 0.00048828125),
            (32, 0.22696532029483749, 0.000244140625),
            (34, 0.22684324998233749, 0.0001220703125),
            (36, 0.22672117966983749, 6.103515625e-05),
            (38, 0.22669066209171249, 3.0517578125e-05),
            (39, 0.22669066209171249, 1.52587890625e-05),
            (41, 0.22668303269718124, 7.62939453125e-06),
            (43, 0.2266792179999156, 3.814697265625e-06),
            (45, 0.2266773106512828, 1.9073486328125e-06),
            (47, 0.2266763569769664, 9.5367431640625e-07),
            (48, 0.2266763569769664, 4.76837158203125e-07),
            (49, 0.2266763569769664, 2.384185791015625e-07),
            (50, 0.2266763569769664, 1.1920928955078125e-07),
            (51, 0.2266761185583873, 1.1920928955078125e-07),
            (53, 0.22667605895374252, 5.960464477539063e-08),
            (55, 0.22667602915142013, 2.9802322387695312e-08),
            (57, 0.22667601425025893, 1.4901161193847656e-08),
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
    if res.iterations == case.config.get("max_iters"):
        # a run that ran out reports the residual of the point it returns
        assert res.residual == pytest.approx(residual(game, res.point, tol=tol)[0], rel=0.0, abs=1e-12)
