"""Characterisation of the solver loop: every probe site, pinned.

Each case fixes the iteration at which a run stopped, the attempt it came
from, its convergence flag, every trace row, and the returned point and
residual.  Together the cases reach the periodic probe (every splitting and
random game), the stall and 2-cycle probe (``simplex_argmax`` with
extragradient, ``random_jointly_convex(5)``, ``random_qvi(0)``), the final
probe after the loop runs out (an iteration cap of 10 or of 0; such a run
must report the residual of the point it returns) or breaks on the halving
cap (``random_qvi(21)`` with extragradient, which never converges and whose
best point comes from its fourth attempt, so restarts and best-of-attempts
are covered too).  ``random_qvi(103)`` leaves the shared set at its first
step and takes the shared-set fallback of the QVI projection.  Any change
to the order of projections, residuals, halvings or rng draws shows up here.
"""

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
    converged: bool
    point: list
    residual: float
    trace: list


CASES = [
    Case(
        "splitting-vi-projection", gi.splitting_game, "vi", {},
        iterations=0, restarts_used=1, converged=True,
        point=[0.5, 0.5],
        residual=0.0,
        trace=[
            (0, 0.0, 0.5),
        ],
    ),
    Case(
        "splitting-vi-extragradient", gi.splitting_game, "vi", {"method": "extragradient"},
        iterations=0, restarts_used=1, converged=True,
        point=[0.5, 0.5],
        residual=0.0,
        trace=[
            (0, 0.0, 0.5),
        ],
    ),
    Case(
        "splitting-vi-max-iters-0", gi.splitting_game, "vi", {"max_iters": 0},
        iterations=0, restarts_used=1, converged=True,
        point=[0.5, 0.5],
        residual=0.0,
        trace=[],
    ),
    Case(
        "simplex-argmax-vi", gi.simplex_argmax_game, "vi", {},
        iterations=2, restarts_used=1, converged=True,
        point=[0.0, 1.0],
        residual=0.0,
        trace=[
            (0, 0.7071067811865475, 0.5),
            (2, 0.0, 0.5),
        ],
    ),
    Case(
        "simplex-argmax-vi-extragradient", gi.simplex_argmax_game, "vi", {"method": "extragradient"},
        iterations=29, restarts_used=1, converged=True,
        point=[1.349976810393967e-07, 0.999999865002319],
        residual=1.9091555141092123e-07,
        trace=[
            (0, 0.7071067811865475, 0.5),
            (1, 0.20710678118654754, 0.5),
            (2, 0.20710678118654754, 0.25),
            (4, 0.08210678118654753, 0.125),
            (6, 0.019606781186547524, 0.0625),
            (7, 0.019606781186547524, 0.03125),
            (9, 0.003981781186547542, 0.015625),
            (10, 0.003981781186547542, 0.0078125),
            (12, 7.553118654752697e-05, 0.00390625),
            (13, 7.553118654752697e-05, 0.001953125),
            (14, 7.553118654752697e-05, 0.0009765625),
            (15, 7.553118654752697e-05, 0.00048828125),
            (16, 7.553118654752697e-05, 0.000244140625),
            (17, 7.553118654752697e-05, 0.0001220703125),
            (19, 1.4496030297521824e-05, 6.103515625e-05),
            (20, 1.4496030297521824e-05, 3.0517578125e-05),
            (21, 1.4496030297521824e-05, 1.52587890625e-05),
            (23, 6.866635766241741e-06, 7.62939453125e-06),
            (25, 3.0519385006409522e-06, 3.814697265625e-06),
            (25, 3.0519385006409522e-06, 3.814697265625e-06),
            (27, 1.1445898678209316e-06, 1.9073486328125e-06),
            (29, 1.9091555141092123e-07, 9.5367431640625e-07),
        ],
    ),
    Case(
        "random-jointly-convex-5", lambda: gi.random_jointly_convex(5), "vi", {"residual_tol": 5e-07, "restarts": 4},
        iterations=35, restarts_used=1, converged=True,
        point=[0.7437891413776148, 0.0, 1.0],
        residual=0.0,
        trace=[
            (0, 1.5, 0.5),
            (2, 0.37132316330988524, 0.5),
            (6, 0.24999999999999978, 0.25),
            (8, 0.12499999999999986, 0.125),
            (11, 0.1250000000000001, 0.0625),
            (14, 0.1250000000000001, 0.03125),
            (17, 0.1250000000000001, 0.015625),
            (19, 0.11718750000000011, 0.0078125),
            (22, 0.11718750000000011, 0.00390625),
            (24, 0.11523437500000011, 0.001953125),
            (25, 0.25804191330988524, 0.0009765625),
            (27, 0.11523437500000011, 0.0009765625),
            (30, 0.11523437500000011, 0.00048828125),
            (33, 0.11523437500000011, 0.000244140625),
            (35, 0.0, 0.0001220703125),
        ],
    ),
    Case(
        "union-chase-qvi", gi.union_chase_game, "qvi", {},
        iterations=1, restarts_used=1, converged=True,
        point=[1.0],
        residual=0.0,
        trace=[
            (0, 0.5, 0.5),
            (1, 0.0, 0.5),
        ],
    ),
    Case(
        "random-qvi-0", lambda: gi.random_qvi(0), "qvi", {"residual_tol": 5e-07, "restarts": 4},
        iterations=40, restarts_used=1, converged=True,
        point=[0.35100857518967105, 0.053563539901225254, 0.16792679133621125],
        residual=7.925661604166522e-17,
        trace=[
            (0, 1.2137704444737747, 0.5),
            (3, 2.5, 0.5),
            (8, 1.835244873499657, 0.25),
            (11, 1.5441101806810507, 0.125),
            (14, 1.4737194796417274, 0.0625),
            (17, 1.4737194796417274, 0.03125),
            (20, 0.5952039845521075, 0.015625),
            (23, 1.475869873499657, 0.0078125),
            (25, 0.43043108669561225, 0.00390625),
            (26, 1.4542039098456145, 0.00390625),
            (29, 1.3163585978759476, 0.001953125),
            (32, 0.41351694146894996, 0.0009765625),
            (35, 0.42556322490656495, 0.00048828125),
            (38, 0.45136020320224896, 0.000244140625),
            (40, 7.925661604166522e-17, 0.0001220703125),
        ],
    ),
    Case(
        "random-qvi-0-iteration-cap", lambda: gi.random_qvi(0), "qvi", {"residual_tol": 5e-07, "restarts": 1, "max_iters": 10},
        iterations=10, restarts_used=1, converged=False,
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
        iterations=2, restarts_used=1, converged=True,
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
        iterations=68, restarts_used=4, converged=False,
        point=[0.6356391491688835, 0.07613815071499697],
        residual=0.04241722571079428,
        trace=[
            (0, 0.8008889003195794, 0.5),
            (2, 0.29179022955124073, 0.5),
            (5, 0.29179022955124073, 0.25),
            (9, 0.16679022955124076, 0.125),
            (13, 0.10429022955124076, 0.0625),
            (17, 0.07304022955124076, 0.03125),
            (21, 0.05741522955124075, 0.015625),
            (25, 0.04960272955124075, 0.0078125),
            (25, 0.04960272955124075, 0.0078125),
            (29, 0.04569647955124075, 0.00390625),
            (33, 0.04374335455124075, 0.001953125),
            (37, 0.04276679205124075, 0.0009765625),
            (40, 0.04276679205124075, 0.00048828125),
            (44, 0.04252265142624075, 0.000244140625),
            (47, 0.04252265142624075, 0.0001220703125),
            (49, 0.04246161626999075, 6.103515625e-05),
            (50, 0.04246161626999075, 3.0517578125e-05),
            (51, 0.04243109869186575, 3.0517578125e-05),
            (52, 0.04243109869186575, 1.52587890625e-05),
            (54, 0.0424234692973345, 7.62939453125e-06),
            (56, 0.04241965460006888, 3.814697265625e-06),
            (58, 0.042417747251436065, 1.9073486328125e-06),
            (59, 0.042417747251436065, 9.5367431640625e-07),
            (61, 0.04241727041427786, 4.76837158203125e-07),
            (62, 0.04241727041427786, 2.384185791015625e-07),
            (63, 0.04241727041427786, 1.1920928955078125e-07),
            (64, 0.04241727041427786, 5.960464477539063e-08),
            (66, 0.042417240611955474, 2.9802322387695312e-08),
            (68, 0.04241722571079428, 1.4901161193847656e-08),
        ],
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_solver_loop_is_pinned(case):
    solve, residual = ((gk.solve_vi, gk.vi_residual) if case.problem == "vi"
                       else (gk.solve_qvi, gk.qvi_residual))
    game = case.game()
    res = solve(game, gk.SolverConfig(trace=True, **case.config),
                gk.Tolerances(eps_open=1e-6))
    assert res.problem == case.problem
    assert res.iterations == case.iterations
    assert res.restarts_used == case.restarts_used
    assert res.converged == case.converged
    assert np.allclose(res.point, case.point, rtol=0.0, atol=1e-12)
    assert res.residual == pytest.approx(case.residual, rel=0.0, abs=1e-12)
    rows = [(r["iter"], r["residual"], r["alpha"]) for r in res.trace]
    assert [(k, a) for k, _, a in rows] == [(k, a) for k, _, a in case.trace]
    assert [r for _, r, _ in rows] == pytest.approx(
        [r for _, r, _ in case.trace], rel=0.0, abs=1e-12)
    if res.iterations == case.config.get("max_iters"):
        # a run that ran out reports the residual of the point it returns
        assert res.residual == pytest.approx(residual(game, res.point)[0], rel=0.0, abs=1e-12)
