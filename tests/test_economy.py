import warnings

import numpy as np
import pytest

from gnepkit.convexsets import Ball, Box
from gnepkit.economy import (
    Consumer,
    EconomyError,
    EconomyInstance,
    HypothesisUncheckedWarning,
    Producer,
    SatiatedConsumerError,
    check_market_clearing,
    check_walras,
    outcome_from_point,
    solve_competitive,
    to_gnep,
)
from gnepkit.preferences import LinearUtility
from gnepkit.solvers import grid_oracle
from gnepkit import instances as gi


def test_flagship_equilibrium_values():
    out = solve_competitive(gi.pure_exchange_economy())
    assert out.is_competitive
    assert np.allclose(out.prices, [0.5, 0.5], atol=1e-4)
    assert np.allclose(out.allocations, [[1.0, 1.0]], atol=1e-4)
    assert out.walras_gap <= 1e-6
    assert out.clearing_violation <= 1e-8


def test_flagship_oracle_certifies_unique_node():
    game = to_gnep(gi.pure_exchange_economy())
    orc = grid_oracle(game, h=0.05, cross_check=True, cross_sample=100)
    assert len(orc.certified) == 1
    assert np.allclose(orc.certified[0], [1.0, 1.0, 0.0, 0.0, 0.5, 0.5], atol=1e-9)
    assert not orc.disagreements


def test_two_consumer_exchange_clears():
    out = solve_competitive(gi.two_consumer_exchange())
    assert out.is_competitive
    ex = check_market_clearing(gi.two_consumer_exchange(), out)
    assert ex.max() <= 1e-8


def test_production_economy_uses_technology():
    out = solve_competitive(gi.production_economy())
    assert out.is_competitive
    assert np.allclose(out.productions, [[0.5, 0.5]], atol=1e-6)
    assert max(out.producer_gaps) <= 1e-6


def test_block_layout():
    econ = gi.pure_exchange_economy()
    assert econ.H == 2
    assert econ.consumer_block(0) == slice(0, 2)
    assert econ.producer_block(0) == slice(2, 4)
    assert econ.price_block == slice(4, 6)
    assert econ.n == 6


def test_budget_feasibility_is_enforced():
    game = to_gnep(gi.pure_exchange_economy())
    from gnepkit.game import constraint_body, membership_violation

    x = np.array([1.0, 1.0, 0.0, 0.0, 0.8, 0.2])   # p = (0.8, 0.2)
    K = constraint_body(game, 0, x)
    # wealth at these prices is 1.0: the bundle (2,2) costs 2.0
    assert membership_violation(K, np.array([2.0, 2.0])) > 0.5
    assert membership_violation(K, np.array([1.0, 1.0])) <= 1e-9


def test_constant_utility_consumer_rejected():
    econ = EconomyInstance(
        1, 2,
        (Consumer(Box([0.0, 0.0], [2.0, 2.0]), [1.0, 1.0], [],
                  LinearUtility([0.0, 0.0])),),
        (),
    )
    with pytest.raises(SatiatedConsumerError):
        solve_competitive(econ)


@pytest.mark.parametrize("bad", [
    dict(shares=[0.5]),                       # shares must sum to 1
    dict(endowment=[-1.0, 1.0]),              # endowments nonnegative
])
def test_invalid_consumer_data_rejected(bad):
    kw = dict(choice_set=Box([0.0, 0.0], [2.0, 2.0]), endowment=[1.0, 1.0],
              shares=[1.0], utility=LinearUtility([1.0, 1.0]))
    kw.update(bad)
    with pytest.raises(EconomyError):
        EconomyInstance(1, 2, (Consumer(**kw),), (Producer(Box([0, 0], [0, 0])),))


def test_non_polyhedral_choice_set_rejected():
    # the budget set is the choice set intersected with a price row
    with pytest.raises(EconomyError, match="consumer 0: choice set kind='ball'"):
        EconomyInstance(1, 2, (Consumer(Ball([1.0, 1.0], 1.0), [1.0, 1.0], [],
                                        LinearUtility([1.0, 1.0])),))


def test_technology_must_allow_inaction():
    with pytest.raises(EconomyError):
        EconomyInstance(
            1, 2,
            (Consumer(Box([0.0, 0.0], [2.0, 2.0]), [1.0, 1.0], [1.0],
                      LinearUtility([1.0, 1.0])),),
            (Producer(Box([0.5, 0.5], [1.0, 1.0])),),   # 0 not in B
        )


def test_walras_warns_without_survival_bundles():
    econ = gi.two_consumer_exchange()
    out = solve_competitive(econ)
    with pytest.warns(HypothesisUncheckedWarning):
        gap = check_walras(econ, out)
    assert gap <= 1e-6


def test_walras_silent_when_hypotheses_checkable():
    econ = gi.pure_exchange_economy()
    out = solve_competitive(econ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_walras(econ, out) <= 1e-6


def test_economy_certification_runs_no_lp(monkeypatch, tmp_path):
    # a budget set is a choice box cut by a price row; the box makes it
    # compact, so every best response over it is its best vertex candidate,
    # in the library and through gnep economy --check-only alike.  The points
    # are the closed-form equilibria: prices (1/2, 1/2), each consumer on
    # its endowment (two-consumer) or on endowment plus the producer's best
    # plan (1/2, 1/2) (production)
    from gnepkit import _lp
    from gnepkit.cli import main
    from gnepkit.jsonio import save_instance

    cases = [(gi.pure_exchange_economy(), [1.0, 1.0, 0.0, 0.0, 0.5, 0.5]),
             (gi.two_consumer_exchange(), [1.0, 0.0, 0.0, 1.0, 0.5, 0.5]),
             (gi.production_economy(), [1.5, 1.5, 0.5, 0.5, 0.5, 0.5])]
    for econ, _ in cases:
        save_instance(econ, tmp_path / f"{econ.name}.json")
    calls = []
    real = _lp.solve_lp
    monkeypatch.setattr(_lp, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    for econ, x in cases:
        assert outcome_from_point(econ, to_gnep(econ), np.array(x)).is_competitive
        assert main(["economy", str(tmp_path / f"{econ.name}.json"), "--check-only",
                     "--point", ",".join(map(str, x)), "--out-dir",
                     str(tmp_path / econ.name)]) == 0
    assert calls == []
