"""Acceptance gate: ten checks, one pass/fail line each.

Budgets are wall-clock seconds of each check's own loop; tolerances are
pinned in-line and must not be loosened.
"""

import json
import os
import time

import numpy as np
import pytest

import gnepkit as gk
from gnepkit.cli import main as cli_main
from gnepkit.convexsets import hull_body, separate, HPoly, InteriorPointError
from gnepkit.economy import to_gnep
from gnepkit.jsonio import save_instance
from gnepkit import instances as gi


def _report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}".rstrip(), flush=True)
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_separation_suite():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    done = 0
    trials = 0
    while done < 500 and trials < 2000:
        trials += 1
        dim = int(rng.integers(1, 5))
        pts = rng.uniform(-1, 1, size=(dim + 1 + int(rng.integers(0, 4)), dim))
        try:
            body = hull_body(pts)
        except Exception:
            continue
        V = body.closure().vertices()
        if not len(V):
            continue
        if rng.uniform() < 0.5:
            y = V[rng.integers(len(V))]
        else:
            y = body.project(V.mean(axis=0)
                             + rng.uniform(1.5, 3.0) * rng.standard_normal(dim))
        try:
            t = separate(body, y)
        except InteriorPointError:
            continue
        assert abs(np.linalg.norm(t) - 1.0) <= 1e-9, "normal not unit"
        assert (V @ t - t @ y).max() <= 1e-8, "normal inequality violated"
        done += 1
    dt = time.perf_counter() - t0
    _report(1, done >= 500 and dt < 10.0,
            f"({done} anchors, {dt:.1f}s < 10s)")


def test_criterion_02_strict_inequality_suite():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    n_samples = 0
    worst = -np.inf
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        A = np.vstack([np.eye(dim), -np.eye(dim), rng.standard_normal((2, dim))])
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        c = rng.uniform(-0.3, 0.3, dim)
        b = A @ c + rng.uniform(0.4, 1.0, len(A))
        P = HPoly(A, b, strict=np.ones(len(b), dtype=bool))   # open polytope
        if P.is_empty():
            continue
        V = P.closure().vertices()
        y = V[rng.integers(len(V))]
        ystar = separate(P, y)
        Z = P.sample(rng, 200)
        margins = Z @ ystar - ystar @ y
        assert np.all(margins < 0.0), "non-strict separation on interior sample"
        worst = max(worst, float(margins.max()))
        n_samples += len(Z)
    dt = time.perf_counter() - t0
    _report(2, n_samples >= 200 * 20 and dt < 10.0,
            f"({n_samples} samples, max margin {worst:.2e} < 0, {dt:.1f}s < 10s)")


def test_criterion_03_vi_solution_soundness():
    t0 = time.perf_counter()
    unsound = []
    converged = 0
    for s in range(100):
        g = gi.random_jointly_convex(s)
        res = gk.solve_vi(g, gk.SolverConfig(residual_tol=5e-7, restarts=4),
                          gk.Tolerances(eps_open=1e-6))
        if res.converged:
            converged += 1
            if not res.certificate.is_equilibrium:
                unsound.append(s)
    dt = time.perf_counter() - t0
    _report(3, not unsound and converged > 0 and dt < 120.0,
            f"({converged}/100 converged, 0 counterexamples, {dt:.1f}s < 120s)")


def test_criterion_04_qvi_solution_soundness():
    t0 = time.perf_counter()
    unsound = []
    converged = 0
    for s in range(100):
        g = gi.random_qvi(s)
        res = gk.solve_qvi(g, gk.SolverConfig(residual_tol=5e-7, restarts=4),
                           gk.Tolerances(eps_open=1e-6))
        if res.converged:
            converged += 1
            if not res.certificate.is_equilibrium:
                unsound.append(s)
    dt = time.perf_counter() - t0
    _report(4, not unsound and converged > 0 and dt < 180.0,
            f"({converged}/100 converged, 0 counterexamples, {dt:.1f}s < 180s)")


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    h = 0.02
    bad = []
    for idx, g in enumerate(gi.grid_aligned_instances(h)):
        res = gk.solve_vi(g, gk.SolverConfig(residual_tol=5e-7, restarts=4),
                          gk.Tolerances(eps_open=1e-6))
        orc = gk.grid_oracle(g, h=h, cross_check=True, cross_sample=50)
        if orc.disagreements:                       # oracle vs verifier
            bad.append((idx, "disagreement"))
        if res.converged:
            if not len(orc.certified):
                bad.append((idx, "no certified node"))
            else:
                d = np.abs(orc.certified - res.point).max(axis=1).min()
                if d > h + 1e-9:
                    bad.append((idx, f"solver point {d:.3f} from grid"))
    dt = time.perf_counter() - t0
    _report(5, not bad and dt < 300.0,
            f"(20 instances, solver within h of certified nodes, "
            f"verifier agreement 100%, {dt:.1f}s < 300s)")


def test_criterion_06_splitting_game_analytic():
    g = gi.splitting_game()
    res = gk.solve_vi(g)
    face_gap = abs(res.point.sum() - 1.0)
    orc = gk.grid_oracle(g, h=0.05)
    expected = {(round(0.05 * k, 9), round(1 - 0.05 * k, 9)) for k in range(21)}
    got = {tuple(np.round(n, 9)) for n in orc.certified}
    ok = res.converged and face_gap <= 1e-6 and got == expected
    _report(6, ok, f"(|x1+x2-1|={face_gap:.1e}, oracle nodes = face nodes, "
                   f"{len(got)} of them)")


def test_criterion_07_pure_exchange_equilibrium():
    t0 = time.perf_counter()
    econ = gi.pure_exchange_economy()
    out = gk.solve_competitive(econ)
    game = to_gnep(econ)
    orc = gk.grid_oracle(game, h=0.05, cross_check=True, cross_sample=100)
    dt = time.perf_counter() - t0
    price_ok = np.allclose(out.prices, [0.5, 0.5], atol=1e-4)
    node_ok = (len(orc.certified) == 1
               and np.allclose(orc.certified[0], [1, 1, 0, 0, 0.5, 0.5], atol=1e-9)
               and not orc.disagreements)
    ok = (out.is_competitive and price_ok and out.walras_gap <= 1e-6
          and out.clearing_violation <= 1e-8 and node_ok and dt < 30.0)
    _report(7, ok, f"(p={np.round(out.prices, 6).tolist()}, "
                   f"walras={out.walras_gap:.1e}<=1e-6, "
                   f"clearing={out.clearing_violation:.1e}<=1e-8, {dt:.1f}s < 30s)")


def test_criterion_08_relation_profiles():
    t0 = time.perf_counter()
    amb = gi.catalog_ambient()
    mismatches = []
    witnesses = {}
    for rerun in range(2):
        for name, (succ, expected) in gi.relation_catalog().items():
            prof = gk.relation_profile(succ, [amb], 0, seed=0)
            got = {
                "irreflexive": prof.irreflexive.status,
                "convex_values": prof.convex_values.status,
                "nonsatiated": prof.nonsatiated.status,
                "lsc_evidence": prof.lsc_evidence.status,
            }
            if got != expected:
                mismatches.append((name, got))
            w = prof.nonsatiated.witness
            key = (name, rerun)
            witnesses[key] = None if w is None else np.asarray(w).tolist()
    stable = all(witnesses[(n, 0)] == witnesses[(n, 1)]
                 for n, _ in gi.relation_catalog().items() for n in [n])
    dt = time.perf_counter() - t0
    _report(8, not mismatches and stable and dt < 5.0,
            f"({len(gi.relation_catalog())} relations match documented "
            f"profiles, witnesses reproducible, {dt:.1f}s < 5s)")


def test_criterion_09_coercivity_samplers():
    t0 = time.perf_counter()
    vac = gk.check_coercivity_jointly_convex(gi.splitting_game(), rho=3.0)
    inward = gk.check_coercivity_jointly_convex(gi.coercive_inward_game(), rho=5.0)
    outward = gk.check_coercivity_jointly_convex(gi.coercive_outward_game(), rho=5.0)
    witness_ok = False
    if outward.status == "violated":
        x = np.asarray(outward.witness)
        recheck = gk.check_Cx(gi.coercive_outward_game(), x, rho_x=5.0)
        witness_ok = np.linalg.norm(x) > 5.0 and recheck.status == "violated"
    inward_ok = inward.status == "holds_on_samples" and inward.n_checked > 0
    dt = time.perf_counter() - t0
    ok = (vac.status == "vacuous" and inward_ok and witness_ok and dt < 30.0)
    _report(9, ok, f"(bounded={vac.status}, inward={inward.status}, "
                   f"outward={outward.status} with valid witness, {dt:.1f}s < 30s)")


def test_criterion_10_cli_reproducibility(tmp_path):
    inst_g = tmp_path / "splitting.json"
    inst_e = tmp_path / "exchange.json"
    save_instance(gi.splitting_game(), inst_g)
    save_instance(gi.pure_exchange_economy(), inst_e)
    runs = [
        (["solve", str(inst_g), "--trace"], ["result.json", "trace.csv"]),
        (["verify", str(inst_g), "--point", "0.5,0.5"], ["certificate.json"]),
        (["oracle", str(inst_g), "--h", "0.05"], ["oracle.json", "oracle.csv"]),
        (["economy", str(inst_e)], ["outcome.json", "diagnostics.csv"]),
    ]
    identical = True
    for argv, files in runs:
        d1, d2 = tmp_path / f"a{files[0]}", tmp_path / f"b{files[0]}"
        cli_main(argv + ["--out-dir", str(d1)])
        cli_main(argv + ["--out-dir", str(d2)])
        for f in files:
            if (d1 / f).read_bytes() != (d2 / f).read_bytes():
                identical = False
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        m1.pop("wall_time_s"), m2.pop("wall_time_s")
        if m1 != m2:
            identical = False
    _report(10, identical, "(re-runs byte-identical across solve/verify/"
                           "oracle/economy)")
