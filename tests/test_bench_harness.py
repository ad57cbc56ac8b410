"""The benchmark harness in gnepbench/ still fits the package.

The tracer rebinds layer functions by name and the self-test replaces entry
points, so moving or renaming a traced function breaks the benchmark without
breaking any other test.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import gnepkit.cli  # noqa: F401  (the tracer wraps names in these modules)
import gnepkit.jsonio  # noqa: F401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "gnepbench")


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join(BENCH, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "gnepbench_tracing", os.path.join(BENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_wraps_and_restores_every_layer_function():
    tracing = _load_tracing()
    before = {}
    for _, modname, attr in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(modname), attr)
        assert callable(fn), (modname, attr)
        before[modname, attr] = fn
    tracer = tracing.Tracer().install()
    try:
        for (modname, attr), fn in before.items():
            assert getattr(sys.modules[modname], attr) is not fn, (modname, attr)
    finally:
        tracer.uninstall()
    for (modname, attr), fn in before.items():
        assert getattr(sys.modules[modname], attr) is fn, (modname, attr)


def test_tracer_counts_the_vi_residual_calls():
    # the tracer counts the VI probes through solvers.residual_with_filter,
    # which every VI probe must call by its module name; with no residual
    # prefilter no call is settled by a lower bound, so its hit ratio is 0
    from gnepkit import instances as gi
    from gnepkit.solvers import solve_vi

    tracing = _load_tracing()
    tracer = tracing.Tracer().install()
    try:
        res = solve_vi(gi.splitting_game())
    finally:
        tracer.uninstall()
    assert res.converged
    assert tracer.filter_calls > 0
