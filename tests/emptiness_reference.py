"""The open-face emptiness test that HPoly.is_empty ran before it became one
least-distance NNLS: the largest margin on the strict rows, one HiGHS LP
(the old _lp.max_slack with its 1e6 cap), compared with eps_open.  Kept out
of gnepkit as the reference of tests/test_convexsets.py and
tests/test_operators.py."""

import numpy as np
from scipy.optimize import linprog


def max_strict_margin(A, b, strict, cap=1e6):
    """Largest s <= cap with A z <= b - s on the strict rows and A z <= b on
    the others, or None when even the closure is empty."""
    m, n = A.shape
    res = linprog(np.append(np.zeros(n), -1.0),
                  A_ub=np.hstack([A, np.asarray(strict, dtype=float).reshape(m, 1)]), b_ub=b,
                  bounds=[(None, None)] * n + [(None, cap)], method="highs")
    if res.status == 2:
        return None
    assert res.success, res.message
    return -res.fun


def is_empty(P, eps_open=1e-7):
    """The old HPoly.is_empty: the closure's verdict, then, on a body with
    strict rows, its largest strict margin at most eps_open."""
    if P._empty:
        return True
    if not P.strict.any():
        return False
    s = max_strict_margin(P.A, P.b, P.strict)
    return s is None or s <= eps_open
