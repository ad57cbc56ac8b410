"""Convex bodies with optional open faces, projections, separation, normal cones.

A body is a convex subset of R^dim given by one of four shapes: axis box,
scaled probability simplex, half-space intersection with a per-row strict
mask, or Euclidean ball.  ``intersect`` turns polyhedral parts (boxes,
simplices, half-space intersections) into the one half-space intersection
of all their rows.  The rows of a polyhedral body (``hrep``) are every row
of its closure, an equality as an exact +/- pair.  Strict rows carry the
open part: ``contains`` demands a margin (default 1e-7) on them, projection
and vertex enumeration always work with the closure.

Membership is monotone in its slack argument: contains(x, e1) implies
contains(x, e2) for e2 >= e1.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _lp

DEFAULT_EPS_OPEN = 1e-7
EPS_ACTIVE = 1e-8
_VERTEX_DEDUP = 1e-9
_VERTEX_FEAS_RTOL = 1e-8
_VERTEX_SUBSET_CAP = 200_000
# VertexForm.of and HPoly._form factor rows with at most this many n-row
# subsets; above it a linear maximum is one LP.  One maximize over a vertex-form body took as long
# as one _lp.max_linear (about 2 ms) at about 2,000 subsets in 2-D and about
# 10,000 in 3-D, on a 2-core x86_64 host with numpy and scipy's HiGHS.  A
# body off a game's shared form builds its own once: on a box cut by one
# price row in H = 2..6 goods (10 to 1,716 subsets), one maximize with the
# build took 0.2-0.4, 0.3-0.5, 0.5-1.0, 3.0-3.2 and 5.8-12 ms against
# 1.6-2.8 ms for one LP on the same rows (three runs, best of 5 x 20 calls).
# So a one-off build loses from H = 5 (462 subsets) on, mostly to the
# batched SVD of matrix_rank; the one gate stands.  solvers.hull_residual
# takes it as its gate on epigraph vertex candidates: enumerating them took
# as long as its LP (about 2 ms) at about 2,500 candidates, over 2 or 3
# interval coordinates on the same host (mean of 5 calls on random vertex sets)
_VERTEX_FORM_SUBSETS = 2_000


class EmptyBodyError(ValueError):
    """Operation needs a nonempty body (projection targets, anchors...)."""


class InteriorPointError(ValueError):
    """separate() was handed a point in the interior of the body."""


class EnumerationError(ValueError):
    """Vertex enumeration refused: unbounded body or too many row subsets."""


def _as_vec(x, dim=None):
    v = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and v.size != dim:
        raise ValueError(f"expected vector of length {dim}, got {v.size}")
    return v


class ConvexBody:
    """Common interface; concrete shapes are the dataclasses below."""

    dim: int
    kind: str

    # --- membership / geometry -------------------------------------------
    def contains(self, x, eps: float = 0.0, eps_open: float = DEFAULT_EPS_OPEN) -> bool:
        raise NotImplementedError

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean projection onto the closure."""
        raise NotImplementedError

    # True when a zero row empties the body (see HPoly); hrep() omits that row
    _poisoned = False
    # (A, b, strict) of a polyhedral body, read in place; hrep() copies them
    _rows = None

    def hrep(self):
        """(A, b, strict) with unit rows, every row of the closure, an
        equality as an exact +/- pair; None when not polyhedral."""
        if self._rows is None:
            return None
        return tuple(a.copy() for a in self._rows)

    def equalities(self):
        """(C, d): one row of each equality +/- pair in hrep() (unit rows;
        may be empty).  A Ball reports none."""
        return np.zeros((0, self.dim)), np.zeros(0)

    def vertices(self) -> np.ndarray:
        """Vertices of the closure, lexicographically sorted."""
        raise EnumerationError(f"no vertex enumeration for kind={self.kind!r}")

    def bounding_box(self):
        raise NotImplementedError

    def is_bounded(self) -> bool:
        lo, hi = self.bounding_box()
        return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

    def is_empty(self, eps_open: float = DEFAULT_EPS_OPEN) -> bool:
        """Whether the body (open faces honored) has no point."""
        return False

    def interior_point(self):
        """Some point with positive margin on every face, or None."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k points of the closure (coverage, not uniformity)."""
        raise NotImplementedError

    def closure(self) -> "ConvexBody":
        return self

    def boundary_samples(self, rng: np.random.Generator, k: int) -> np.ndarray:
        pts = self.sample(rng, k)
        c = pts.mean(axis=0)
        out = []
        for p in pts:
            d = p - c
            n = np.linalg.norm(d)
            if n < 1e-12:
                d = rng.standard_normal(self.dim)
                n = np.linalg.norm(d)
            out.append(self.project(c + (d / n) * 1e6))
        return np.array(out)

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Box(ConvexBody):
    lo: np.ndarray
    hi: np.ndarray
    kind: str = field(default="box", init=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_vec(self.lo))
        object.__setattr__(self, "hi", _as_vec(self.hi, self.lo.size))
        if np.any(self.lo > self.hi):
            raise EmptyBodyError("box with lo > hi")

    @property
    def dim(self):
        return self.lo.size

    def contains(self, x, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        x = _as_vec(x, self.dim)
        return bool(np.all(x >= self.lo - eps) and np.all(x <= self.hi + eps))

    def project(self, x):
        return np.clip(_as_vec(x, self.dim), self.lo, self.hi)

    @cached_property
    def _rows(self):
        """Per coordinate its hi row e_j, then its lo row -e_j, each only
        when that bound is finite."""
        eye = np.eye(self.dim)
        A = np.stack([eye, -eye], axis=1).reshape(-1, self.dim)
        b = np.stack([self.hi, -self.lo], axis=1).reshape(-1)
        finite = np.isfinite(b)
        return A[finite], b[finite], np.zeros(int(finite.sum()), dtype=bool)

    def equalities(self):
        """The row e_j and hi_j of each finite coordinate with lo == hi: the
        first row of its +/- pair in hrep(), as an intersect() reads it."""
        j = np.flatnonzero((self.lo == self.hi) & np.isfinite(self.hi))
        return np.eye(self.dim)[j], self.hi[j]

    def vertices(self):
        if not self.is_bounded():
            raise EnumerationError("unbounded box")
        if self.dim > 12:
            raise EnumerationError("box vertex count over cap")
        cols = [(self.lo[j], self.hi[j]) for j in range(self.dim)]
        vs = np.array(sorted(set(itertools.product(*cols))))
        return vs.reshape(-1, self.dim)

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def interior_point(self):
        lo = np.where(np.isfinite(self.lo), self.lo, -1.0)
        hi = np.where(np.isfinite(self.hi), self.hi, lo + 2.0)
        p = 0.5 * (lo + hi)
        return p if np.all(self.hi - self.lo > 0) else None

    def sample(self, rng, k):
        lo = np.where(np.isfinite(self.lo), self.lo, -1e3)
        hi = np.where(np.isfinite(self.hi), self.hi, 1e3)
        return rng.uniform(lo, hi, size=(k, self.dim))

    def to_dict(self):
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}


@dataclass(frozen=True)
class Simplex(ConvexBody):
    """{x >= 0, sum(x) = scale}; the lone lower-dimensional shape here."""

    dim: int
    scale: float = 1.0
    kind: str = field(default="simplex", init=False)

    def __post_init__(self):
        if self.dim < 1 or self.scale <= 0:
            raise ValueError("simplex needs dim >= 1 and scale > 0")

    def contains(self, x, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        x = _as_vec(x, self.dim)
        slack = eps + 1e-12
        return bool(np.all(x >= -slack) and abs(x.sum() - self.scale) <= slack + 1e-9 * self.scale)

    def project(self, x):
        return project_simplex(_as_vec(x, self.dim), self.scale)

    @cached_property
    def _rows(self):
        C, d = self.equalities()
        A = np.vstack([-np.eye(self.dim), C, -C])
        return A, np.concatenate([np.zeros(self.dim), d, -d]), np.zeros(self.dim + 2, dtype=bool)

    def equalities(self):
        n = np.ones((1, self.dim)) / np.sqrt(self.dim)
        return n, np.array([self.scale / np.sqrt(self.dim)])

    def vertices(self):
        return self.scale * np.eye(self.dim)

    def bounding_box(self):
        return np.zeros(self.dim), np.full(self.dim, self.scale)

    def interior_point(self):
        if self.dim == 1:
            return np.array([self.scale])
        return np.full(self.dim, self.scale / self.dim)

    def sample(self, rng, k):
        return self.scale * rng.dirichlet(np.ones(self.dim), size=k)

    def to_dict(self):
        return {"kind": "simplex", "dim": self.dim, "scale": self.scale}


@dataclass(frozen=True)
class HPoly(ConvexBody):
    """{x : A x <= b}, rows unit-normalized at construction; strict rows open."""

    A: np.ndarray
    b: np.ndarray
    strict: np.ndarray = None
    kind: str = field(default="hpoly", init=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = _as_vec(self.b, A.shape[0])
        strict = (
            np.zeros(A.shape[0], dtype=bool)
            if self.strict is None
            else np.asarray(self.strict, dtype=bool).reshape(A.shape[0])
        )
        norms, keep = _unit_norms(A)
        # zero rows are vacuous (b >= 0) or poison the whole body (b < 0)
        degenerate = ~keep & ((b < -1e-13) | (strict & (b <= 1e-13)))
        A, b, strict, norms = A[keep], b[keep], strict[keep], norms[keep]
        object.__setattr__(self, "A", A / norms[:, None])
        object.__setattr__(self, "b", b / norms)
        object.__setattr__(self, "strict", strict)
        object.__setattr__(self, "_poisoned", bool(degenerate.any()))
        if A.shape[0] == 0 and not self._poisoned:
            raise ValueError("HPoly needs at least one nontrivial row")

    @classmethod
    def _on_unit_rows(cls, A, b, strict=None) -> "HPoly":
        """HPoly(A, b, strict) for rows A that are nonzero and already of
        unit norm as HPoly keeps them (_unit_norms takes each norm as
        exactly 1.0, so normalising would change no bit): A and strict are
        shared, not copied, and nothing is divided.  Builds a game's slices
        (game.constraint_body), VertexForm.body and closure()."""
        b = np.asarray(b, dtype=float)
        if not len(b):
            raise ValueError("HPoly needs at least one nontrivial row")
        P = object.__new__(cls)
        vars(P).update(A=A, b=b, _poisoned=False,
                       strict=np.zeros(len(b), dtype=bool) if strict is None else strict)
        return P

    @property
    def dim(self):
        return self.A.shape[1]

    def margins(self, x):
        return self.A @ _as_vec(x, self.dim) - self.b

    def contains(self, x, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        if self._poisoned:
            return False
        m = self.margins(x)
        lim = np.where(self.strict, eps - eps_open, eps)
        return bool(np.all(m <= lim + 1e-12))

    @cached_property
    def _interval(self):
        """Closed [lo, hi] of a 1-D body by the ratio test, or None if empty
        (see _intervals)."""
        if self._poisoned:
            return None
        lo, hi, empty = _intervals(self.A[:, 0], self.b[None])
        return None if empty[0] else (float(lo[0]), float(hi[0]))

    @cached_property
    def _chebyshev(self):
        if self._poisoned:
            return None
        if self.dim == 1:
            if self._interval is None:
                return None
            lo, hi = self._interval
            # the radius cap of _lp.chebyshev_center
            r = min(0.5 * (hi - lo), 1e3)
            if np.isfinite(lo) and np.isfinite(hi):
                x = 0.5 * (lo + hi)
            else:
                x = lo + r if np.isfinite(lo) else hi - r if np.isfinite(hi) else 0.0
            return np.array([x]), r
        try:
            x, r = _lp.chebyshev_center(self.A, self.b)
        except _lp.InfeasibleLP:
            return None
        # the LP meets its r >= 0 bound only up to its feasibility tolerance:
        # a negative radius is a crossing of the rows, so the body is empty
        return None if r < 0 else (x, r)

    @cached_property
    def _form(self):
        """The VertexForm of a bounded body's rows within the gate, else
        None; VertexForm.body shares one.  Never read in 1-D (intervals)."""
        if self._poisoned or _lp._ncr(*self.A.shape) > _VERTEX_FORM_SUBSETS or not self._bounded:
            return None
        return VertexForm._factored(self.A)

    @cached_property
    def _candidates(self):
        """The vertex candidates of a bounded n-D body that pass the
        feasibility test, repeated at degenerate vertices: from its form,
        else (over the gate) from a one-off form of at most
        _VERTEX_SUBSET_CAP subsets."""
        form = self._form or VertexForm._factored(self.A, _VERTEX_SUBSET_CAP)
        if form is None:
            raise EnumerationError(f"too many row subsets ({len(self.A)} choose {self.dim})")
        V, ok = form.candidates(self.b[None])
        return V[0][ok[0]]

    @cached_property
    def _empty(self):
        """The one emptiness verdict of the closure that every query reads:
        a violated zero row, the 1-D interval, the vertex form's candidate
        set (empty exactly when no candidate is feasible) of a bounded body
        within the gate, else a negative Chebyshev radius."""
        if self._poisoned:
            return True
        if self.dim == 1:
            return self._interval is None
        if self._form is not None:
            return not len(self._candidates)
        return self._chebyshev is None

    def is_empty(self, eps_open=DEFAULT_EPS_OPEN):
        if self._empty:
            return True
        if not self.strict.any():
            return False
        s, _ = _lp.max_slack(self.A, self.b, self.strict)
        return s <= eps_open

    def project(self, x):
        x = _as_vec(x, self.dim)
        if self.dim == 1 and not self._empty:
            # the closed form that decides 1-D emptiness also projects
            return np.clip(x, *self._interval)
        if not self._poisoned and self.margins(x).max(initial=-np.inf) <= 0.0:
            return x.copy()
        if self._empty:
            raise EmptyBodyError("projection onto empty polyhedron")
        try:
            return _lp.project_polyhedron(x, self.A, self.b)
        except _lp.InfeasibleLP:
            if self._form is None:
                raise EmptyBodyError("projection onto empty polyhedron") from None
        # a vertex-form body thinner than the least-distance program's
        # rounding is still the hull of its vertices
        return x + _min_norm_hull_point(self.vertices() - x)

    @property
    def _rows(self):
        return self.A, self.b, self.strict

    @cached_property
    def _pairs(self):
        return _pair_masks(self.A, self.b, self.strict)

    def equalities(self):
        """The first row of each exact +/- pair among the rows (see
        _pair_masks), read from the rows alone, so it survives to_dict."""
        first, _ = self._pairs
        return self.A[first], self.b[first]

    @cached_property
    def _bbox(self):
        if self.dim == 1:
            lo, hi = self._interval
            return np.array([lo]), np.array([hi])
        V = self._candidates if self._form is not None else self._vertices
        return V.min(axis=0), V.max(axis=0)

    def bounding_box(self):
        """The interval in 1-D, else the box around the vertices: raises
        EnumerationError as vertices() does, EmptyBodyError when empty."""
        if self._empty:
            raise EmptyBodyError("bounding box of empty polyhedron")
        lo, hi = self._bbox
        return lo.copy(), hi.copy()

    @cached_property
    def _bounded(self):
        if self.dim == 1:
            return bool(np.all(np.isfinite(self._interval)))
        return bool(np.linalg.matrix_rank(self.A) == self.dim
                    and _lp.recession_cone_is_zero(self.A))

    def is_bounded(self):
        """Whether the body is bounded: true for a VertexForm.body, an
        intersect() with a part compact in closed form, a hull and the
        closure of a body known bounded, the interval's end points in 1-D,
        else rank n rows and one LP on the recession cone
        (_lp.recession_cone_is_zero).  Raises EmptyBodyError when empty."""
        if self._empty:
            raise EmptyBodyError("boundedness of an empty polyhedron")
        return self._bounded

    @cached_property
    def _vertices(self):
        if not self.is_bounded():
            raise EnumerationError("vertex enumeration of unbounded polyhedron")
        if self.dim == 1:
            lo, hi = self._interval
            return np.array([[lo]]) if hi - lo <= _VERTEX_DEDUP else np.array([[lo], [hi]])
        return _sorted_unique(self._candidates)

    def vertices(self):
        if self._empty:
            return np.zeros((0, self.dim))
        return self._vertices.copy()

    def interior_point(self):
        if self._empty or self._chebyshev is None:
            return None
        x, r = self._chebyshev
        return x if r > 1e-9 else None

    def sample(self, rng, k):
        if self._empty:
            raise EmptyBodyError("sampling an empty polyhedron")
        vs = self.vertices() if self.is_bounded() else None
        if vs is not None and len(vs):
            w = rng.dirichlet(np.ones(len(vs)), size=k)
            return w @ vs
        x, r = self._chebyshev
        return x + rng.standard_normal((k, self.dim)) * max(r, 1e-3)

    def closure(self):
        if not self.strict.any():
            return self
        if self._poisoned:
            # the closure of an empty body is empty: keep a zero row that says so
            return HPoly(np.vstack([self.A, np.zeros(self.dim)]), np.append(self.b, -1.0))
        # a form already built (a game slice's) is shared, not built again;
        # the rows are the same, so a known boundedness holds for them too
        form = vars(self).get("_form")
        if form is not None:
            return form.body(self.b)
        P = HPoly._on_unit_rows(self.A, self.b)
        if "_bounded" in vars(self):
            object.__setattr__(P, "_bounded", self._bounded)
        return P

    def to_dict(self):
        return {
            "kind": "hpoly",
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "strict": self.strict.astype(int).tolist(),
        }


@dataclass(frozen=True)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float
    kind: str = field(default="ball", init=False)

    def __post_init__(self):
        object.__setattr__(self, "center", _as_vec(self.center))
        if self.radius < 0:
            raise EmptyBodyError("negative radius")

    @property
    def dim(self):
        return self.center.size

    def contains(self, x, eps=0.0, eps_open=DEFAULT_EPS_OPEN):
        return bool(np.linalg.norm(_as_vec(x, self.dim) - self.center) <= self.radius + eps)

    def project(self, x):
        x = _as_vec(x, self.dim)
        d = x - self.center
        n = np.linalg.norm(d)
        if n <= self.radius:
            return x.copy()
        return self.center + d * (self.radius / n)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def interior_point(self):
        return self.center.copy() if self.radius > 0 else None

    def sample(self, rng, k):
        g = rng.standard_normal((k, self.dim))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
        r = self.radius * rng.uniform(0, 1, size=(k, 1)) ** (1.0 / self.dim)
        return self.center + g * r

    def boundary_samples(self, rng, k):
        g = rng.standard_normal((k, self.dim))
        g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-12)
        return self.center + self.radius * g

    def to_dict(self):
        return {"kind": "ball", "center": self.center.tolist(), "radius": self.radius}


def is_polyhedral(body: ConvexBody) -> bool:
    """Whether body is one of the shapes intersect accepts as a part."""
    return isinstance(body, (Box, Simplex, HPoly))


def _pair_masks(A, b, strict):
    """(first, paired): masks of the first row of each exact +/- pair of
    {A z <= b} (rows and right-hand sides exact negatives, neither row
    strict) and of every row in one.  A pair is an equality."""
    closed = ~np.asarray(strict, dtype=bool)
    i, j = np.nonzero(np.triu((b[:, None] == -b) & closed[:, None] & closed, 1))
    hit = np.all(A[i] == -A[j], axis=1)
    first, paired = np.zeros((2, len(b)), dtype=bool)
    first[i[hit]] = True
    paired[i[hit]] = paired[j[hit]] = True
    return first, paired


# --------------------------------------------------------------------------
# constructors


def box(lo, hi) -> Box:
    return Box(lo, hi)


def simplex(dim: int, scale: float = 1.0) -> Simplex:
    return Simplex(dim, scale)


def halfspaces(A, b, strict=None) -> HPoly:
    return HPoly(A, b, strict)


def ball(center, radius: float) -> Ball:
    return Ball(center, radius)


def intersect(*parts) -> HPoly:
    """The one HPoly of polyhedral parts (Box, Simplex or HPoly): every
    part's rows, an equality as its +/- pair, and a zero row that empties
    the whole for a part that one empties.

    A part that is compact in closed form (a Box with finite bounds, a
    Simplex, or an HPoly known bounded, such as another intersect() with
    such a part) bounds the whole, so it needs no recession-cone LP to take
    its vertex form (see HPoly._form; a budget set: a choice box cut by a
    price row)."""
    if not parts:
        raise ValueError("empty intersection")
    dim = parts[0].dim
    rows, rhs, strict, compact = [], [], [], False
    for p in parts:
        if p.dim != dim:
            raise ValueError("intersection parts disagree on dim")
        if not is_polyhedral(p):
            raise ValueError(f"intersection part kind={p.kind!r} is not polyhedral")
        A, b, s = p.hrep()
        if p._poisoned:
            A, b, s = np.vstack([A, np.zeros(dim)]), np.append(b, -1.0), np.append(s, False)
        rows.append(A)
        rhs.append(b)
        strict.append(s)
        compact |= (isinstance(p, Simplex) or vars(p).get("_bounded") is True
                    or isinstance(p, Box) and bool(np.isfinite([p.lo, p.hi]).all()))
    P = HPoly(np.vstack(rows), np.concatenate(rhs), np.concatenate(strict))
    if compact:
        object.__setattr__(P, "_bounded", True)
    return P


def body_from_dict(d: dict) -> ConvexBody:
    kind = d["kind"]
    if kind == "box":
        return Box(d["lo"], d["hi"])
    if kind == "simplex":
        return Simplex(int(d["dim"]), float(d["scale"]))
    if kind == "hpoly":
        return HPoly(d["A"], d["b"], np.array(d["strict"], dtype=bool))
    if kind == "ball":
        return Ball(d["center"], float(d["radius"]))
    if kind == "intersection":
        # files written before intersections were saved as their rows
        return intersect(*(body_from_dict(p) for p in d["parts"]))
    raise ValueError(f"unknown body kind {kind!r}")


# --------------------------------------------------------------------------
# projection helpers


def project_simplex(y: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = scale}, scale > 0."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if scale <= 0.0:
        raise ValueError("simplex scale must be positive")
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - scale
    ks = np.arange(1, y.size + 1)
    # the index set {j : u_j > (css_j)/j} is a prefix; take its last element
    k = ks[u - css / ks > 0.0][-1]
    tau = css[k - 1] / k
    return np.maximum(y - tau, 0.0)


def _intervals(a, B):
    """(lo, hi, empty): the closed interval of each 1-D body {z : a z <= B[g]}
    by the ratio test, one body per row of B, and the mask of empty ones.

    A body is empty iff lo - hi exceeds the rounding threshold of
    _lp.project_polyhedron relative to |lo| + |hi|; a smaller crossing is
    rounding noise and collapses to the midpoint.
    """
    R, up = B / a, a > 0
    hi = np.minimum.reduce(R, axis=1, where=up, initial=np.inf)
    lo = np.maximum.reduce(R, axis=1, where=~up, initial=-np.inf)
    gap = lo - hi
    empty = gap > _lp._LDP_EMPTY_RTOL * (1.0 + abs(lo) + abs(hi))
    if gap.max() > 0:
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(gap > 0, mid, lo), np.where(gap > 0, mid, hi)
    return lo, hi, empty


class VertexForm:
    """The polyhedra {z : A z <= b} of fixed rows A, of unit norm as HPoly
    keeps them, bounded, with a moving right-hand side b, factored once:
    every n-row subset of A whose rows are independent, and its inverse.

    At any b the vertex candidates are one stacked product, and those within
    1e-8 (1 + |b|) of every row are the vertices (a degenerate vertex
    repeats).  A bounded polyhedron has a vertex unless it is empty, so no
    feasible candidate is the emptiness verdict.  The one vertex enumerator
    of H-polyhedra: each bounded n-D HPoly has one (HPoly._form, one-off
    over the gate), and a game shares one per player across its slices.
    """

    def __init__(self, A, subsets, inverses):
        self.A, self.subsets, self.inverses = A, subsets, inverses

    @staticmethod
    def of(A) -> "VertexForm | None":
        """The form of rows A, or None when A has one column, more than
        _VERTEX_FORM_SUBSETS row subsets, or {A z <= b} is unbounded, which
        one LP on the recession cone decides."""
        form = VertexForm._factored(A)
        return form if form is not None and _lp.recession_cone_is_zero(A) else None

    @staticmethod
    def _factored(A, cap=_VERTEX_FORM_SUBSETS) -> "VertexForm | None":
        """The form of rows A known to bound {A z <= b}, or None when A has
        one column, more than cap row subsets, or rank < n.  Only subsets
        of rank n are kept, so no candidate is a point of an edge."""
        m, n = A.shape
        if n < 2 or _lp._ncr(m, n) > cap:
            return None
        S = np.array(list(itertools.combinations(range(m), n)), dtype=int).reshape(-1, n)
        full = np.linalg.matrix_rank(A[S]) == n
        if not full.any():
            return None
        return VertexForm(A, S[full], np.linalg.inv(A[S[full]]))

    def candidates(self, B):
        """(V, feasible): V[g, k] solves subset k at the right-hand side
        B[g], and feasible[g, k] says whether it passes the test."""
        V = np.einsum("kij,gkj->gki", self.inverses, B[:, self.subsets])
        tol = _VERTEX_FEAS_RTOL * (1.0 + np.abs(B[:, None, :]))
        # G x K x m gaps a chunk of subsets at a time, about a million at most
        step = max(1, 2**20 // (len(B) * len(self.A)))
        ok = [np.all(V[:, s:s + step] @ self.A.T - B[:, None, :] <= tol, axis=2)
              for s in range(0, V.shape[1], step)]
        return V, np.concatenate(ok, axis=1)

    def support(self, B, C):
        """max <C[g], z> over each {A z <= B[g]}; -inf where it is empty."""
        # G x K x m gaps at a time, at most about a million of them
        step = max(1, 2**20 // (len(self.subsets) * len(self.A)))
        out = []
        for s in range(0, len(B), step):
            V, ok = self.candidates(B[s:s + step])
            vals = np.einsum("gki,gi->gk", V, C[s:s + step])
            out.append(np.where(ok, vals, -np.inf).max(axis=1))
        return np.concatenate(out)

    def body(self, b, strict=None) -> HPoly:
        """{z : A z <= b} (strict rows open) as a bounded HPoly on this
        form, which answers emptiness, vertices, bounding box and linear
        maximization from its candidates."""
        P = HPoly._on_unit_rows(self.A, b, strict)
        vars(P).update(_form=self, _bounded=True)
        return P


def _unit_norms(A):
    """(norms, keep): the row norms of A, with rows already at unit norm
    taken as exactly 1 so that dividing leaves them bit-identical (save/load
    idempotence), and the mask of rows long enough to keep."""
    norms = np.linalg.norm(A, axis=1)
    return np.where(np.abs(norms - 1.0) <= 1e-12, 1.0, norms), norms > 1e-13


def _sorted_unique(vs):
    """Rows of vs sorted lexicographically, near-duplicates (within
    _VERTEX_DEDUP) dropped: the order vertices() promises."""
    vs = vs[np.lexsort(vs.T[::-1])]
    keep = [0]
    for i in range(1, len(vs)):
        if np.linalg.norm(vs[i] - vs[keep[-1]]) > _VERTEX_DEDUP:
            keep.append(i)
    # lexsort can leave equal vertices non-adjacent only with exact ties; a
    # final greedy pass checks each row against the kept ones whose first
    # coordinate lies within twice the tolerance (a pair within it differs
    # by no more in x0, and the margin covers the rounding of the window)
    uniq, firsts = [], []
    for v in vs[keep]:
        near = uniq[bisect.bisect_left(firsts, v[0] - 2.0 * _VERTEX_DEDUP):]
        if all(np.linalg.norm(v - u) > _VERTEX_DEDUP for u in near):
            uniq.append(v)
            firsts.append(v[0])
    return np.array(uniq)


# --------------------------------------------------------------------------
# separation and normal cones


@dataclass(frozen=True)
class ConeSection:
    """Unit generators of (normal cone) ∩ (unit ball); co of them downstream.

    whole_space encodes N = R^dim (empty body convention).  An empty
    generator list with whole_space False is the zero cone.
    """

    dim: int
    generators: np.ndarray
    whole_space: bool = False

    @staticmethod
    def whole(dim: int) -> "ConeSection":
        return ConeSection(dim, np.zeros((0, dim)), whole_space=True)

    @staticmethod
    def zero(dim: int) -> "ConeSection":
        return ConeSection(dim, np.zeros((0, dim)))

    @staticmethod
    def from_vectors(vs, dim: int) -> "ConeSection":
        arr = np.asarray(vs, dtype=float).reshape(-1, dim)
        out = []
        for v in arr:
            n = np.linalg.norm(v)
            if n < 1e-12:
                continue
            u = v / n
            if all(abs(u @ w - 1.0) > 1e-12 for w in out):
                out.append(u)
        return ConeSection(dim, np.array(out).reshape(-1, dim))

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def min_norm_point(self) -> np.ndarray:
        """Min-norm point of co(generators); 0 for whole_space or zero cone.

        One generator is its own hull; a 1-D hull with generators of both
        signs contains 0.  Anything else goes to the enumeration.
        """
        if self.whole_space or self.n_generators == 0:
            return np.zeros(self.dim)
        if self.n_generators == 1:
            return self.generators[0].copy()
        if self.dim == 1 and self.generators.min() < 0.0 < self.generators.max():
            return np.zeros(1)
        return _min_norm_hull_point(self.generators)


def _min_norm_hull_point(G):
    """Exact min-norm point of co(rows of G) by support enumeration (Wolfe)."""
    k, n = G.shape
    best, best_norm = G[0], np.linalg.norm(G[0])
    for size in range(1, min(k, n + 1) + 1):
        for S in itertools.combinations(range(k), size):
            Gs = G[list(S)]
            M = np.zeros((size + 1, size + 1))
            M[:size, :size] = Gs @ Gs.T
            M[:size, size] = -1.0
            M[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            lam = sol[:size]
            if np.any(lam < -1e-12):
                continue
            p = Gs.T @ lam
            # Wolfe optimality over the full generator set
            if np.all(G @ p >= p @ p - 1e-10):
                nn = np.linalg.norm(p)
                if nn < best_norm - 1e-15:
                    best, best_norm = p, nn
                if nn <= 1e-10:
                    return p
    return best


def separate(body: ConvexBody, y):
    """A unit functional y* with <y*, z - y> <= 0 for all z in cl(body).

    Exterior points get the normalized projection residual; boundary points
    get the average of active face normals (any single active normal when
    opposite equality normals cancel the average).  Interior points raise.
    """
    y = _as_vec(y, body.dim)
    p = body.project(y)
    r = y - p
    rn = np.linalg.norm(r)
    if rn > 1e-9:
        return r / rn
    gens = _active_normals(body, p)
    if not len(gens):
        raise InteriorPointError("separate() needs y outside the interior")
    avg = np.mean(gens, axis=0)
    n = np.linalg.norm(avg)
    if n > 1e-9:
        return avg / n
    return gens[0]


def _active_normals(body: ConvexBody, p):
    """Unit outward normals of faces active at feasible point p."""
    out = []
    h = body.hrep()
    if h is not None:
        A, b, _ = h
        m = A @ p - b
        for i in range(len(b)):
            if m[i] >= -EPS_ACTIVE * (1.0 + abs(b[i])):
                out.append(A[i])
    if isinstance(body, Ball):
        r = np.linalg.norm(p - body.center)
        if r >= body.radius - EPS_ACTIVE * (1.0 + body.radius) and r > 1e-12:
            out.append((p - body.center) / r)
    return np.array(out).reshape(-1, body.dim)


def tangent_projector(body: ConvexBody) -> np.ndarray:
    """Orthogonal projector onto the tangent space of body's equalities."""
    C, d = body.equalities()
    P = np.eye(body.dim)
    if len(d):
        # rows are unit but possibly redundant; pseudo-inverse is safe
        P -= C.T @ np.linalg.pinv(C @ C.T) @ C
    return P


def normal_cone_generators(body: ConvexBody, y) -> ConeSection:
    """Unit generators of N_body(y) ∩ S[0,1] (convex hull taken downstream).

    Empty body -> whole space (the convention that makes satiated players
    trivially stationary).  Interior y -> zero cone.  Exterior y -> the
    projection residual plus those active-face normals that form an acute
    angle with it; when vertices are enumerable each generator is verified
    against them and violators are dropped.
    """
    if body.is_empty(eps_open=0.0):
        return ConeSection.whole(body.dim)
    y = _as_vec(y, body.dim)
    p = body.project(y)
    r = y - p
    rn = np.linalg.norm(r)
    actives = _active_normals(body, p)
    if rn <= 1e-9:
        return ConeSection.from_vectors(actives, body.dim)
    rhat = r / rn
    gens = [rhat]
    for a in actives:
        if a @ rhat >= -1e-9:
            gens.append(a)
    gens = np.array(gens)
    try:
        vs = body.vertices()
    except EnumerationError:
        vs = None
    if vs is not None and len(vs):
        ok = [g for g in gens if np.max(vs @ g) - g @ y <= 1e-8]
        gens = np.array(ok) if ok else gens[:1]
    return ConeSection.from_vectors(gens, body.dim)


def polar_check(cone: ConeSection, d, tol: float = 1e-9) -> bool:
    """Is d in the polar of the cone spanned by the section?"""
    d = _as_vec(d, cone.dim)
    if cone.whole_space:
        return bool(np.linalg.norm(d) <= tol)
    if cone.n_generators == 0:
        return True
    return bool(np.max(cone.generators @ d) <= tol)


def maximize(body: ConvexBody, c, Q=None):
    """(value, argmax) of max 0.5 z'Qz + <c, z> over the closure of body.

    Q absent or zero (every entry at most 1e-13) is the support function:
    closed forms for Box, Simplex, Ball and a 1-D HPoly (read as its
    interval), the best feasible vertex candidate of a bounded polyhedron of
    2 or more dimensions within the _VERTEX_FORM_SUBSETS gate (HPoly._form),
    else one LP.  A nonzero Q must be negative semidefinite.  A diagonal Q
    over a Box or a 1-D HPoly separates into one clip per coordinate; any
    other Q is
    answered by exact KKT enumeration over the rows and equalities (hrep()
    rows are the closure's: only the strict flags differ; an equality's
    +/- pair is passed as the equality).
    Raises
    UnboundedLP when the maximum is unbounded, EmptyBodyError when a zero
    row empties the polyhedron, EnumerationError for a Ball with a nonzero
    Q, the one body with neither a closed form nor an H-representation.
    """
    c = _as_vec(c, body.dim)
    quadratic = Q is not None and np.abs(Q).max(initial=0.0) > 1e-13
    if quadratic:
        Q = np.asarray(Q, dtype=float)
        q = np.diag(Q)
        separable = np.count_nonzero(Q) == np.count_nonzero(q) and bool((q <= 0.0).all())
    else:
        q, separable = np.zeros(body.dim), True
        if isinstance(body, Simplex):
            j = int(np.argmax(c))
            return float(body.scale * c[j]), body.scale * np.eye(body.dim)[j]
        if isinstance(body, Ball):
            n = np.linalg.norm(c)
            z = body.center + (body.radius / n) * c if n > 0 else body.center.copy()
            return float(c @ body.center + body.radius * n), z
    if separable and isinstance(body, Box):
        z = _argmax_separable(c, q, body.lo, body.hi)
        val = 0.5 * z @ Q @ z + c @ z if quadratic else np.sum(c * z)
        return float(val), z
    if body._rows is None:
        raise EnumerationError(f"no maximization over kind={body.kind!r}")
    if separable and isinstance(body, HPoly) and body.dim == 1:
        interval = body._interval  # None when empty, poisoned included
        if interval is None:
            raise EmptyBodyError("maximization over an empty polyhedron")
        c0 = float(c[0])
        z = np.array([_interval_argmax(c0, float(q[0]), *interval)])
        if quadratic:
            return float(0.5 * z @ Q @ z + c @ z), z
        return (c0 * float(z[0]) if c0 != 0.0 else 0.0), z
    if body._poisoned:
        raise EmptyBodyError("maximization over an empty polyhedron")
    if not quadratic and body._form is not None:
        V = body._candidates
        if not len(V):
            raise EmptyBodyError("maximization over an empty polyhedron")
        vals = V @ c
        k = int(np.argmax(vals))
        return float(vals[k]), V[k].copy()
    # each equality once, as an equality, not also as its two rows
    h = body._rows
    first, paired = _pair_masks(*h)
    A, b = h[0][~paired], h[1][~paired]
    eq = (h[0][first], h[1][first]) if first.any() else (None, None)
    if quadratic:
        val, z = _lp.max_concave_quad(Q, c, A, b, *eq)
    else:
        val, z = _lp.max_linear(c, A, b, *eq)
    return float(val), z


def _argmax_separable(c, q, lo, hi):
    """argmax of sum_j 0.5 q_j z_j^2 + c_j z_j over the box [lo, hi], q <= 0.

    Each coordinate is its own 1-D problem: the clipped stationary point when
    q_j < 0, else the end point that c_j points to, or clip(0, lo_j, hi_j)
    when c_j == 0, which is finite whatever the bounds.  Raises UnboundedLP
    when such an end point is infinite.
    """
    z = _clip_argmax(c, q, lo, hi)
    if not np.all(np.isfinite(z)):
        raise _lp.UnboundedLP("maximum over an unbounded box or interval")
    return z


def _clip_argmax(c, q, lo, hi):
    """_argmax_separable elementwise, with an infinite entry where the
    maximum is unbounded; the arguments broadcast.

    Each clip to [lo, hi] is np.clip's, maximum(x, lo) then minimum(., hi):
    a tie returns the bound (so clip(0.0, -0.0, hi) is -0.0) and a NaN
    stays NaN, without np.clip's Python wrapper.  _interval_argmax is the
    same rule on one coordinate; tests/test_convexsets.py holds both to the
    np.clip form bit for bit, signed zeros included.
    """
    z = np.where(c > 0, hi, np.where(c < 0, lo, np.minimum(np.maximum(0.0, lo), hi)))
    curved = np.less(q, 0.0)
    if curved.any():
        t = -c / np.where(curved, q, -1.0)
        z = np.where(curved, np.minimum(np.maximum(t, lo), hi), z)
    return z


def _interval_argmax(c, q, lo, hi):
    """_clip_argmax of one coordinate, on floats; raises UnboundedLP when
    the end point it takes is infinite."""
    if q < 0.0 or not (c > 0 or c < 0):
        # the stationary point (0 when flat), clipped by np.clip's rule:
        # the bound on a tie, NaN kept
        t = -c / q if q < 0.0 else 0.0
        t = t if t > lo or t != t else lo
        t = t if t < hi or t != t else hi
    else:
        t = hi if c > 0 else lo  # the end point c points to, as it is
    if not math.isfinite(t):
        raise _lp.UnboundedLP("maximum over an unbounded box or interval")
    return t


def support_max(body: ConvexBody, c) -> float:
    """max over the closure of <c, z>; raises UnboundedLP when unbounded."""
    return maximize(body, c)[0]


def hull_body(points: np.ndarray) -> ConvexBody:
    """Convex hull of finitely many points as a closed body.

    Full-dimensional hulls go through qhull; 1-d (segment) hulls are built
    directly so degenerate unions stay usable in any ambient dimension.
    """
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    dim = pts.shape[1]
    if dim == 1:
        return Box([pts.min()], [pts.max()])
    center = pts.mean(axis=0)
    U, s, Vt = np.linalg.svd(pts - center, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if len(s) else 0.0)))
    if rank >= 2 and rank == dim:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(pts)
        body = HPoly(hull.equations[:, :-1], -hull.equations[:, -1])
        # qhull's vertices spare vertices() its enumeration, and a hull is
        # bounded with no recession-cone LP
        object.__setattr__(body, "_vertices", _sorted_unique(pts[hull.vertices]))
        object.__setattr__(body, "_bounded", True)
        return body
    if rank == 0:
        p = pts[0]
        return Box(p, p)
    if rank == 1:
        u = Vt[0]
        t = (pts - center) @ u
        rows = [u, -u]
        rhs = [center @ u + t.max(), -(center @ u + t.min())]
        for j in range(1, dim):
            v = Vt[j]
            rows.extend([v, -v])
            rhs.extend([center @ v, -(center @ v)])
        return HPoly(np.array(rows), np.array(rhs))
    raise EnumerationError("hull of points lower-dimensional but rank >= 2")
