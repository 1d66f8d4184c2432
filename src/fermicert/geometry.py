"""Metric structure on the lattice and the decay functions entering the
light-cone bounds.

An F-function is a non-increasing, strictly positive profile r -> F(r)
whose row sums over the lattice are uniformly bounded,

    ||F|| = sup_x sum_y F(d(x, y)),

and which satisfies the convolution condition

    C = sup_{x,y} sum_z F(d(x,z)) F(d(z,y)) / F(d(x,y)) < infinity.

G(x,y) = F(d(x,y)) / C is then symmetric, has bounded row sums, and is
subordinate to its own convolution, which is exactly what the iteration
behind the commutator bound needs.

All suprema here are exact over the given finite graph; they lower-bound
the corresponding infinite-lattice constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .fock import SiteSet

#: uniform points (an odd number) of the composite Simpson rule for the integral of ||Phi||_G
SIMPSON_SAMPLES = 65


@dataclass(frozen=True, eq=False)
class MetricGraph:
    """Finite site set with a metric given as a dense distance matrix."""

    sites: SiteSet
    distances: np.ndarray
    boundary: str = "open"

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        object.__setattr__(self, "distances", d)
        n = len(self.sites)
        if d.shape != (n, n):
            raise ValueError("distance matrix shape does not match site count")
        if np.abs(d - d.T).max() > 0 or np.abs(np.diag(d)).max() > 0 or d.min() < 0:
            raise ValueError("distances must be symmetric, nonnegative, zero on the diagonal")
        d.flags.writeable = False

    def ball(self, center, radius: float) -> tuple:
        """Sites within ``radius`` of ``center``, in lattice order."""
        i = self.sites.position(center)
        mask = self.distances[i] <= radius + 1e-12
        return tuple(x for x, m in zip(self.sites.sites, mask) if m)


def chain_graph(length: int, boundary: str = "open") -> MetricGraph:
    """One-dimensional slab with sites 0..length-1 and |i-j| (open) or
    ring (periodic) distance: the one-axis ``grid_graph``."""
    return grid_graph([length], boundary)


def grid_graph(lengths: Sequence[int], boundary: str = "open") -> MetricGraph:
    """Hypercubic slab with coordinate-tuple sites and the l1 metric
    (per-axis ring distance when periodic)."""
    lengths = tuple(int(n) for n in lengths)
    if any(n < 1 for n in lengths):
        raise ValueError("all side lengths must be >= 1")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    coords = list(itertools.product(*(range(n) for n in lengths)))
    arr = np.array(coords)
    d = np.zeros((len(coords), len(coords)))
    for axis, n in enumerate(lengths):
        diff = np.abs(arr[:, None, axis] - arr[None, :, axis])
        if boundary == "periodic":
            diff = np.minimum(diff, n - diff)
        d += diff
    sites = SiteSet(coords if len(lengths) > 1 else [c[0] for c in coords])
    return MetricGraph(sites, d.astype(float), boundary)


@dataclass(frozen=True)
class DecayFunction:
    """Power-law profile with optional exponential weight:

        F(r) = exp(-rate * r) / (1 + r)^(nu + epsilon),

    non-increasing and strictly positive for rate >= 0, epsilon > 0.
    """

    nu: int
    epsilon: float
    rate: float = 0.0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.rate < 0:
            raise ValueError("exponential weight must be nonnegative")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.exp(-self.rate * r) / (1.0 + r) ** (self.nu + self.epsilon)


def f_norm(F: Callable, graph: MetricGraph) -> float:
    """sup_x sum_y F(d(x,y)), exact on the finite graph."""
    return float(F(graph.distances).sum(axis=1).max())


def f_conv_constant(F: Callable, graph: MetricGraph) -> float:
    """sup_{x,y} sum_z F(d(x,z)) F(d(z,y)) / F(d(x,y)), exact on the graph."""
    fd = F(graph.distances)
    return float(((fd @ fd) / fd).max())


@dataclass(frozen=True, eq=False)
class GFunction:
    """Pairwise decay weights G(x,y) on a finite graph.

    Required properties (validated by ``defects``): symmetry, convolution
    subordination sum_z G(x,z) G(z,y) <= G(x,y), and bounded row sums;
    ``norm`` is the largest row sum.
    """

    graph: MetricGraph
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = len(self.graph.sites)
        if v.shape != (n, n):
            raise ValueError("G values shape does not match the graph")
        if v.min() <= 0:
            raise ValueError("G must be strictly positive")
        v.flags.writeable = False

    @cached_property
    def norm(self) -> float:
        return float(self.values.sum(axis=1).max())

    def pair_sum(self, xs: Iterable, ys: Iterable) -> float:
        """sum_{x in xs} sum_{y in ys} G(x,y)."""
        pi = list(self.graph.sites.positions(xs))
        pj = list(self.graph.sites.positions(ys))
        if not pi or not pj:
            return 0.0
        return float(self.values[np.ix_(pi, pj)].sum())

    def defects(self) -> dict:
        v = self.values
        conv = float(((v @ v) / v).max() - 1.0)
        sym = float(np.abs(v - v.T).max())
        return {"symmetry": sym, "convolution": conv}


def g_from_f(F: Callable, graph: MetricGraph) -> GFunction:
    """G(x,y) = F(d(x,y)) / C with C the convolution constant of F."""
    c = f_conv_constant(F, graph)
    if not math.isfinite(c) or c <= 0:
        raise ValueError("convolution constant must be finite and positive")
    return GFunction(graph, F(graph.distances) / c)


# -- interaction decay bookkeeping ------------------------------------------

def _g_norms(phi, G: GFunction, times) -> np.ndarray:
    """||Phi||_G at every time of ``times`` in one pass over the terms.

    Each time gets the same sums, in the same term order, as a separate
    evaluation, so every value is the same to the bit.
    """
    sites = G.graph.sites
    n = len(sites)
    acc = np.zeros((len(times), n, n))
    every = np.arange(len(times))
    for term in phi.terms:
        w = np.array([abs(term.coefficient(r)) for r in times]) * term.norm
        if not w.any():
            continue
        pos = list(sites.positions(term.sites))
        acc[np.ix_(every, pos, pos)] += w[:, None, None]
    return (acc / G.values).max(axis=(1, 2), initial=0.0)


def interaction_g_norm(phi, G: GFunction, t: float = 0.0) -> float:
    """Smallest k with sum_{Z containing x,y} ||Phi(Z,t)|| <= k G(x,y) for
    all site pairs: the max over pairs of the ratio."""
    return float(_g_norms(phi, G, (t,))[0])


def interaction_norm_integrals(phi, G: GFunction, s: float, times) -> np.ndarray:
    """Integral of r -> ||Phi||_G(r) over [s, t] for every t of ``times``,
    from one ``_g_norms`` pass.

    Exact for time-independent interactions ((t-s) times the constant, one
    evaluation at s); composite Simpson on SIMPSON_SAMPLES uniform points
    of each [s, t] otherwise, all nodes of all times in the one pass.  The
    integral over [s, s] is 0.
    """
    times = [float(t) for t in times]
    out = np.zeros(len(times))
    moving = [i for i, t in enumerate(times) if t != s]
    if not moving:
        return out
    if not phi.is_time_dependent:
        rate = float(_g_norms(phi, G, (s,))[0])
        for i in moving:
            out[i] = abs(times[i] - s) * rate
        return out
    nodes = np.concatenate([np.linspace(s, times[i], SIMPSON_SAMPLES) for i in moving])
    vals = _g_norms(phi, G, nodes).reshape(len(moving), SIMPSON_SAMPLES)
    weights = np.ones(SIMPSON_SAMPLES)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    for i, row in zip(moving, vals):
        out[i] = abs(float((times[i] - s) / (SIMPSON_SAMPLES - 1) / 3.0 * (weights @ row)))
    return out


def phi_boundary(phi, X: Iterable, interval: tuple | None = None) -> frozenset:
    """Sites of X contained in some interaction term that crosses out of X
    and is nonzero somewhere on the sampled time window.

    Time dependence is probed on a uniform grid of 64 points over
    ``interval`` (default: the interaction's own interval); this is the
    documented grid semantics, faithful for piecewise-smooth profiles.
    """
    X = frozenset(X)
    lo, hi = interval if interval is not None else phi.interval
    times = None
    boundary = set()
    for term in phi.terms:
        z = frozenset(term.sites)
        if not (z & X) or z <= X:
            continue
        if term.norm == 0.0:
            continue
        if term.profile is None:
            active = True
        else:
            if times is None:
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError(
                        "time-dependent interaction on an unbounded interval: "
                        "pass an explicit finite interval")
                times = np.linspace(lo, hi, 64)
            active = any(abs(term.coefficient(r)) > 0.0 for r in times)
        if active:
            boundary |= (z & X)
    return frozenset(boundary)
