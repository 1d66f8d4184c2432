"""Light-cone certification: measured norms of evolved (anti)commutators
against the explicit decay bound.

For disjointly supported A, B with [A, B] = 0 (which parity guarantees
when one of them is even), the evolved commutator obeys

    ||[tau_{t,s}(A), B]|| <= 2 ||A|| ||B|| (e^{2 I(s,t)} - 1) * Sigma,

with I(s,t) the time integral of the interaction decay norm ||Phi||_G and

    Sigma = sum_{x in boundary(X)} sum_{y in Y} G(x, y)

the geometry factor over the interaction boundary of supp(A).  The same
right-hand side bounds ||{tau_{t,s}(A), B}|| when both observables are
odd.  The bound arises as a series: the n-th term is controlled by
(2 I)^n / n! times the geometry factor, and truncating after N terms
leaves a remainder below 2 ||B|| |boundary(X)| ||G|| (2I)^{N+1} / (N+1)!.

``certify`` measures the left-hand side on a time grid, evaluates the
right-hand side, and fails hard if any grid point violates the
inequality.  The bound integrals of the whole grid come from one pass over
the interaction's decay norms.  Every term carries the same profile
(``dynamics.Eigenbasis``: static runs and the ramps of ``scaled_profile``;
``dynamics.eigenbasis`` refuses any other interaction), so A and B are
rotated once into the eigenbasis of H_0 per parity sector,
A~[c] = V[c ^ p]* A[c] V[c], and each grid point is an entrywise phase,
tau~[c] = conj(d[c ^ p])[:, None] * A~[c] * d[c][None, :] with
d = e^{-i w F}, followed by the bracket with B~; the norm is the same as in
the site basis.  The commutator of two self-adjoint observables is X - X*
with X = tau(A) B: one block product, and exactly anti-Hermitian, so its
norm takes the symmetric eigensolver.

Single-site terms enter the decay norm like every other term; the sharper
interaction-picture treatment under which purely on-site terms drop out
of the estimate is deliberately not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dynamics import Interaction, checked_grid, eigenbasis
from .errors import CertificationError
from .fock import EVEN, ODD, FockOperator, anticommutator, commutator, op_norm
from .geometry import GFunction, interaction_norm_integrals, phi_boundary

COMMUTATOR = "commutator"
ANTICOMMUTATOR = "anticommutator"

#: relative slack on the certified inequality, plus a tiny absolute floor
#: (scale 2||A|| ||B||) so the t=s point is decidable on generic inputs
CERT_RTOL = 1e-9
CERT_ATOL_SCALE = 1e-12


def lr_rhs(norm_a: float, norm_b: float, phi_norm_integral: float,
           geometry: float) -> float:
    """2 ||A|| ||B|| (exp(2 * integral) - 1) * geometry factor."""
    if min(norm_a, norm_b, phi_norm_integral, geometry) < 0:
        raise ValueError("all bound ingredients must be nonnegative")
    arg = 2.0 * phi_norm_integral
    if arg > 700.0:  # exp overflow; the bound is vacuously +inf
        return math.inf
    return 2.0 * norm_a * norm_b * math.expm1(arg) * geometry


@dataclass(frozen=True, eq=False)
class LRBoundReport:
    """Measured (anti)commutator norms against the closed-form bound on a
    time grid, with the geometry data that produced the bound."""

    mode: str
    start: float
    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    ratio: np.ndarray
    norm_a: float
    norm_b: float
    support_a: tuple
    support_b: tuple
    boundary_sites: tuple
    geometry_factor: float
    g_norm: float
    phi_integrals: np.ndarray
    step: float

    def rows(self):
        for t, m, b, r in zip(self.times, self.measured, self.bound, self.ratio):
            yield {"t": float(t), "measured": float(m), "bound": float(b),
                   "ratio": float(r), "mode": self.mode}

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "start": self.start,
            "times": [float(t) for t in self.times],
            "measured": [float(m) for m in self.measured],
            "bound": [float(b) for b in self.bound],
            "ratio": [float(r) for r in self.ratio],
            "norm_a": self.norm_a,
            "norm_b": self.norm_b,
            "support_a": [repr(s) for s in self.support_a],
            "support_b": [repr(s) for s in self.support_b],
            "boundary_sites": [repr(s) for s in self.boundary_sites],
            "geometry_factor": self.geometry_factor,
            "g_norm": self.g_norm,
            "phi_integrals": [float(v) for v in self.phi_integrals],
            "step": self.step,
        }


def _infer_mode(A: FockOperator, B: FockOperator) -> str:
    if A.parity == ODD and B.parity == ODD:
        return ANTICOMMUTATOR
    if EVEN in (A.parity, B.parity):
        return COMMUTATOR
    raise ValueError(
        "no certifiable mode: need one even observable (commutator) or two "
        "odd ones (anticommutator); got "
        f"{A.parity!r} and {B.parity!r}")


def certify(A: FockOperator, B: FockOperator, phi: Interaction, G: GFunction,
            s: float, times: Iterable[float], mode: str | None = None,
            step: float = 1e-2) -> LRBoundReport:
    """Propagate A, measure ||[tau_{t,s}(A), B]|| (or the anticommutator)
    on the grid, and certify it against the closed-form bound.

    Raises ValueError on misuse (overlapping supports, illegal parity
    combination, nonvanishing initial bracket) and CertificationError if a
    grid point violates the bound -- the latter signals an implementation
    bug, not a property of the model.
    """
    lam = A.ambient
    if B.ambient != lam:
        raise ValueError("A and B must share one ambient lattice")
    if G.graph.sites != lam:
        raise ValueError("G function lives on a different site set")
    X, Y = A.support, B.support
    if X & Y:
        raise ValueError("supports must be disjoint")
    if mode is None:
        mode = _infer_mode(A, B)
    elif mode not in (COMMUTATOR, ANTICOMMUTATOR):
        raise ValueError(f"unknown mode {mode!r}")
    elif mode == COMMUTATOR and EVEN not in (A.parity, B.parity):
        raise ValueError("commutator mode needs at least one even observable")
    elif mode == ANTICOMMUTATOR and (A.parity, B.parity) != (ODD, ODD):
        raise ValueError("anticommutator mode needs two odd observables")

    bracket = commutator if mode == COMMUTATOR else anticommutator
    norm_a, norm_b = op_norm(A), op_norm(B)
    initial = op_norm(bracket(A, B))
    if initial > 1e-10 * max(1.0, norm_a * norm_b):
        raise ValueError(f"initial {mode} does not vanish: {initial:.3e}")

    times = np.asarray(sorted(float(t) for t in times))
    if times.size == 0:
        raise ValueError("empty time grid")
    if times[0] < s:
        raise ValueError("grid times must not precede the start time")
    checked_grid(phi, s, times, step)

    window = (s, float(times[-1]))
    boundary = lam.restrict(phi_boundary(phi, X, interval=window)).sites
    geometry = G.pair_sum(boundary, lam.restrict(Y).sites)
    integrals = interaction_norm_integrals(phi, G, s, times)
    bound = np.array([lr_rhs(norm_a, norm_b, float(v), geometry) for v in integrals])

    if mode == COMMUTATOR and A.is_hermitian() and B.is_hermitian():
        bracket = _hermitian_commutator
    # in the eigenbasis; U(s, s) is the identity, so t = s keeps A and B
    basis = eigenbasis(phi, lam)
    a, b = basis.rotate(A), basis.rotate(B)
    pairs = ((A, B) if t == s else (basis.evolve(a, F), b)
             for t, (F, _, _) in zip(times, basis.integrals(s, times, step)))
    measured = np.array([op_norm(bracket(tau, b)) for tau, b in pairs])

    floor = CERT_ATOL_SCALE * max(1.0, norm_a * norm_b)
    violated = measured > bound * (1 + CERT_RTOL) + floor
    if violated.any():
        i = int(np.argmax(np.where(violated, measured - bound, -np.inf)))
        t, m, b = float(times[i]), float(measured[i]), float(bound[i])
        raise CertificationError(f"bound violated at t={t}: measured {m:.6e} > bound {b:.6e}",
                                 where=t, measured=m, bound=b)

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(bound > 0, measured / bound, 0.0)
    return LRBoundReport(
        mode=mode, start=s, times=times, measured=measured, bound=bound,
        ratio=ratio, norm_a=norm_a, norm_b=norm_b,
        support_a=lam.restrict(X).sites, support_b=lam.restrict(Y).sites,
        boundary_sites=tuple(boundary), geometry_factor=geometry,
        g_norm=G.norm, phi_integrals=integrals, step=step)


def _hermitian_commutator(tau: FockOperator, B: FockOperator) -> FockOperator:
    """[tau, B] = X - X* with X = tau B, for self-adjoint tau and B: one
    product, and the result is exactly anti-Hermitian."""
    X = tau @ B
    return X - X.adjoint()


@dataclass(frozen=True)
class SeriesDiagnostics:
    """Truncated series for the bound: cumulative partial sums of the
    per-order terms (scaled by 2||A|| ||B||) and the tail estimate."""

    partial_sums: np.ndarray
    remainder: float
    closed_form: float


def series_diagnostics(norm_a: float, norm_b: float, phi_norm_integral: float,
                       geometry: float, boundary_size: int, g_norm: float,
                       nmax: int) -> SeriesDiagnostics:
    """Orders 1..nmax of the expansion behind the closed-form bound.

    The n-th order contributes at most 2||A|| ||B|| (2I)^n / n! * geometry;
    the tail after nmax is below 2 ||B|| |boundary| ||G|| (2I)^{nmax+1} /
    (nmax+1)!.
    """
    if nmax < 1:
        raise ValueError("need at least one series order")
    x = 2.0 * phi_norm_integral
    terms = np.zeros(nmax)
    t = 1.0
    for n in range(1, nmax + 1):
        t *= x / n
        terms[n - 1] = 2.0 * norm_a * norm_b * t * geometry
    remainder = 2.0 * norm_b * boundary_size * g_norm * t * x / (nmax + 1)
    closed = lr_rhs(norm_a, norm_b, phi_norm_integral, geometry)
    return SeriesDiagnostics(np.cumsum(terms), float(remainder), closed)
