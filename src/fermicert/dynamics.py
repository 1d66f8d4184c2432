"""Interactions, finite-volume Hamiltonians, and the Heisenberg dynamics.

An interaction is a finite list of terms, each a self-adjoint even
operator on a small site subset with an optional real time profile.  The
local Hamiltonian on a volume collects every term supported inside it,

    H_Lambda(t) = sum_{X subset Lambda} Phi(X, t),

and the two-parameter unitary propagator solves

    d/dt U(t, s) = -i H(t) U(t, s),   U(s, s) = 1.

Propagation uses second-order midpoint stepping with an exact Hermitian
eigendecomposition exponential per step, so every step is unitary by
construction; the accumulated unitarity defect is tracked and a polar
re-orthonormalization is applied if it ever exceeds the tolerance.
Only even interactions are accepted: evenness is what makes the dynamics
preserve the parity sectors and is assumed by every bound downstream.

Every exponential is taken per parity sector: an even Hamiltonian is
block-diagonal in the even and odd particle-number states, so
``sector_eigh`` diagonalizes the two half-size blocks (and refuses a matrix
with any nonzero entry between them).  A time-independent interaction is
diagonalized once for a whole time grid, U(t, s) = V e^{-i w (t-s)} V*.
The propagator is an even ``FockOperator`` built from those two blocks,
which assembles its dense matrix only when it is first read, and
``heisenberg`` computes U* A U through the block product of ``fock``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fock
from .fock import EVEN, FockOperator, SiteSet

#: propagator unitarity defect above which a polar correction is applied
UNITARITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InteractionTerm:
    """One interaction term: a self-adjoint template on its own small
    lattice, scaled by a real profile (None = constant 1)."""

    sites: tuple
    operator: FockOperator
    profile: Callable[[float], float] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(self.sites))
        if self.operator.ambient.sites != self.sites:
            raise ValueError("term operator must live on exactly its sites, in order")
        if not self.operator.is_hermitian():
            raise ValueError("term template must be self-adjoint")
        object.__setattr__(self, "norm", fock.op_norm(self.operator))

    norm: float = field(init=False)

    def coefficient(self, t: float) -> float:
        return 1.0 if self.profile is None else float(self.profile(t))


@dataclass(frozen=True, eq=False)
class Interaction:
    """Finite collection of interaction terms with a time interval of
    validity.  Every term must carry the even parity tag."""

    terms: tuple
    interval: tuple = (-math.inf, math.inf)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        for term in self.terms:
            if term.operator.parity != EVEN:
                raise ValueError(f"term on sites {term.sites} is not even-tagged; only "
                                 "even interactions generate the certified dynamics")

    @property
    def is_time_dependent(self) -> bool:
        return any(term.profile is not None for term in self.terms)

    def check_time(self, t: float):
        lo, hi = self.interval
        if not (lo <= t <= hi):
            raise ValueError(f"time {t} outside interaction interval [{lo}, {hi}]")


def scaled_profile(phi: Interaction, profile: Callable[[float], float],
                   interval: tuple) -> Interaction:
    """New interaction with every term's coefficient multiplied by
    ``profile``; used e.g. for ramped couplings."""
    new_terms = []
    for t in phi.terms:
        if t.profile is None:
            combined = profile
        else:
            combined = (lambda r, old=t.profile: old(r) * profile(r))
        new_terms.append(InteractionTerm(t.sites, t.operator, combined, t.label))
    return Interaction(tuple(new_terms), interval)


@lru_cache(maxsize=4096)
def _embedded_sparse(term_obj: InteractionTerm, lam: SiteSet) -> tuple:
    """Term template embedded into ``lam``, kept as its nonzero entries:
    (rows, cols, values) in row-major order, for accumulation."""
    m = fock.embed(term_obj.operator, lam).matrix
    rows, cols = np.nonzero(m)
    entries = rows, cols, m[rows, cols]
    for a in entries:
        a.flags.writeable = False
    return entries


def term_operator(term_obj: InteractionTerm, lam: SiteSet) -> FockOperator:
    """Phi(X, 0) represented on the Fock space of ``lam``."""
    rows, cols, values = _embedded_sparse(term_obj, lam)
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    m[rows, cols] = values
    return FockOperator(m * term_obj.coefficient(0.0), lam, frozenset(term_obj.sites),
                        term_obj.operator.parity)


def local_hamiltonian(phi: Interaction, lam: SiteSet, t: float = 0.0) -> FockOperator:
    """Sum of all terms supported inside ``lam``, on the ambient Fock space."""
    phi.check_time(t)
    ambient = set(lam.sites)
    acc = np.zeros((lam.dim, lam.dim), dtype=complex)
    support = set()
    for term_obj in phi.terms:
        if not set(term_obj.sites) <= ambient:
            continue
        c = term_obj.coefficient(t)
        if c == 0.0:
            continue
        rows, cols, values = _embedded_sparse(term_obj, lam)
        acc[rows, cols] += c * values
        support |= set(term_obj.sites)
    return FockOperator(acc, lam, frozenset(support), EVEN)


def sector_eigh(H: np.ndarray) -> tuple:
    """Eigendecompositions of the two parity blocks of an even Hermitian
    matrix.

    Returns ``((index, w, v), (index, w, v))`` for the even and the odd
    sector: ``index`` lists the sector's basis states and the block of H
    on them is ``v diag(w) v*``.  Raises ValueError if any entry of the two
    blocks between the sectors is nonzero.
    """
    dim = H.shape[0]
    if any(H[rows, cols].any() for rows, cols in fock._sector_mesh(dim, 1)):
        raise ValueError("matrix couples the even and odd parity sectors")
    return tuple((index, *np.linalg.eigh(H[rows, cols])) for index, (rows, cols)
                 in zip(fock._sector_index(dim), fock._sector_mesh(dim, 0)))


def _sector_exp(sectors: tuple, factor: complex) -> list:
    """exp(factor * H) on each sector block, from ``sector_eigh(H)``."""
    return [(v * np.exp(factor * w)) @ v.conj().T for _, w, v in sectors]


def _unitarize(blocks: list) -> tuple:
    """(blocks, unitarity defect, corrections): a polar correction of every
    block if the largest defect exceeds UNITARITY_TOL."""
    def defect(bs):
        return max(fock.op_norm(b.conj().T @ b - np.eye(len(b))) for b in bs)

    worst = defect(blocks)
    if worst <= UNITARITY_TOL:
        return blocks, worst, 0
    blocks = [w @ vh for w, _, vh in (np.linalg.svd(b) for b in blocks)]
    return blocks, defect(blocks), 1


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary U(t, s) solving the Schroedinger equation for the local
    Hamiltonian, with step-size and unitarity metadata.

    ``operator`` is U, an even ``FockOperator`` built from its two parity
    blocks (even sector, odd sector).
    """

    operator: FockOperator
    s: float
    t: float
    step: float
    unitarity_defect: float
    corrections: int
    steps_taken: int


def propagate_grid(phi: Interaction, lam: SiteSet, s: float, times,
                   step: float = 1e-2):
    """Yield the propagator U(t, s) for every time of ``times``, in sorted
    order.

    A time-independent interaction is diagonalized once and every U(t, s)
    is its exact exponential.  Otherwise U is carried from one grid time to
    the next by second-order midpoint stepping, ceil(|dt|/step) steps per
    segment, with per-step exponentials.  U(s, s) is the exact identity.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    times = sorted(float(t) for t in times)
    for r in (s, *times):
        phi.check_time(r)
    static = None     # sector_eigh(H) of a time-independent interaction

    def unitary(blocks):
        return FockOperator.from_blocks(blocks, lam, frozenset(lam.sites), EVEN)

    identity = [np.eye(len(index), dtype=complex) for index in fock._sector_index(lam.dim)]
    blocks = identity
    prev, dt, defect, corrections, steps = s, step, 0.0, 0, 0
    for t in times:
        if t == s:
            yield Propagator(unitary(identity), s, t, step, 0.0, 0, 0)
            continue
        if not phi.is_time_dependent:
            if static is None:
                static = sector_eigh(local_hamiltonian(phi, lam, s).matrix)
            blocks, defect, corrections = _unitarize(_sector_exp(static, -1j * (t - s)))
            steps = 1
        elif t != prev:
            n_steps = max(1, math.ceil(abs(t - prev) / step))
            dt = (t - prev) / n_steps
            for k in range(n_steps):
                H = local_hamiltonian(phi, lam, prev + (k + 0.5) * dt).matrix
                phases = _sector_exp(sector_eigh(H), -1j * dt)
                blocks = [e @ b for e, b in zip(phases, blocks)]
            blocks, defect, fixed = _unitarize(blocks)
            corrections += fixed
            steps += n_steps
            prev = t
        yield Propagator(unitary(blocks), s, t, abs(dt), defect, corrections, steps)


def propagate(phi: Interaction, lam: SiteSet, s: float, t: float,
              step: float = 1e-2) -> Propagator:
    """Unitary propagator U(t, s) for the volume ``lam``: the single-time
    case of ``propagate_grid``."""
    return next(propagate_grid(phi, lam, s, (t,), step))


def heisenberg(A: FockOperator, U: Propagator) -> FockOperator:
    """tau_{t,s}(A) = U(t,s)* A U(t,s); norm and parity preserving.  The
    block product conjugates a definite-parity A block by block,
    (U* A U)[c] = U[c ^ p]* A[c] U[c], and a mixed A densely."""
    return U.operator.adjoint() @ A @ U.operator
