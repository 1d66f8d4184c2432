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

Everything runs on the two parity blocks: an even Hamiltonian is
block-diagonal in the even and odd particle-number states.
``local_hamiltonian`` adds each term's cached entries straight into the two
blocks and returns an even ``FockOperator`` built from them, and
``sector_eigh`` diagonalizes those half-size blocks.  The one parity check
is the even tag of every term, made when the term is built.  A
time-independent interaction is diagonalized once for a whole time grid,
U(t, s) = V e^{-i w (t-s)} V*.  The propagator is an even ``FockOperator``
built from its two blocks, and ``heisenberg`` computes U* A U through the
block product of ``fock``; a dense matrix is assembled only when one of
these operators' ``matrix`` is read, and never kept.
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
    """Term template embedded into ``lam``, kept as its nonzero entries on
    the two parity blocks stacked flat, even block first: (flat index,
    values).  Basis state k is the (k >> 1)-th state of its sector."""
    stacked = np.concatenate([b.ravel() for b in fock.embed(term_obj.operator, lam).blocks])
    flat = np.flatnonzero(stacked)
    entries = flat, stacked[flat]
    for a in entries:
        a.flags.writeable = False
    return entries


def local_hamiltonian(phi: Interaction, lam: SiteSet, t: float = 0.0) -> FockOperator:
    """Sum of all terms supported inside ``lam``, on the ambient Fock space:
    an even operator built from its two parity blocks, each term's entries
    added into them in term order."""
    phi.check_time(t)
    ambient = set(lam.sites)
    n0, n1 = (index.size for index in fock._sector_index(lam.dim))
    acc = np.zeros(n0 * n0 + n1 * n1, dtype=complex)
    support = set()
    for term_obj in phi.terms:
        if not set(term_obj.sites) <= ambient:
            continue
        c = term_obj.coefficient(t)
        if c == 0.0:
            continue
        flat, values = _embedded_sparse(term_obj, lam)
        acc[flat] += c * values
        support |= set(term_obj.sites)
    blocks = acc[:n0 * n0].reshape(n0, n0), acc[n0 * n0:].reshape(n1, n1)
    return FockOperator.from_blocks(blocks, lam, frozenset(support), EVEN)


def sector_eigh(H: FockOperator) -> tuple:
    """Eigendecompositions ``((w, v), (w, v))`` of the even and the odd
    parity block of an even self-adjoint operator: the block of H on the
    basis states of sector c (``fock._sector_index``) is v diag(w) v*.

    Only the blocks are read: the even tag, checked where H was built, is
    the one parity check.  An operator not tagged even raises ValueError.
    """
    if H.parity != EVEN:
        raise ValueError(f"sector_eigh needs an even operator, got {H.parity!r}")
    return tuple(np.linalg.eigh(b) for b in H.blocks)


def _sector_exp(sectors: tuple, factor: complex) -> list:
    """exp(factor * H) on each sector block, from ``sector_eigh(H)``."""
    return [(v * np.exp(factor * w)) @ v.conj().T for w, v in sectors]


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
                static = sector_eigh(local_hamiltonian(phi, lam, s))
            blocks, defect, corrections = _unitarize(_sector_exp(static, -1j * (t - s)))
            steps = 1
        elif t != prev:
            n_steps = max(1, math.ceil(abs(t - prev) / step))
            dt = (t - prev) / n_steps
            for k in range(n_steps):
                H = local_hamiltonian(phi, lam, prev + (k + 0.5) * dt)
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
