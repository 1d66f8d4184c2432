"""Interactions, finite-volume Hamiltonians, and the Heisenberg dynamics.

An interaction is a finite list of terms, each a self-adjoint even
operator on a small site subset with an optional real time profile.  The
local Hamiltonian on a volume collects every term supported inside it,

    H_Lambda(t) = sum_{X subset Lambda} Phi(X, t),

and the two-parameter unitary propagator solves

    d/dt U(t, s) = -i H(t) U(t, s),   U(s, s) = 1.

When every term carries the same profile c (None counts as the constant
1, and ``scaled_profile`` of a time-independent interaction is this case),
H(t) = c(t) H_0 and the propagators of a whole time grid come from one
diagonalization of H_0: U(t, s) = V e^{-i w F} V* on each parity sector,
with F the integral of c (``Eigenbasis``).  A ramp takes F as the midpoint
sum over the steps that midpoint stepping would take, so it keeps their
integration rule; the midpoint factors commute, and their product is
exactly this exponential.  The unitarity defect of V is measured once, and
a polar re-orthonormalization is applied if it exceeds the tolerance.
Only an interaction whose terms carry different profiles is propagated by
second-order midpoint stepping, with an exact Hermitian eigendecomposition
exponential per step and the same defect check on the accumulated product.
Only even interactions are accepted: evenness is what makes the dynamics
preserve the parity sectors and is assumed by every bound downstream.

Everything runs on the (2, h, h) stack of parity blocks of ``fock``: an
even Hamiltonian is block-diagonal in the even and odd particle-number
states.  ``local_hamiltonian`` adds each term's cached entries straight
into the flat stack, and ``sector_eigh`` diagonalizes both half-size blocks
in one batched call.  The one parity check is the even tag of every term,
made when the term is built.  The propagator is an even ``FockOperator``
built from its stack, every exponential and product is batched over the
two blocks, and ``heisenberg`` computes U* A U through the block product
of ``fock``; a dense matrix is assembled only when one of these operators'
``matrix`` is read, and never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fock
from .fock import EVEN, MIXED, FockOperator, SiteSet

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
    the (2, h, h) stack of parity blocks read flat, even block first
    (``fock._stacked_index``): (flat index, values), sorted by flat index.
    They come straight from the signed scatter of ``fock.embed``
    (``fock._embedded_entries``), so no dense or block-sized array is made
    for a term."""
    flat, values = fock._embedded_entries(term_obj.operator, lam)
    order = np.argsort(flat)
    entries = flat[order], values[order]
    for a in entries:
        a.flags.writeable = False
    return entries


def _scatter(phi: Interaction, lam: SiteSet, coefficient) -> FockOperator:
    """Sum of ``coefficient(term) * term`` over the terms supported inside
    ``lam``: an even operator, each term's entries added into its flat stack
    of parity blocks in term order (zero coefficients skipped)."""
    ambient = set(lam.sites)
    h = lam.dim >> 1
    acc = np.zeros(2 * h * h, dtype=complex)
    support = set()
    for term_obj in phi.terms:
        if not set(term_obj.sites) <= ambient:
            continue
        c = coefficient(term_obj)
        if c == 0.0:
            continue
        flat, values = _embedded_sparse(term_obj, lam)
        acc[flat] += c * values
        support |= set(term_obj.sites)
    return FockOperator.from_blocks(acc.reshape(2, h, h), lam, frozenset(support), EVEN)


def local_hamiltonian(phi: Interaction, lam: SiteSet, t: float = 0.0) -> FockOperator:
    """Sum of all terms supported inside ``lam`` at time t, on the ambient
    Fock space: an even operator built from its stack of parity blocks, each
    term's entries added in term order.  An empty ``lam`` raises ValueError."""
    phi.check_time(t)
    return _scatter(phi, lam, lambda term_obj: term_obj.coefficient(t))


def sector_eigh(H: FockOperator) -> tuple:
    """The batched eigendecomposition ``(w, v)`` of the parity blocks of an
    even self-adjoint operator: the block of H on the basis states of sector
    c (``fock._sector_index``) is v[c] diag(w[c]) v[c]*.

    Only the blocks are read: the even tag, checked where H was built, is
    the one parity check.  An operator not tagged even raises ValueError.
    """
    if H.parity != EVEN:
        raise ValueError(f"sector_eigh needs an even operator, got {H.parity!r}")
    return np.linalg.eigh(H.blocks)


def _sector_exp(w: np.ndarray, v: np.ndarray, factor: complex) -> np.ndarray:
    """The stack exp(factor * H) of both sector blocks, from ``sector_eigh(H)``."""
    return (v * np.exp(factor * w)[:, None, :]) @ fock.adjoint(v)


def _unitarize(blocks: np.ndarray) -> tuple:
    """(blocks, unitarity defect, corrections): a polar correction of both
    blocks of the stack if the larger defect exceeds UNITARITY_TOL."""
    def defect(bs):
        return fock.op_norm(fock.adjoint(bs) @ bs - np.eye(bs.shape[-1]))

    worst = defect(blocks)
    if worst <= UNITARITY_TOL:
        return blocks, worst, 0
    w, _, vh = np.linalg.svd(blocks)
    blocks = w @ vh
    return blocks, defect(blocks), 1


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """The eigenbasis of an interaction whose terms all carry one profile
    c (None: the constant 1), so that H(t) = c(t) H_0 with H_0 the sum of
    the terms at unit coefficient.  On each parity sector H_0 = V diag(w) V*,
    and U(t, s) = V e^{-i w F} V* with F the integral of c from s to t.

    ``energies`` is the (2, h) stack w; ``vectors`` is V, an even
    ``FockOperator``, after the polar correction of ``_unitarize`` if one was
    needed; ``unitarity_defect`` and ``corrections`` are V's.
    """

    profile: Callable[[float], float] | None
    energies: np.ndarray
    vectors: FockOperator
    unitarity_defect: float
    corrections: int

    def integrals(self, s: float, times, step: float) -> list:
        """(F, step, steps taken) at each of the sorted grid ``times``.

        F is t - s for a constant profile.  Otherwise it is the midpoint sum
        of the profile over the steps that midpoint stepping would take:
        consecutive grid times other than s, ceil(|dt|/step) steps of dt
        each.  The midpoint factors e^{-i c dt H_0} commute, so their
        product is e^{-i F H_0} exactly.
        """
        out, F, prev, dt, steps = [], 0.0, s, step, 0
        for t in times:
            if t == s:
                out.append((0.0, step, 0))
            elif self.profile is None:
                out.append((t - s, step, 1))
            else:
                if t != prev:
                    n_steps = max(1, math.ceil(abs(t - prev) / step))
                    dt = (t - prev) / n_steps
                    F += dt * sum(float(self.profile(prev + (k + 0.5) * dt))
                                  for k in range(n_steps))
                    steps += n_steps
                    prev = t
                out.append((F, abs(dt), steps))
        return out

    def exponential(self, F: float) -> np.ndarray:
        """The stack of blocks of U = V e^{-i w F} V*."""
        return _sector_exp(self.energies, self.vectors.blocks, -1j * F)

    def rotate(self, A: FockOperator) -> FockOperator:
        """V* A V: A in the eigenbasis, (V* A V)[c] = V[c ^ p]* A[c] V[c]."""
        return self.vectors.adjoint() @ A @ self.vectors

    def evolve(self, rotated: FockOperator, F: float) -> FockOperator:
        """V* tau(A) V = D* (V* A V) D with D = e^{-i w F}, from
        ``rotated`` = V* A V: an entrywise phase, on block c the row phases
        conj(D[c ^ p]) and the column phases D[c]."""
        phases = np.exp(-1j * F * self.energies)
        if rotated.parity == MIXED:
            d = np.empty(rotated.dim, dtype=complex)
            d[fock._sector_index(rotated.dim)] = phases
            return FockOperator(d.conj()[:, None] * rotated.matrix * d, rotated.ambient,
                                rotated.support, MIXED)
        rows = fock._swap(phases, fock._parity_bit(rotated.parity)).conj()
        blocks = rows[:, :, None] * rotated.blocks * phases[:, None, :]
        return FockOperator.from_blocks(blocks, rotated.ambient, rotated.support,
                                        rotated.parity)


def eigenbasis(phi: Interaction, lam: SiteSet) -> Eigenbasis | None:
    """One ``sector_eigh`` of H_0 on ``lam`` when every term carries the
    same profile object; None when the terms carry different profiles, so
    that H(t) is not a multiple of one operator."""
    if len({id(term_obj.profile) for term_obj in phi.terms}) > 1:
        return None
    profile = phi.terms[0].profile if phi.terms else None
    w, v = sector_eigh(_scatter(phi, lam, lambda term_obj: 1.0))
    vectors, defect, corrections = _unitarize(v)
    return Eigenbasis(profile, w,
                      FockOperator.from_blocks(vectors, lam, frozenset(lam.sites), EVEN),
                      defect, corrections)


def checked_grid(phi: Interaction, s: float, times, step: float) -> list:
    """The grid ``times`` sorted, with s and every time checked against the
    interaction's interval; a step that is not positive raises ValueError."""
    if step <= 0:
        raise ValueError("step must be positive")
    times = sorted(float(t) for t in times)
    for r in (s, *times):
        phi.check_time(r)
    return times


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary U(t, s) solving the Schroedinger equation for the local
    Hamiltonian, with step-size and unitarity metadata.

    ``operator`` is U, an even ``FockOperator`` built from its stack of
    parity blocks (even sector, odd sector).
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

    When every term carries the same profile, H_0 is diagonalized once and
    every U(t, s) is its exponential at the integrated profile
    (``Eigenbasis``).  Otherwise U is carried from one grid time to the next
    by second-order midpoint stepping, ceil(|dt|/step) steps per segment,
    with per-step exponentials.  U(s, s) is the exact identity.
    """
    times = checked_grid(phi, s, times, step)

    def unitary(blocks):
        return FockOperator.from_blocks(blocks, lam, frozenset(lam.sites), EVEN)

    identity = fock.identity(lam).blocks
    basis = eigenbasis(phi, lam)
    if basis is not None:
        for t, (F, dt, steps) in zip(times, basis.integrals(s, times, step)):
            if t == s:
                yield Propagator(unitary(identity), s, t, step, 0.0, 0, 0)
            else:
                yield Propagator(unitary(basis.exponential(F)), s, t, dt,
                                 basis.unitarity_defect, basis.corrections, steps)
        return
    blocks = identity
    prev, dt, defect, corrections, steps = s, step, 0.0, 0, 0
    for t in times:
        if t == s:
            yield Propagator(unitary(identity), s, t, step, 0.0, 0, 0)
            continue
        if t != prev:
            n_steps = max(1, math.ceil(abs(t - prev) / step))
            dt = (t - prev) / n_steps
            for k in range(n_steps):
                H = local_hamiltonian(phi, lam, prev + (k + 0.5) * dt)
                blocks = _sector_exp(*sector_eigh(H), -1j * dt) @ blocks
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
