"""Conditional expectations onto local subalgebras, in Kraus form.

The tracial state is the normalized matrix trace; it is the even product
state with omega(a_x a_y) = 0 and omega(a*_x a_y) = delta_{x,y}/2.  For a
region X inside Lambda, averaging over the single-site unitaries

    u^(0) = 1,  u^(1) = a* + a,  u^(2) = a* - a,  u^(3) = 1 - 2 a*a

at every site outside X defines a unity-preserving completely positive
projection E_X of norm one: operators even and supported in X are fixed,
everything supported outside X collapses to its trace, and the odd part
of the outside algebra is annihilated.

A second family F_X projects onto the honestly local subalgebra A_X and
leaves the tracial state invariant.  Its Kraus operators acquire a global
parity factor theta_X on the odd-parity index combinations, but the map
itself is the Hilbert-Schmidt-orthogonal projection onto A_X.  On even
observables the two families coincide.

Both are evaluated exactly at any size by one signed partial trace,
``fock.signed_partial_trace``: reorder X to the front with the
Jordan-Wigner sign, so that an operator reads as M (x) N on X and the
complement C, and average its blocks over the configurations c of C.
With X in front, a Kraus word over C is theta_X^{p(alpha)} (x) P_alpha,
P_alpha a Pauli string on C and p(alpha) its fermion parity, so the
4^|C|-term Kraus sum of E_X is

    M_even (x) tr(N)/2^|C| 1 + M_odd (x) tr(N theta_C)/2^|C| theta_C,

where M_even and M_odd are the entries of M that keep and that change
the parity of X.  F_X takes the plain mean on all entries.  The explicit
Kraus sums are kept in the tests as oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import fock
from .fock import EVEN, FockOperator, SiteSet, identity, op_norm, parity_operator


def conditional_expectation(A: FockOperator, X: Iterable) -> FockOperator:
    """E_X(A): Kraus average over all single-site unitaries outside X.

    On the signed blocks of ``fock.signed_partial_trace`` this is the plain
    mean on the entries that keep the parity of X and theta_C(c) times the
    theta_C-weighted mean on the entries that change it.
    """
    lam = A.ambient
    X = frozenset(X)
    theta_c = fock._popcount_signs(len(lam) - len(lam.restrict(X)))[:, None, None]
    theta_x = fock._popcount_signs(len(X))
    flips_x = theta_x[:, None] != theta_x[None, :]

    def average(blocks):
        return np.where(flips_x, theta_c * (theta_c * blocks).mean(axis=0),
                        blocks.mean(axis=0))

    # the range of a non-even A holds B theta_Lambda pieces, which are global
    support = X if A.parity == EVEN else frozenset(lam.sites)
    return FockOperator(fock.signed_partial_trace(A, X, average), lam, support, A.parity)


def trace_invariant_expectation(A: FockOperator, X: Iterable) -> FockOperator:
    """F_X(A): the projection onto the local subalgebra A_X that leaves the
    tracial state invariant.

    Its Kraus operators are u(alpha) for even index parity and theta_X
    u(alpha) for odd; the resulting map is the Hilbert-Schmidt-orthogonal
    projection onto A_X, evaluated exactly by ``fock.project_support`` at
    any lattice size.  Agrees with E_X on even observables.
    """
    X = frozenset(X)
    return FockOperator(fock.project_support(A, X).matrix, A.ambient, X, A.parity)


def local_approximation(A: FockOperator, X: Iterable) -> tuple:
    """Best strictly-reported local approximation of an even observable:
    (E_X(A), ||A - E_X(A)||).

    The error never exceeds max_alpha ||[A, u(alpha)]|| over the Kraus
    words outside X, since E_X averages the unitaries u(alpha)* A u(alpha);
    bounding that maximum site by site is how light-cone estimates turn
    into localization errors.
    """
    if A.parity != EVEN:
        raise ValueError("local approximation is defined for even observables")
    approx = conditional_expectation(A, X)
    err = op_norm(A - approx)
    return approx, err


@dataclass(frozen=True)
class ExpectationDiagnostics:
    """Defect metrics for one conditional-expectation evaluation."""

    region: tuple
    projection_defect: float
    contraction_excess: float
    range_support_defect: float
    range_parity_defect: float


def expectation_diagnostics(A: FockOperator, X: Iterable) -> ExpectationDiagnostics:
    """Evaluate E_X(A) and report how well the output satisfies the
    projection, contraction and range structure."""
    lam = A.ambient
    X = frozenset(X)
    out = conditional_expectation(A, X)
    twice = conditional_expectation(out, X)
    projection = op_norm(out - twice)
    contraction = max(0.0, op_norm(out) - op_norm(A))
    # range: even part supported in X, odd part equals (odd in X) * theta
    even, odd = fock.parity_decompose(out)
    support_defect = fock.support_defect(even, X)
    theta = parity_operator(lam)
    odd_local = odd @ theta
    parity_defect = fock.support_defect(odd_local, X)
    return ExpectationDiagnostics(
        region=lam.restrict(X).sites,
        projection_defect=projection, contraction_excess=contraction,
        range_support_defect=support_defect, range_parity_defect=parity_defect)


@dataclass(frozen=True)
class FamilyReport:
    """Compatibility defects for the family {E_X}: composition,
    idempotence, the even product split, and volume independence."""

    region_x: tuple
    region_y: tuple
    samples: int
    composition_defect: float
    idempotence_defect: float
    product_defect: float
    volume_defect: float

    @property
    def max_defect(self) -> float:
        return max(self.composition_defect, self.idempotence_defect,
                   self.product_defect, self.volume_defect)


def expectation_family_report(lam: SiteSet, X: Iterable, Y: Iterable,
                              samples: int, seed: int) -> FamilyReport:
    """Measure on random inputs that the family behaves like a commuting
    system of projections:

    - composition: E_X . E_Y = E_{X intersect Y};
    - idempotence: E_X . E_X = E_X;
    - product split: E_X(AB) = E_{X u Y}(A) E_{X u Y^c}(B) for even A, B
      supported in Y^c and Y respectively;
    - volume independence: computing E_X inside the lattice extended by
      two fresh sites agrees with computing it in ``lam`` for even
      observables.
    """
    rng = np.random.default_rng(seed)
    X = frozenset(X)
    Y = frozenset(Y)
    inter = X & Y
    comp_d = idem_d = prod_d = vol_d = 0.0
    existing = set(lam.sites)
    fresh = (probe for probe in itertools.count() if probe not in existing)
    enlarged = SiteSet(lam.sites + tuple(itertools.islice(fresh, 2)))
    y_comp = tuple(s for s in lam.sites if s not in Y)
    for _ in range(samples):
        A = fock.random_local_operator(lam, lam.sites, rng)
        ex = conditional_expectation(A, X)
        comp_d = max(comp_d, op_norm(conditional_expectation(
            conditional_expectation(A, Y), X) - conditional_expectation(A, inter)))
        idem_d = max(idem_d, op_norm(conditional_expectation(ex, X) - ex))

        A_even = fock.random_local_operator(lam, y_comp, rng, parity=EVEN) \
            if y_comp else identity(lam)
        B_even = fock.random_local_operator(lam, Y, rng, parity=EVEN) \
            if Y else identity(lam)
        lhs = conditional_expectation(A_even @ B_even, X)
        rhs = conditional_expectation(A_even, X | Y) @ conditional_expectation(
            B_even, X | frozenset(y_comp))
        prod_d = max(prod_d, op_norm(lhs - rhs))

        C = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
        small = conditional_expectation(C, X)
        big = conditional_expectation(fock.embed(C, enlarged), X)
        vol_d = max(vol_d, op_norm(fock.embed(small, enlarged) - big))
    return FamilyReport(
        region_x=lam.restrict(X).sites, region_y=lam.restrict(Y).sites,
        samples=samples, composition_defect=comp_d, idempotence_defect=idem_d,
        product_defect=prod_d, volume_defect=vol_d)
