"""Brute-force oracles for the conditional expectations of ``fermicert.cond_exp``.

Each one works straight from the Kraus form: the single-site unitaries
{1, a* + a, a* - a, 1 - 2 a*a} of ``kraus_unitaries`` at every site
outside a region X, either one site at a time or as all 4^k words over the
k complement sites (refused beyond BRUTE_FORCE_CAP).
"""

import itertools

import numpy as np

from fermicert.fock import (EVEN, ODD, FockOperator, annihilator, identity, op_norm,
                            parity_operator)

#: refuse Kraus-word sums beyond this complement size (4^k words)
BRUTE_FORCE_CAP = 10


def kraus_unitaries(lam, x) -> tuple:
    """The four single-site Kraus unitaries at x, parities (+, -, -, +)."""
    a = annihilator(lam, x)
    ad = a.adjoint()
    u2 = FockOperator(ad.matrix - a.matrix, lam, frozenset({x}), ODD)
    u3 = identity(lam) - 2 * (ad @ a)
    return (identity(lam), ad + a, u2, FockOperator(u3.matrix, lam, frozenset({x}), EVEN))


def complement(lam, X) -> tuple:
    return tuple(x for x in lam.sites if x not in set(X))


def kraus_words(lam, comp: tuple):
    """Yield (alpha, u(alpha)) for every Kraus word over the sites ``comp``:
    u(alpha) is the product u^(alpha_1)_{comp_1} ... u^(alpha_k)_{comp_k},
    multiplied left to right (the identity for the empty word)."""
    if len(comp) > BRUTE_FORCE_CAP:
        raise ValueError(f"Kraus sum over 4^{len(comp)} words refused")
    singles = [[u.matrix for u in kraus_unitaries(lam, x)] for x in comp]
    for alpha in itertools.product(range(4), repeat=len(comp)):
        u = None
        for mats, i in zip(singles, alpha):
            u = mats[i] if u is None else u @ mats[i]
        yield alpha, (np.eye(lam.dim, dtype=complex) if u is None else u)


def kraus_sum(A, X) -> np.ndarray:
    """E_X(A) as the average of u(alpha)* A u(alpha) over all 4^k words."""
    lam = A.ambient
    comp = complement(lam, X)
    m = np.zeros_like(A.matrix)
    for _, u in kraus_words(lam, comp):
        m = m + u.conj().T @ A.matrix @ u
    return m / 4.0 ** len(comp)


def twisted_kraus_sum(A, X) -> np.ndarray:
    """F_X(A) by its Kraus form: u(alpha) for even words, theta_X u(alpha)
    for odd ones (indices 1 and 2 are odd), averaged over all 4^k words."""
    lam = A.ambient
    comp = complement(lam, X)
    theta_x = parity_operator(lam, X).matrix
    m = np.zeros_like(A.matrix)
    for alpha, u in kraus_words(lam, comp):
        if sum(i in (1, 2) for i in alpha) % 2:
            u = theta_x @ u
        m = m + u.conj().T @ A.matrix @ u
    return m / 4.0 ** len(comp)


def exhaustive_commutator_bound(A, X) -> float:
    """max_alpha ||[A, u(alpha)]|| over every Kraus word outside X."""
    lam = A.ambient
    return max(op_norm(A.matrix @ u - u @ A.matrix)
               for _, u in kraus_words(lam, complement(lam, X)))


def site_average(m: np.ndarray, lam, x) -> np.ndarray:
    """Average of u^(i)* m u^(i) over the four Kraus unitaries at x."""
    a = annihilator(lam, x).matrix
    u1 = a.conj().T + a
    u2 = a.conj().T - a
    signs = np.diag(parity_operator(lam, [x]).matrix).real
    acc = m + signs[:, None] * m * signs[None, :]
    acc = acc + u1 @ m @ u1          # u1 is Hermitian unitary
    acc = acc + u2.conj().T @ m @ u2
    return acc / 4.0


def site_sweep(A, X, order=None) -> np.ndarray:
    """E_X(A) as one site average per complement site, in ``order``
    (default: lattice order)."""
    lam = A.ambient
    m = np.array(A.matrix)
    for x in complement(lam, X) if order is None else order:
        m = site_average(m, lam, x)
    return m
