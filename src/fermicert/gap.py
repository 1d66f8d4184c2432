"""Spectral analysis: frustration-freeness, kernel projections, the
martingale gap certificate, and gap-protected spectral-projection flow.

The martingale certificate works on an increasing sequence of nonnegative
Hamiltonians 0 = H_0 <= H_1 <= ... <= H_N with differences h_n = H_n -
H_{n-1}.  Writing G_n, g_n for the kernel projections of H_n, h_n and

    E_0 = 1 - G_1,  E_n = G_n - G_{n+1} (1 <= n <= N-1),  E_N = G_N,

three extracted constants control the gap:

    (i)   gamma: every nonzero eigenvalue of every h_n is >= gamma;
    (ii)  ell:   [E_k, g_{n+1}] = 0 whenever k is outside [n - ell, n];
    (iii) eps^2: E_n g_{n+1} E_n <= eps^2 E_n for all n <= N - 1.

If eps * sqrt(1 + ell) < 1, every state orthogonal to ker(H_N) has energy
at least gamma (1 - eps sqrt(1 + ell))^2, a lower bound on the spectral
gap of H_N above zero.

A ``HamiltonianSequence`` holds steps, not the H_n: ``_pairs`` forms each
H_n from the last, so at most two are alive.  The certificate is one loop
over those pairs (H_{n-1}, H_n) that keeps only what later steps read: G_n
until step n + 1 has used it, the bases of each E_n, the parity blocks of
each g_n, which the windows read after the loop, and two eigenvalues of
h_n, its lowest w_n[0] and its first above the kernel, gamma_n = w_n[k_n].
Only the ``eigh`` of h_n and of H_n and the product M = E_n g_{n+1} E_n of
their kernel projections are dense.  The lowest eigenvalue of h_n checks
H_{n-1} <= H_n before its kernel is split off; the nesting G_{n+1} G_n =
G_{n+1} is checked as ||(1 - G_n) K_{n+1}|| = ||G_{n+1} (1 - G_n)||, with
K_{n+1} the orthonormal kernel basis of H_{n+1}; eps_n^2 is the bound
max_c ||M_cc|| + ||M_off||_F on ||M|| from the parity blocks of M, widened
by the roundoff of a computed singular value.  Assumption (i) needs no
more: in the eigenbasis of h_n, h_n - gamma (1 - g_n) has the eigenvalues
w_i on ker h_n and w_i - gamma off it, and w_n[k_n] - gamma >= 0 since
gamma is the minimum of the gamma_n, so its residual is max(0, -min_n
w_n[0]), the monotonicity defect.

The E_n are checked and used through bases of their ranges: each E_n is
formed once, densely, as G_n - G_{n+1} over the buffer of G_n (G_0 = 1) as
soon as G_{n+1} is known, and E_N = G_N after the loop.  Its checked even
operator gathers the two parity blocks, each diagonalized once, its
eigenvalues split at 1/2, and only its range basis V_n and the basis of
its lower-rank side (range or complement) are kept.  The E_n resolve the
identity when W = [V_0 ... V_N] is square and ||W* W - 1|| + 2 delta <=
COMMUTE_TOL, delta being the largest distance of an eigenvalue from 0 or
1; that sum bounds every ||E_i E_j - delta_ij E_i|| to first order.  Each window is
||[E_k, g]|| = ||(1 - V V*) g V|| with V the lower-rank basis of E_k, since
[1 - P, Q] = -[P, Q]; it is within 2 delta of the commutator of E_k itself,
so a verdict against COMMUTE_TOL can change only within 2 delta of it.
The windows and the nesting and Gram defects are read Frobenius first
(``_norm_bound``), so a reported window is an upper bound, the largest
singular value wherever it exceeds COMMUTE_TOL, and no verdict changes.

``projection_flow`` transports the spectral projection below a gap along a
path H(s), read as ``local_hamiltonian(family(s), lam, s)``: a family may
be one interaction whose terms carry profiles in s, so that each H(s) is
one scatter of cached term entries.  Every operator of the flow is even,
so it runs on the (2, h, h) stacks ``H.blocks`` of ``fock``: one batched
``eigh`` per parameter, every product batched over the two blocks, every
exponential taken in the span of the tracked eigenvectors, and every norm
the ``op_norm`` of a stack.  It holds one interval's projections and no
spectrum: each H(s) is diagonalized once.
``_sector_norm_bound``, ``_range_bases`` and ``_windows`` go block by
block: their ranks differ by block, and one block at a time keeps the
10-site peak memory low.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fock
from .dynamics import Interaction, local_hamiltonian, sector_eigh
from .errors import AmbiguousKernelError, GapClosureError
from .fock import EVEN, FockOperator, SiteSet, adjoint, identity, op_norm

#: default kernel tolerance relative to ||H||
KERNEL_RTOL = 1e-8

#: required separation factor between the kernel cluster and the rest
KERNEL_GUARD = 10.0

#: norm above which a commutator [E_k, g_n] or a resolution defect counts as nonzero
COMMUTE_TOL = 1e-10

#: increment eigenvalue below -MONOTONICITY_TOL breaks H_{n-1} <= H_n
MONOTONICITY_TOL = 1e-10

#: ground energy and term minima within FRUSTRATION_TOL count as equal
FRUSTRATION_TOL = 1e-9

#: relative width of the bracket to which a gap closure is bisected
CLOSURE_RESOLUTION = 1e-3

#: relative widening of a computed Frobenius norm before it may settle a
#: norm test: on a rank-one matrix it equals the operator norm, and the two
#: computed values differ by roundoff
FROBENIUS_SLACK = 1e-12


def _lowest_eigenvalue(H: FockOperator) -> float:
    """Smallest eigenvalue of an even self-adjoint operator, from one
    batched ``eigvalsh`` of its two parity blocks."""
    return float(np.linalg.eigvalsh(H.blocks).min())


def _kernel(w: np.ndarray, v: np.ndarray) -> tuple:
    """(k, K, P) from the ``eigh`` (w, v) of H: the dimension of its kernel
    (the eigenvalues up to KERNEL_RTOL times max(1, ||H||)), its basis K,
    the first k columns of v (a view), and the dense kernel projection
    P = K K*.  Raises AmbiguousKernelError when the next eigenvalue is
    within KERNEL_GUARD times that tolerance."""
    tol = KERNEL_RTOL * max(float(np.abs(w).max()), 1.0)
    if w[0] < -tol:
        raise ValueError(f"operator has eigenvalue {w[0]:.3e} below -tolerance")
    k = int(np.searchsorted(w, tol, side="right"))
    if k < w.size and w[k] < KERNEL_GUARD * tol:
        raise AmbiguousKernelError(
            f"eigenvalue {w[k]:.3e} too close to kernel tolerance {tol:.3e}",
            eigenvalues=w, tol=tol)
    vk = v[:, :k]
    return k, vk, vk @ vk.conj().T


def _sector_norm_bound(m: np.ndarray) -> float:
    """An upper bound on ||m||: the larger ``op_norm`` of its two on-sector
    blocks plus the Frobenius norm of its two off-sector blocks, widened by
    dim * machine epsilon, about the error of a computed singular value.
    Each block is gathered in turn and freed once its norm is taken."""
    on, off = (zip(*fock._sector_mesh(len(m), p)) for p in (0, 1))
    bound = (max(op_norm(m[rows, cols]) for rows, cols in on)
             + math.hypot(*(np.linalg.norm(m[rows, cols]) for rows, cols in off)))
    return bound * (1.0 + len(m) * np.finfo(float).eps)


def _norm_bound(m: np.ndarray, tol: float) -> float:
    """op_norm(m), or an upper bound on it within tol.  The Frobenius norm of
    all of m bounds op_norm(m) from above, so op_norm runs only when that
    bound, widened by FROBENIUS_SLACK, exceeds tol or is not finite: a NaN
    or inf entry always reaches op_norm, which raises."""
    bound = float(np.linalg.norm(m)) * (1 + FROBENIUS_SLACK)
    if math.isfinite(bound) and bound <= tol:
        return bound
    return op_norm(m)


def kernel_projection(H: FockOperator) -> FockOperator:
    """Orthogonal projection onto the kernel (eigenvalues <= 1e-8 max(1,
    ||H||)) of a nonnegative self-adjoint operator; the next eigenvalue must
    clear ten times that tolerance or the kernel is declared ambiguous.
    The projection is tagged even, so one that is not even raises
    ValueError.
    """
    if not H.is_hermitian():
        raise ValueError("operator is not self-adjoint within 1e-12")
    return FockOperator(_kernel(*np.linalg.eigh(H.matrix))[2], H.ambient, None, EVEN)


@dataclass(frozen=True)
class FrustrationReport:
    """Ground energy versus the sum of term-wise minima."""

    frustration_free: bool
    residual: float
    ground_energy: float
    term_minimum_sum: float


def frustration_free_check(phi: Interaction, lam: SiteSet) -> FrustrationReport:
    """Check inf spec(H_Lambda) = sum of term-wise spectral minima: the
    interaction is frustration-free when the residual is within
    FRUSTRATION_TOL."""
    if phi.is_time_dependent:
        raise ValueError("frustration-freeness is defined for static interactions")
    # on the two parity blocks: no dense 2^L x 2^L matrix is assembled
    e0 = _lowest_eigenvalue(local_hamiltonian(phi, lam))
    minima = []
    for t in phi.terms:
        if set(t.sites) <= set(lam.sites):
            minima.append(float(np.linalg.eigvalsh(t.operator.matrix).min()))
    msum = float(sum(minima))
    residual = abs(e0 - msum)
    return FrustrationReport(residual <= FRUSTRATION_TOL, residual, e0, msum)


@dataclass(frozen=True, eq=False)
class HamiltonianSequence:
    """The steps of a sequence 0 = H_0, H_1, ..., H_N on ``lattice``, each a
    static interaction: H_n = H_{n-1} + ``local_hamiltonian(steps[n-1],
    lattice)``.  Only the steps are held; ``_pairs`` forms the H_n in turn,
    and the certificate checks that they increase."""

    lattice: SiteSet
    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise ValueError("need at least one step")
        if any(step.is_time_dependent for step in self.steps):
            raise ValueError("gap sequences are defined for static interactions")


def hamiltonian_sequence(phi: Interaction, lam: SiteSet) -> HamiltonianSequence:
    """The interaction terms inside ``lam``, one term per step, added left to
    right (ordered by their leftmost site, then extent)."""
    inside = [t for t in phi.terms if set(t.sites) <= set(lam.sites)]
    inside.sort(key=lambda t: sorted(lam.positions(t.sites)))
    return HamiltonianSequence(lam, tuple(Interaction((t,)) for t in inside))


def _pairs(seq: HamiltonianSequence):
    """The pairs (H_{n-1}, H_n), n = 1..N, each H_n formed from the last
    (H_0 = 0); the generator keeps only the latest H_n."""
    H = fock.zero(seq.lattice)
    for step in seq.steps:
        yield H, (H := H + local_hamiltonian(step, seq.lattice))


def _range_bases(e: FockOperator) -> tuple:
    """(ranges, sides, delta) of one E_n from one ``eigh`` per parity block,
    its eigenvalues split at 1/2: per block, the basis of its range and the
    basis of its lower-rank side (range or complement); and the largest
    distance of an eigenvalue from 0 or 1, plus the Frobenius norm of the
    anti-Hermitian part that ``eigh``, reading one triangle, does not see."""
    ranges, sides, delta = [], [], 0.0
    for m in e.blocks:
        w, v = np.linalg.eigh(m)
        split = int(np.searchsorted(w, 0.5, side="right"))
        delta = max(delta, float(np.abs(w - (w > 0.5)).max(initial=0.0)
                                 + np.linalg.norm(m - m.conj().T)))
        ranges.append(v[:, split:].copy())
        sides.append(ranges[-1] if 2 * split >= w.size else v[:, :split].copy())
    return ranges, sides, delta


def _check_resolution(ranges: Sequence, delta: float) -> float:
    """The largest Gram defect ||W* W - 1|| over the blocks, W = [V_0 ... V_N]
    the range bases of the E_n, or its ``_norm_bound`` within COMMUTE_TOL -
    2 delta; raises ValueError unless W is square and that defect plus
    2 delta is within COMMUTE_TOL (module docstring)."""
    gram = 0.0
    for block in zip(*ranges):
        W = np.hstack(block)
        if W.shape[0] != W.shape[1]:
            raise ValueError(f"the ranges of the E_n have total rank {W.shape[1]} "
                             f"in a block of dimension {W.shape[0]}")
        gram = max(gram, _norm_bound(W.conj().T @ W - np.eye(W.shape[1]),
                                     COMMUTE_TOL - 2.0 * delta))
    if gram + 2.0 * delta > COMMUTE_TOL:
        raise ValueError(f"E_n are not orthogonal projections summing to the identity: "
                         f"Gram defect {gram:.3e}, projection defect {delta:.3e}")
    return gram


def _windows(sides: Sequence, g_projs: Sequence[FockOperator]) -> np.ndarray:
    """An upper bound on ||[E_k, g_{n+1}]|| = ||(1 - V V*) g_{n+1} V|| at row
    k and column n, with V the kept basis of E_k: the largest over the blocks
    of ``_norm_bound`` against COMMUTE_TOL, so every window above it is the
    largest singular value.  g V is projected off V twice: the second pass
    removes the roundoff that the first leaves along V."""
    out = np.zeros((len(sides), len(g_projs)))
    for n, g in enumerate(g_projs):
        for m, vs in zip(g.blocks, zip(*sides)):
            for k, v in enumerate(vs):
                if v.shape[1]:
                    x = m @ v
                    for _ in range(2):
                        x = x - v @ (v.conj().T @ x)
                    out[k, n] = max(out[k, n], _norm_bound(x, COMMUTE_TOL))
    return out


@dataclass(frozen=True)
class GapCertificate:
    """Martingale data (gamma, ell, eps) with the certified lower bound
    gamma (1 - eps sqrt(1 + ell))^2 and the exact gap for comparison."""

    gamma: float
    ell: int
    epsilon: float
    bound: float | None
    exact_gap: float | None
    defects: dict
    per_step: dict
    no_certificate_reason: str | None

    @property
    def certified(self) -> bool:
        return self.bound is not None

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "ell": self.ell,
            "epsilon": None if math.isnan(self.epsilon) else self.epsilon,
            "bound": self.bound,
            "exact_gap": self.exact_gap,
            "defects": dict(self.defects),
            "per_step": {k: list(v) for k, v in self.per_step.items()},
            "no_certificate_reason": self.no_certificate_reason,
        }


def martingale_bound(gamma: float, ell: int, epsilon: float) -> float | None:
    """gamma (1 - eps sqrt(1 + ell))^2, or None when eps sqrt(1+ell) >= 1."""
    x = epsilon * math.sqrt(1.0 + ell)
    if x >= 1.0:
        return None
    return gamma * (1.0 - x) ** 2


def martingale_certificate(seq: HamiltonianSequence) -> GapCertificate:
    """Extract (gamma, ell, eps) from the sequence and certify the gap.

    gamma is the smallest nonzero eigenvalue across the h_n; ell is the
    smallest window width absorbing all commutators [E_k, g_{n+1}] above
    COMMUTE_TOL with k <= n; eps^2 is the largest upper bound on the norm
    of E_n g_{n+1} E_n (``_sector_norm_bound``).  A bound is
    emitted only when eps sqrt(1 + ell) < 1 and no kernel projection fails
    to commute with a later E_k; failure to certify is a result, not an
    exception.

    One loop over the pairs (H_{n-1}, H_n); the resolution check and the
    windows, each reported as an upper bound, follow it (module docstring).
    Assumption (i)'s residual is the monotonicity defect: gamma is the
    smallest gamma_n.  A sequence that does not increase raises ValueError.
    """
    lam = seq.lattice
    gammas, lows, g_projs, eps_sq, bases = [], [], [], [], []
    p_prev = np.eye(lam.dim, dtype=complex)   # G_0 = 1
    for n, (H_prev, H) in enumerate(_pairs(seq)):
        h = H - H_prev
        w, v = np.linalg.eigh(h.matrix)
        if w[0] < -MONOTONICITY_TOL:
            raise ValueError(f"sequence is not increasing: increment defect {-w[0]:.3e}")
        k, vk, g = _kernel(w, v)
        if k == w.size:
            raise ValueError("an increment vanishes; every step must add a nonzero operator")
        lows.append(float(w[0]))
        gammas.append(float(w[k]))
        del v, vk   # freed before g's blocks are gathered
        g_projs.append(FockOperator(g, lam, None, EVEN))
        # h is dropped only now: dropped before g's blocks were gathered,
        # the 10-site flat band peaked 8 MB higher in RSS
        del h
        w, v = np.linalg.eigh(H.matrix)
        k, vk, p = _kernel(w, v)
        if k == 0:
            raise ValueError(f"H_{n + 1} has trivial kernel; the method needs "
                             "nonempty ground spaces")
        if n:   # G_0 = 1 nests every G_1
            # ||G_{n+1} (1 - G_n)|| = ||(1 - G_n) K_{n+1}|| for orthonormal K_{n+1},
            # from the k x k Gram matrix (an SVD of the tall x peaked higher)
            x = p_prev @ vk
            np.subtract(vk, x, out=x)
            defect = math.sqrt(_norm_bound(x.conj().T @ x, COMMUTE_TOL ** 2))
            if defect > COMMUTE_TOL:
                raise ValueError(f"kernel projections are not nested: defect {defect:.3e}")
        del v, vk
        # E_n = G_n - G_{n+1}, written over G_n; the checked constructor
        # refuses an E_n that is not even and gathers the blocks diagonalized
        e = np.subtract(p_prev, p, out=p_prev)
        p_prev = p
        bases.append(_range_bases(FockOperator(e, lam, None, EVEN)))
        product = e @ g @ e
        del e, g    # freed before the norm runs
        eps_sq.append(_sector_norm_bound(product))
        del product
    exact_gap = float(w[k]) if k < w.size else None
    bases.append(_range_bases(FockOperator(p_prev, lam, None, EVEN)))   # E_N = G_N
    ranges, sides, deltas = zip(*bases)
    _check_resolution(ranges, max(deltas))
    gamma = min(gammas)
    # the residual of assumption (i) is the monotonicity defect (module docstring)
    monotonicity = max(0.0, -min(lows))

    # window [E_k, g_{n+1}] at row k, column n: ell absorbs those with k <= n
    commute_defects = _windows(sides, g_projs)
    k, n = np.indices(commute_defects.shape)
    above, allowed = commute_defects > COMMUTE_TOL, k <= n
    ell = int((n - k)[above & allowed].max(initial=0))
    forward_defect = float(commute_defects[above & ~allowed].max(initial=0.0))
    if forward_defect > 0.0:
        epsilon, bound = math.nan, None
        reason = "a kernel projection fails to commute with a later spectral block"
    else:
        epsilon = math.sqrt(max(eps_sq))
        bound = martingale_bound(gamma, ell, epsilon)
        reason = None if bound is not None else (
            f"eps sqrt(1+ell) = {epsilon * math.sqrt(1 + ell):.3f} >= 1")
    return GapCertificate(
        gamma=gamma, ell=ell, epsilon=epsilon, bound=bound, exact_gap=exact_gap,
        defects={"assumption_i": monotonicity, "monotonicity": monotonicity,
                 "forward_commutator": forward_defect,
                 "max_allowed_window_commutator":
                     float(commute_defects[allowed].max(initial=0.0))},
        per_step={"gamma_n": gammas, "eps_sq_n": eps_sq,
                  "max_commutator_n": commute_defects.max(axis=0).tolist()},
        no_certificate_reason=reason)


@dataclass(frozen=True)
class FlowReport:
    """Spectral-projection transport along a gapped parameter path."""

    parameters: np.ndarray
    gaps: np.ndarray
    rank: int
    defects: np.ndarray
    max_defect: float
    substeps: int


def _exceeds(m: np.ndarray, tol: float) -> bool:
    """op_norm(m) > tol for a matrix or an (..., n, n) stack, read through
    ``_norm_bound``."""
    return _norm_bound(m, tol) > tol


def _transport(bases: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """The stacked blocks of U = prod_i exp(G_i) over the fine grid, later
    factors to the left: G_i = ds_i (K_i + K_{i+1}) / 2, K_j = [dP_j, P_j] at
    fine[j], P_j = V_j V_j* for the (nsub + 1, 2, h, w) stack ``bases``, and
    dP_j from central differences, one-sided at the ends.

    G_i maps into, and vanishes off, the span of V_{i-1} .. V_{i+2}
    (``projection_flow``).  Per block, one batched QR of those columns gives
    an orthonormal basis Q_i of m = min(h, 4w) columns that holds the span,
    zero or repeated columns being harmless, and R = Q_i* [V_{i-1} ...
    V_{i+2}], from which S_i = Q_i* G_i Q_i is formed; U is accumulated by the
    low-rank updates exp(G_i) = 1 + Q_i (e^{S_i} - 1) Q_i*, e^{S_i} from an
    m x m ``eigh``."""
    n, w = len(fine) - 1, bases.shape[-1]
    i = np.arange(n)
    window = np.stack((np.maximum(i - 1, 0), i, i + 1, np.minimum(i + 2, n)))
    q, r = np.linalg.qr(np.concatenate(bases[window], axis=-1))
    # the window's four projections in the coordinates of Q_i: C_j C_j*
    p = [c @ adjoint(c) for c in np.split(r, 4, axis=-1)]
    denom = (fine[window[2:]] - fine[window[:2]])[..., None, None, None]
    dp_i, dp_next = (p[2] - p[0]) / denom[0], (p[3] - p[1]) / denom[1]
    ks = dp_i @ p[1] - p[1] @ dp_i + dp_next @ p[2] - p[2] @ dp_next
    # e^S - 1 = v (e^{-iw} - 1) v* for the anti-Hermitian S with i S = v diag(w) v*
    e, v = np.linalg.eigh((0.5j * np.diff(fine))[:, None, None, None] * ks)
    steps = (v * np.expm1(-1j * e)[..., None, :]) @ adjoint(v)
    u = np.eye(bases.shape[2], dtype=complex)
    for q_i, step in zip(q, steps):
        u = u + q_i @ (step @ (adjoint(q_i) @ u))
    return u


def projection_flow(family: Callable[[float], Interaction], lam: SiteSet,
                    parameters: Iterable[float], gamma_min: float,
                    defect_target: float = 1e-6,
                    max_substeps: int = 512) -> FlowReport:
    """Track the low-energy spectral projection P(s) of H(s) =
    ``local_hamiltonian(family(s), lam, s)`` along the sorted
    ``parameters`` and transport it with the commutator generator
    K(s) = [dP/ds, P(s)] (central differences, internally refined), so
    that U(s) P(0) U(s)* follows P(s).

    ``family`` may return one interaction whose terms carry profiles in s
    (``models.rotating_flat_band``), so each H(s) is one scatter of cached
    term entries, or a new interaction at each s whose terms carry none.
    H(s), P(s), K(s) and U are even, so the flow runs on their stacks of
    parity blocks, shape (2, h, h) with h = 2^(L-1): one batched ``eigh``
    per parameter, every product batched over the two blocks, and every
    norm the largest over them.  It holds P(s_0), U and one interval's
    projections with their eigenvector blocks, and diagonalizes each H(s)
    once.

    Each P(s) is V(s) V(s)*, V(s) the (2, h, w) stack of its eigenvectors,
    w = min(rank, h), with a block's columns past its own count zero.  The
    difference quotient dP/ds at a fine point is a difference of the
    projections at its neighbours, so the generator of substep i maps into,
    and vanishes off, the span of V at fine points i - 1 to i + 2: the
    transport (``_transport``) exponentiates it in an orthonormal basis of
    that span, of at most 4w columns per block, and forms no dense
    exponential.  The refinement tests and the defects read the dense P(s).

    The tracked projection is onto the eigenvectors of the lowest ``rank``
    values of the merged spectrum of both blocks, ``rank`` being set by the
    largest gap at the first parameter (the lowest one on ties); that gap
    must stay above ``gamma_min`` everywhere probed, and a closure raises
    GapClosureError with a crossing location bisected to
    CLOSURE_RESOLUTION.  The parameters must be distinct.

    Each interval between parameters is refined by doubling its substep
    count, at most to ``max_substeps``: first while some consecutive pair
    of its fine projections differs by more than 0.1 in norm, then while
    its transport error exceeds its share of ``defect_target``.  The first
    interval starts at one substep and each later one at the count that
    the interval before it ended with, so the count never falls and
    ``substeps`` is the last one; a doubling forms only the new odd points.
    Both tests read the Frobenius norm, an upper bound, before any operator
    norm (``_exceeds``); the jump test stops at the first pair that
    exceeds, and at the cap no error is taken.  A run stopped by the cap
    can end above the target, which its ``max_defect`` shows.  Repeated
    parameters, and an empty lattice, which holds no even H(s), raise
    ValueError.
    """
    s_grid = np.asarray(sorted(float(s) for s in parameters))
    if s_grid.size < 2:
        raise ValueError("need at least two parameter values")
    # not np.unique, which imports numpy.ma (about 1 MB) on its first call
    repeated = dict.fromkeys(s_grid[1:][s_grid[1:] == s_grid[:-1]].tolist())
    if repeated:
        raise ValueError(f"parameter values must be distinct; repeated: "
                         f"{', '.join(map(repr, repeated))}")
    if gamma_min <= 0:
        raise ValueError("gamma_min must be positive")

    def spectrum(s: float) -> tuple:
        """(merged spectrum, block eigenvalues, block eigenvectors) of H(s)."""
        w, v = sector_eigh(local_hamiltonian(family(s), lam, s))
        return np.sort(w, axis=None), w, v

    def projection(s: float, start: float, eig: tuple) -> tuple:
        """(V(s), P(s) = V V*, its gap) from the spectrum ``eig``; a closure is
        bisected from ``start``."""
        merged, w, v = eig
        g = float(np.diff(merged)[rank - 1])
        if g < gamma_min:
            location, bracket = _bisect_closure(lambda t: np.diff(spectrum(t)[0])[rank - 1],
                                                start, s, gamma_min)
            raise GapClosureError(
                f"gap {g:.3e} below {gamma_min} near s = {location:.6f}",
                location=location, bracket=bracket, gap=g)
        # the lowest rank values of the merged spectrum, counted per block; a
        # block's columns past its count are zero, so V has one width on the path
        counts = (w <= merged[rank - 1]).sum(axis=1)
        vk = v[:, :, :width] * (np.arange(width) < counts[:, None])[:, None, :]
        return vk, vk @ adjoint(vk), g

    s_0 = float(s_grid[0])
    eig = spectrum(s_0)
    gaps0 = np.diff(eig[0])
    # first gap within tolerance of the largest, so equal gaps resolve to
    # the lowest spectral block rather than by float noise
    rank = int(np.flatnonzero(gaps0 >= float(gaps0.max()) * (1 - 1e-9))[0]) + 1
    width = min(rank, eig[2].shape[-1])
    v_b, p0, g = projection(s_0, s_0, eig)
    U = identity(lam).blocks
    gaps, defects = [g], [0.0]      # U = 1 carries P(s_0) onto itself
    total_span = float(s_grid[-1] - s_grid[0])

    nsub, p_b = 1, p0
    for j in range(s_grid.size - 1):
        s_a, s_b = float(s_grid[j]), float(s_grid[j + 1])
        budget = defect_target * (s_b - s_a) / total_span
        fine = np.linspace(s_a, s_b, nsub + 1)
        vs, projs, gs = zip(*(projection(s, s_a, spectrum(s)) for s in fine[1:].tolist()))
        # v_b and p_b ended the interval before
        bases, projs = np.stack((v_b, *vs)), np.stack((p_b, *projs))
        while True:
            if nsub >= max_substeps or not any(
                    _exceeds(q - p, 0.1) for p, q in zip(projs, projs[1:])):
                u_step = _transport(bases, fine)
                if nsub >= max_substeps or not _exceeds(
                        u_step @ projs[0] @ adjoint(u_step) - projs[-1], budget):
                    break
            # linspace(s_a, s_b, nsub + 1) is, bit for bit, the even points of
            # linspace(s_a, s_b, 2 nsub + 1): only the odd points are new
            nsub *= 2
            fine = np.linspace(s_a, s_b, nsub + 1)
            odd = range(1, len(projs))
            bases, projs = (np.insert(x, odd, 0.0, axis=0) for x in (bases, projs))
            for i, s in enumerate(fine[1::2].tolist()):
                bases[2 * i + 1], projs[2 * i + 1], _ = projection(s, s_a, spectrum(s))
        U = u_step @ U
        # copies: a view would keep the stacks alive
        v_b, p_b = bases[-1].copy(), projs[-1].copy()
        gaps.append(gs[-1])         # from the spectrum that gave P(s_b)
        defects.append(op_norm(p_b - U @ p0 @ adjoint(U)))

    defects = np.array(defects)
    return FlowReport(parameters=s_grid, gaps=np.array(gaps), rank=rank,
                      defects=defects, max_defect=float(defects.max()),
                      substeps=nsub)


def _bisect_closure(gap_of: Callable[[float], float], lo: float, hi: float,
                    gamma_min: float) -> tuple:
    """Bisect the first crossing of gap(s) below gamma_min in [lo, hi], the
    gap at lo having passed, to a bracket of CLOSURE_RESOLUTION times
    max(1, hi - lo); lo = hi when the first parameter fails."""
    a, b = lo, hi
    while b - a > CLOSURE_RESOLUTION * max(1.0, abs(hi - lo)):
        mid = 0.5 * (a + b)
        if gap_of(mid) < gamma_min:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), (a, b)
