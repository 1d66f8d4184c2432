"""Spectral analysis: frustration-freeness, kernel projections, the
martingale gap certificate, and gap-protected spectral-projection flow.

The martingale certificate works on an increasing sequence of nonnegative
Hamiltonians 0 = H_0 <= H_1 <= ... <= H_N with increments h_n = H_n -
H_{n-1}.  Writing G_n, g_n for the kernel projections of H_n, h_n and

    E_0 = 1 - G_1,  E_n = G_n - G_{n+1} (1 <= n <= N-1),  E_N = G_N,

three extracted constants control the gap:

    (i)   gamma: every nonzero eigenvalue of every h_n is >= gamma;
    (ii)  ell:   [E_k, g_{n+1}] = 0 whenever k is outside [n - ell, n];
    (iii) eps^2: E_n g_{n+1} E_n <= eps^2 E_n for all n <= N - 1.

If eps * sqrt(1 + ell) < 1, every state orthogonal to ker(H_N) has energy
at least gamma (1 - eps sqrt(1 + ell))^2, a lower bound on the spectral
gap of H_N above zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

from . import fock
from .dynamics import Interaction, local_hamiltonian, term_operator
from .errors import AmbiguousKernelError, GapClosureError, KernelMismatchError
from .fock import EVEN, MIXED, FockOperator, SiteSet, identity, op_norm

#: default kernel tolerance relative to ||H||
KERNEL_RTOL = 1e-8

#: required separation factor between the kernel cluster and the rest
KERNEL_GUARD = 10.0


def spectrum(H: FockOperator) -> np.ndarray:
    """Sorted eigenvalues of a self-adjoint operator."""
    if not H.is_hermitian(1e-12):
        raise ValueError("operator is not self-adjoint within 1e-12")
    return np.linalg.eigvalsh(H.matrix)


def _lowest_eigenvalue(H: FockOperator) -> float:
    """Smallest eigenvalue of a self-adjoint operator, from its two parity
    blocks when it is even."""
    parts = H.blocks if H.parity == EVEN else (H.matrix,)
    return min(float(np.linalg.eigvalsh(m).min()) for m in parts)


def _kernel_tol(w: np.ndarray, tol: float | None) -> float:
    if tol is not None:
        return tol
    scale = float(np.abs(w).max()) if w.size else 1.0
    return KERNEL_RTOL * max(scale, 1.0)


def _split_kernel(w: np.ndarray, tol: float) -> int:
    """Number of kernel eigenvalues, guarding against clusters at the
    tolerance; raises AmbiguousKernelError when the split is unsafe."""
    if w.size and w[0] < -tol:
        raise ValueError(f"operator has eigenvalue {w[0]:.3e} below -tolerance")
    k = int(np.searchsorted(w, tol, side="right"))
    if k < w.size and w[k] < KERNEL_GUARD * tol:
        raise AmbiguousKernelError(
            f"eigenvalue {w[k]:.3e} too close to kernel tolerance {tol:.3e}",
            eigenvalues=w, tol=tol)
    return k


def _kernel(H: FockOperator, tol: float | None) -> tuple:
    """(w, k, G): the eigenvalues of H, the dimension of its kernel and the
    kernel projection G, tagged even when H is."""
    w, v = np.linalg.eigh(H.matrix)
    k = _split_kernel(w, _kernel_tol(w, tol))
    vk = v[:, :k]
    G = FockOperator(vk @ vk.conj().T, H.ambient, frozenset(H.ambient.sites),
                     EVEN if H.parity == EVEN else MIXED)
    return w, k, G


def kernel_projection(H: FockOperator, tol: float | None = None) -> FockOperator:
    """Orthogonal projection onto the kernel (eigenvalues <= tol) of a
    nonnegative self-adjoint operator.

    Default tolerance is 1e-8 ||H||; the next eigenvalue must clear ten
    times the tolerance or the kernel is declared ambiguous.
    """
    if not H.is_hermitian(1e-12):
        raise ValueError("operator is not self-adjoint within 1e-12")
    return _kernel(H, tol)[2]


def smallest_nonzero_eigenvalue(H: FockOperator, tol: float | None = None) -> float:
    """Smallest eigenvalue above the kernel tolerance (the gap of a
    nonnegative operator with nontrivial kernel)."""
    w = spectrum(H)
    tol = _kernel_tol(w, tol)
    k = _split_kernel(w, tol)
    if k == w.size:
        raise ValueError("operator is zero within tolerance; no nonzero eigenvalue")
    return float(w[k])


@dataclass(frozen=True)
class FrustrationReport:
    """Ground energy versus the sum of term-wise minima."""

    frustration_free: bool
    residual: float
    ground_energy: float
    term_minimum_sum: float
    term_kernel_defect: float


def frustration_free_check(phi: Interaction, lam: SiteSet,
                           tol: float = 1e-9) -> FrustrationReport:
    """Check inf spec(H_Lambda) = sum of term-wise spectral minima.

    When every term is nonnegative (so the minima sum to ~0) the ground
    vectors must be annihilated by every individual term; the worst such
    residual is reported as ``term_kernel_defect``.
    """
    if phi.is_time_dependent:
        raise ValueError("frustration-freeness is defined for static interactions")
    H = local_hamiltonian(phi, lam)
    w, v = np.linalg.eigh(H.matrix)
    e0 = float(w[0])
    minima = []
    for t in phi.terms:
        if set(t.sites) <= set(lam.sites):
            minima.append(float(np.linalg.eigvalsh(t.operator.matrix).min()))
    msum = float(sum(minima))
    residual = abs(e0 - msum)
    kernel_defect = 0.0
    if minima and min(minima) >= -tol and abs(e0) <= tol:
        ground = v[:, np.abs(w - e0) <= max(tol, 10 * abs(e0))]
        for t in phi.terms:
            if set(t.sites) <= set(lam.sites):
                T = term_operator(t, lam)
                kernel_defect = max(kernel_defect,
                                    float(np.linalg.norm(T.matrix @ ground, ord=2)))
    return FrustrationReport(residual <= tol, residual, e0, msum, kernel_defect)


@dataclass(frozen=True, eq=False)
class HamiltonianSequence:
    """Increasing sequence 0 = H_0 <= H_1 <= ... <= H_N of nonnegative
    even Hamiltonians, stored with its increments."""

    hamiltonians: tuple
    tol: float = 1e-10

    def __post_init__(self):
        hams = tuple(self.hamiltonians)
        object.__setattr__(self, "hamiltonians", hams)
        if len(hams) < 2:
            raise ValueError("need H_0 and at least one increment")
        if hams[0].matrix.any():
            raise ValueError("H_0 must be the zero operator")
        lam = hams[0].ambient
        for H in hams:
            if H.ambient != lam:
                raise ValueError("sequence members live on different lattices")
            if not H.is_hermitian(1e-12):
                raise ValueError("sequence members must be self-adjoint")

    @property
    def size(self) -> int:
        return len(self.hamiltonians) - 1

    @property
    def lattice(self) -> SiteSet:
        return self.hamiltonians[0].ambient

    def increments(self) -> list:
        return [self.hamiltonians[n] - self.hamiltonians[n - 1]
                for n in range(1, len(self.hamiltonians))]

    @cached_property
    def _monotonicity_defect(self) -> float:
        worst = 0.0
        for h in self.increments():
            worst = min(worst, _lowest_eigenvalue(h))
        return -worst

    def monotonicity_defect(self) -> float:
        """Most negative eigenvalue across increments (>= -tol required),
        computed once per sequence."""
        return self._monotonicity_defect

    def validate(self):
        defect = self.monotonicity_defect()
        if defect > self.tol:
            raise ValueError(f"sequence is not increasing: increment defect {defect:.3e}")


def hamiltonian_sequence(phi: Interaction, lam: SiteSet,
                         grouping: Sequence[Sequence[int]] | None = None,
                         tol: float = 1e-10) -> HamiltonianSequence:
    """Partial sums of the interaction terms inside ``lam``.

    Terms are added left to right (ordered by their leftmost site, then
    extent), one term per step by default; ``grouping`` instead selects
    explicit batches, as lists of indices into the interaction's term
    list restricted to the volume (original order).
    """
    if phi.is_time_dependent:
        raise ValueError("gap sequences are defined for static interactions")
    inside = [t for t in phi.terms if set(t.sites) <= set(lam.sites)]
    order = sorted(range(len(inside)),
                   key=lambda i: (sorted(lam.positions(inside[i].sites)), i))
    if grouping is None:
        grouping = [[i] for i in order]
    hams = [fock.zero(lam)]
    acc = np.zeros((lam.dim, lam.dim), dtype=complex)
    for group in grouping:
        for i in group:
            acc = acc + term_operator(inside[i], lam).matrix
        hams.append(FockOperator(np.array(acc), lam,
                                 frozenset(lam.sites), EVEN if phi.even else MIXED))
    seq = HamiltonianSequence(tuple(hams), tol)
    seq.validate()
    return seq


def resolution_family(kernel_projections: Sequence[FockOperator],
                      tol: float = 1e-10) -> list:
    """Resolution of the identity from nested kernel projections
    G_1 >= G_2 >= ... >= G_N:

        E_0 = 1 - G_1,  E_n = G_n - G_{n+1},  E_N = G_N.

    Nesting, mutual orthogonality and completeness are all verified to
    ``tol``.
    """
    gs = list(kernel_projections)
    if not gs:
        raise ValueError("need at least one kernel projection")
    lam = gs[0].ambient
    for g_prev, g_next in zip(gs, gs[1:]):
        defect = op_norm(g_next - g_next @ g_prev)
        if defect > tol:
            raise ValueError(f"kernel projections are not nested: defect {defect:.3e}")
    one = identity(lam)
    es = [one - gs[0]]
    for n in range(len(gs) - 1):
        es.append(gs[n] - gs[n + 1])
    es.append(gs[-1])
    total = es[0]
    for e in es[1:]:
        total = total + e
    if op_norm(total - one) > tol:
        raise ValueError("resolution does not sum to the identity")
    for i, e in enumerate(es):
        for j in range(i, len(es)):
            prod = e @ es[j]
            defect = op_norm(prod - e) if i == j else op_norm(prod)
            if defect > tol:
                raise ValueError(f"E_{i} E_{j} defect {defect:.3e}")
    return es


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
    no_certificate_reason: str | None = None

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


def martingale_certificate(seq: HamiltonianSequence,
                           kernel_tol: float | None = None,
                           commute_tol: float = 1e-10,
                           compute_exact_gap: bool = True) -> GapCertificate:
    """Extract (gamma, ell, eps) from the sequence and certify the gap.

    gamma is the smallest nonzero eigenvalue across increments; ell is the
    smallest window width absorbing all nonzero commutators [E_k, g_{n+1}]
    with k <= n; eps^2 is the largest norm of E_n g_{n+1} E_n.  A bound is
    emitted only when eps sqrt(1 + ell) < 1; failure to certify is a
    result, not an exception.
    """
    seq.validate()
    n_steps = seq.size
    increments = seq.increments()

    gammas, g_projs = [], []
    for h in increments:
        w, k, g = _kernel(h, kernel_tol)
        if k == w.size:
            raise ValueError("an increment vanishes; refine the grouping")
        gammas.append(float(w[k]))
        g_projs.append(g)
    gamma = min(gammas)

    big_projs = []
    exact_gap = None
    for idx, H in enumerate(seq.hamiltonians[1:]):
        w, k, G = _kernel(H, kernel_tol)
        if k == 0:
            raise ValueError(f"H_{idx + 1} has trivial kernel; the method needs "
                             "nonempty ground spaces")
        big_projs.append(G)
        if compute_exact_gap and idx == n_steps - 1:
            exact_gap = float(w[k]) if k < w.size else None

    es = resolution_family(big_projs, tol=commute_tol)

    # assumption (i) residual: h_n - gamma (1 - g_n) >= 0
    assumption_i = 0.0
    one = identity(seq.lattice)
    for h, g in zip(increments, g_projs):
        residual = h - gamma * (one - g)
        assumption_i = max(assumption_i, max(0.0, -_lowest_eigenvalue(residual)))

    ell = 0
    forward_defect = 0.0
    commute_defects = np.zeros((n_steps + 1, n_steps))
    for n in range(n_steps):
        for k in range(n_steps + 1):
            d = op_norm(fock.commutator(es[k], g_projs[n]))
            commute_defects[k, n] = d
            if d > commute_tol:
                if k > n:
                    forward_defect = max(forward_defect, d)
                else:
                    ell = max(ell, n - k)
    if forward_defect > 0.0:
        return GapCertificate(
            gamma=gamma, ell=ell, epsilon=math.nan, bound=None,
            exact_gap=exact_gap,
            defects={"assumption_i": assumption_i,
                     "monotonicity": seq.monotonicity_defect(),
                     "forward_commutator": forward_defect},
            per_step={"gamma_n": gammas},
            no_certificate_reason="a kernel projection fails to commute with a "
                                  "later spectral block")

    eps_sq = 0.0
    eps_per_step = []
    for n in range(n_steps):
        m = es[n].matrix @ g_projs[n].matrix @ es[n].matrix
        val = op_norm(m)
        eps_per_step.append(val)
        eps_sq = max(eps_sq, val)
    epsilon = math.sqrt(eps_sq)

    bound = martingale_bound(gamma, ell, epsilon)
    reason = None if bound is not None else (
        f"eps sqrt(1+ell) = {epsilon * math.sqrt(1 + ell):.3f} >= 1")
    defects = {
        "assumption_i": assumption_i,
        "monotonicity": seq.monotonicity_defect(),
        "forward_commutator": forward_defect,
        "max_allowed_window_commutator": float(commute_defects.max(initial=0.0)),
    }
    per_step = {
        "gamma_n": gammas,
        "eps_sq_n": eps_per_step,
        "max_commutator_n": [float(commute_defects[:, n].max()) for n in range(n_steps)],
    }
    return GapCertificate(gamma=gamma, ell=ell, epsilon=epsilon, bound=bound,
                          exact_gap=exact_gap, defects=defects,
                          per_step=per_step, no_certificate_reason=reason)


@dataclass(frozen=True)
class SandwichResult:
    """Extreme constants with c H_N <= H_target - E_0 <= C H_N."""

    c: float
    C: float
    ground_energy: float


def sandwich_check(H_target: FockOperator, H_N: FockOperator,
                   tol: float = 1e-10) -> SandwichResult:
    """Largest c and smallest C sandwiching the shifted target between
    multiples of H_N, via the generalized eigenproblem restricted to the
    orthogonal complement of ker(H_N).

    Requires ker(H_N) inside ker(H_target - E_0); otherwise no finite
    sandwich exists and a KernelMismatchError carries a witness vector.
    """
    for H in (H_target, H_N):
        if not H.is_hermitian(1e-12):
            raise ValueError("sandwich members must be self-adjoint")
    w_t = np.linalg.eigvalsh(H_target.matrix)
    e0 = float(w_t[0])
    D = H_target.matrix - e0 * np.eye(H_target.dim)

    w, v = np.linalg.eigh(H_N.matrix)
    ktol = _kernel_tol(w, None if tol is None else tol * max(1.0, float(np.abs(w).max())))
    k = _split_kernel(w, ktol)
    if k:
        kernel_vecs = v[:, :k]
        img = D @ kernel_vecs
        norms = np.linalg.norm(img, axis=0)
        worst = int(np.argmax(norms))
        scale = max(1.0, float(np.abs(D).max()))
        if norms[worst] > math.sqrt(tol) * scale:
            raise KernelMismatchError(
                f"ker(H_N) leaks out of ker(H_target - E0): |D v| = {norms[worst]:.3e}",
                witness=kernel_vecs[:, worst], defect=float(norms[worst]))
    vr = v[:, k:]
    if vr.shape[1] == 0:
        raise ValueError("H_N vanishes; sandwich constants are undefined")
    d_r = vr.conj().T @ D @ vr
    h_r = vr.conj().T @ H_N.matrix @ vr
    gen = scipy.linalg.eigvalsh(d_r, h_r)
    return SandwichResult(c=float(gen[0]), C=float(gen[-1]), ground_energy=e0)


@dataclass(frozen=True)
class FlowReport:
    """Spectral-projection transport along a gapped parameter path."""

    parameters: np.ndarray
    gaps: np.ndarray
    rank: int
    defects: np.ndarray
    max_defect: float
    substeps: int


def _expm_antihermitian(K: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(1j * K)
    return (v * np.exp(-1j * w)) @ v.conj().T


def projection_flow(family: Callable[[float], Interaction], lam: SiteSet,
                    parameters: Iterable[float], gamma_min: float,
                    rank: int | None = None, defect_target: float = 1e-6,
                    max_substeps: int = 512,
                    closure_resolution: float = 1e-3) -> FlowReport:
    """Track the low-energy spectral projection P(s) along a family of
    interactions and transport it with the commutator generator
    K(s) = [dP/ds, P(s)] (central differences, internally refined), so
    that U(s) P(0) U(s)* follows P(s).

    The spectral gap separating the tracked block must stay above
    ``gamma_min`` everywhere probed; a closure raises GapClosureError with
    a bisected crossing location.
    """
    s_grid = np.asarray(sorted(float(s) for s in parameters))
    if s_grid.size < 2:
        raise ValueError("need at least two parameter values")
    if gamma_min <= 0:
        raise ValueError("gamma_min must be positive")

    eig_cache: dict = {}

    def eig_at(s: float) -> tuple:
        key = round(float(s), 12)
        hit = eig_cache.get(key)
        if hit is None:
            H = local_hamiltonian(family(float(s)), lam, 0.0).matrix
            hit = np.linalg.eigh(H)
            eig_cache[key] = hit
        return hit

    w0 = eig_at(s_grid[0])[0]
    if rank is None:
        gaps0 = np.diff(w0)
        best = float(gaps0.max())
        # first gap within tolerance of the largest, so equal gaps resolve
        # to the lowest spectral block rather than by float noise
        rank = int(np.flatnonzero(gaps0 >= best * (1 - 1e-9))[0]) + 1

    last_good = None

    def gap_at(s: float) -> float:
        w = eig_at(s)[0]
        return float(w[rank] - w[rank - 1])

    def projection_at(s: float) -> np.ndarray:
        w, v = eig_at(s)
        g = float(w[rank] - w[rank - 1])
        if g < gamma_min:
            lo = last_good if last_good is not None else s_grid[0]
            location, bracket = _bisect_closure(gap_at, lo, s, gamma_min,
                                                closure_resolution)
            raise GapClosureError(
                f"gap {g:.3e} below {gamma_min} near s = {location:.6f}",
                location=location, bracket=bracket, gap=g)
        vk = v[:, :rank]
        return vk @ vk.conj().T

    p_prev = projection_at(s_grid[0])
    last_good = float(s_grid[0])
    p0 = p_prev
    U = np.eye(lam.dim, dtype=complex)
    gaps = [gap_at(s_grid[0])]
    defects = [float(op_norm(p_prev - U @ p0 @ U.conj().T))]
    total_span = float(s_grid[-1] - s_grid[0])
    substeps_used = 1

    nsub_start = 1
    for j in range(s_grid.size - 1):
        s_a, s_b = float(s_grid[j]), float(s_grid[j + 1])
        budget = defect_target * (s_b - s_a) / total_span if total_span > 0 else defect_target
        nsub = nsub_start
        while True:
            fine = np.linspace(s_a, s_b, nsub + 1)
            projs = [projection_at(s) for s in fine]
            jump = max(op_norm(q - p) for p, q in zip(projs, projs[1:]))
            if jump > 0.1 and nsub < max_substeps:
                nsub *= 2
                continue
            # central-difference dP/ds on the fine grid, one-sided at the ends
            dps = [(projs[1] - projs[0]) / (fine[1] - fine[0])]
            for i in range(1, nsub):
                dps.append((projs[i + 1] - projs[i - 1]) / (fine[i + 1] - fine[i - 1]))
            dps.append((projs[-1] - projs[-2]) / (fine[-1] - fine[-2]))
            u_step = np.eye(lam.dim, dtype=complex)
            for i in range(nsub):
                ds = float(fine[i + 1] - fine[i])
                k_a = dps[i] @ projs[i] - projs[i] @ dps[i]
                k_b = dps[i + 1] @ projs[i + 1] - projs[i + 1] @ dps[i + 1]
                u_step = _expm_antihermitian(ds * 0.5 * (k_a + k_b)) @ u_step
            err = float(op_norm(u_step @ projs[0] @ u_step.conj().T - projs[-1]))
            if err <= budget or nsub >= max_substeps:
                break
            nsub *= 2
        nsub_start = max(1, nsub // 2)
        substeps_used = max(substeps_used, nsub)
        U = u_step @ U
        last_good = s_b
        gaps.append(gap_at(s_b))
        defects.append(float(op_norm(projs[-1] - U @ p0 @ U.conj().T)))

    defects = np.array(defects)
    return FlowReport(parameters=s_grid, gaps=np.array(gaps), rank=rank,
                      defects=defects, max_defect=float(defects.max()),
                      substeps=substeps_used)


def _bisect_closure(gap_at: Callable[[float], float], lo: float, hi: float,
                    gamma_min: float, resolution: float) -> tuple:
    """Bisect the first crossing of gap(s) below gamma_min in [lo, hi]."""
    if gap_at(lo) < gamma_min:
        return lo, (lo, lo)
    a, b = lo, hi
    while b - a > resolution * max(1.0, abs(hi - lo)):
        mid = 0.5 * (a + b)
        if gap_at(mid) < gamma_min:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), (a, b)
