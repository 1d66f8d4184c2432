"""Concrete interaction builders: hopping chains, a pairing (Majorana)
chain with a frustration-free point, flat-band two-band models built from
localized orbitals, and seeded random even interactions for property
tests.

Every builder normalizes its terms so that each term's smallest eigenvalue
is declared explicitly; gap-oriented builders shift terms to be positive
semidefinite, so frustration-freeness is equivalent to the global ground
energy vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fock
from .dynamics import Interaction, InteractionTerm
from .fock import ODD, FockOperator, SiteSet, annihilator, creator, identity
from .geometry import MetricGraph

#: tolerance of every orbital-set check (``OrbitalSet.validate``, ``band_operators``)
ORBITAL_TOL = 1e-12


def hopping_chain(L: int, J: float = 1.0, mu: float = 0.0,
                  boundary: str = "open") -> Interaction:
    """Nearest-neighbor hopping J(a*_x a_{x+1} + h.c.) plus on-site
    chemical potential mu a*_x a_x."""
    if L < 2:
        raise ValueError("chain needs at least 2 sites")
    if boundary not in ("open", "periodic"):
        raise ValueError(f"unknown boundary {boundary!r}")
    terms = []
    bonds = [(x, x + 1) for x in range(L - 1)]
    if boundary == "periodic" and L > 2:
        bonds.append((0, L - 1))
    for x, y in bonds:
        sub = SiteSet((x, y))
        op = J * (creator(sub, x) @ annihilator(sub, y)
                  + creator(sub, y) @ annihilator(sub, x))
        terms.append(InteractionTerm((x, y), op, label=f"hop[{x},{y}]"))
    if mu != 0.0:
        for x in range(L):
            sub = SiteSet((x,))
            op = mu * (creator(sub, x) @ annihilator(sub, x))
            terms.append(InteractionTerm((x,), op, label=f"mu[{x}]"))
    return Interaction(tuple(terms))


@dataclass(frozen=True, eq=False)
class OrbitalSet:
    """Valence and conduction orbitals as coefficient vectors over a site
    set, with their centers and a common support radius.

    Required structure: every orbital normalized, valence orthogonal to
    conduction, the combined family spanning the one-particle space, and
    each orbital supported inside the ball of radius ``radius`` around its
    center.  Valence orbitals need not be mutually orthogonal.
    """

    lattice: SiteSet
    valence: np.ndarray           # (n_val, L)
    conduction: np.ndarray        # (n_cond, L)
    valence_centers: tuple
    conduction_centers: tuple
    radius: float

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.valence, dtype=complex))
        c = np.atleast_2d(np.asarray(self.conduction, dtype=complex))
        object.__setattr__(self, "valence", v)
        object.__setattr__(self, "conduction", c)
        L = len(self.lattice)
        if v.shape[1] != L or c.shape[1] != L:
            raise ValueError("orbital vectors must have one entry per site")
        if len(self.valence_centers) != v.shape[0] or len(self.conduction_centers) != c.shape[0]:
            raise ValueError("one center per orbital required")
        v.flags.writeable = False
        c.flags.writeable = False

    def validate(self, graph: MetricGraph) -> dict:
        """Defect report for the orbital-set structure on ``graph``; every
        defect must be at most ORBITAL_TOL."""
        norms = np.concatenate([np.linalg.norm(self.valence, axis=1),
                                np.linalg.norm(self.conduction, axis=1)])
        norm_defect = float(np.abs(norms - 1.0).max()) if norms.size else 0.0
        cross = self.valence @ self.conduction.conj().T
        cross_defect = float(np.abs(cross).max()) if cross.size else 0.0
        combined = np.vstack([self.valence, self.conduction])
        rank = int(np.linalg.matrix_rank(combined, tol=1e-10))
        leak = 0.0
        centers = (*self.valence_centers, *self.conduction_centers)
        for f, x in zip(combined, centers):
            ball = set(graph.ball(x, self.radius))
            outside = [i for i, s in enumerate(self.lattice.sites) if s not in ball]
            if outside:
                leak = max(leak, float(np.abs(f[outside]).max()))
        report = {"normalization": norm_defect, "cross_orthogonality": cross_defect,
                  "span_rank": rank, "support_leak": leak}
        if max(norm_defect, cross_defect, leak) > ORBITAL_TOL or rank < len(self.lattice):
            raise ValueError(f"orbital set violates its structure: {report}")
        return report


def _dressed_annihilator(lam: SiteSet, coeffs: np.ndarray) -> FockOperator:
    """b = sum_x conj(f(x)) a_x for a coefficient vector f over ``lam``, added
    in site order to the zero odd operator."""
    b = FockOperator(np.zeros((lam.dim, lam.dim)), lam, (), ODD)
    for x, w in zip(lam.sites, coeffs):
        if w != 0:
            b = b + complex(np.conj(w)) * annihilator(lam, x)
    return b


def band_operators(lam: SiteSet, orbitals: OrbitalSet) -> tuple:
    """Dressed annihilators (b_k for valence, c_l for conduction).

    Each family must be orthonormal and the two orthogonal (to
    ORBITAL_TOL), so the dressed modes satisfy the canonical
    anticommutation relations among themselves.
    """
    if orbitals.lattice != lam:
        raise ValueError("orbital set lives on a different lattice")
    for fam, name in ((orbitals.valence, "valence"), (orbitals.conduction, "conduction")):
        if fam.size:
            gram = fam @ fam.conj().T
            if np.abs(gram - np.eye(fam.shape[0])).max() > ORBITAL_TOL:
                raise ValueError(f"{name} orbitals are not orthonormal")
    if orbitals.valence.size and orbitals.conduction.size:
        if np.abs(orbitals.valence @ orbitals.conduction.conj().T).max() > ORBITAL_TOL:
            raise ValueError("valence and conduction orbitals are not orthogonal")
    b_ops = [_dressed_annihilator(lam, f) for f in orbitals.valence]
    c_ops = [_dressed_annihilator(lam, g) for g in orbitals.conduction]
    return b_ops, c_ops


def flat_band_model(orbitals: OrbitalSet, graph: MetricGraph,
                    conduction_profile: Callable[[float], float] | None = None) -> Interaction:
    """Two-band interaction: one projection term per orbital,

        Phi(ball around valence center)    = 1 - b*_k b_k,
        Phi(ball around conduction center) = c*_l c_l,

    zero elsewhere.  Each term is a projection; filling every valence mode
    and no conduction mode gives a zero-energy ground state.  Every
    conduction term carries ``conduction_profile`` (None: the constant 1),
    e.g. 1 - 2s to close the conduction band along a path in s.
    """
    orbitals.validate(graph)
    lam = orbitals.lattice
    terms = []
    for name, family, centers in (
            ("valence", orbitals.valence, orbitals.valence_centers),
            ("conduction", orbitals.conduction, orbitals.conduction_centers)):
        for k, (f, x) in enumerate(zip(family, centers)):
            sub = lam.restrict(graph.ball(x, orbitals.radius))
            b = _dressed_annihilator(sub, np.array([f[lam.position(s)] for s in sub.sites]))
            number = b.adjoint() @ b
            op = identity(sub) - number if name == "valence" else number
            profile = None if name == "valence" else conduction_profile
            terms.append(InteractionTerm(sub.sites, op, profile, label=f"{name}[{k}]"))
    return Interaction(tuple(terms))


def paired_cell_orbitals(L: int, angle: float = 0.3) -> OrbitalSet:
    """Complete two-band orbital set on a chain of even length: cells
    (2j, 2j+1) carry one valence orbital (cos, sin) and one conduction
    orbital (-sin, cos), rotated by ``angle``."""
    if L < 2 or L % 2:
        raise ValueError("need an even number of sites >= 2")
    ncell = L // 2
    val = np.zeros((ncell, L), dtype=complex)
    con = np.zeros((ncell, L), dtype=complex)
    vc, cc = [], []
    for j in range(ncell):
        a, b = 2 * j, 2 * j + 1
        val[j, a], val[j, b] = np.cos(angle), np.sin(angle)
        con[j, a], con[j, b] = -np.sin(angle), np.cos(angle)
        vc.append(a)
        cc.append(b)
    return OrbitalSet(fock.chain(L), val, con, tuple(vc), tuple(cc), radius=1.0)


def rotating_flat_band(L: int, angle: Callable[[float], float]) -> Interaction:
    """The flat-band model of ``paired_cell_orbitals(L, angle(s))`` as one
    interaction with profiles in s, whose Hamiltonian at s equals that of
    the model rebuilt at the angle theta = angle(s), up to roundoff.

    Cell (a, b) = (2j, 2j+1) has the real modes b = cos(theta) a_a +
    sin(theta) a_b and c = -sin(theta) a_a + cos(theta) a_b, and the number
    operators are quadratic in their coefficients:

        b*b = cos^2 n_a + sin^2 n_b + cos sin (a*_a a_b + a*_b a_a),
        c*c = sin^2 n_a + cos^2 n_b - cos sin (a*_a a_b + a*_b a_a).

    So the valence term 1 - b*b and the conduction term c*c are sums of
    the fixed self-adjoint templates 1, n_a, n_b and the hop a*_a a_b +
    a*_b a_a on the cell, with the profiles 1, cos^2(theta(s)),
    sin^2(theta(s)) and cos(theta(s)) sin(theta(s)).  Each template is its
    own term on the two cell sites (the rebuilt model's terms span a ball
    of radius 1, on whose third site the orbitals vanish); valence terms
    come first, as in ``flat_band_model``.
    """
    if L < 2 or L % 2:
        raise ValueError("need an even number of sites >= 2")

    def cos2(s):
        return np.cos(angle(s)) ** 2

    def sin2(s):
        return np.sin(angle(s)) ** 2

    def cos_sin(s):
        theta = angle(s)
        return np.cos(theta) * np.sin(theta)

    valence, conduction = [], []
    for j in range(L // 2):
        a, b = 2 * j, 2 * j + 1
        cell = SiteSet((a, b))
        n_a = creator(cell, a) @ annihilator(cell, a)
        n_b = creator(cell, b) @ annihilator(cell, b)
        hop = creator(cell, a) @ annihilator(cell, b) + creator(cell, b) @ annihilator(cell, a)
        for part, op, profile in (("1", identity(cell), None), ("n_a", -n_a, cos2),
                                  ("n_b", -n_b, sin2), ("hop", -hop, cos_sin)):
            valence.append(InteractionTerm((a, b), op, profile, label=f"valence[{j}].{part}"))
        for part, op, profile in (("n_a", n_a, sin2), ("n_b", n_b, cos2),
                                  ("hop", -hop, cos_sin)):
            conduction.append(InteractionTerm((a, b), op, profile,
                                              label=f"conduction[{j}].{part}"))
    return Interaction(tuple(valence + conduction))


def overlapping_orbitals(L: int, tilt: float = 0.4) -> OrbitalSet:
    """Non-orthogonal valence family on overlapping bonds: f_j lives on
    sites (j, j+1), so consecutive valence terms fail to commute.  The
    single conduction orbital spans the orthogonal complement; its support
    is global, reflected by a radius covering the whole chain."""
    if L < 3:
        raise ValueError("need at least 3 sites")
    lam = fock.chain(L)
    val = np.zeros((L - 1, L), dtype=complex)
    c, s = np.cos(tilt), np.sin(tilt)
    for j in range(L - 1):
        val[j, j], val[j, j + 1] = c, s
    # orthogonal complement of the valence span (one vector)
    q, _ = np.linalg.qr(val.T.conj(), mode="complete")
    g = q[:, L - 1].conj()
    g = g / np.linalg.norm(g)
    con = g[None, :]
    centers = tuple(range(L - 1))
    return OrbitalSet(lam, val, con, centers, (L // 2,), radius=float(L))


def kitaev_chain(L: int, hopping: float = 1.0, pairing: float = 1.0,
                 mu: float = 0.0) -> Interaction:
    """Majorana chain with hopping, nearest-neighbor pairing and chemical
    potential.  Every term is shifted to be positive semidefinite, so the
    model is frustration-free exactly when the global ground energy is
    zero; the shipped default (hopping = pairing, mu = 0) is such a point.
    """
    if L < 2:
        raise ValueError("chain needs at least 2 sites")
    terms = []
    for x in range(L - 1):
        sub = SiteSet((x, x + 1))
        ax, ay = annihilator(sub, x), annihilator(sub, x + 1)
        quad = (-hopping * (ax.adjoint() @ ay + ay.adjoint() @ ax)
                + pairing * (ax @ ay + ay.adjoint() @ ax.adjoint()))
        shift = -float(np.linalg.eigvalsh(quad.matrix).min())
        op = quad + shift * identity(sub)
        terms.append(InteractionTerm((x, x + 1), op, label=f"bond[{x},{x + 1}]"))
    if mu != 0.0:
        for x in range(L):
            sub = SiteSet((x,))
            n = creator(sub, x) @ annihilator(sub, x)
            quad = -mu * (n - 0.5 * identity(sub))
            op = quad + (abs(mu) / 2) * identity(sub)
            terms.append(InteractionTerm((x,), op, label=f"mu[{x}]"))
    return Interaction(tuple(terms))


def random_even_interaction(lam: SiteSet, max_range: int = 1, strength: float = 1.0,
                            seed: int = 0, n_terms: int | None = None) -> Interaction:
    """Seeded random even self-adjoint terms on contiguous site windows of
    index diameter at most ``max_range``, each of operator norm
    ``strength``.  Identical seeds give identical interactions."""
    rng = np.random.default_rng(seed)
    L = len(lam)
    if n_terms is None:
        n_terms = L
    terms = []
    for k in range(n_terms):
        width = int(rng.integers(1, max_range + 2))
        width = min(width, L)
        start = int(rng.integers(0, L - width + 1))
        sites = lam.sites[start:start + width]
        sub = lam.restrict(sites)
        m = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal((sub.dim, sub.dim))
        raw = FockOperator(m + m.conj().T, sub, frozenset(sites))
        even = fock.parity_decompose(raw)[0]
        nrm = fock.op_norm(even)
        if nrm == 0.0:
            continue
        op = even * (strength / nrm)
        terms.append(InteractionTerm(sites, op, label=f"rand[{k}]"))
    return Interaction(tuple(terms))
