"""Exact matrix representation of the fermionic algebra on a finite site set.

Operators live on the 2^|Lambda| occupation-number (Fock) space of a
``SiteSet`` Lambda.  Basis state ``k`` stores the occupation of the i-th
site (in lattice order) in bit i of ``k``, so the first site is the least
significant bit.  Annihilators follow the Jordan-Wigner convention

    a_x = (prod_{y before x} theta_y) (x) sigma^-_x,

with theta_y = 1 - 2 a*_y a_y, which makes the canonical anticommutation
relations

    {a_x, a_y} = {a*_x, a*_y} = 0,   {a_x, a*_y} = delta_{x,y} 1

exact at the matrix level (all entries are small integers).

Everything here is a pure function over immutable inputs; matrices are
frozen after construction and operators are safe to share across threads.
``FockOperator.apply`` is the matrix-free application hook: a sparse or
matrix-free backend can override storage without changing any contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import SiteNotInLattice

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

#: relative tolerance for validating declared parity tags; generous enough
#: to absorb propagator roundoff on evolved observables
PARITY_TAG_TOL = 1e-10

# density below which products are routed through scipy.sparse
_SPARSE_CUTOFF = 0.02

# local 2x2 blocks in the (vacant, occupied) basis
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # a
_RAISE = _LOWER.conj().T                                      # a*
_THETA = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)   # 1 - 2 a*a


@dataclass(frozen=True)
class SiteSet:
    """Ordered finite collection of distinct site identifiers.

    The ordering is fixed at construction and determines both the
    occupation-bit layout and the Jordan-Wigner sign strings.
    """

    sites: tuple

    def __init__(self, sites: Iterable):
        object.__setattr__(self, "sites", tuple(sites))
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be distinct")

    @cached_property
    def _positions(self) -> dict:
        return {x: i for i, x in enumerate(self.sites)}

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, x) -> bool:
        return x in self._positions

    def __iter__(self):
        return iter(self.sites)

    @property
    def dim(self) -> int:
        """Fock-space dimension 2^|Lambda|."""
        return 1 << len(self.sites)

    def position(self, x) -> int:
        try:
            return self._positions[x]
        except KeyError:
            raise SiteNotInLattice(f"site {x!r} not in lattice {self.sites}") from None

    def positions(self, subset: Iterable) -> tuple:
        return tuple(self.position(x) for x in subset)

    def restrict(self, subset: Iterable) -> "SiteSet":
        """Sub-lattice induced by ``subset``, keeping this set's order."""
        chosen = set(subset)
        missing = chosen - set(self.sites)
        if missing:
            raise SiteNotInLattice(f"sites {sorted(map(repr, missing))} not in lattice")
        return SiteSet(x for x in self.sites if x in chosen)

    def sorted_subset(self, subset: Iterable) -> tuple:
        """Subset as a tuple ordered like the lattice."""
        chosen = set(subset)
        return tuple(x for x in self.sites if x in chosen)


def chain(length: int) -> SiteSet:
    """Sites 0..length-1 in natural order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return SiteSet(range(length))


@lru_cache(maxsize=None)
def _occupations(nsites: int) -> np.ndarray:
    """(2^n, n) array of occupation bits; row k column i is bit i of k."""
    states = np.arange(1 << nsites)
    bits = (states[:, None] >> np.arange(nsites)[None, :]) & 1
    bits.flags.writeable = False
    return bits


@lru_cache(maxsize=None)
def _parity_violation_masks(nsites: int) -> tuple:
    """Boolean masks of matrix entries that must vanish for even-tagged
    (opposite total-parity index pairs) and odd-tagged (equal-parity
    pairs) operators."""
    signs = 1 - 2 * (_occupations(nsites).sum(axis=1) % 2)
    opposite = signs[:, None] != signs[None, :]
    even_mask = opposite
    odd_mask = ~opposite
    even_mask.flags.writeable = False
    odd_mask.flags.writeable = False
    return even_mask, odd_mask


def _parity_signs(lam: SiteSet, positions: tuple) -> np.ndarray:
    """Diagonal of (-1)^{N_X} for the sites at ``positions``."""
    bits = _occupations(len(lam))
    if not positions:
        return np.ones(lam.dim)
    count = bits[:, list(positions)].sum(axis=1)
    return np.where(count % 2 == 0, 1.0, -1.0)


def _as_sparse(m: np.ndarray):
    """csr view of a dense matrix when it is sparse enough, else None;
    a single nonzero scan decides and builds the matrix."""
    rows, cols = np.nonzero(m)
    if rows.size > m.size * _SPARSE_CUTOFF:
        return None
    return sparse.csr_matrix((m[rows, cols], (rows, cols)), shape=m.shape)


def _smart_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product routed through scipy.sparse when both factors are
    very sparse (Jordan-Wigner generators are)."""
    if a.size >= 1 << 14:
        sa = _as_sparse(a)
        if sa is not None:
            sb = _as_sparse(b)
            if sb is not None:
                return (sa @ sb).toarray()
    return a @ b


def _bracket_matrices(a: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
    """a b + sign * b a with each factor converted to sparse at most once."""
    if a.size >= 1 << 14:
        sa = _as_sparse(a)
        if sa is not None:
            sb = _as_sparse(b)
            if sb is not None:
                return (sa @ sb).toarray() + sign * (sb @ sa).toarray()
    return a @ b + sign * (b @ a)


def _mul_parity(p: str, q: str) -> str:
    if p == MIXED or q == MIXED:
        return MIXED
    return EVEN if p == q else ODD


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Dense complex matrix on the Fock space of ``ambient`` together with a
    declared support set and parity tag.

    ``support`` is an upper bound on where the operator acts nontrivially;
    ``parity`` in {'even', 'odd'} is validated on construction against
    conjugation by the global parity operator (tolerance PARITY_TAG_TOL
    relative to the matrix scale), 'mixed' is accepted unchecked.
    """

    matrix: np.ndarray
    ambient: SiteSet
    support: frozenset = field(default=None)
    parity: str = MIXED

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d = self.ambient.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d}) for {len(self.ambient)} sites")
        supp = self.support
        if supp is None:
            supp = frozenset(self.ambient.sites)
        else:
            supp = frozenset(supp)
            for x in supp:
                self.ambient.position(x)
        object.__setattr__(self, "support", supp)
        if self.parity not in (EVEN, ODD, MIXED):
            raise ValueError(f"unknown parity tag {self.parity!r}")
        if self.parity != MIXED:
            even_mask, odd_mask = _parity_violation_masks(len(self.ambient))
            mask = even_mask if self.parity == EVEN else odd_mask
            forbidden = m[mask]
            defect = 2.0 * np.abs(forbidden).max() if forbidden.size else 0.0
            scale = max(1.0, np.abs(m).max()) if m.size else 1.0
            if defect > PARITY_TAG_TOL * scale:
                raise ValueError(
                    f"declared parity {self.parity!r} violated: defect {defect:.3e} "
                    f"at scale {scale:.3e}")
        m.flags.writeable = False

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-free application hook: operator acting on a state vector."""
        return self.matrix @ vec

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.ambient, self.support, self.parity)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, np.abs(self.matrix).max())
        return np.abs(self.matrix - self.matrix.conj().T).max() <= tol * scale

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "FockOperator"):
        if self.ambient != other.ambient:
            raise ValueError("operators live on different site sets")

    def __add__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        self._check_ambient(other)
        parity = self.parity if self.parity == other.parity else MIXED
        return FockOperator(self.matrix + other.matrix, self.ambient,
                            self.support | other.support, parity)

    def __sub__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        self._check_ambient(other)
        parity = self.parity if self.parity == other.parity else MIXED
        return FockOperator(self.matrix - other.matrix, self.ambient,
                            self.support | other.support, parity)

    def __neg__(self):
        return FockOperator(-self.matrix, self.ambient, self.support, self.parity)

    def __mul__(self, scalar):
        if isinstance(scalar, FockOperator):
            return NotImplemented
        return FockOperator(self.matrix * scalar, self.ambient, self.support, self.parity)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        self._check_ambient(other)
        return FockOperator(_smart_mul(self.matrix, other.matrix), self.ambient,
                            self.support | other.support,
                            _mul_parity(self.parity, other.parity))


def identity(lam: SiteSet) -> FockOperator:
    return FockOperator(np.eye(lam.dim, dtype=complex), lam, frozenset(), EVEN)


def zero(lam: SiteSet) -> FockOperator:
    return FockOperator(np.zeros((lam.dim, lam.dim), dtype=complex), lam, frozenset(), EVEN)


def annihilator(lam: SiteSet, x) -> FockOperator:
    """Jordan-Wigner annihilation operator a_x on the Fock space of ``lam``."""
    i = lam.position(x)
    return FockOperator(_string_dense(lam, ((i, "a"),)), lam, frozenset({x}), ODD)


def creator(lam: SiteSet, x) -> FockOperator:
    """Creation operator a*_x."""
    return annihilator(lam, x).adjoint()


def number_operator(lam: SiteSet, subset: Iterable | None = None) -> FockOperator:
    """N_X = sum_{x in X} a*_x a_x (diagonal in the occupation basis)."""
    if subset is None:
        subset = lam.sites
    subset = tuple(subset)
    pos = lam.positions(subset)
    bits = _occupations(len(lam))
    diag = bits[:, list(pos)].sum(axis=1).astype(complex) if pos else np.zeros(lam.dim, dtype=complex)
    return FockOperator(np.diag(diag), lam, frozenset(subset), EVEN)


def parity_operator(lam: SiteSet, subset: Iterable | None = None) -> FockOperator:
    """theta_X = (-1)^{N_X}: unitary, self-adjoint, squares to the identity."""
    if subset is None:
        subset = lam.sites
    subset = tuple(subset)
    signs = _parity_signs(lam, lam.positions(subset))
    return FockOperator(np.diag(signs.astype(complex)), lam, frozenset(subset), EVEN)


def parity_flip(A: FockOperator, subset: Iterable | None = None) -> FockOperator:
    """Conjugation of A by theta_X (the parity automorphism over X)."""
    lam = A.ambient
    pos = lam.positions(tuple(subset)) if subset is not None else tuple(range(len(lam)))
    signs = _parity_signs(lam, pos)
    return FockOperator(signs[:, None] * A.matrix * signs[None, :], lam, A.support, A.parity)


def parity_decompose(A: FockOperator) -> tuple:
    """Split A = A_even + A_odd via the global parity automorphism."""
    signs = _parity_signs(A.ambient, tuple(range(len(A.ambient))))
    flipped = signs[:, None] * A.matrix * signs[None, :]
    even = FockOperator((A.matrix + flipped) / 2, A.ambient, A.support, EVEN)
    odd = FockOperator((A.matrix - flipped) / 2, A.ambient, A.support, ODD)
    return even, odd


#: per-site monomial symbols
MONOMIAL_SYMBOLS = ("1", "a", "a*", "a*a")


def monomial(lam: SiteSet, labels: Sequence[str]) -> FockOperator:
    """Ordered product prod_x A_x with A_x in {1, a_x, a*_x, a*_x a_x}.

    ``labels`` assigns a symbol to every site in lattice order; the result
    has definite parity (-1)^{number of single 'a' or 'a*' factors}.
    """
    if len(labels) != len(lam):
        raise ValueError(f"label length {len(labels)} != lattice size {len(lam)}")
    ops = []
    odd_count = 0
    support = []
    for i, sym in enumerate(labels):
        if sym == "1":
            continue
        if sym not in MONOMIAL_SYMBOLS:
            raise ValueError(f"unknown monomial symbol {sym!r}")
        if sym in ("a", "a*"):
            odd_count += 1
        support.append(lam.sites[i])
        ops.append((i, sym))
    parity = ODD if odd_count % 2 else EVEN
    return FockOperator(_string_dense(lam, tuple(ops)), lam, frozenset(support), parity)


# -- norms and brackets ----------------------------------------------------

def op_norm(A) -> float:
    """Operator (spectral) norm: the largest singular value.

    Accepts a FockOperator or a plain matrix.  Hermitian inputs, and
    anti-Hermitian ones such as commutators of Hermitian operators (as
    i m), go through the symmetric eigensolver; an exactly-zero matrix
    short-circuits to 0.
    """
    m = A.matrix if isinstance(A, FockOperator) else np.asarray(A)
    if not m.any():
        return 0.0
    if np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if np.abs(m + m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """[A, B] = AB - BA."""
    A._check_ambient(B)
    return FockOperator(_bracket_matrices(A.matrix, B.matrix, -1.0),
                        A.ambient, A.support | B.support,
                        _mul_parity(A.parity, B.parity))


def anticommutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """{A, B} = AB + BA."""
    A._check_ambient(B)
    return FockOperator(_bracket_matrices(A.matrix, B.matrix, 1.0),
                        A.ambient, A.support | B.support,
                        _mul_parity(A.parity, B.parity))


# -- operator-basis expansion, support projection and embedding -------------

# Hilbert-Schmidt-orthogonal single-site basis under the normalized trace:
# 1, a, a*, theta.  Squared weights are <e, e> = tr(e* e)/2: 1/2 for the
# odd symbols a and a*, 1 for 1 and theta.
_STRING_SYMBOLS = ("1", "a", "a*", "t")

_SYM_LOCAL = {
    "a": _LOWER,
    "a*": _RAISE,
    "t": _THETA,
    "a*a": _RAISE @ _LOWER,
}
_SYM_ODD = {"a": True, "a*": True, "t": False, "a*a": False}


def _string_action(lam: SiteSet, ops: tuple) -> tuple:
    """Column action of an ordered product of per-site symbols with their
    Jordan-Wigner strings.

    ``ops`` is a tuple of (position, symbol) pairs in product order.  Every
    such product has at most one nonzero per matrix column, so it is fully
    described by (rows, vals): column c maps to entry (rows[c], c) with
    weight vals[c] (zero when the column is annihilated).  It builds the
    generators and monomials; the operator-basis strings of ``decompose``
    and ``_assemble`` take the batched tables of ``_string_blocks``.
    """
    n = len(lam)
    factors = [None] * n
    for pos, sym in ops:
        local = _SYM_LOCAL[sym]
        odd = _SYM_ODD[sym]
        for y in range(pos):
            if odd:
                factors[y] = _THETA if factors[y] is None else factors[y] @ _THETA
        factors[pos] = local if factors[pos] is None else factors[pos] @ local
    cols = np.arange(lam.dim)
    rows = cols.copy()
    vals = np.ones(lam.dim, dtype=complex)
    for y, f in enumerate(factors):
        if f is None:
            continue
        bit = (cols >> y) & 1
        # per column-bit target row-bit and weight of the 2x2 factor
        r = np.zeros(2, dtype=np.int64)
        v = np.zeros(2, dtype=complex)
        for cbit in (0, 1):
            col = f[:, cbit]
            if col[0] != 0:
                r[cbit], v[cbit] = 0, col[0]
            elif col[1] != 0:
                r[cbit], v[cbit] = 1, col[1]
        rows = (rows & ~(1 << y)) | (r[bit] << y)
        vals = vals * v[bit]
    return rows, vals


def _string_dense(lam: SiteSet, ops: tuple) -> np.ndarray:
    rows, vals = _string_action(lam, ops)
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    nz = vals != 0
    m[rows[nz], np.flatnonzero(nz)] = vals[nz]
    return m


# each block of string tables holds at most this many (string, column) entries
_TABLE_BLOCK = 1 << 14


@lru_cache(maxsize=None)
def _popcount_signs(nsites: int) -> np.ndarray:
    """(-1)^{popcount(k)} for every basis state k of ``nsites`` sites."""
    signs = np.where(_occupations(nsites).sum(axis=1) % 2, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _string_blocks(lam: SiteSet, positions: tuple, strings: Iterable):
    """Column actions of operator-basis strings, a bounded block at a time.

    ``strings`` yields tuples of symbols from _STRING_SYMBOLS, one per
    entry of ``positions``.  Each string maps column c to row c ^ flip
    (the sites of its odd symbols), is alive iff c & flip == want (a needs
    an occupied site, a* a vacant one) and then has weight
    (-1)^{popcount(c & sign)}: an odd symbol at p puts theta on every site
    before p, a theta on p itself.  Yields (block, odd, rows, vals): the
    block's strings, the (B, k) mask of their odd symbols and the (B, 2^n)
    tables that _string_action gives one string at a time.
    """
    bit = np.left_shift(1, np.array(positions, dtype=np.int64))
    cols = np.arange(lam.dim)
    signs = _popcount_signs(len(lam))
    strings = iter(strings)
    per_block = max(1, _TABLE_BLOCK >> len(lam))
    while block := list(itertools.islice(strings, per_block)):
        symbols = np.array(block, dtype="<U2").reshape(len(block), len(positions))
        odd = (symbols == "a") | (symbols == "a*")
        flip = (odd * bit).sum(axis=1)[:, None]
        want = ((symbols == "a") * bit).sum(axis=1)[:, None]
        sign = np.bitwise_xor.reduce(np.where(odd, bit - 1, (symbols == "t") * bit),
                                     axis=1)[:, None]
        vals = np.where((cols & flip) == want, signs[cols & sign], 0.0)
        yield block, odd, cols ^ flip, vals


def decompose(A: FockOperator, subset: Iterable | None = None) -> dict:
    """Expansion coefficients of A over the trace-orthogonal operator basis
    built from {1, a_x, a*_x, theta_x} on ``subset`` (default: A.support).

    Exact whenever A is supported in ``subset``; the coefficients identify
    the abstract algebra element independently of the ambient lattice.  The
    strings' tables are built in bounded blocks; each coefficient is the
    same pairwise sum over all 2^n columns as one string at a time, bit for
    bit.
    """
    lam = A.ambient
    subset = lam.sorted_subset(A.support if subset is None else subset)
    pos = lam.positions(subset)
    if len(subset) > 8:
        raise ValueError(f"operator-basis expansion over {len(subset)} sites is too large")
    dim = lam.dim
    cols = np.arange(dim)
    coeffs = {}
    strings = itertools.product(_STRING_SYMBOLS, repeat=len(subset))
    for block, odd, rows, vals in _string_blocks(lam, pos, strings):
        inner = (vals * A.matrix[rows, cols]).sum(axis=1) / dim
        weight = np.where(odd, 0.5, 1.0).prod(axis=1)
        c = inner / weight
        for i in np.flatnonzero(np.abs(c) > 0.0):
            coeffs[block[i]] = complex(c[i])
    return coeffs


def _assemble(dim: int, positions: tuple, coeffs: dict, lam: SiteSet) -> np.ndarray:
    """Matrix of sum_s coeffs[s] s on ``lam``, accumulated string by string
    in dict order."""
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    values = np.array(list(coeffs.values()), dtype=complex)
    start = 0
    for block, _, rows, vals in _string_blocks(lam, positions, coeffs):
        c = values[start:start + len(block), None]
        start += len(block)
        np.add.at(m, (rows, cols), c * vals)
    return m


def _state_offsets(positions: tuple) -> np.ndarray:
    """Basis index contributed by each configuration of the sites at
    ``positions`` (configuration bit j sits at bit positions[j])."""
    return _occupations(len(positions)) @ (1 << np.array(positions, dtype=np.int64))


@lru_cache(maxsize=128)
def _front_reordering(nsites: int, positions: tuple) -> tuple:
    """Signed reordering that moves the sites at ``positions`` to the front.

    Returns (index, sign), both of shape (2^|C|, 2^|X|) for the complement
    C and X = ``positions``: index[c, s] is the basis state whose C bits
    read c and whose X bits read s, and sign[c, s] is the Jordan-Wigner
    sign (-1)^{#(occupied C site before occupied X site)} picked up by that
    state when X is moved ahead of C.  In the reordered basis an operator
    supported in X is M (x) 1_C.
    """
    comp = tuple(p for p in range(nsites) if p not in positions)
    index = _state_offsets(comp)[:, None] + _state_offsets(positions)[None, :]
    bits = _occupations(nsites)
    in_x = np.zeros(nsites, dtype=bool)
    in_x[list(positions)] = True
    comp_seen = np.cumsum(bits * ~in_x, axis=1)  # occupied C sites up to each site
    crossings = (bits * in_x * comp_seen).sum(axis=1)
    sign = np.where(crossings % 2, -1.0, 1.0)[index]
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


def project_support(A: FockOperator, subset: Iterable) -> FockOperator:
    """Hilbert-Schmidt-orthogonal projection of A onto the subalgebra of
    operators supported in ``subset`` (same ambient lattice).

    Exact: reorder ``subset`` to the front, take the normalized partial
    trace over the complement and reorder back.
    """
    lam = A.ambient
    subset = lam.restrict(subset).sites
    index, sign = _front_reordering(len(lam), lam.positions(subset))
    rows, cols = index[:, :, None], index[:, None, :]
    signs = sign[:, :, None] * sign[:, None, :]
    block = A.matrix[rows, cols]
    block *= signs
    m = np.zeros_like(A.matrix)
    m[rows, cols] = signs * block.mean(axis=0)
    return FockOperator(m, lam, frozenset(subset), MIXED)


def support_defect(A: FockOperator, subset: Iterable) -> float:
    """Frobenius distance from A to the subalgebra supported in ``subset``."""
    proj = project_support(A, subset)
    return float(np.linalg.norm(A.matrix - proj.matrix))


def embed(A: FockOperator, target: SiteSet) -> FockOperator:
    """Re-represent A on a larger lattice containing its ambient sites.

    The relative site order must agree; the embedding is exact (expansion
    over the orthogonal operator basis, rebuilt with the target lattice's
    Jordan-Wigner strings).  Both steps build the strings' tables in bounded
    blocks of vectorized bitmask operations; the result is the same, bit for
    bit, as computing them one string at a time.
    """
    small = A.ambient
    tgt_pos = target.positions(small.sites)
    if list(tgt_pos) != sorted(tgt_pos):
        raise ValueError("target ordering is inconsistent with the operator's lattice")
    coeffs = decompose(A, small.sites)
    m = _assemble(target.dim, tgt_pos, coeffs, target)
    return FockOperator(m, target, A.support, A.parity)


def random_local_operator(lam: SiteSet, subset: Iterable, rng: np.random.Generator,
                          parity: str = MIXED, norm: float = 1.0) -> FockOperator:
    """Random operator supported in ``subset`` with the requested parity,
    normalized to the given operator norm.  Deterministic from ``rng``."""
    subset = lam.sorted_subset(subset)
    sub = lam.restrict(subset)
    m = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal((sub.dim, sub.dim))
    local = FockOperator(m, sub, frozenset(subset), MIXED)
    if parity == EVEN:
        local = parity_decompose(local)[0]
    elif parity == ODD:
        local = parity_decompose(local)[1]
    scale = op_norm(local)
    if scale > 0:
        local = local * (norm / scale)
    return embed(local, lam) if sub != lam else local
