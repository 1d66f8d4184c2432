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
def _popcount_signs(nsites: int) -> np.ndarray:
    """(-1)^{popcount(k)} for every basis state k of ``nsites`` sites: the
    one parity table.  The sign of k under the sites of a bitmask is
    ``_popcount_signs(n)[k & mask]``."""
    signs = np.where(_occupations(nsites).sum(axis=1) % 2, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _parity_signs(lam: SiteSet, positions: tuple) -> np.ndarray:
    """Diagonal of (-1)^{N_X} for the sites at ``positions``."""
    mask = 0
    for p in positions:
        mask ^= 1 << p
    return _popcount_signs(len(lam))[np.arange(lam.dim) & mask]


def _as_sparse(m: np.ndarray):
    """csr view of a dense matrix when it is sparse enough, else None;
    a single nonzero scan decides and builds the matrix."""
    rows, cols = np.nonzero(m)
    if rows.size > m.size * _SPARSE_CUTOFF:
        return None
    return sparse.csr_matrix((m[rows, cols], (rows, cols)), shape=m.shape)


def _sparse_pair(a: np.ndarray, b: np.ndarray):
    """csr forms of both factors when both are large and very sparse
    (Jordan-Wigner generators are), else None; each is converted once."""
    if a.size >= 1 << 14:
        sa = _as_sparse(a)
        if sa is not None:
            sb = _as_sparse(b)
            if sb is not None:
                return sa, sb
    return None


@lru_cache(maxsize=None)
def _sector_index(dim: int) -> tuple:
    """Basis states with an even and with an odd particle number."""
    signs = _popcount_signs(dim.bit_length() - 1)
    return np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)


def _parity_bit(parity: str) -> int:
    """0 for an even operator, 1 for an odd one: block c maps the column
    sector c to the row sector c ^ bit."""
    if parity == MIXED:
        raise ValueError("a mixed-parity operator has no sector blocks")
    return 0 if parity == EVEN else 1


@lru_cache(maxsize=None)
def _sector_mesh(dim: int, p: int) -> tuple:
    """Index pairs (rows, cols) of the blocks [sector c ^ p, sector c] of a
    dim x dim matrix, for the column sectors c = 0, 1."""
    sectors = _sector_index(dim)
    return tuple((sectors[c ^ p][:, None], sectors[c][None, :]) for c in (0, 1))


def _parity_defect(m: np.ndarray, parity: str) -> float:
    """Twice the largest |entry| in the two blocks that an operator of the
    given parity must not have: those of the opposite parity."""
    mesh = _sector_mesh(m.shape[0], 1 - _parity_bit(parity))
    return 2.0 * np.maximum(*(np.abs(m[rows, cols]).max(initial=0.0) for rows, cols in mesh))


def sector_matrix(blocks, parity: str, dim: int) -> np.ndarray:
    """Dense matrix with the given column-sector blocks and exact zeros
    everywhere else (the inverse of ``FockOperator.blocks``)."""
    m = np.zeros((dim, dim), dtype=complex)
    for (rows, cols), block in zip(_sector_mesh(dim, _parity_bit(parity)), blocks):
        m[rows, cols] = block
    return m


def _block_bracket(A: "FockOperator", B: "FockOperator", sign: float | None) -> tuple:
    """Blocks of A B (sign None) or A B + sign * B A for definite-parity A
    and B: (XY)[c] = X[c ^ p_Y] @ Y[c]."""
    a, b = A.blocks, B.blocks
    pa, pb = _parity_bit(A.parity), _parity_bit(B.parity)
    if sign is None:
        return tuple(a[c ^ pb] @ b[c] for c in (0, 1))
    return tuple(a[c ^ pb] @ b[c] + sign * (b[c ^ pa] @ a[c]) for c in (0, 1))


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
    relative to the matrix scale) on the two blocks that the tag forbids;
    'mixed' is accepted unchecked.  Operators whose tag holds by
    construction (``from_blocks``, ``embed``) and those that keep their
    operand's entries up to sign and order (``adjoint``, negation) skip
    the check.

    A definite-parity operator is block-diagonal up to the sector swap of an
    odd one; ``blocks`` holds its two nonzero blocks, and products,
    brackets and ``op_norm`` of such operators run on them.
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
            defect = _parity_defect(m, self.parity)
            scale = max(1.0, np.abs(m).max()) if m.size else 1.0
            if defect > PARITY_TAG_TOL * scale:
                raise ValueError(
                    f"declared parity {self.parity!r} violated: defect {defect:.3e} "
                    f"at scale {scale:.3e}")
        m.flags.writeable = False

    @classmethod
    def _exact(cls, matrix: np.ndarray, ambient: SiteSet, support: frozenset,
               parity: str) -> "FockOperator":
        """An operator whose shape, support and parity tag hold by
        construction: nothing is re-checked."""
        op = object.__new__(cls)
        for name, value in (("matrix", matrix), ("ambient", ambient),
                            ("support", frozenset(support)), ("parity", parity)):
            object.__setattr__(op, name, value)
        matrix.flags.writeable = False
        return op

    @classmethod
    def from_blocks(cls, blocks, ambient: SiteSet, support: frozenset,
                    parity: str) -> "FockOperator":
        """The definite-parity operator with the given column-sector blocks;
        its parity is exact, so the tag is not re-checked."""
        blocks = tuple(np.asarray(b, dtype=complex) for b in blocks)
        shapes = [(rows.size, cols.size)
                  for rows, cols in _sector_mesh(ambient.dim, _parity_bit(parity))]
        if [b.shape for b in blocks] != shapes:
            raise ValueError(f"block shapes {[b.shape for b in blocks]} != {shapes}")
        op = cls._exact(sector_matrix(blocks, parity, ambient.dim), ambient, support, parity)
        for b in blocks:
            b.flags.writeable = False
        object.__setattr__(op, "_blocks", blocks)
        return op

    @property
    def blocks(self) -> tuple:
        """The two nonzero blocks of a definite-parity operator, by column
        sector: (ee, oo) if it is even, (oe, eo) if it is odd.  Kept if the
        operator was built from them, gathered from the matrix otherwise."""
        kept = self.__dict__.get("_blocks")
        if kept is not None:
            return kept
        mesh = _sector_mesh(self.dim, _parity_bit(self.parity))
        return tuple(self.matrix[rows, cols] for rows, cols in mesh)

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> "FockOperator":
        # the same |entries|, so the tag check would repeat the operand's
        return FockOperator._exact(self.matrix.conj().T, self.ambient, self.support,
                                   self.parity)

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
        return FockOperator._exact(-self.matrix, self.ambient, self.support, self.parity)

    def __mul__(self, scalar):
        if isinstance(scalar, FockOperator):
            return NotImplemented
        return FockOperator(self.matrix * scalar, self.ambient, self.support, self.parity)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        return _product(self, other, None)


def _product(A: FockOperator, B: FockOperator, sign: float | None) -> FockOperator:
    """A B (sign None) or A B + sign * B A.

    Two definite-parity operands multiply on their parity blocks, unless
    both are large and very sparse: that pair, like any pair with a mixed
    operand, keeps the full matrices (through scipy.sparse when sparse).
    """
    A._check_ambient(B)
    support, parity = A.support | B.support, _mul_parity(A.parity, B.parity)
    a, b = A.matrix, B.matrix
    pair = _sparse_pair(a, b)
    if pair is not None:
        sa, sb = pair
        ab = (sa @ sb).toarray()
        m = ab if sign is None else ab + sign * (sb @ sa).toarray()
    elif parity == MIXED:
        m = a @ b if sign is None else a @ b + sign * (b @ a)
    else:
        return FockOperator.from_blocks(_block_bracket(A, B, sign), A.ambient, support, parity)
    return FockOperator(m, A.ambient, support, parity)


def _string_dense(lam: SiteSet, ops: tuple) -> np.ndarray:
    """Matrix of an ordered product of symbols a, a* and a*a with their
    Jordan-Wigner strings; ``ops`` holds (position, symbol) pairs in
    increasing position, one per site.

    Column c is alive iff c & need == want, maps to row c ^ flip and has
    weight (-1)^{popcount(c & sign)}.  An odd symbol at p flips and needs
    bit p (a occupied, a* vacant) and puts theta on every bit below p; a*a
    needs bit p occupied and flips nothing (the rule of _string_blocks).
    """
    need = want = flip = sign = 0
    for p, sym in ops:
        bit = 1 << p
        need |= bit
        if sym != "a*":
            want |= bit
        if sym != "a*a":
            flip |= bit
            sign ^= bit - 1
    cols = np.flatnonzero((np.arange(lam.dim) & need) == want)
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    m[cols ^ flip, cols] = _popcount_signs(len(lam))[cols & sign]
    return m


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
    pos = range(len(lam)) if subset is None else lam.positions(tuple(subset))
    signs = _parity_signs(lam, pos)
    # the same |entries|, so the tag check would repeat the operand's
    return FockOperator._exact(signs[:, None] * A.matrix * signs[None, :], lam, A.support,
                               A.parity)


def parity_decompose(A: FockOperator) -> tuple:
    """Split A = A_even + A_odd via the global parity automorphism."""
    flipped = parity_flip(A).matrix
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
    for sym in labels:
        if sym not in MONOMIAL_SYMBOLS:
            raise ValueError(f"unknown monomial symbol {sym!r}")
    ops = tuple((i, sym) for i, sym in enumerate(labels) if sym != "1")
    support = frozenset(lam.sites[i] for i, _ in ops)
    parity = ODD if sum(sym in ("a", "a*") for _, sym in ops) % 2 else EVEN
    return FockOperator(_string_dense(lam, ops), lam, support, parity)


# -- norms and brackets ----------------------------------------------------

def _matrix_norm(m: np.ndarray) -> float:
    """Largest singular value of one matrix: the symmetric eigensolver for a
    Hermitian matrix, and for an anti-Hermitian one (as i m); an
    exactly-zero matrix short-circuits to 0."""
    if not m.any():
        return 0.0
    if np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if np.abs(m + m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def op_norm(A) -> float:
    """Operator (spectral) norm: the largest singular value.

    Accepts a FockOperator or a plain matrix.  A definite-parity operator
    takes the larger norm of its two parity blocks; everything else the
    full matrix.  Hermitian inputs, and anti-Hermitian ones such as
    commutators of Hermitian operators, go through the symmetric
    eigensolver; an exactly-zero input short-circuits to 0.
    """
    m = A.matrix if isinstance(A, FockOperator) else np.asarray(A)
    if not m.any():
        return 0.0
    if isinstance(A, FockOperator) and A.parity != MIXED:
        return max(_matrix_norm(b) for b in A.blocks)
    return _matrix_norm(m)


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """[A, B] = AB - BA."""
    return _product(A, B, -1.0)


def anticommutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """{A, B} = AB + BA."""
    return _product(A, B, 1.0)


# -- operator-basis expansion, support projection and embedding -------------

# Hilbert-Schmidt-orthogonal single-site basis under the normalized trace:
# 1, a, a*, theta.  Squared weights are <e, e> = tr(e* e)/2: 1/2 for the
# odd symbols a and a*, 1 for 1 and theta.
_STRING_SYMBOLS = ("1", "a", "a*", "t")

# each block of string tables holds at most this many (string, column) entries
_TABLE_BLOCK = 1 << 14


def _string_blocks(lam: SiteSet, positions: tuple, strings: Iterable):
    """Column actions of operator-basis strings, a bounded block at a time.

    ``strings`` yields tuples of symbols from _STRING_SYMBOLS, one per
    entry of ``positions``.  Each string maps column c to row c ^ flip
    (the sites of its odd symbols), is alive iff c & flip == want (a needs
    an occupied site, a* a vacant one) and then has weight
    (-1)^{popcount(c & sign)}: an odd symbol at p puts theta on every site
    before p, a theta on p itself.  Yields (block, odd, rows, vals): the
    block's strings, the (B, k) mask of their odd symbols and their
    (B, 2^n) row and weight tables.
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


def signed_partial_trace(A: FockOperator, subset: Iterable, average) -> np.ndarray:
    """Matrix of A averaged over the complement C of ``subset``, exactly.

    Reorders ``subset`` to the front with the Jordan-Wigner sign of
    ``_front_reordering`` and gathers the blocks of A that are diagonal in
    C: blocks[c] is the 2^|X| square block at complement configuration c
    (bit j of c is the occupation of the j-th complement site, so its
    parity theta_C is (-1)^{popcount c}).  Then scatters ``average(blocks)``
    (one block per c, or one block for every c) back as an operator
    diagonal in C, in the lattice's own order.
    """
    lam = A.ambient
    index, sign = _front_reordering(len(lam), lam.positions(lam.restrict(subset).sites))
    rows, cols = index[:, :, None], index[:, None, :]
    signs = sign[:, :, None] * sign[:, None, :]
    block = A.matrix[rows, cols]
    block *= signs
    m = np.zeros_like(A.matrix)
    m[rows, cols] = signs * average(block)
    return m


def project_support(A: FockOperator, subset: Iterable) -> FockOperator:
    """Hilbert-Schmidt-orthogonal projection of A onto the subalgebra of
    operators supported in ``subset`` (same ambient lattice).

    Exact: the normalized partial trace over the complement, the plain mean
    of the signed blocks of ``signed_partial_trace``.
    """
    subset = A.ambient.restrict(subset).sites
    m = signed_partial_trace(A, subset, lambda blocks: blocks.mean(axis=0))
    return FockOperator(m, A.ambient, frozenset(subset), MIXED)


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
    # the string coefficients carry A's parity defect over unchanged
    return FockOperator._exact(m, target, A.support, A.parity)


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
