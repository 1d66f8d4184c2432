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

The parity tag decides how an operator is stored: an even or odd one
holds only its two parity blocks, one read-only (2, h, h) stack with h =
2^(L-1), and its dense matrix is assembled on each read; a mixed one holds
only its dense matrix.  Products, brackets, adjoints, sums and scalar
multiples of definite-parity operands are single expressions over the
stack.  The empty lattice, whose sectors (sizes 1 and 0) do not stack,
holds no even or odd operator.

One signed reordering, ``_front_reordering``, moves a site subset X ahead
of the rest C; in its basis an operator supported in X is M (x) 1_C.  The
conditional expectations average its blocks, and ``embed`` scatters a
local operator's own matrix through it onto a larger lattice, straight into
the parity blocks; only the term cache expands over the operator basis.

Everything here is a pure function over immutable inputs; arrays are
frozen once set and operators are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import SiteNotInLattice

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

#: relative tolerance for validating declared parity tags; generous enough
#: to absorb propagator roundoff on evolved observables
PARITY_TAG_TOL = 1e-10

#: relative tolerance of ``FockOperator.is_hermitian``
HERMITIAN_RTOL = 1e-12


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


def chain(length: int) -> SiteSet:
    """Sites 0..length-1 in natural order."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return SiteSet(range(length))


@lru_cache(maxsize=None)
def _popcount_signs(nsites: int) -> np.ndarray:
    """(-1)^{popcount(k)} for every basis state k of ``nsites`` sites: the
    one parity table.  The sign of k under the sites of a bitmask is
    ``_popcount_signs(n)[k & mask]``.  Built by doubling: the states with
    bit i set follow those without it, with the opposite sign."""
    signs = np.ones(1)
    for _ in range(nsites):
        signs = np.concatenate([signs, -signs])
    signs.flags.writeable = False
    return signs


def _parity_signs(lam: SiteSet, positions: tuple) -> np.ndarray:
    """Diagonal of (-1)^{N_X} for the sites at ``positions``."""
    mask = 0
    for p in positions:
        mask ^= 1 << p
    return _popcount_signs(len(lam))[np.arange(lam.dim) & mask]


@lru_cache(maxsize=None)
def _sector_index(dim: int) -> np.ndarray:
    """The basis states of each parity sector, shape (2, dim / 2): row 0
    those with an even particle number, row 1 those with an odd one.  The
    sectors of the empty lattice do not stack: ValueError."""
    if dim < 2:
        raise ValueError("an even or odd operator needs at least one site: the odd "
                         "sector of an empty lattice has no states")
    signs = _popcount_signs(dim.bit_length() - 1)
    index = np.stack([np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)])
    index.flags.writeable = False
    return index


def _parity_bit(parity: str) -> int:
    """0 for an even operator, 1 for an odd one: block c maps the column
    sector c to the row sector c ^ bit.  Any other tag raises ValueError."""
    if parity not in (EVEN, ODD):
        raise ValueError(f"a {parity!r} operator has no sector blocks")
    return 0 if parity == EVEN else 1


def _swap(stack: np.ndarray, p: int) -> np.ndarray:
    """The stack read at c ^ p: its two entries swapped (a view) if p is 1."""
    return stack[::-1] if p else stack


def adjoint(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix or of every matrix of a stack."""
    return m.conj().swapaxes(-2, -1)


@lru_cache(maxsize=None)
def _sector_mesh(dim: int, p: int) -> tuple:
    """Index arrays (rows, cols) of shapes (2, h, 1), (2, 1, h): m[rows, cols]
    stacks the blocks [sector c ^ p, sector c] of m for c = 0, 1."""
    sectors = _sector_index(dim)
    return _swap(sectors, p)[:, :, None], sectors[:, None, :]


def _parity_defect(m: np.ndarray, parity: str) -> float:
    """Twice the largest |entry| in the two blocks that an operator of the
    given parity must not have: those of the opposite parity."""
    return 2.0 * np.abs(m[_sector_mesh(m.shape[0], 1 - _parity_bit(parity))]).max()


def sector_matrix(blocks: np.ndarray, parity: str, dim: int) -> np.ndarray:
    """Dense matrix with the given stack of column-sector blocks and exact
    zeros everywhere else (the inverse of ``FockOperator.blocks``)."""
    m = np.zeros((dim, dim), dtype=complex)
    m[_sector_mesh(dim, _parity_bit(parity))] = blocks
    return m


def _stacked_index(lam: SiteSet, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat index of entry (row, col) in the (2, h, h) stack of blocks:
    column c lies in block popcount(c) mod 2, and basis state k is the
    (k >> 1)-th state of its sector."""
    h = lam.dim >> 1
    return (_popcount_signs(len(lam))[cols] < 0) * (h * h) + (rows >> 1) * h + (cols >> 1)


def _from_entries(lam: SiteSet, flat: np.ndarray, values, support: frozenset,
                  parity: str) -> "FockOperator":
    """The even or odd operator with ``values`` at the stacked indices
    ``flat`` (``_stacked_index``) and exact zeros elsewhere."""
    h = _sector_index(lam.dim).shape[1]
    stacked = np.zeros(2 * h * h, dtype=complex)
    stacked[flat] = values
    return FockOperator.from_blocks(stacked.reshape(2, h, h), lam, support, parity)


def _block_bracket(A: "FockOperator", B: "FockOperator", sign: float | None) -> np.ndarray:
    """The stack of A B (sign None) or A B + sign * B A for definite-parity
    A and B: (XY)[c] = X[c ^ p_Y] @ Y[c]."""
    a, b = A.blocks, B.blocks
    ab = _swap(a, _parity_bit(B.parity)) @ b
    if sign is None:
        return ab
    return ab + sign * (_swap(b, _parity_bit(A.parity)) @ a)


def _mul_parity(p: str, q: str) -> str:
    if p == MIXED or q == MIXED:
        return MIXED
    return EVEN if p == q else ODD


class FockOperator:
    """Operator on the Fock space of ``ambient`` together with a declared
    support set and parity tag.

    ``support`` is an upper bound on where the operator acts nontrivially.
    A definite-parity operator is block-diagonal up to the sector swap of an
    odd one, and products, brackets, adjoints and ``op_norm`` of such
    operators run on its two nonzero ``blocks``.

    The parity tag decides the storage: an even or odd operator holds only
    its blocks, one read-only (2, h, h) array, and ``matrix`` assembles them
    on each read; a mixed one holds only its dense matrix.  The checked
    constructor ``FockOperator(matrix, ...)`` validates a tag in {'even',
    'odd'} on the two blocks that the tag forbids (tolerance PARITY_TAG_TOL
    relative to the matrix scale), gathers the stack once and drops the
    tolerated entries; it accepts 'mixed' unchecked.  ``from_blocks`` takes
    the stack of a definite-parity operator, whose parity is exact.
    """

    def __init__(self, matrix: np.ndarray, ambient: SiteSet, support: Iterable | None = None,
                 parity: str = MIXED):
        m = np.asarray(matrix, dtype=complex)
        d = ambient.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d}) for {len(ambient)} sites")
        support = frozenset(ambient.sites if support is None else support)
        for x in support:
            ambient.position(x)
        if parity == MIXED:
            self._hold("_matrix", m, ambient, support, parity)
            return
        defect = _parity_defect(m, parity)
        scale = max(1.0, np.abs(m).max())
        if defect > PARITY_TAG_TOL * scale:
            raise ValueError(
                f"declared parity {parity!r} violated: defect {defect:.3e} "
                f"at scale {scale:.3e}")
        self._hold("_blocks", m[_sector_mesh(d, _parity_bit(parity))], ambient, support, parity)

    @classmethod
    def from_blocks(cls, blocks, ambient: SiteSet, support: frozenset,
                    parity: str) -> "FockOperator":
        """The definite-parity operator with the given (2, h, h) stack of
        column-sector blocks; its parity is exact, so it is not re-checked."""
        _parity_bit(parity)     # refuses any tag but even and odd
        h = _sector_index(ambient.dim).shape[1]
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape != (2, h, h):
            raise ValueError(f"block stack shape {blocks.shape} != {(2, h, h)}")
        op = object.__new__(cls)
        op._hold("_blocks", blocks, ambient, frozenset(support), parity)
        return op

    def _hold(self, name: str, storage, ambient: SiteSet, support: frozenset, parity: str):
        """Set the fields once: ``storage`` is the matrix (``_matrix``) or the
        stack of blocks (``_blocks``), frozen."""
        storage.flags.writeable = False
        for key, value in ((name, storage), ("ambient", ambient), ("support", support),
                           ("parity", parity)):
            object.__setattr__(self, key, value)

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable FockOperator")

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix: kept for a mixed operator, assembled from the
        two blocks on each read (and never kept) otherwise."""
        if self.parity == MIXED:
            return self._matrix
        m = sector_matrix(self._blocks, self.parity, self.ambient.dim)
        m.flags.writeable = False
        return m

    @property
    def blocks(self) -> np.ndarray:
        """The two nonzero blocks of a definite-parity operator, one read-only
        (2, h, h) stack by column sector: (ee, oo) if even, (oe, eo) if odd."""
        if self.parity == MIXED:
            raise ValueError("a mixed-parity operator has no sector blocks")
        return self._blocks

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def adjoint(self) -> "FockOperator":
        if self.parity == MIXED:
            return FockOperator(adjoint(self.matrix), self.ambient, self.support, MIXED)
        # A*[c] = A[c ^ p]*: A* on sector c is the adjoint of A into sector c
        return FockOperator.from_blocks(adjoint(_swap(self.blocks, _parity_bit(self.parity))),
                                        self.ambient, self.support, self.parity)

    def is_hermitian(self) -> bool:
        """Self-adjoint within HERMITIAN_RTOL of the scale max(1, max|entry|),
        read from the kept matrix, or from block c against block c ^ p."""
        kept = self._matrix if self.parity == MIXED else self._blocks
        mirror = kept if self.parity == MIXED else _swap(kept, _parity_bit(self.parity))
        scale = max(1.0, np.abs(kept).max())
        return np.abs(kept - adjoint(mirror)).max() <= HERMITIAN_RTOL * scale

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    # -- arithmetic --------------------------------------------------------

    def _check_ambient(self, other: "FockOperator"):
        if self.ambient != other.ambient:
            raise ValueError("operators live on different site sets")

    def _map(self, f) -> "FockOperator":
        """f applied to the kept matrix or to each kept block, with the same
        support and parity tag."""
        if self.parity == MIXED:
            return FockOperator(f(self.matrix), self.ambient, self.support, MIXED)
        return FockOperator.from_blocks(f(self.blocks), self.ambient, self.support, self.parity)

    def _combine(self, other, f) -> "FockOperator":
        """f of two operators entry by entry: block by block when both have
        the same definite parity, dense and mixed otherwise."""
        if not isinstance(other, FockOperator):
            return NotImplemented
        self._check_ambient(other)
        support = self.support | other.support
        if self.parity == other.parity != MIXED:
            return FockOperator.from_blocks(f(self.blocks, other.blocks), self.ambient, support,
                                            self.parity)
        return FockOperator(f(self.matrix, other.matrix), self.ambient, support, MIXED)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __neg__(self):
        return self._map(np.negative)

    def __mul__(self, scalar):
        if isinstance(scalar, FockOperator):
            return NotImplemented
        return self._map(lambda m: m * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, FockOperator):
            return NotImplemented
        return _product(self, other, None)


def _product(A: FockOperator, B: FockOperator, sign: float | None) -> FockOperator:
    """A B (sign None) or A B + sign * B A.

    Two definite-parity operands multiply on their parity blocks; a pair
    with a mixed operand multiplies the full matrices.
    """
    A._check_ambient(B)
    support, parity = A.support | B.support, _mul_parity(A.parity, B.parity)
    if parity != MIXED:
        return FockOperator.from_blocks(_block_bracket(A, B, sign), A.ambient, support, parity)
    a, b = A.matrix, B.matrix
    m = a @ b if sign is None else a @ b + sign * (b @ a)
    return FockOperator(m, A.ambient, support, parity)


def _string_operator(lam: SiteSet, ops: tuple, support: frozenset) -> FockOperator:
    """Ordered product of symbols a, a* and a*a with their Jordan-Wigner
    strings, built from its parity blocks; ``ops`` holds (position, symbol)
    pairs in increasing position, one per site.

    Column c is alive iff c & need == want, maps to row c ^ flip and has
    weight (-1)^{popcount(c & sign)}.  An odd symbol at p flips and needs
    bit p (a occupied, a* vacant) and puts theta on every bit below p; a*a
    needs bit p occupied and flips nothing (the rule of _string_masks).
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
    signs = _popcount_signs(len(lam))
    odd = int(signs[flip] < 0)
    cols = np.flatnonzero((np.arange(lam.dim) & need) == want)
    return _from_entries(lam, _stacked_index(lam, cols ^ flip, cols), signs[cols & sign],
                         support, ODD if odd else EVEN)


def _diagonal(lam: SiteSet, diag: np.ndarray, support: Iterable) -> FockOperator:
    """The even operator with the given diagonal."""
    states = np.arange(lam.dim)
    return _from_entries(lam, _stacked_index(lam, states, states), diag, frozenset(support),
                         EVEN)


def identity(lam: SiteSet) -> FockOperator:
    return _diagonal(lam, np.ones(lam.dim, dtype=complex), ())


def zero(lam: SiteSet) -> FockOperator:
    return _diagonal(lam, np.zeros(lam.dim, dtype=complex), ())


def annihilator(lam: SiteSet, x) -> FockOperator:
    """Jordan-Wigner annihilation operator a_x on the Fock space of ``lam``."""
    return _string_operator(lam, ((lam.position(x), "a"),), frozenset({x}))


def creator(lam: SiteSet, x) -> FockOperator:
    """Creation operator a*_x."""
    return _string_operator(lam, ((lam.position(x), "a*"),), frozenset({x}))


def number_operator(lam: SiteSet, subset: Iterable | None = None) -> FockOperator:
    """N_X = sum_{x in X} a*_x a_x (diagonal in the occupation basis)."""
    if subset is None:
        subset = lam.sites
    subset = tuple(subset)
    states = np.arange(lam.dim)
    diag = sum((states >> p & 1 for p in lam.positions(subset)), np.zeros(lam.dim, dtype=int))
    return _diagonal(lam, diag.astype(complex), subset)


def parity_operator(lam: SiteSet, subset: Iterable | None = None) -> FockOperator:
    """theta_X = (-1)^{N_X}: unitary, self-adjoint, squares to the identity."""
    if subset is None:
        subset = lam.sites
    subset = tuple(subset)
    signs = _parity_signs(lam, lam.positions(subset))
    return _diagonal(lam, signs.astype(complex), subset)


def parity_decompose(A: FockOperator) -> tuple:
    """Split A = A_even + A_odd: the blocks of A that keep and the blocks
    that change the particle-number parity.  These are (A +- theta A
    theta)/2 to the bit, since a + a = 2a and a - a = 0 are exact."""
    m = A.matrix
    return tuple(FockOperator.from_blocks(m[_sector_mesh(A.dim, p)], A.ambient, A.support, parity)
                 for p, parity in ((0, EVEN), (1, ODD)))


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
    return _string_operator(lam, ops, support)


# -- norms and brackets ----------------------------------------------------

def _matrix_norm(m: np.ndarray) -> float:
    """Largest singular value of one matrix: the symmetric eigensolver for a
    Hermitian matrix, and for an anti-Hermitian one (as i m), and the SVD
    for any other, a rectangular one included; an exactly-zero matrix
    short-circuits to 0, and one with a NaN or inf entry raises LinAlgError
    (``eigvalsh`` would read only one triangle, and the SVD of an inf
    returns NaN).  Both tests read max|m| and the conjugate transpose, each
    taken once."""
    scale = np.abs(m).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("matrix has a non-finite entry")
    if m.shape[0] != m.shape[1]:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    adjoint = m.conj().T
    hermitian = np.abs(m - adjoint).max() <= 1e-12 * scale
    anti = not hermitian and np.abs(m + adjoint).max() <= 1e-12 * scale
    del adjoint     # freed before the solver runs
    if hermitian:
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if anti:
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


def op_norm(A) -> float:
    """Operator (spectral) norm: the largest singular value.

    Accepts a FockOperator (the stack of its parity blocks if it has
    definite parity, else its matrix), a matrix, or an (..., n, m) stack,
    whose norm is the largest of its matrices'.  Each matrix picks its own
    solver: Hermitian ones, and anti-Hermitian ones such as commutators of
    Hermitian operators, go through the symmetric eigensolver, and an
    exactly-zero one short-circuits to 0.  A NaN or inf entry raises
    ``np.linalg.LinAlgError``.
    """
    if isinstance(A, FockOperator):
        A = A.matrix if A.parity == MIXED else A.blocks
    m = np.asarray(A)
    return max(_matrix_norm(m[i]) for i in np.ndindex(m.shape[:-2]))


def commutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """[A, B] = AB - BA."""
    return _product(A, B, -1.0)


def anticommutator(A: FockOperator, B: FockOperator) -> FockOperator:
    """{A, B} = AB + BA."""
    return _product(A, B, 1.0)


# -- support projection and embedding -------------------------------------

def _state_offsets(positions: tuple) -> np.ndarray:
    """Basis index contributed by each configuration of the sites at
    ``positions`` (configuration bit j sits at bit positions[j]), built by
    doubling like ``_popcount_signs``."""
    offsets = np.zeros(1, dtype=np.int64)
    for p in positions:
        offsets = np.concatenate([offsets, offsets + (1 << p)])
    return offsets


@lru_cache(maxsize=128)
def _front_reordering(nsites: int, positions: tuple) -> tuple:
    """Signed reordering that moves the sites at ``positions`` to the front.

    Returns (index, sign), both of shape (2^|C|, 2^|X|) for the complement
    C and X = ``positions``: index[c, s] is the basis state whose C bits
    read c and whose X bits read s, and sign[c, s] is the Jordan-Wigner
    sign (-1)^{#(occupied C site before occupied X site)} picked up by that
    state when X is moved ahead of C.  In the reordered basis an operator
    supported in X is M (x) 1_C.  The sign is the product, over occupied
    X sites p, of the popcount sign of the occupied C sites below p: one
    table read at the XOR of those masks.
    """
    comp = tuple(p for p in range(nsites) if p not in positions)
    index = _state_offsets(comp)[:, None] + _state_offsets(positions)[None, :]
    occupied_c = index & sum(1 << p for p in comp)
    crossed = np.zeros_like(index)
    for p in positions:
        crossed ^= (occupied_c & ((1 << p) - 1)) * (index >> p & 1)
    sign = _popcount_signs(nsites)[crossed]
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
    m = A.matrix
    block = m[rows, cols]
    block *= signs
    out = np.zeros_like(m)
    out[rows, cols] = signs * average(block)
    return out


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
    # a mixed copy keeps the matrix, so a definite-parity A is assembled once
    A = FockOperator(A.matrix, A.ambient, A.support)
    return float(np.linalg.norm(A.matrix - project_support(A, subset).matrix))


# each block of string tables holds at most this many (string, column) entries
_TABLE_BLOCK = 1 << 14

#: most sites of a term that the term cache expands over the operator basis
EXPANSION_CAP = 8


@lru_cache(maxsize=None)
def _string_masks(nsites: int) -> tuple:
    """(flip, want, sign, weight) of the 4^n Jordan-Wigner strings of the
    trace-orthogonal operator basis on ``nsites`` sites, in product order.

    String s puts symbol (s >> 2 (n - 1 - j)) & 3 on site j: 0 is 1, 1 is a,
    2 is a*, 3 is theta, so the last site varies fastest.  The string maps
    column c to row c ^ flip (the sites of its odd symbols), is alive iff
    c & flip == want (a needs an occupied site, a* a vacant one) and then
    has value (-1)^{popcount(c & sign)}: an odd symbol at p puts theta on
    every site before p, a theta on p itself.  ``weight`` is the squared
    norm tr(s* s)/2^n: 1/2 per odd symbol.
    """
    strings = np.arange(4 ** nsites)
    flip, want, sign = (np.zeros_like(strings) for _ in range(3))
    weight = np.ones(strings.size)
    for j in range(nsites):
        symbol = strings >> 2 * (nsites - 1 - j) & 3
        bit = 1 << j
        odd = (symbol == 1) | (symbol == 2)
        flip |= odd * bit
        want |= (symbol == 1) * bit
        sign ^= np.where(odd, bit - 1, (symbol == 3) * bit)
        weight[odd] *= 0.5
    for a in (flip, want, sign, weight):
        a.flags.writeable = False
    return flip, want, sign, weight


def _round_trip(m: np.ndarray, nsites: int) -> np.ndarray:
    """m expanded over the strings of ``_string_masks`` on its own
    ``nsites`` sites and reassembled, onto +0: what the term cache scatters.

    Coefficient s is the pairwise sum over all 2^n columns of v m, divided
    by 2^n and by the weight; each string with a nonzero coefficient is
    added entry by entry, in product order.  The tables come in blocks of
    at most _TABLE_BLOCK entries.
    """
    if nsites > EXPANSION_CAP:
        raise ValueError(f"operator-basis expansion over {nsites} sites is too large")
    flip, want, sign, weight = _string_masks(nsites)
    dim = 1 << nsites
    cols = np.arange(dim)
    signs = _popcount_signs(nsites)
    entries = m.ravel()
    out = np.zeros(dim * dim, dtype=complex)
    per_block = max(1, _TABLE_BLOCK >> nsites)
    for start in range(0, flip.size, per_block):
        strings = slice(start, start + per_block)
        f = flip[strings, None]
        at = (cols ^ f) << nsites | cols
        values = np.where((cols & f) == want[strings, None], signs[cols & sign[strings, None]],
                          0.0)
        c = (values * entries[at]).sum(axis=1) / dim / weight[strings]
        kept = np.abs(c) > 0.0
        np.add.at(out, at[kept].ravel(), (c[kept, None] * values[kept]).ravel())
    return out.reshape(dim, dim)


def _embedded_entries(A: FockOperator, m: np.ndarray, target: SiteSet) -> tuple:
    """(flat, values): the nonzero entries of m, a matrix on A's lattice
    with A's parity, on ``target``, flat in its storage there (the (2, h,
    h) stack of ``_stacked_index`` for an even or odd A, else dense).

    With A's sites X moved ahead of the rest C by ``_front_reordering``,
    entry (r, c) of m lands at (index[k, r], index[k, c]) for each
    configuration k of C with the value sigma m[r, c], sigma = sign[k, r]
    sign[k, c]; a negated entry is 0 - m[r, c], so a zero part stays +0.
    """
    positions = target.positions(A.ambient.sites)
    if list(positions) != sorted(positions):
        raise ValueError("target ordering is inconsistent with the operator's lattice")
    index, sign = _front_reordering(len(target), positions)
    r, c = np.nonzero(m)
    rows, cols = index[:, r], index[:, c]
    values = np.where(sign[:, r] == sign[:, c], m[r, c], 0.0 - m[r, c]).ravel()
    if A.parity == MIXED:
        return (rows * target.dim + cols).ravel(), values
    return _stacked_index(target, rows, cols).ravel(), values


def embed(A: FockOperator, target: SiteSet) -> FockOperator:
    """Re-represent A on a larger lattice containing its ambient sites.

    The relative site order must agree.  The embedding is exact: the
    Jordan-Wigner reordering M (x) 1_C, a signed scatter of A's own matrix
    (``_embedded_entries``) with no expansion, on any number of sites.  An
    even or odd A goes straight into its stack of parity blocks.
    """
    flat, values = _embedded_entries(A, A.matrix, target)
    if A.parity != MIXED:
        return _from_entries(target, flat, values, A.support, A.parity)
    m = np.zeros(target.dim ** 2, dtype=complex)
    m[flat] = values
    return FockOperator(m.reshape(target.dim, target.dim), target, A.support, MIXED)


def random_local_operator(lam: SiteSet, subset: Iterable, rng: np.random.Generator,
                          parity: str = MIXED) -> FockOperator:
    """Random operator supported in ``subset`` with the requested parity,
    normalized to operator norm 1.  Deterministic from ``rng``."""
    sub = lam.restrict(subset)
    subset = sub.sites
    m = rng.standard_normal((sub.dim, sub.dim)) + 1j * rng.standard_normal((sub.dim, sub.dim))
    local = FockOperator(m, sub, frozenset(subset), MIXED)
    if parity == EVEN:
        local = parity_decompose(local)[0]
    elif parity == ODD:
        local = parity_decompose(local)[1]
    scale = op_norm(local)
    if scale > 0:
        local = local * (1.0 / scale)
    return embed(local, lam) if sub != lam else local
