"""Fock representation: anticommutation relations, parity structure,
monomial basis, support bookkeeping and embedding."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicert import fock
from fermicert.errors import SiteNotInLattice
from fermicert.fock import (EVEN, ODD, FockOperator, annihilator,
                            anticommutator, chain, commutator, creator,
                            decompose, embed, identity, monomial,
                            number_operator, op_norm, parity_decompose,
                            parity_operator, project_support,
                            random_local_operator, support_defect, zero)


def test_single_site_annihilator_matrix():
    lam = chain(1)
    a = annihilator(lam, 0)
    assert np.array_equal(a.matrix, np.array([[0, 1], [0, 0]], dtype=complex))
    assert a.parity == ODD
    assert a.support == {0}


@pytest.mark.parametrize("L", range(2, 7))
def test_car_relations(L):
    lam = chain(L)
    ann = [annihilator(lam, x) for x in lam]
    one = identity(lam)
    for x, y in itertools.combinations_with_replacement(range(L), 2):
        ax, ay = ann[x], ann[y]
        assert op_norm(anticommutator(ax, ay)) <= 1e-12
        assert op_norm(anticommutator(ax.adjoint(), ay.adjoint())) <= 1e-12
        mixed = anticommutator(ax, ay.adjoint())
        expected = one if x == y else zero(lam)
        assert op_norm(mixed - expected) <= 1e-12


def test_annihilator_squares_to_zero():
    lam = chain(4)
    for x in lam:
        a = annihilator(lam, x)
        assert not (a @ a).matrix.any()


def test_unknown_site_rejected():
    lam = chain(3)
    with pytest.raises(SiteNotInLattice):
        annihilator(lam, 7)
    with pytest.raises(SiteNotInLattice):
        number_operator(lam, [0, 9])


def test_number_operator_basics():
    lam = chain(1)
    n = number_operator(lam, [0])
    assert np.array_equal(n.matrix, np.diag([0.0, 1.0]).astype(complex))
    lam4 = chain(4)
    assert not number_operator(lam4, []).matrix.any()


def test_number_operator_multiplicities_vs_occupation_count():
    # independent oracle: enumerate all 2^4 occupation strings
    L = 4
    lam = chain(L)
    diag = np.diag(number_operator(lam).matrix).real
    oracle = [sum((k >> i) & 1 for i in range(L)) for k in range(2 ** L)]
    assert np.array_equal(np.sort(diag), np.sort(oracle))
    counts = [int(np.sum(diag == m)) for m in range(L + 1)]
    assert counts == [1, 4, 6, 4, 1]


def test_parity_operator_properties():
    lam = chain(3)
    th = parity_operator(lam)
    assert op_norm(th @ th - identity(lam)) == 0
    assert th.is_hermitian()
    # trace oracle: sum of (-1)^occupation over the 8 basis states
    oracle = sum((-1) ** bin(k).count("1") for k in range(8))
    assert th.trace() == pytest.approx(oracle) == 0
    # empty region: the parity operator degenerates to the identity
    assert np.array_equal(parity_operator(lam, []).matrix, np.eye(8, dtype=complex))


def test_parity_conjugation_flips_annihilators():
    lam = chain(4)
    th = parity_operator(lam)
    for x in lam:
        a = annihilator(lam, x)
        assert op_norm(th @ a @ th + a) == 0


def test_parity_flip_region_automorphism(lam4):
    from fermicert.fock import parity_flip
    for x in lam4:
        a = annihilator(lam4, x)
        flipped = parity_flip(a, [1, 2])
        sign = -1.0 if x in (1, 2) else 1.0
        assert np.abs(flipped.matrix - sign * a.matrix).max() == 0


def test_parity_decompose_reconstructs(rng, lam4):
    A = random_local_operator(lam4, (1, 2), rng)
    even, odd = parity_decompose(A)
    assert even.parity == EVEN and odd.parity == ODD
    assert np.abs(A.matrix - even.matrix - odd.matrix).max() <= 1e-14
    n = number_operator(lam4, [2])
    ev, od = parity_decompose(n)
    assert op_norm(od) == 0 and op_norm(ev - n) == 0
    a = annihilator(lam4, 0)
    ev, od = parity_decompose(a)
    assert op_norm(ev) == 0 and op_norm(od - a) == 0


def test_odd_times_odd_is_even(rng, lam4):
    A = random_local_operator(lam4, (0, 1), rng, parity=ODD)
    B = random_local_operator(lam4, (2, 3), rng, parity=ODD)
    prod = A @ B
    assert prod.parity == EVEN
    # tag is validated at construction; double-check numerically
    th = parity_operator(lam4)
    assert op_norm(th @ prod @ th - prod) <= 1e-12


def test_monomial_identity_and_composition():
    lam = chain(2)
    assert np.array_equal(monomial(lam, ["1", "1"]).matrix, np.eye(4, dtype=complex))
    m = monomial(lam, ["a", "a*"])
    direct = annihilator(lam, 0) @ creator(lam, 1)
    assert np.abs(m.matrix - direct.matrix).max() == 0
    assert m.parity == EVEN
    with pytest.raises(ValueError):
        monomial(lam, ["a"])


def test_monomials_span_at_two_sites():
    # Gram-matrix oracle: the 16 monomials are linearly independent and
    # therefore span the 16-dimensional operator space
    lam = chain(2)
    mats = [monomial(lam, list(labels)).matrix
            for labels in itertools.product(fock.MONOMIAL_SYMBOLS, repeat=2)]
    gram = np.array([[np.trace(a.conj().T @ b) for b in mats] for a in mats])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 16


def test_op_norm_examples(lam4):
    assert op_norm(identity(lam4)) == 1.0
    assert op_norm(annihilator(lam4, 2)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm(number_operator(lam4)) == pytest.approx(4.0, abs=1e-12)


def test_op_norm_anti_hermitian_matches_svd_without_svd(rng, lam6, monkeypatch):
    cases = []
    for _ in range(3):
        A = random_local_operator(lam6, (0, 1, 2), rng)
        B = random_local_operator(lam6, (2, 3), rng)
        H, K = A + A.adjoint(), B + B.adjoint()
        cases.append(commutator(H, K).matrix)        # [H, K] is anti-Hermitian
        cases.append(1j * H.matrix)
    cases.append(commutator(number_operator(lam6, [0]), annihilator(lam6, 0)
                            + creator(lam6, 0)).matrix)
    oracle = [np.linalg.svd(m, compute_uv=False)[0] for m in cases]

    def no_svd(*args, **kwargs):
        raise AssertionError("anti-Hermitian input reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for m, want in zip(cases, oracle):
        assert np.abs(m + m.conj().T).max() <= 1e-14
        assert op_norm(m) == pytest.approx(want, rel=1e-12)


def test_commutator_disjoint_supports(rng, lam6):
    # even x anything commutes; odd x odd anticommutes
    A_even = random_local_operator(lam6, (0, 1), rng, parity=EVEN)
    B_any = random_local_operator(lam6, (3, 4), rng)
    assert op_norm(commutator(A_even, B_any)) <= 1e-12
    A_odd = random_local_operator(lam6, (0, 1), rng, parity=ODD)
    B_odd = random_local_operator(lam6, (3, 4), rng, parity=ODD)
    assert op_norm(anticommutator(A_odd, B_odd)) <= 1e-12
    assert op_norm(commutator(A_even, identity(lam6))) == 0


def test_commutator_odd_parts_consistency(rng, lam6):
    # [A, B] = 2 A_odd B_odd for disjoint supports: vanishing of one side
    # forces vanishing of the other
    A = random_local_operator(lam6, (0, 1), rng)
    B = random_local_operator(lam6, (3, 4), rng)
    comm = commutator(A, B)
    prod = parity_decompose(A)[1] @ parity_decompose(B)[1]
    assert op_norm(comm - 2 * prod) <= 1e-12


def test_ambient_mismatch_rejected(rng):
    A = random_local_operator(chain(3), (0,), rng)
    B = random_local_operator(chain(4), (0,), rng)
    with pytest.raises(ValueError):
        commutator(A, B)


def test_parity_tag_validation(rng, lam4):
    a = annihilator(lam4, 0)
    with pytest.raises(ValueError):
        FockOperator(a.matrix, lam4, {0}, EVEN)


def _mask_defect(m, parity):
    """The tag defect over a boolean mask of every entry the tag forbids."""
    sector = np.array([bin(k).count("1") % 2 for k in range(m.shape[0])])
    opposite = sector[:, None] != sector[None, :]
    forbidden = m[opposite if parity == EVEN else ~opposite]
    return 2.0 * np.abs(forbidden).max() if forbidden.size else 0.0


@pytest.mark.parametrize("L", range(9))
def test_parity_defect_matches_boolean_mask_oracle(L):
    rng = np.random.default_rng(300 + L)
    lam = fock.SiteSet(range(L))
    sector = np.array([bin(k).count("1") % 2 for k in range(lam.dim)])
    tol = fock.PARITY_TAG_TOL
    for parity in (EVEN, ODD):
        A = random_local_operator(lam, lam.sites, rng, parity=parity)
        forbidden = np.argwhere((sector[:, None] != sector[None, :]) == (parity == EVEN))
        cases = [A.matrix]
        for size in (1e-13, tol / 2, 1e-9, 0.3):
            if forbidden.size:
                m = A.matrix.copy()
                i, j = forbidden[rng.integers(len(forbidden))]
                m[i, j] += size * np.exp(2j * np.pi * rng.random())
                cases.append(m)
        for m in cases:
            for layout in (np.ascontiguousarray(m), np.asfortranarray(m)):
                want = _mask_defect(layout, parity)
                assert fock._parity_defect(layout, parity) == want
                scale = max(1.0, np.abs(m).max())
                if want > tol * scale:
                    with pytest.raises(ValueError, match="declared parity"):
                        FockOperator(layout, lam, None, parity)
                else:
                    FockOperator(layout, lam, None, parity)


def test_parity_tag_limit_is_inclusive_and_relative_to_the_matrix_scale():
    lam = chain(3)
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    m[0, 0] = 0.5
    m[1, 0] = fock.PARITY_TAG_TOL / 2      # states 0 and 1 differ in parity
    A = FockOperator(m, lam, None, EVEN)    # defect exactly PARITY_TAG_TOL * 1
    assert fock._parity_defect(A.matrix, EVEN) == _mask_defect(m, EVEN) == fock.PARITY_TAG_TOL
    over = m.copy()
    over[1, 0] = np.nextafter(fock.PARITY_TAG_TOL / 2, 1.0)
    with pytest.raises(ValueError, match="declared parity"):
        FockOperator(over, lam, None, EVEN)
    # the scale of 4 A is 2 while its defect is 4 times A's: still checked
    for scaled in (lambda: 4 * A, lambda: A * 4):
        with pytest.raises(ValueError, match="declared parity"):
            scaled()
    # adjoint, negation and parity conjugation keep every |entry|: unchecked
    for op in (A.adjoint(), -A, fock.parity_flip(A, (0,))):
        assert fock._parity_defect(op.matrix, EVEN) == fock.PARITY_TAG_TOL


def test_entry_preserving_operations_skip_the_tag_check(rng, lam4, monkeypatch):
    A = random_local_operator(lam4, lam4.sites, rng, parity=ODD)

    def no_check(*args):
        raise AssertionError("parity tag re-checked")

    monkeypatch.setattr(fock, "_parity_defect", no_check)
    for op in (A.adjoint(), -A, fock.parity_flip(A, (1, 2))):
        assert op.parity == ODD
    with pytest.raises(AssertionError, match="re-checked"):
        2 * A


def test_embed_matches_direct_construction():
    # embedding across an intermediate site must reproduce the string
    big = fock.SiteSet((1, 2, 3))
    sub = fock.SiteSet((1, 3))
    hop_local = creator(sub, 1) @ annihilator(sub, 3)
    hop_direct = creator(big, 1) @ annihilator(big, 3)
    emb = embed(hop_local, big)
    assert np.abs(emb.matrix - hop_direct.matrix).max() <= 1e-14


def test_embed_preserves_parity_and_norm(rng):
    sub = chain(2)
    big = chain(5)
    A = random_local_operator(sub, (0, 1), rng, parity=ODD)
    emb = embed(A, big)
    assert emb.parity == ODD
    assert op_norm(emb) == pytest.approx(op_norm(A), abs=1e-12)


def test_decompose_roundtrip(rng, lam4):
    A = random_local_operator(lam4, (1, 3), rng)
    coeffs = decompose(A, (1, 3))
    proj = project_support(A, (1, 3))
    assert np.abs(A.matrix - proj.matrix).max() <= 1e-12
    assert len(coeffs) <= 16


def test_support_defect_detects_leakage(rng, lam4):
    A = random_local_operator(lam4, (0, 1), rng)
    assert support_defect(A, (0, 1)) <= 1e-12
    assert support_defect(A, (0,)) > 1e-3


@pytest.mark.parametrize("parity", [EVEN, ODD, "mixed"])
def test_project_support_matches_basis_expansion(rng, parity):
    # oracle: the 4^k operator-basis expansion, reassembled on the lattice
    cases = [(5, ()), (5, (0, 1, 2, 3, 4)), (6, (0, 2, 5)), (6, (1, 4)), (4, (3,))]
    cases += [(n, tuple(sorted(rng.choice(n, size=rng.integers(0, n + 1),
                                          replace=False).tolist())))
              for n in rng.integers(1, 7, size=6)]
    for n, X in cases:
        lam = chain(int(n))
        A = random_local_operator(lam, lam.sites, rng, parity=parity)
        oracle = fock._assemble(lam.dim, lam.positions(X), decompose(A, X), lam)
        proj = project_support(A, X)
        assert proj.support == frozenset(X)
        assert np.abs(proj.matrix - oracle).max() <= 1e-12


def test_project_support_beyond_expansion_limit():
    # 9-site subsets were out of reach of the operator-basis expansion
    lam = chain(10)
    A = creator(lam, 0) @ annihilator(lam, 8)
    assert support_defect(A, range(9)) <= 1e-12
    assert support_defect(A, range(1, 9)) > 1e-3


def test_sitesset_restrict_and_order():
    lam = fock.SiteSet(("a", "b", "c", "d"))
    sub = lam.restrict({"d", "b"})
    assert sub.sites == ("b", "d")
    assert lam.sorted_subset({"c", "a"}) == ("a", "c")
    with pytest.raises(SiteNotInLattice):
        lam.restrict({"z"})


def test_operators_are_frozen(lam4):
    a = annihilator(lam4, 0)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


# -- Jordan-Wigner strings against the per-site 2x2 factor loop -------------

# local 2x2 blocks in the (vacant, occupied) basis
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # a
_RAISE = _LOWER.conj().T                                      # a*
_THETA = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)   # 1 - 2 a*a

_SYM_LOCAL = {
    "a": _LOWER,
    "a*": _RAISE,
    "t": _THETA,
    "a*a": _RAISE @ _LOWER,
}
_SYM_ODD = {"a": True, "a*": True, "t": False, "a*a": False}


def _string_action(lam, ops):
    """Column action of an ordered product of per-site symbols with their
    Jordan-Wigner strings, as a product of per-site 2x2 factors.

    ``ops`` is a tuple of (position, symbol) pairs in product order.  Every
    such product has at most one nonzero per matrix column, so it is fully
    described by (rows, vals): column c maps to entry (rows[c], c) with
    weight vals[c] (zero when the column is annihilated).
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


def _string_dense_oracle(lam, ops):
    rows, vals = _string_action(lam, ops)
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    nz = vals != 0
    m[rows[nz], np.flatnonzero(nz)] = vals[nz]
    return m


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _assert_same_string(got, want):
    # the oracle's complex products leave -0.0 in some imaginary parts, so
    # those are compared by value and the real parts bit for bit
    assert np.array_equal(got != 0, want != 0)
    assert np.array_equal(_bits(got.real), _bits(want.real))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("L", range(6))
def test_monomials_match_factor_loop_oracle(L):
    lam = fock.SiteSet(range(L))
    for labels in itertools.product(fock.MONOMIAL_SYMBOLS, repeat=L):
        ops = tuple((i, sym) for i, sym in enumerate(labels) if sym != "1")
        _assert_same_string(monomial(lam, labels).matrix, _string_dense_oracle(lam, ops))


@pytest.mark.parametrize("L", range(1, 11))
def test_generators_match_factor_loop_oracle(L):
    lam = chain(L)
    for x in lam:
        _assert_same_string(annihilator(lam, x).matrix, _string_dense_oracle(lam, ((x, "a"),)))
        _assert_same_string(creator(lam, x).matrix, _string_dense_oracle(lam, ((x, "a*"),)))


def test_parity_signs_read_from_the_popcount_table():
    for L in range(7):
        lam = fock.SiteSet(range(L))
        for r in range(L + 1):
            for pos in itertools.combinations(range(L), r):
                want = [(-1) ** sum((k >> p) & 1 for p in pos) for k in range(lam.dim)]
                assert np.array_equal(fock._parity_signs(lam, pos), want)


# -- batched string tables against the per-string loop ----------------------

_ORACLE_WEIGHTS = {"1": 1.0, "a": 0.5, "a*": 0.5, "t": 1.0}


def _decompose_per_string(A, subset):
    """The operator-basis expansion one string at a time, as the production
    code computed it before the tables were batched."""
    lam = A.ambient
    subset = lam.sorted_subset(subset)
    pos = lam.positions(subset)
    dim = lam.dim
    cols = np.arange(dim)
    coeffs = {}
    for symbols in itertools.product(fock._STRING_SYMBOLS, repeat=len(subset)):
        ops = tuple((p, s) for p, s in zip(pos, symbols) if s != "1")
        rows, vals = _string_action(lam, ops)
        inner = np.sum(vals.conj() * A.matrix[rows, cols]) / dim
        weight = 1.0
        for sym in symbols:
            weight *= _ORACLE_WEIGHTS[sym]
        c = inner / weight
        if abs(c) > 0.0:
            coeffs[symbols] = complex(c)
    return coeffs


def _assemble_per_string(dim, positions, coeffs, lam):
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for symbols, c in coeffs.items():
        ops = tuple((p, s) for p, s in zip(positions, symbols) if s != "1")
        rows, vals = _string_action(lam, ops)
        np.add.at(m, (rows, cols), c * vals)
    return m


@pytest.fixture(scope="module")
def bitwise_cases():
    """(A, target lattice, region X or None) with the per-string results:
    the embedding of A into the target and the reassembled expansion of A
    over X on its own lattice."""
    rng = np.random.default_rng(4711)
    cases = []
    for parity in (EVEN, ODD, "mixed"):
        small = fock.SiteSet((0, 2, 5))
        A = random_local_operator(small, small.sites, rng, parity=parity)
        cases.append((A, chain(7), None))
        lam = chain(5)
        B = random_local_operator(lam, lam.sites, rng, parity=parity)
        cases.append((B, lam, (0, 2, 3)))
    # exact zeros, among them whole real parts
    m = random_local_operator(chain(3), range(3), rng).matrix.copy()
    m[rng.random(m.shape) < 0.5] = 0.0
    cases.append((FockOperator(m, chain(3)), fock.SiteSet((-1, 0, 1, 2, 3)), (1,)))
    cases.append((FockOperator(1j * m.imag, chain(3)), chain(5), (0, 2)))
    # the empty region, and an operator on no sites at all
    cases.append((random_local_operator(chain(4), range(4), rng), chain(4), ()))
    cases.append((FockOperator(np.array([[2.5 - 1j]]), fock.SiteSet(())), chain(3), ()))
    # 8-site full support: 4^8 strings, many blocks
    lam8 = chain(8)
    cases.append((random_local_operator(lam8, lam8.sites, rng), lam8, None))
    out = []
    for A, target, X in cases:
        pos = target.positions(A.ambient.sites)
        want_embed = _assemble_per_string(
            target.dim, pos, _decompose_per_string(A, A.ambient.sites), target)
        want_proj = None
        if X is not None:
            lam = A.ambient
            coeffs = _decompose_per_string(A, X)
            want_proj = (coeffs, _assemble_per_string(lam.dim, lam.positions(X), coeffs, lam))
        out.append((A, target, X, want_embed, want_proj))
    return out


@pytest.mark.parametrize("strings_per_block", [None, 1, 3])
def test_batched_tables_match_per_string_loop_bitwise(bitwise_cases, strings_per_block,
                                                      monkeypatch):
    for A, target, X, want_embed, want_proj in bitwise_cases:
        if strings_per_block is not None:
            # block boundaries inside the string range of decompose and _assemble
            monkeypatch.setattr(fock, "_TABLE_BLOCK", strings_per_block << len(target))
        emb = embed(A, target)
        assert np.array_equal(_bits(emb.matrix), _bits(want_embed))
        if X is None:
            continue
        lam = A.ambient
        coeffs = decompose(A, X)
        want_coeffs, want_matrix = want_proj
        assert list(coeffs) == list(want_coeffs)
        assert np.array_equal(_bits(np.array(list(coeffs.values()), dtype=complex)),
                              _bits(np.array(list(want_coeffs.values()), dtype=complex)))
        got = fock._assemble(lam.dim, lam.positions(X), coeffs, lam)
        assert np.array_equal(_bits(got), _bits(want_matrix))


# -- parity-block kernel against the dense formulas -------------------------

PARITIES = (EVEN, ODD)


def _close(got, want, rel=1e-12):
    return np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


def _dense_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.any() else 0.0


def test_sector_blocks_match_popcount_enumeration(rng):
    # oracle: the sector of basis state k is the parity of bin(k).count("1")
    for L in range(1, 6):
        lam = chain(L)
        even = [k for k in range(lam.dim) if bin(k).count("1") % 2 == 0]
        odd = [k for k in range(lam.dim) if bin(k).count("1") % 2 == 1]
        sectors = (even, odd)
        for parity, p in ((EVEN, 0), (ODD, 1)):
            A = random_local_operator(lam, lam.sites, rng, parity=parity)
            for c, block in enumerate(A.blocks):
                want = A.matrix[np.ix_(sectors[c ^ p], sectors[c])]
                assert np.array_equal(block, want)
            assert np.array_equal(fock.sector_matrix(A.blocks, parity, lam.dim), A.matrix)


@pytest.mark.parametrize("L", range(1, 9))
def test_block_products_and_brackets_match_dense(L):
    rng = np.random.default_rng(100 + L)
    lam = chain(L)
    ops = {p: random_local_operator(lam, lam.sites, rng, parity=p) for p in PARITIES}
    for pa, pb in itertools.product(PARITIES, repeat=2):
        A, B = ops[pa], ops[pb]
        a, b = A.matrix, B.matrix
        for got, want in ((A @ B, a @ b),
                          (commutator(A, B), a @ b - b @ a),
                          (anticommutator(A, B), a @ b + b @ a)):
            assert "_blocks" in got.__dict__           # computed on the blocks
            assert got.parity == (EVEN if pa == pb else ODD)
            assert _close(got.matrix, want)
            assert op_norm(got) == pytest.approx(_dense_norm(want), rel=1e-12)
        assert op_norm(A) == pytest.approx(_dense_norm(a), rel=1e-12)


def test_block_op_norm_dispatch_matches_dense(rng):
    lam = chain(5)
    for parity in PARITIES:
        A = random_local_operator(lam, lam.sites, rng, parity=parity)
        herm = A + A.adjoint()
        for op in (A, herm, 1j * herm, zero(lam) if parity == EVEN else 0 * A):
            assert op_norm(op) == pytest.approx(_dense_norm(op.matrix), rel=1e-12)


def test_mixed_operands_fall_back_to_dense(rng):
    lam = chain(5)
    M = random_local_operator(lam, lam.sites, rng)
    E = random_local_operator(lam, lam.sites, rng, parity=EVEN)
    with pytest.raises(ValueError, match="mixed"):
        M.blocks
    for got, want in ((M @ E, M.matrix @ E.matrix),
                      (E @ M, E.matrix @ M.matrix),
                      (commutator(M, E), M.matrix @ E.matrix - E.matrix @ M.matrix),
                      (anticommutator(E, M), E.matrix @ M.matrix + M.matrix @ E.matrix)):
        assert got.parity == fock.MIXED
        assert "_blocks" not in got.__dict__
        assert np.array_equal(got.matrix, want)
        assert op_norm(got) == pytest.approx(_dense_norm(want), rel=1e-12)


def test_large_sparse_pairs_keep_the_sparse_route():
    lam = chain(8)
    a0, a5 = annihilator(lam, 0), annihilator(lam, 5)
    prod = a0 @ creator(lam, 5)
    bracket = anticommutator(a0, a5.adjoint())
    assert "_blocks" not in prod.__dict__ and "_blocks" not in bracket.__dict__
    assert np.array_equal(prod.matrix, a0.matrix @ creator(lam, 5).matrix)
    assert op_norm(bracket) == 0.0


def test_from_blocks_rejects_wrong_shapes():
    lam = chain(3)
    with pytest.raises(ValueError, match="block shapes"):
        FockOperator.from_blocks((np.eye(4), np.eye(3)), lam, frozenset(), EVEN)
    with pytest.raises(ValueError, match="mixed"):
        FockOperator.from_blocks((np.eye(4), np.eye(4)), lam, frozenset(), fock.MIXED)


# every constructor that skips the parity re-check: products and brackets
# on the blocks, from_blocks itself, embed, adjoint and negation
_TRUSTED = {
    "adjoint": lambda A, B: A.adjoint(),
    "negation": lambda A, B: -A,
    "product": lambda A, B: A @ B,
    "commutator": commutator,
    "anticommutator": anticommutator,
    "from_blocks": lambda A, B: FockOperator.from_blocks(
        [2 * b for b in A.blocks], A.ambient, A.support, A.parity),
    "embed": lambda A, B: embed(A, chain(len(A.ambient) + 2)),
}


@settings(max_examples=40, deadline=None)
@given(L=st.integers(1, 5), pa=st.sampled_from(PARITIES), pb=st.sampled_from(PARITIES),
       name=st.sampled_from(sorted(_TRUSTED)), seed=st.integers(0, 2**32 - 1))
def test_trusted_constructors_keep_the_parity_tag(L, pa, pb, name, seed):
    rng = np.random.default_rng(seed)
    lam = chain(L)
    A = random_local_operator(lam, lam.sites, rng, parity=pa)
    B = random_local_operator(lam, lam.sites, rng, parity=pb)
    op = _TRUSTED[name](A, B)
    # the full-matrix check of the public constructor accepts the tag, and
    # the entries it forbids are exactly zero
    FockOperator(op.matrix, op.ambient, op.support, op.parity)
    parity = np.array([bin(k).count("1") % 2 for k in range(op.dim)])
    flips = parity[:, None] != parity[None, :]
    assert not op.matrix[flips if op.parity == EVEN else ~flips].any()
