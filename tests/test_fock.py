"""Fock representation: anticommutation relations, parity structure,
monomial basis, support bookkeeping and embedding."""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicert import cli, dynamics, fock, models
from fermicert.errors import SiteNotInLattice
from fermicert.fock import (EVEN, ODD, FockOperator, annihilator,
                            anticommutator, chain, commutator, creator,
                            embed, identity, monomial,
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


def test_subset_outside_the_lattice_raises(rng):
    # neither the random operator nor the expansion drops site 9 silently
    lam = chain(4)
    with pytest.raises(SiteNotInLattice):
        random_local_operator(lam, [0, 9], rng)
    A = random_local_operator(lam, [0, 1], rng)
    with pytest.raises(SiteNotInLattice):
        decompose(A, [0, 9])


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
    th = parity_operator(lam4, [1, 2])
    for x in lam4:
        a = annihilator(lam4, x)
        sign = -1.0 if x in (1, 2) else 1.0
        assert np.abs((th @ a @ th).matrix - sign * a.matrix).max() == 0


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


@pytest.mark.parametrize("i, j, value", [(1, 2, np.inf), (2, 1, np.inf), (1, 2, np.nan),
                                          (2, 2, -np.inf), (0, 3, complex(0, np.inf))])
def test_op_norm_refuses_a_non_finite_entry(i, j, value):
    # an inf above the diagonal passed the Hermitian test as inf <= inf, and
    # eigvalsh, reading the lower triangle, returned 1.0
    m = np.eye(4, dtype=complex)
    m[i, j] = value
    # and a rectangular one, whose SVD would return NaN for an inf
    for x in (m, np.stack([np.eye(4, dtype=complex), m]), m[:, :3]):
        if np.isfinite(x).all():
            continue
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            op_norm(x)


def test_op_norm_of_a_rectangular_matrix_is_its_largest_singular_value(rng):
    for shape in ((8, 3), (3, 8), (6, 1)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert op_norm(m) == np.linalg.svd(m, compute_uv=False)[0]
    assert op_norm(np.zeros((5, 2), dtype=complex)) == 0.0


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


def _matrix_norm_oracle(m):
    """The norm dispatch with max|m| and m* taken afresh for each test."""
    if not m.any():
        return 0.0
    if np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(m)).max())
    if np.abs(m + m.conj().T).max() <= 1e-12 * np.abs(m).max():
        return float(np.abs(np.linalg.eigvalsh(1j * m)).max())
    return float(np.linalg.svd(m, compute_uv=False)[0])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_matrix_norm_takes_the_oracle_branch_bitwise(n, monkeypatch):
    rng = np.random.default_rng(600 + n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    # Hermitian, anti-Hermitian and general, each just inside and just
    # outside the relative tolerance 1e-12, zeros and signed zeros
    cases = [h, 1j * h, g, -0.0 * g, np.zeros((n, n), dtype=complex)]
    cases += [m + eps * np.abs(m).max(initial=0.0) * g for m in (h, 1j * h)
              for eps in (0.4e-12, 0.6e-12, 1e-9)]
    calls = []

    def recorded(name, solver):
        def call(*args, **kwargs):
            calls.append(name)
            return solver(*args, **kwargs)
        return call

    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for m in cases:
        got = fock._matrix_norm(m)
        branch = calls[:]
        calls.clear()
        want = _matrix_norm_oracle(m)
        assert calls == branch
        calls.clear()
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


@pytest.mark.parametrize("parity", [EVEN, ODD])
def test_is_hermitian_on_the_blocks_gives_the_dense_verdict(parity):
    # oracle: the test on the dense matrix, scale max(1, max|entry|)
    rng = np.random.default_rng(700)
    for L in range(1, 5):
        lam = fock.SiteSet(range(L))
        A = random_local_operator(lam, lam.sites, rng, parity=parity)
        for scale in (1e-3, 1.0, 1e3):
            H = scale * (A + A.adjoint())
            for eps in (0.0, 0.4e-12, 0.6e-12, 1e-9):
                op = H + eps * scale * A
                m = op.matrix
                scale = max(1.0, np.abs(m).max())
                assert op.is_hermitian() == (np.abs(m - m.conj().T).max()
                                             <= fock.HERMITIAN_RTOL * scale)
                assert "_blocks" in op.__dict__ and "matrix" not in op.__dict__


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
    if L == 0:
        # the odd sector of no sites is empty: no tag to check, both refused
        for parity in (EVEN, ODD):
            with pytest.raises(ValueError, match="at least one site"):
                FockOperator(np.ones((1, 1)), lam, None, parity)
        return
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
    assert fock._parity_defect(m, EVEN) == _mask_defect(m, EVEN) == fock.PARITY_TAG_TOL
    A = FockOperator(m, lam, None, EVEN)    # defect exactly PARITY_TAG_TOL * 1
    over = m.copy()
    over[1, 0] = np.nextafter(fock.PARITY_TAG_TOL / 2, 1.0)
    with pytest.raises(ValueError, match="declared parity"):
        FockOperator(over, lam, None, EVEN)
    # the tolerated entry is dropped when the blocks are gathered, so 4 A,
    # built from A's blocks and not checked again, is exactly even
    assert A.matrix[1, 0] == 0
    for scaled in (4 * A, A * 4):
        assert scaled.matrix[0, 0] == 2.0
        assert _mask_defect(scaled.matrix, EVEN) == 0.0


def test_entry_preserving_operations_skip_the_tag_check(rng, lam4, monkeypatch):
    A = random_local_operator(lam4, lam4.sites, rng, parity=ODD)

    def no_check(*args):
        raise AssertionError("parity tag re-checked")

    monkeypatch.setattr(fock, "_parity_defect", no_check)
    # built from A's blocks, so the entries that the tag tolerated are dropped
    for op in (A.adjoint(), -A, 2 * A, A + A, A - A):
        assert op.parity == ODD


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
        oracle = _assemble(lam.dim, lam.positions(X), decompose(A, X), lam)
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
    assert lam.restrict(["c", "a"]).sites == ("a", "c")
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
    if L == 0:
        # the one monomial on no sites is the even identity, which is refused
        with pytest.raises(ValueError, match="at least one site"):
            monomial(lam, ())
        return
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


@pytest.mark.parametrize("L", range(9))
def test_front_reordering_counts_crossings_state_by_state(L):
    # oracle: read each state's C and X bits and count, pair by pair, the
    # occupied C sites that lie before an occupied X site
    for r in range(min(L, 4) + 1):
        for pos in itertools.combinations(range(L), r):
            comp = [p for p in range(L) if p not in pos]
            index, sign = fock._front_reordering(L, pos)
            assert index.shape == sign.shape == (2 ** len(comp), 2 ** r)
            assert sorted(index.ravel()) == list(range(2 ** L))
            for c, s in itertools.product(range(2 ** len(comp)), range(2 ** r)):
                k = int(index[c, s])
                assert [k >> p & 1 for p in comp] == [c >> j & 1 for j in range(len(comp))]
                assert [k >> p & 1 for p in pos] == [s >> j & 1 for j in range(r)]
                crossings = sum(k >> y & 1 and k >> x & 1
                                for x in pos for y in comp if y < x)
                assert sign[c, s] == (-1) ** crossings


# -- the operator-basis expansion: the oracle of embed and project_support ----

# Hilbert-Schmidt-orthogonal single-site basis under the normalized trace:
# 1, a, a*, theta.  Squared weights are <e, e> = tr(e* e)/2: 1/2 for the
# odd symbols a and a*, 1 for 1 and theta.  fock._string_masks numbers the
# symbols in this order.
_STRING_SYMBOLS = ("1", "a", "a*", "t")


def _string_blocks(lam, positions, strings):
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
    signs = fock._popcount_signs(len(lam))
    strings = iter(strings)
    per_block = max(1, fock._TABLE_BLOCK >> len(lam))
    while block := list(itertools.islice(strings, per_block)):
        symbols = np.array(block, dtype="<U2").reshape(len(block), len(positions))
        odd = (symbols == "a") | (symbols == "a*")
        flip = (odd * bit).sum(axis=1)[:, None]
        want = ((symbols == "a") * bit).sum(axis=1)[:, None]
        sign = np.bitwise_xor.reduce(np.where(odd, bit - 1, (symbols == "t") * bit),
                                     axis=1)[:, None]
        vals = np.where((cols & flip) == want, signs[cols & sign], 0.0)
        yield block, odd, cols ^ flip, vals


def decompose(A, subset):
    """Expansion coefficients of A over the trace-orthogonal operator basis
    built from {1, a_x, a*_x, theta_x} on ``subset``.

    Exact whenever A is supported in ``subset``; the coefficients identify
    the abstract algebra element independently of the ambient lattice.  The
    strings' tables are built in bounded blocks; each coefficient is the
    same pairwise sum over all 2^n columns as one string at a time, bit for
    bit.
    """
    lam = A.ambient
    subset = lam.restrict(subset).sites
    pos = lam.positions(subset)
    if len(subset) > 8:
        raise ValueError(f"operator-basis expansion over {len(subset)} sites is too large")
    dim = lam.dim
    cols = np.arange(dim)
    m = A.matrix
    coeffs = {}
    strings = itertools.product(_STRING_SYMBOLS, repeat=len(subset))
    for block, odd, rows, vals in _string_blocks(lam, pos, strings):
        inner = (vals * m[rows, cols]).sum(axis=1) / dim
        weight = np.where(odd, 0.5, 1.0).prod(axis=1)
        c = inner / weight
        for i in np.flatnonzero(np.abs(c) > 0.0):
            coeffs[block[i]] = complex(c[i])
    return coeffs


def _assemble(dim, positions, coeffs, lam):
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


def _expansion_embed(A, target):
    """Dense matrix of A on ``target``: A's expansion over its own sites,
    rebuilt with the target lattice's strings (the embedding before the
    signed scatter)."""
    coeffs = decompose(A, A.ambient.sites)
    return _assemble(target.dim, target.positions(A.ambient.sites), coeffs, target)


# -- batched string tables against the per-string loop ----------------------

_ORACLE_WEIGHTS = {"1": 1.0, "a": 0.5, "a*": 0.5, "t": 1.0}


def _decompose_per_string(A, subset):
    """The operator-basis expansion one string at a time, as the production
    code computed it before the tables were batched."""
    lam = A.ambient
    subset = lam.restrict(subset).sites
    pos = lam.positions(subset)
    dim = lam.dim
    cols = np.arange(dim)
    coeffs = {}
    for symbols in itertools.product(_STRING_SYMBOLS, repeat=len(subset)):
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
            # block boundaries inside the string range of embed's round trip
            # on A's own lattice, and of decompose and _assemble over X
            monkeypatch.setattr(fock, "_TABLE_BLOCK", strings_per_block << len(A.ambient))
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
        got = _assemble(lam.dim, lam.positions(X), coeffs, lam)
        assert np.array_equal(_bits(got), _bits(want_matrix))


def _model_configs():
    """Every shipped config and every benchmark config of seed 0 that names
    a model."""
    root = Path(__file__).resolve().parent.parent
    configs = [json.loads(path.read_text()) for path in sorted((root / "configs").glob("*.json"))]
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        configs += workloads.configs(workload, 0)
    return [config for config in configs if "model" in config]


def test_term_cache_entries_match_the_expansion_embed_bitwise():
    # oracle: the nonzero entries of the expansion embed's stack of parity
    # blocks, even block first, as the term cache once read them from a
    # dense embed with np.flatnonzero
    terms = 0
    for config in _model_configs():
        task, diagnostics = cli._parse_config(config)
        assert not diagnostics
        graph, phi = cli._build_model(task)
        lam = graph.sites
        assert len(lam) <= 8
        for term in phi.terms:
            flat, values = dynamics._embedded_sparse(term, lam)
            dense = _expansion_embed(term.operator, lam)
            stacked = dense[fock._sector_mesh(lam.dim, 0)].ravel()
            want = np.flatnonzero(stacked)
            assert np.array_equal(flat, want)
            assert np.array_equal(_bits(values), _bits(stacked[want]))
            terms += 1
    assert terms > 100


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


def test_large_sparse_pairs_run_on_the_blocks():
    lam = chain(8)
    a0, a5 = annihilator(lam, 0), annihilator(lam, 5)
    prod = a0 @ creator(lam, 5)
    bracket = anticommutator(a0, a5.adjoint())
    assert "_blocks" in prod.__dict__ and "_blocks" in bracket.__dict__
    assert np.array_equal(prod.matrix, a0.matrix @ creator(lam, 5).matrix)
    assert op_norm(bracket) == 0.0


@pytest.mark.parametrize("L", range(1, 9))
def test_block_built_adjoint_is_the_conjugate_transpose_bitwise(L):
    rng = np.random.default_rng(300 + L)
    lam = chain(L)
    shape = (2, lam.dim // 2, lam.dim // 2)
    for parity in PARITIES:
        mesh = fock._sector_mesh(lam.dim, 0 if parity == EVEN else 1)
        blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        A = FockOperator.from_blocks(blocks, lam, frozenset(lam.sites), parity)
        adj = A.adjoint()
        assert adj.parity == parity and "_blocks" in adj.__dict__
        assert "matrix" not in A.__dict__ and "matrix" not in adj.__dict__
        want = A.matrix.conj().T
        assert np.array_equal(adj.matrix, want)
        assert adj.blocks.shape == shape
        assert np.array_equal(np.ascontiguousarray(adj.blocks).view(np.uint64),
                              want[mesh].view(np.uint64))


@pytest.mark.parametrize("h", [1, 4, 32, 128])
def test_batched_linear_algebra_equals_the_per_block_calls_bitwise(h):
    # byte-identical outputs from the stacked parity blocks rest on this:
    # numpy's batched eigh, eigvalsh, svd and matmul give the bits of one
    # call per block, the swapped stack a[::-1] and adjoint views included
    rng = np.random.default_rng(900 + h)

    def stack():
        return rng.standard_normal((2, h, h)) + 1j * rng.standard_normal((2, h, h))

    a, b = stack(), stack()
    herm = a + fock.adjoint(a)
    w, v = np.linalg.eigh(herm)
    for c in (0, 1):
        w_c, v_c = np.linalg.eigh(herm[c])
        assert np.array_equal(_bits(w[c]), _bits(w_c))
        assert np.array_equal(_bits(v[c]), _bits(v_c))
        assert np.array_equal(_bits(np.linalg.eigvalsh(herm)[c]),
                              _bits(np.linalg.eigvalsh(herm[c])))
        assert np.array_equal(_bits(np.linalg.svd(a, compute_uv=False)[c]),
                              _bits(np.linalg.svd(a[c], compute_uv=False)))
        for got, want in ((a @ b, a[c] @ b[c]), (a[::-1] @ b, a[1 - c] @ b[c]),
                          (a @ fock.adjoint(b), a[c] @ b[c].conj().T),
                          (fock.adjoint(a[::-1]) @ b, a[1 - c].conj().T @ b[c])):
            assert np.array_equal(_bits(got[c]), _bits(want))
    # op_norm of a stack is the largest norm of its matrices, each matrix
    # taking its own solver (zero, Hermitian, anti-Hermitian, general)
    mixed = np.stack([np.zeros((h, h)), herm[0], 1j * herm[1], 3 * a[0]])
    per_block = [op_norm(m) for m in mixed]
    assert op_norm(mixed) == max(per_block)
    assert op_norm(mixed.reshape(2, 2, h, h)) == max(per_block)
    assert op_norm(herm) == max(op_norm(herm[0]), op_norm(herm[1]))


@pytest.mark.parametrize("parity", [EVEN, ODD])
@pytest.mark.parametrize("L", range(7))
def test_storage_follows_the_parity_tag(L, parity):
    rng = np.random.default_rng(500 + L)
    lam = fock.SiteSet(range(L))
    if L == 0:
        # the sectors of no sites have sizes 1 and 0: no even or odd storage
        with pytest.raises(ValueError, match="at least one site"):
            FockOperator(np.eye(1), lam, None, parity)
        with pytest.raises(ValueError, match="at least one site"):
            FockOperator.from_blocks(np.zeros((2, 0, 0)), lam, frozenset(), parity)
        return
    A, B = (random_local_operator(lam, lam.sites, rng, parity=parity) for _ in range(2))
    # a dense matrix with entries that the tag tolerates, dropped by the gather
    noise = 1e-13 * rng.standard_normal((lam.dim, lam.dim))
    noisy = A.matrix + (noise - _on_sectors(noise, parity))
    c = -0.7 + 0.2j    # c * A multiplies A's entries by c in that order, as a dense A did
    mesh = fock._sector_mesh(lam.dim, 0 if parity == EVEN else 1)
    for op, want in ((FockOperator(noisy, lam, None, parity), noisy),
                     (A + B, A.matrix + B.matrix), (A - B, A.matrix - B.matrix),
                     (c * A, A.matrix * c), (A * c, A.matrix * c)):
        assert op.parity == parity
        assert "_blocks" in op.__dict__
        assert "_matrix" not in op.__dict__ and "matrix" not in op.__dict__
        # one read-only stack of the two blocks
        assert isinstance(op.blocks, np.ndarray) and not op.blocks.flags.writeable
        assert op.blocks.shape == (2, lam.dim // 2, lam.dim // 2)
        # blocks, not whole matrices: 0 * c is -0.0 off the blocks of the oracle
        assert np.array_equal(_bits(op.blocks), _bits(want[mesh]))
    M = random_local_operator(lam, lam.sites, rng)
    other = random_local_operator(lam, lam.sites, rng, parity=ODD if parity == EVEN else EVEN)
    for op, want in ((A + M, A.matrix + M.matrix), (M - A, M.matrix - A.matrix),
                     (A + other, A.matrix + other.matrix),
                     (other - A, other.matrix - A.matrix), (c * M, M.matrix * c)):
        assert op.parity == fock.MIXED
        assert "_matrix" in op.__dict__ and "_blocks" not in op.__dict__
        assert np.array_equal(_bits(op.matrix), _bits(want))


def test_from_blocks_rejects_wrong_shapes():
    lam = chain(3)
    for shape in ((2, 4, 3), (4, 4), (1, 4, 4), (2, 8, 8)):
        with pytest.raises(ValueError, match="block stack shape"):
            FockOperator.from_blocks(np.zeros(shape), lam, frozenset(), EVEN)
    with pytest.raises(ValueError, match="mixed"):
        FockOperator.from_blocks(np.zeros((2, 4, 4)), lam, frozenset(), fock.MIXED)


def test_unknown_parity_tags_are_refused():
    # only 'even' and 'odd' have sector blocks; 'mixed' keeps the matrix
    lam = chain(3)
    for tag in ("Even", "bogus", ""):
        with pytest.raises(ValueError, match="no sector blocks"):
            FockOperator.from_blocks(np.zeros((2, 4, 4)), lam, frozenset(), tag)
        with pytest.raises(ValueError, match="no sector blocks"):
            FockOperator(np.eye(8), lam, None, tag)


# every constructor that skips the parity re-check: products and brackets
# on the blocks, from_blocks itself, embed, adjoint, negation, and the
# generators and monomials of _string_operator (here a_x at the last site,
# and a monomial cycling through every symbol, odd for L = 1, 3, 5)
_TRUSTED = {
    "adjoint": lambda A, B: A.adjoint(),
    "negation": lambda A, B: -A,
    "product": lambda A, B: A @ B,
    "commutator": commutator,
    "anticommutator": anticommutator,
    "from_blocks": lambda A, B: FockOperator.from_blocks(
        [2 * b for b in A.blocks], A.ambient, A.support, A.parity),
    "embed": lambda A, B: embed(A, chain(len(A.ambient) + 2)),
    "annihilator": lambda A, B: annihilator(A.ambient, A.ambient.sites[-1]),
    "monomial": lambda A, B: monomial(
        A.ambient, [("a*", "a", "a*a", "1")[i % 4] for i in range(len(A.ambient))]),
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


# -- one view per operator ---------------------------------------------------

def _popcount_parity(dim):
    return np.array([bin(k).count("1") % 2 for k in range(dim)])


def _real_string_oracle(lam, ops):
    """``_string_action`` as a dense matrix with real entries: every string
    of a, a* and a*a has entries 0 and +-1."""
    rows, vals = _string_action(lam, ops)
    assert not vals.imag.any()
    m = np.zeros((lam.dim, lam.dim), dtype=complex)
    nz = np.flatnonzero(vals)
    m[rows[nz], nz] = vals.real[nz]
    return m


def _on_sectors(m, parity):
    """m with exact zeros on the entries that the parity tag forbids."""
    signs = _popcount_parity(len(m))
    flips = signs[:, None] != signs[None, :]
    out = m.copy()
    out[flips if parity == EVEN else ~flips] = 0.0
    return out


def _diagonal_oracle(lam, value):
    return np.diag(np.array([value(k) for k in range(lam.dim)], dtype=complex))


def _generator_cases(lam, rng):
    return [(make(lam, x), _real_string_oracle(lam, ((i, sym),)))
            for i, x in enumerate(lam.sites)
            for make, sym in ((annihilator, "a"), (creator, "a*"))]


def _monomial_cases(lam, rng):
    cases = []
    for shift in range(4):
        labels = [fock.MONOMIAL_SYMBOLS[(i + shift) % 4] for i in range(len(lam))]
        ops = tuple((i, sym) for i, sym in enumerate(labels) if sym != "1")
        cases.append((monomial(lam, labels), _real_string_oracle(lam, ops)))
    return cases


def _diagonal_cases(lam, rng):
    cases = [(identity(lam), _diagonal_oracle(lam, lambda k: 1.0)),
             (zero(lam), _diagonal_oracle(lam, lambda k: 0.0))]
    for subset in (None, lam.sites[::2]):
        mask = sum(1 << p for p in lam.positions(lam.sites if subset is None else subset))
        cases.append((number_operator(lam, subset),
                      _diagonal_oracle(lam, lambda k: bin(k & mask).count("1"))))
        cases.append((parity_operator(lam, subset),
                      _diagonal_oracle(lam, lambda k: (-1.0) ** bin(k & mask).count("1"))))
    return cases


def _operand_cases(lam, rng):
    """Even and odd operands, checked (dense) and block-built."""
    ops = [random_local_operator(lam, lam.sites, rng, parity=p) for p in (EVEN, ODD)]
    return ops + [FockOperator.from_blocks(A.blocks, lam, A.support, A.parity) for A in ops]


def _parity_decompose_cases(lam, rng):
    A = random_local_operator(lam, lam.sites, rng)
    a = A.matrix
    theta = (-1.0) ** _popcount_parity(lam.dim)
    flipped = theta[:, None] * a * theta[None, :]
    even, odd = parity_decompose(A)
    return [(even, (a + flipped) / 2), (odd, (a - flipped) / 2)]


def _embed_cases(lam, rng):
    sub = lam.restrict(lam.sites[::2])
    cases = []
    for parity in (EVEN, ODD):
        A = random_local_operator(sub, sub.sites, rng, parity=parity)
        cases.append((embed(A, lam), _expansion_embed(A, lam)))
    return cases


def _dressed_cases(lam, rng):
    coeffs = rng.standard_normal(len(lam)) + 1j * rng.standard_normal(len(lam))
    coeffs[len(lam) // 2] = 0.0
    want = np.zeros((lam.dim, lam.dim), dtype=complex)
    for i, w in enumerate(coeffs):
        if w != 0:
            want += np.conj(w) * _real_string_oracle(lam, ((i, "a"),))
    return [(models._dressed_annihilator(lam, coeffs), want)]


# constructor -> (smallest lattice size, cases): every definite-parity
# operator the algebra makes itself, paired with a dense oracle
_BLOCK_BUILT = {
    "generators": (1, _generator_cases),
    "monomial": (0, _monomial_cases),
    "diagonal": (0, _diagonal_cases),
    "parity_decompose": (0, _parity_decompose_cases),
    "embed": (0, _embed_cases),
    "adjoint": (0, lambda lam, rng: [(A.adjoint(), _on_sectors(A.matrix.conj().T, A.parity))
                                     for A in _operand_cases(lam, rng)]),
    "negation": (0, lambda lam, rng: [(-A, _on_sectors(-A.matrix, A.parity))
                                      for A in _operand_cases(lam, rng)]),
    "dressed_annihilator": (1, _dressed_cases),
}


@pytest.mark.parametrize("name,L", [(name, L) for name, (low, _) in sorted(_BLOCK_BUILT.items())
                                    for L in range(low, 7)])
def test_block_built_constructors_keep_only_their_blocks(name, L):
    lam = fock.SiteSet(range(L))
    rng = np.random.default_rng(400 + L)
    if L == 0:
        # each of these builds an even or odd operator on no sites: refused
        with pytest.raises(ValueError, match="at least one site"):
            _BLOCK_BUILT[name][1](lam, rng)
        return
    for op, want in _BLOCK_BUILT[name][1](lam, rng):
        assert "_blocks" in op.__dict__ and "matrix" not in op.__dict__
        assert op.blocks.shape == (2, lam.dim // 2, lam.dim // 2)
        assert not op.blocks.flags.writeable
        first, second = op.matrix, op.matrix
        assert "_blocks" in op.__dict__ and "matrix" not in op.__dict__
        assert first is not second
        for m in (first, second):
            assert np.array_equal(_bits(m), _bits(want))
