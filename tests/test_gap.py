"""Frustration-freeness, kernel projections, the martingale certificate on
even sequences (its range-basis checks and windows against explicit E_n,
its in-loop monotonicity, nesting and parity checks, its eps bound against
a dense recomputation, assumption (i) and the windows against their
recomputations), and gap-protected projection flow."""

import csv
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fermicert import cli, fock, gap, geometry, models
from fermicert.dynamics import Interaction, InteractionTerm, local_hamiltonian, scaled_profile
from fermicert.errors import AmbiguousKernelError, GapClosureError
from fermicert.fock import (EVEN, MIXED, FockOperator, adjoint, annihilator, chain,
                            creator, identity, number_operator, op_norm, zero)
from fermicert.gap import (COMMUTE_TOL, HamiltonianSequence, _check_resolution, _exceeds,
                           _kernel, _pairs, _range_bases, _sector_norm_bound, _windows,
                           frustration_free_check, hamiltonian_sequence, kernel_projection,
                           martingale_bound, martingale_certificate, projection_flow)


def _onsite_number_interaction(L):
    terms = []
    for x in range(L):
        sub = fock.SiteSet((x,))
        terms.append(InteractionTerm((x,), creator(sub, x) @ annihilator(sub, x)))
    return Interaction(tuple(terms))


def _whole_lattice_steps(lam, *increments):
    """The sequence whose step n adds the whole-lattice term increments[n-1]."""
    return HamiltonianSequence(
        lam, [Interaction((InteractionTerm(lam.sites, h),)) for h in increments])


def _hamiltonians(seq):
    """H_1, ..., H_N as the certificate forms them."""
    return [H for _, H in _pairs(seq)]


def test_spectrum_examples(lam4, rng):
    w, v = np.linalg.eigh(zero(lam4).matrix)
    assert np.array_equal(w, np.zeros(16))
    assert _kernel(w, v)[0] == 16
    lam3 = chain(3)
    w, v = np.linalg.eigh(number_operator(lam3).matrix)
    kernel_dim, basis, projection = _kernel(w, v)
    # occupation-count oracle over all 8 configurations
    oracle = sorted(bin(k).count("1") for k in range(8))
    assert np.allclose(w, oracle, atol=1e-12)
    assert kernel_dim == 1
    # the basis is a view of v's kernel columns: the vacuum
    assert np.shares_memory(basis, v)
    assert np.abs(np.abs(basis[:, 0]) - np.eye(8)[0]).max() <= 1e-12
    assert np.array_equal(projection, basis @ basis.conj().T)
    lam2 = chain(2)
    H = local_hamiltonian(models.hopping_chain(2), lam2)
    assert np.allclose(np.linalg.eigvalsh(H.matrix), [-1, 0, 0, 1], atol=1e-12)
    nonherm = fock.random_local_operator(lam4, (0, 1), rng)
    with pytest.raises(ValueError, match="self-adjoint"):
        kernel_projection(nonherm)


def test_frustration_free_flat_band():
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.4),
                                 geometry.chain_graph(L))
    rep = frustration_free_check(phi, lam)
    assert rep.frustration_free
    assert rep.residual <= 1e-10


def test_frustration_free_single_term(rng):
    lam = chain(3)
    sub = lam.restrict((0, 1))
    A = fock.random_local_operator(sub, (0, 1), rng, parity=EVEN)
    herm = 0.5 * (A + A.adjoint())
    phi = Interaction((InteractionTerm((0, 1), herm),))
    rep = frustration_free_check(phi, lam)
    assert rep.frustration_free


def test_frustration_free_counterexample_hopping():
    # hopping lowers the ground energy below the sum of term minima
    lam = chain(4)
    phi = models.hopping_chain(4, J=1.0, mu=-1.0)
    rep = frustration_free_check(phi, lam)
    assert not rep.frustration_free
    assert rep.residual > 1e-3


def test_kernel_projection_basics():
    lam = chain(3)
    P = kernel_projection(zero(lam))
    assert np.array_equal(P.matrix, np.eye(8, dtype=complex))
    Pn = kernel_projection(number_operator(lam))
    expect = np.zeros((8, 8), dtype=complex)
    expect[0, 0] = 1.0  # vacuum is the unique zero-eigenvector
    assert np.abs(Pn.matrix - expect).max() <= 1e-12
    assert op_norm(Pn @ Pn - Pn) <= 1e-12


def test_kernel_projection_flat_band_rank_matches_ed():
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.25),
                                 geometry.chain_graph(L))
    H = local_hamiltonian(phi, lam)
    P = kernel_projection(H)
    ed_count = int(np.sum(np.linalg.eigvalsh(H.matrix) < 1e-8))
    assert round(P.trace().real) == ed_count == 1


def test_kernel_projection_ambiguity_guard():
    lam = chain(2)
    m = np.diag([0.0, 5e-8, 1.0, 2.0]).astype(complex)
    H = FockOperator(m, lam, frozenset(lam.sites), EVEN)
    with pytest.raises(AmbiguousKernelError):
        kernel_projection(H)
    # far-separated spectrum is fine
    clean = FockOperator(np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex),
                         lam, frozenset(lam.sites), EVEN)
    P = kernel_projection(clean)
    assert round(P.trace().real) == 2


def test_kernel_projection_is_tagged_even():
    lam = chain(1)
    # a mixed-tagged operator with an even kernel projection is accepted
    mixed_number = FockOperator(number_operator(lam).matrix, lam, None, MIXED)
    P = kernel_projection(mixed_number)
    assert P.parity == EVEN
    assert np.array_equal(P.matrix, np.diag([1.0, 0.0]).astype(complex))
    # 1 - |+><+| with |+> = (|0> + |1>) / sqrt 2: its kernel projection
    # |+><+| is not even, and the even tag refuses it
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="parity 'even' violated"):
        kernel_projection(FockOperator(np.eye(2) - plus, lam, None, MIXED))


def _rotating_kernel(monkeypatch, call, angle):
    """Patch ``gap._kernel`` so that its call number ``call`` (from 1) turns
    the first kernel column by ``angle`` toward the eigenvector of the
    largest eigenvalue, with the projection to match, and return the list
    of the eigenvalues it is given, one entry per call."""
    calls = []
    real = gap._kernel

    def kernel(w, v):
        calls.append(w)
        k, basis, projection = real(w, v)
        if len(calls) == call:
            basis = basis.copy()
            basis[:, 0] = np.cos(angle) * basis[:, 0] + np.sin(angle) * v[:, -1]
            projection = basis @ basis.conj().T
        return k, basis, projection

    monkeypatch.setattr(gap, "_kernel", kernel)
    return calls


def test_certificate_refuses_a_non_nested_pair_when_it_arrives(monkeypatch):
    # the kernels of h_1, H_1, h_2 and H_2 are calls 1 to 4; H_2's vacuum is
    # turned toward |11>, which lies outside ker H_1 = ker n_0
    lam = chain(2)
    n0, n = number_operator(lam, [0]), number_operator(lam)
    seq = _whole_lattice_steps(lam, n0, n - n0, n0)
    assert martingale_certificate(seq).certified
    calls = _rotating_kernel(monkeypatch, 4, 1e-3)
    with pytest.raises(ValueError, match="nested"):
        martingale_certificate(seq)
    # refused on the pair (G_1, G_2): neither kernel of step 3 was asked for
    assert len(calls) == 4


def _explicit_family(gs):
    """E_0 = 1 - G_1, E_n = G_n - G_{n+1} and E_N = G_N as operators."""
    one = fock.identity(gs[0].ambient)
    return [one - gs[0]] + [gs[n] - gs[n + 1] for n in range(len(gs) - 1)] + [gs[-1]]


def _resolution(es):
    """(sides, gram, delta) of the E_n as the certificate checks them: the
    range bases of each, then the Gram check over all."""
    ranges, sides, deltas = zip(*map(_range_bases, es))
    return sides, _check_resolution(ranges, max(deltas)), max(deltas)


def _increments(seq):
    """h_n = H_n - H_{n-1} for n = 1..N."""
    return [H - H_prev for H_prev, H in _pairs(seq)]


def _product_oracle(gs):
    """The resolution check by products: the largest ||E_i E_j - delta_ij E_i||
    over i <= j, and ||E_0 + ... + E_N - 1||."""
    one = fock.identity(gs[0].ambient)
    es = _explicit_family(gs)
    total = es[0]
    for e in es[1:]:
        total = total + e
    worst = 0.0
    for i, e in enumerate(es):
        for j in range(i, len(es)):
            prod = e @ es[j]
            worst = max(worst, op_norm(prod - e) if i == j else op_norm(prod))
    return worst, op_norm(total - one)


def _window_oracle(es, g_projs):
    """||[E_k, g_{n+1}]|| at row k and column n, from the operator commutators."""
    return np.array([[op_norm(fock.commutator(e, g)) for g in g_projs] for e in es])


def _assert_sides_span(sides, es):
    """Each kept basis V of E_n spans, per block, the range of E_n or of
    1 - E_n, whichever has the lower rank."""
    for vs, e in zip(sides, es):
        for v, m in zip(vs, e.blocks):
            rank = round(np.trace(m).real)
            assert v.shape[1] == min(rank, len(m) - rank)
            side = m if 2 * rank <= len(m) else np.eye(len(m)) - m
            assert np.abs(v @ v.conj().T - side).max() <= 1e-12


def test_resolution_family_single_step():
    lam = chain(2)
    G1 = kernel_projection(number_operator(lam))
    E0, E1 = _explicit_family([G1])
    sides, gram, delta = _resolution([E0, E1])
    assert gram + 2 * delta <= 1e-14
    assert np.abs(E0.matrix - (np.eye(4) - G1.matrix)).max() <= 1e-12
    assert np.abs(E1.matrix - G1.matrix).max() <= 1e-12
    _assert_sides_span(sides, [E0, E1])


def test_resolution_family_full_sequence():
    L = 5
    seq = hamiltonian_sequence(models.kitaev_chain(L), chain(L))
    gs = [kernel_projection(H) for H in _hamiltonians(seq)]
    sides, gram, delta = _resolution(_explicit_family(gs))
    assert gram + 2 * delta <= COMMUTE_TOL
    products, completeness = _product_oracle(gs)
    assert max(products, completeness) <= 1e-10
    _assert_sides_span(sides, _explicit_family(gs))


def test_certificate_refuses_non_nested_kernels(monkeypatch):
    # ||G_2 (1 - G_1)|| is the sine of the angle by which H_2's kernel is
    # turned out of ker H_1; the check runs on the kernel basis of H_2
    lam = chain(2)
    n0, n = number_operator(lam, [0]), number_operator(lam)
    seq = _whole_lattice_steps(lam, n0, n - n0)
    _rotating_kernel(monkeypatch, 4, 1e-3)
    with pytest.raises(ValueError, match="not nested: defect 1.000e-03"):
        martingale_certificate(seq)


def test_certificate_refuses_a_kernel_projection_that_is_not_even(monkeypatch):
    # the kernel projection of H_1 (call 2) gains a 1e-6 entry between the
    # sectors: E_0 = 1 - G_1 is refused by its even tag before step 2 starts
    lam = chain(2)
    n0, n = number_operator(lam, [0]), number_operator(lam)
    seq = _whole_lattice_steps(lam, n0, n - n0)
    even, odd = (int(sector[0]) for sector in fock._sector_index(lam.dim))
    calls = []
    real = gap._kernel

    def kernel(w, v):
        calls.append(w)
        k, basis, projection = real(w, v)
        if len(calls) == 2:
            projection = projection.copy()
            projection[even, odd] = projection[odd, even] = 1e-6
        return k, basis, projection

    monkeypatch.setattr(gap, "_kernel", kernel)
    with pytest.raises(ValueError, match="declared parity 'even' violated"):
        martingale_certificate(seq)
    assert len(calls) == 2


def test_a_forward_commutator_refuses_the_certificate_and_keeps_every_step(
        monkeypatch, tmp_path, capsys):
    seq = hamiltonian_sequence(_gap_model("flatband", 4), chain(4))
    plain = martingale_certificate(seq)
    given = []
    real = gap._windows

    def windows(sides, g_projs):
        out = real(sides, g_projs)
        out[2, 0] = 1e-3    # g_1 against the later E_2: row k > column n
        given.append(out)
        return out

    monkeypatch.setattr(gap, "_windows", windows)
    cert = martingale_certificate(seq)
    assert not cert.certified
    assert "later spectral block" in cert.no_certificate_reason
    assert cert.defects["forward_commutator"] == 1e-3
    # the allowed windows (k <= n) leave out the forward one
    k, n = np.indices(given[0].shape)
    allowed = given[0][k <= n].max()
    assert cert.defects["max_allowed_window_commutator"] == allowed < COMMUTE_TOL
    report = cert.to_dict()
    assert report["epsilon"] is None and report["bound"] is None
    assert set(report["per_step"]) == {"gamma_n", "eps_sq_n", "max_commutator_n"}
    assert report["per_step"]["gamma_n"] == plain.per_step["gamma_n"]
    assert report["per_step"]["eps_sq_n"] == plain.per_step["eps_sq_n"]
    assert report["per_step"]["max_commutator_n"] == given[0].max(axis=0).tolist()
    # through the CLI: exit code 2, and the table lists every step's defects
    config = {"task": "gap-certify", "lattice": {"lengths": [4]},
              "model": {"name": "flat_band_chain", "params": {"angle": 0.35}}}
    assert cli.run(config, tmp_path) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "no-certificate"
    rows = list(csv.DictReader((tmp_path / "gap_certify_table.csv").read_text().splitlines()))
    assert [float(r["commutator_defect_n"]) for r in rows] == given[1].max(axis=0).tolist()
    assert [float(r["eps_sq_n"]) for r in rows] == plain.per_step["eps_sq_n"]


def _gap_model(name, L):
    graph = geometry.chain_graph(L)
    if name == "kitaev":
        return models.kitaev_chain(L)
    orbitals = (models.paired_cell_orbitals(L, 0.35) if name == "flatband"
                else models.overlapping_orbitals(L, 0.4))
    return models.flat_band_model(orbitals, graph)


# the models of the shipped gap_* configs and of acceptance criterion 8
@pytest.mark.parametrize("name", ["kitaev", "flatband", "overlap"])
@pytest.mark.parametrize("L", [6, 8])
def test_range_bases_against_the_product_oracles(name, L):
    seq = hamiltonian_sequence(_gap_model(name, L), chain(L))
    gs = [kernel_projection(H) for H in _hamiltonians(seq)]
    g_projs = [kernel_projection(h) for h in _increments(seq)]
    sides, gram, delta = _resolution(_explicit_family(gs))
    assert gram + 2 * delta <= COMMUTE_TOL
    products, completeness = _product_oracle(gs)
    assert products <= gram + 2 * delta
    assert completeness <= gram + 2 * delta
    windows = _windows(sides, g_projs)
    oracle = _window_oracle(_explicit_family(gs), g_projs)
    assert np.abs(windows - oracle).max() <= 2 * delta + 1e-14
    assert np.array_equal(windows > COMMUTE_TOL, oracle > COMMUTE_TOL)
    cert = martingale_certificate(seq)
    assert cert.per_step["max_commutator_n"] == windows.max(axis=0).tolist()


def _unit_family(es_even):
    """Kernel projections G_n = E_n + ... + E_N (n >= 1) on 4 sites, with the
    given even-sector blocks of the E_n and the odd sector split into the
    basis states one by one."""
    lam = chain(4)
    odd = [np.diag(np.eye(8)[k]).astype(complex) for k in range(8)]
    return [FockOperator.from_blocks((sum(es_even[n:]), sum(odd[n:])), lam, lam.sites, EVEN)
            for n in range(1, 8)]


def test_resolution_family_refuses_an_oblique_block():
    # G_3 = G_4 + |psi><phi|, phi = psi rotated by 1e-6 into the range of G_4:
    # the G_n nest, but E_3 = |psi><phi| is not an orthogonal projection
    basis = np.eye(8)
    es = [np.outer(b, b).astype(complex) for b in basis]
    phi = np.cos(1e-6) * basis[3] + np.sin(1e-6) * basis[4]
    es[2] = es[2] + es[3] - np.outer(basis[3], phi)
    es[3] = np.outer(basis[3], phi).astype(complex)
    gs = _unit_family(es)
    assert max(op_norm(b - b @ a) for a, b in zip(gs, gs[1:])) <= COMMUTE_TOL
    assert _product_oracle(gs)[0] > COMMUTE_TOL
    with pytest.raises(ValueError, match="not orthogonal projections"):
        _resolution(_explicit_family(gs))


def test_gram_check_refuses_overlapping_ranges():
    # rank-one E_n whose ranges overlap their neighbours' by 8e-11: every
    # E_n is within 2e-11 of a projection and the G_n nest within
    # COMMUTE_TOL, so only the Gram defect of the range bases refuses them
    c = 8e-11
    overlaps = c * (np.eye(8, k=1) + np.eye(8, k=-1))
    w, v = np.linalg.eigh(np.eye(8) + overlaps)
    W = (v * np.sqrt(w)) @ v.T                # unit columns, W* W = 1 + overlaps
    es = [(np.outer(W[:, k], W[:, k]) - overlaps / 8).astype(complex) for k in range(8)]
    gs = _unit_family(es)
    assert max(op_norm(b - b @ a) for a, b in zip(gs, gs[1:])) <= COMMUTE_TOL
    eigenvalues = np.concatenate([np.linalg.eigvalsh(e) for e in es])
    assert 2 * np.abs(eigenvalues - (eigenvalues > 0.5)).max() <= COMMUTE_TOL
    # the Gram bound is conservative: these products stay below COMMUTE_TOL
    assert _product_oracle(gs)[0] <= COMMUTE_TOL
    with pytest.raises(ValueError, match="Gram defect"):
        _resolution(_explicit_family(gs))


def test_sequence_refuses_no_steps_and_a_time_dependent_step():
    lam = chain(2)
    with pytest.raises(ValueError, match="at least one step"):
        HamiltonianSequence(lam, ())
    with pytest.raises(ValueError, match="at least one step"):
        hamiltonian_sequence(models.hopping_chain(3), chain(1))
    ramped = scaled_profile(models.hopping_chain(2), lambda t: 1.0 + t, (0.0, 1.0))
    with pytest.raises(ValueError, match="static interactions"):
        HamiltonianSequence(lam, (models.hopping_chain(2), ramped))
    with pytest.raises(ValueError, match="static interactions"):
        hamiltonian_sequence(ramped, lam)


def test_sequence_validation(monkeypatch):
    lam = chain(2)
    n = number_operator(lam)
    decreasing = _whole_lattice_steps(lam, n, -1.0 * n)
    # below -MONOTONICITY_TOL but within the kernel tolerance of _kernel
    sagging = _whole_lattice_steps(lam, n, -1e-9 * identity(lam))
    calls = _rotating_kernel(monkeypatch, 0, 0.0)     # records the calls only
    for seq, defect in ((decreasing, "2.000e+00"), (sagging, "1.000e-09")):
        calls.clear()
        message = f"not increasing: increment defect {defect}"
        with pytest.raises(ValueError, match=re.escape(message)):
            martingale_certificate(seq)
        # refused on h_2's eigenvalues before _kernel split them: it saw
        # only those of h_1 and H_1
        assert len(calls) == 2


def test_even_sequence_is_built_without_a_dense_matrix(monkeypatch):
    # only the terms' own small matrices are read, for their embedding
    L = 6
    seq = hamiltonian_sequence(_gap_model("flatband", L), chain(L))
    real = fock.sector_matrix

    def refuse_full(blocks, parity, dim):
        if dim == seq.lattice.dim:
            raise AssertionError("a 2^L x 2^L matrix was assembled")
        return real(blocks, parity, dim)

    monkeypatch.setattr(fock, "sector_matrix", refuse_full)
    assert len(list(_pairs(seq))) == len(seq.steps)


def test_certificate_refuses_a_vanishing_increment():
    lam = chain(2)
    seq = _whole_lattice_steps(lam, number_operator(lam), zero(lam))
    with pytest.raises(ValueError, match="increment vanishes"):
        martingale_certificate(seq)


def test_certificate_refuses_a_trivial_kernel():
    lam = chain(2)
    n = number_operator(lam)
    seq = _whole_lattice_steps(lam, n, 2.0 * identity(lam) - n)
    with pytest.raises(ValueError, match="H_2 has trivial kernel"):
        martingale_certificate(seq)


def test_flat_band_certificate_peaks_near_what_it_keeps():
    # peaks at 10.6 MiB with at most two H_n alive; holding every H_n
    # (4.6 MB at 8 sites) peaked at 14.1 MiB, and keeping every increment
    # and kernel projection with the dense eps work as well at 24.2 MB
    L = 8
    tracemalloc.start()
    try:
        martingale_certificate(hamiltonian_sequence(_gap_model("flatband", L), chain(L)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_hamiltonian_sequence_grouping():
    L = 4
    lam = chain(L)
    phi = _onsite_number_interaction(L)
    # two terms per step: the on-site terms of sites {0, 1}, then of {2, 3}
    grouped = HamiltonianSequence(lam, (Interaction(phi.terms[:2]),
                                        Interaction(phi.terms[2:])))
    hams = _hamiltonians(grouped)
    assert len(hams) == 2
    full = hamiltonian_sequence(phi, lam)
    assert np.abs(hams[-1].matrix - _hamiltonians(full)[-1].matrix).max() <= 1e-14
    cert = martingale_certificate(grouped)
    assert cert.bound == pytest.approx(1.0, abs=1e-10)


def test_martingale_commuting_toy_model():
    L = 4
    lam = chain(L)
    seq = hamiltonian_sequence(_onsite_number_interaction(L), lam)
    cert = martingale_certificate(seq)
    assert cert.gamma == pytest.approx(1.0, abs=1e-10)
    assert cert.ell == 0
    assert cert.epsilon <= 1e-7
    assert cert.bound == pytest.approx(1.0, abs=1e-10)
    assert cert.exact_gap == pytest.approx(1.0, abs=1e-10)
    assert cert.bound <= cert.exact_gap + 1e-8
    # the emitted bound reproduces the closed formula bit for bit
    assert cert.bound == martingale_bound(cert.gamma, cert.ell, cert.epsilon)


@pytest.mark.parametrize("L", [6, 8])
def test_martingale_flat_band(L):
    lam = chain(L)
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.35),
                                 geometry.chain_graph(L))
    cert = martingale_certificate(hamiltonian_sequence(phi, lam))
    assert cert.certified
    assert cert.bound > 0.9
    assert cert.exact_gap == pytest.approx(1.0, abs=1e-10)
    assert cert.bound <= cert.exact_gap + 1e-8
    assert cert.defects["assumption_i"] <= 1e-10
    assert cert.defects["forward_commutator"] == 0.0


def test_eps_is_the_dense_product_of_the_eigh_projections():
    # eps is roundoff only here, so it depends on the off-sector roundoff of
    # the eigh projections, which the block-built operators drop; each
    # eps_n^2 bounds the norm of their dense product from its parity blocks
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.35),
                                 geometry.chain_graph(L))
    seq = hamiltonian_sequence(phi, lam)
    cert = martingale_certificate(seq)

    def kernel(op):
        w, v = np.linalg.eigh(op.matrix)
        k = int(np.searchsorted(w, 1e-8 * max(1.0, np.abs(w).max()), side="right"))
        return v[:, :k] @ v[:, :k].conj().T

    want = []
    p_prev = np.eye(lam.dim, dtype=complex)
    for h, H in zip(_increments(seq), _hamiltonians(seq)):
        p = kernel(H)
        e = p_prev - p
        want.append(op_norm(e @ kernel(h) @ e))
        p_prev = p
    _assert_bounds_tightly(cert.per_step["eps_sq_n"], want)
    assert cert.epsilon == np.sqrt(max(cert.per_step["eps_sq_n"]))
    assert 0.0 < max(want) < 1e-15


def test_martingale_kitaev_chain():
    L = 6
    lam = chain(L)
    cert = martingale_certificate(hamiltonian_sequence(models.kitaev_chain(L), lam))
    assert cert.certified
    assert 0 < cert.bound <= cert.exact_gap + 1e-8
    assert cert.bound == martingale_bound(cert.gamma, cert.ell, cert.epsilon)


def test_martingale_bound_holds_statewise(rng):
    # the certified statement itself: every state orthogonal to ker(H_N)
    # has energy expectation at least the bound
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.overlapping_orbitals(L, 0.4),
                                 geometry.chain_graph(L))
    seq = hamiltonian_sequence(phi, lam)
    cert = martingale_certificate(seq)
    assert cert.certified
    H = _hamiltonians(seq)[-1]
    G = kernel_projection(H)
    comp = np.eye(lam.dim) - G.matrix
    for _ in range(20):
        psi = rng.standard_normal(lam.dim) + 1j * rng.standard_normal(lam.dim)
        psi = comp @ psi
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            continue
        psi /= nrm
        energy = float(np.vdot(psi, H.matrix @ psi).real)
        assert energy >= cert.bound - 1e-10


def test_martingale_noncommuting_overlap_model():
    # overlapping valence orbitals: ell and eps are genuinely nonzero and
    # the certificate still lower-bounds the exact diagonalization gap
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.overlapping_orbitals(L, 0.4),
                                 geometry.chain_graph(L))
    cert = martingale_certificate(hamiltonian_sequence(phi, lam))
    assert cert.certified
    assert cert.ell >= 1
    assert cert.epsilon > 0.1
    assert 0 < cert.bound <= cert.exact_gap + 1e-8
    assert cert.bound == martingale_bound(cert.gamma, cert.ell, cert.epsilon)


def test_martingale_no_certificate_when_eps_large():
    # strong overlap pushes eps sqrt(1+ell) past one: a result, not an error
    L = 6
    lam = chain(L)
    phi = models.flat_band_model(models.overlapping_orbitals(L, 0.77),
                                 geometry.chain_graph(L))
    cert = martingale_certificate(hamiltonian_sequence(phi, lam))
    if not cert.certified:
        assert cert.no_certificate_reason
        assert cert.bound is None
    else:
        # if it certifies after all, soundness must still hold
        assert cert.bound <= cert.exact_gap + 1e-8


@pytest.fixture(scope="module")
def small_flow_setup():
    L = 4
    lam = chain(L)
    graph = geometry.chain_graph(L)

    def family(s):
        return models.flat_band_model(
            models.paired_cell_orbitals(L, 0.3 + 0.4 * s), graph)

    return lam, graph, family


def test_projection_flow_constant_family(small_flow_setup):
    lam, graph, family = small_flow_setup
    rep = projection_flow(lambda s: family(0.0), lam, np.linspace(0, 1, 5),
                          gamma_min=0.5)
    assert rep.max_defect <= 1e-12
    assert rep.rank == 1


def test_projection_flow_rotation(small_flow_setup):
    lam, graph, family = small_flow_setup
    rep = projection_flow(family, lam, np.linspace(0, 1, 11), gamma_min=0.5)
    assert rep.rank == 1
    assert rep.max_defect <= 1e-6
    assert np.all(rep.gaps >= 0.5)
    # transported trace stays an integer
    assert abs(rep.rank - round(rep.rank)) <= 1e-8


def test_projection_flow_gap_closure(small_flow_setup):
    lam, graph, _ = small_flow_setup
    base = models.flat_band_model(models.paired_cell_orbitals(4, 0.3), graph)

    def closing(s):
        terms = [InteractionTerm(t.sites, (1.0 - 2.0 * s) * t.operator, label=t.label)
                 if t.label.startswith("conduction") else t
                 for t in base.terms]
        return Interaction(tuple(terms))

    with pytest.raises(GapClosureError) as err:
        projection_flow(closing, lam, np.linspace(0, 1, 11), gamma_min=0.2)
    # gap = min(1, 1 - 2s) crosses 0.2 at s = 0.4
    assert err.value.location == pytest.approx(0.4, abs=0.01)
    lo, hi = err.value.bracket
    assert lo <= err.value.location <= hi


# -- the block flow against the dense oracle --------------------------------

def _flow_families(L):
    """The rotation and the closing family, each one profiled interaction."""
    rotation = models.rotating_flat_band(L, lambda s: 0.3 + 0.5 * s)
    closing = models.flat_band_model(models.paired_cell_orbitals(L, 0.3),
                                     geometry.chain_graph(L),
                                     conduction_profile=lambda s: 1.0 - 2.0 * s)
    return rotation, closing


@pytest.mark.parametrize("L", [4, 6])
def test_projection_flow_matches_the_dense_oracle(L):
    from flow_oracles import dense_projection_flow
    lam = chain(L)
    rotation, closing = _flow_families(L)
    grid = np.linspace(0.0, 1.0, 11)
    got = projection_flow(lambda s: rotation, lam, grid, gamma_min=0.5, defect_target=3e-5)
    want = dense_projection_flow(lambda s: rotation, lam, grid, gamma_min=0.5,
                                 defect_target=3e-5)
    assert (got.rank, got.substeps) == (want.rank, want.substeps)
    assert got.substeps > 1
    assert np.array_equal(got.parameters, want.parameters)
    assert np.abs(got.gaps - want.gaps).max() <= 1e-13
    assert np.abs(got.defects - want.defects).max() <= 1e-11
    assert abs(got.max_defect - want.max_defect) <= 1e-11

    # 1 - 2 * 0.4 = 0.19999999999999996: the gap meets gamma_min at s = 0.4
    # to one ulp, so the bracket depends on how that gap is rounded
    closures = []
    for flow in (projection_flow, dense_projection_flow):
        with pytest.raises(GapClosureError) as err:
            flow(lambda s: closing, lam, grid, gamma_min=0.2)
        closures.append((err.value.location, tuple(err.value.bracket)))
    assert closures[0] == closures[1]


@pytest.mark.parametrize("L", [4, 6])
def test_projection_flow_transports_once_per_interval_after_the_first(L, monkeypatch):
    # each interval starts at the count the one before it ended with, and on
    # this rotation that count suffices: one transport per later interval
    starts = []
    transport = gap._transport

    def spy(bases, fine):
        starts.append(float(fine[0]))
        return transport(bases, fine)

    monkeypatch.setattr(gap, "_transport", spy)
    rotation, _ = _flow_families(L)
    grid = np.linspace(0.0, 1.0, 11)
    rep = projection_flow(lambda s: rotation, chain(L), grid, gamma_min=0.5,
                          defect_target=3e-5)
    assert len(starts) == 14
    assert starts[:5] == [0.0] * 5      # 1, 2, 4, 8 and 16 substeps
    assert starts[5:] == grid[1:-1].tolist()
    assert rep.substeps == 16


def _split_family(L):
    """H(s) = D + s X on the whole lattice, X even and random with norm 0.5:
    D's two lowest even levels (0, 0.1) and lowest odd one (0.05) lie about
    5 below the rest, so the tracked rank is 3, split (2, 1) over the parity
    blocks, and each block's basis has zero columns."""
    lam, h = chain(L), 2 ** (L - 1)
    upper = 5.0 + np.linspace(0.0, 1.0, h)
    diag = np.stack([np.concatenate(([0.0, 0.1], upper[2:])),
                     np.concatenate(([0.05], upper[1:]))])
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, h, h)) + 1j * rng.normal(size=(2, h, h))
    x = g + adjoint(g)
    x *= 0.5 / op_norm(x)
    return Interaction((
        InteractionTerm(lam.sites, FockOperator.from_blocks(diag[:, :, None] * np.eye(h),
                                                            lam, lam.sites, EVEN)),
        InteractionTerm(lam.sites, FockOperator.from_blocks(x, lam, lam.sites, EVEN),
                        profile=lambda s: s)))


@pytest.mark.parametrize("kind, L, substeps", [
    ("rotation", 4, 16), ("rotation", 6, 32), ("closing", 4, 1), ("closing", 6, 1),
    ("split", 6, 8), ("split", 4, 8)])
def test_transport_matches_the_dense_oracle(kind, L, substeps, monkeypatch):
    # every transport of a flow against the full-block exponentials of its
    # projections; the split case at L = 4 has 4w = 12 >= h = 8, a square Q
    from flow_oracles import dense_transport
    calls = []
    transport = gap._transport
    monkeypatch.setattr(gap, "_transport",
                        lambda bases, fine: calls.append((bases, fine)) or transport(bases, fine))
    if kind == "split":
        # a target of 1e-7 takes 8 substeps, so each window holds four points
        phi, grid, gamma_min, target = _split_family(L), np.linspace(0.0, 1.0, 6), 2.0, 1e-7
    else:
        phi = _flow_families(L)[kind == "closing"]
        # the closing family's gap 1 - 2s stays above 0.3 up to s = 0.35; its
        # projection does not move, so each transport is the identity
        grid = np.linspace(0.0, 1.0 if kind == "rotation" else 0.35, 8)
        gamma_min, target = 0.2, 3e-5
    rep = projection_flow(lambda s: phi, chain(L), grid, gamma_min=gamma_min,
                          defect_target=target)
    assert rep.rank == (3 if kind == "split" else 1)
    assert rep.substeps == substeps
    # no eigh of the transport is larger than 4w x 4w
    sizes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape[-1]) or eigh(a))
    got = [transport(bases, fine) for bases, fine in calls]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    bases = calls[-1][0]
    assert max(sizes) <= 4 * bases.shape[-1]
    for u, (bases, fine) in zip(got, calls):
        assert op_norm(u - dense_transport(bases @ adjoint(bases), fine)) <= 1e-12
    if kind == "split":
        # masked zero columns in both blocks
        assert (np.abs(bases).max(axis=(0, 2)) == 0).sum() == 3
        assert (4 * bases.shape[-1] >= bases.shape[2]) == (L == 4)


# -- the shipped flow_rotation flow at L = 6: 21 points, target 1e-6 ---------

_SHIPPED_GRID = np.linspace(0.0, 1.0, 21)


def test_doubling_an_interval_keeps_its_points_bit_for_bit():
    # the flow keeps a doubled interval's projections as its even points
    for a, b in zip(_SHIPPED_GRID.tolist(), _SHIPPED_GRID[1:].tolist()):
        n = 1
        while n < 512:
            coarse, fine = np.linspace(a, b, n + 1), np.linspace(a, b, 2 * n + 1)
            assert coarse.tobytes() == fine[::2].tobytes(), (a, b, n)
            n *= 2


def test_projection_flow_diagonalizes_each_probed_parameter_once(monkeypatch):
    rotation, _ = _flow_families(6)
    closing = models.flat_band_model(models.paired_cell_orbitals(6, 0.3),
                                     geometry.chain_graph(6),
                                     conduction_profile=lambda s: 1.0 - 2.0 * s)
    calls, probed = [], []
    real = gap.sector_eigh
    monkeypatch.setattr(gap, "sector_eigh", lambda H: calls.append(1) or real(H))

    def flow(phi, gamma_min):
        calls.clear()
        probed.clear()
        return projection_flow(lambda s: probed.append(s) or phi, chain(6), _SHIPPED_GRID,
                               gamma_min=gamma_min)

    rep = flow(rotation, 0.5)
    assert len(calls) == len(probed) == len(set(probed)) == 1281
    assert rep.substeps == 64
    with pytest.raises(GapClosureError) as err:
        flow(closing, 0.5)
    assert len(calls) == len(probed) == len(set(probed)) == 13
    assert (err.value.location, err.value.bracket) == (0.250390625, (0.25, 0.25078125))
    # a gap that fails at the first parameter: one spectrum, a bracket of one point
    with pytest.raises(GapClosureError) as err:
        flow(rotation, 50.0)
    assert len(calls) == len(probed) == 1
    assert (err.value.location, err.value.bracket) == (0.0, (0.0, 0.0))


def test_projection_flow_holds_one_interval_of_projections():
    # every spectrum of this flow kept to its end peaked at 54.1 MiB; one
    # interval's projections with a transport of dense (nsub + 1, 2, h, h)
    # temporaries at 12.2 MiB; with the transport in the span of the tracked
    # eigenvectors, 4.5 MiB, mostly the interval's dense projections
    rotation, _ = _flow_families(6)
    lam = chain(6)
    local_hamiltonian(rotation, lam, 0.0)    # the term cache is filled outside the peak
    tracemalloc.start()
    try:
        projection_flow(lambda s: rotation, lam, _SHIPPED_GRID, gamma_min=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_projection_flow_meets_its_target_when_the_needed_count_falls():
    # the angle turns fast near s = 0 and slowly later, so each interval on
    # its own needs fewer substeps than the one before; the carried count
    # is more than enough
    lam = chain(4)
    rotation = models.rotating_flat_band(4, lambda s: 0.3 + 0.5 * (1 - np.exp(-5 * s)))
    grid = np.linspace(0.0, 1.0, 6)
    target = 3e-5
    needed = [projection_flow(lambda s: rotation, lam, [a, b], gamma_min=0.5,
                              defect_target=target * (b - a)).substeps
              for a, b in zip(grid, grid[1:])]
    assert needed == sorted(needed, reverse=True) and needed[-1] < needed[0]
    rep = projection_flow(lambda s: rotation, lam, grid, gamma_min=0.5,
                          defect_target=target)
    assert rep.substeps == needed[0]
    assert rep.max_defect <= target


def test_projection_flow_refuses_repeated_parameters(small_flow_setup):
    lam, _, family = small_flow_setup
    with pytest.raises(ValueError, match=r"repeated: 0\.5$"):
        projection_flow(family, lam, [0.0, 0.5, 0.5, 1.0], gamma_min=0.5)
    with pytest.raises(ValueError, match=r"repeated: 0\.0, 1\.0$"):
        projection_flow(family, lam, [1.0, 0.0, 1.0, 0.0, 0.5], gamma_min=0.5)


def test_projection_flow_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call: about 1 MB that a
    # flow-check run would hold to its end
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from fermicert import fock, gap, models\n"
        "phi = models.rotating_flat_band(2, lambda s: 0.3 + 0.5 * s)\n"
        "gap.projection_flow(lambda s: phi, fock.chain(2), np.linspace(0, 1, 3), 0.5)\n"
        "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "False"


def _norm_test_matrices(rng):
    """Hermitian, anti-Hermitian, generic and rank-one matrices, and a
    (2, h, h) stack, each with h = 8."""
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    return [g + g.conj().T, g - g.conj().T, g, np.outer(a, a.conj()),
            np.stack([g + g.conj().T, 0.5 * g])]


def test_exceeds_agrees_with_the_operator_norm(rng, monkeypatch):
    calls = []
    monkeypatch.setattr(gap, "op_norm", lambda m: calls.append(1) or op_norm(m))
    for m in _norm_test_matrices(rng):
        norm, frobenius = op_norm(m), float(np.linalg.norm(m))
        for tol in (0.5 * norm, norm, np.nextafter(norm, 0), 0.5 * (norm + frobenius),
                    frobenius, 2 * frobenius):
            assert _exceeds(m, tol) == (norm > tol)
    # between the two norms the bound cannot settle the test, and op_norm decides
    m = _norm_test_matrices(rng)[2]
    norm, frobenius = op_norm(m), float(np.linalg.norm(m))
    assert norm < frobenius
    calls.clear()
    assert not _exceeds(m, 0.5 * (norm + frobenius)) and calls == [1]
    calls.clear()
    assert not _exceeds(m, 2 * frobenius) and calls == []


def test_exceeds_raises_on_nan_and_a_flow_never_passes_it(small_flow_setup, monkeypatch):
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    for tol in (0.1, np.inf):
        with pytest.raises(np.linalg.LinAlgError):
            _exceeds(m, tol)
    # an inf on either side of the diagonal, alone or in a (2, h, h) stack,
    # against a finite and an infinite tol (inf <= inf must not settle it)
    for i, j in ((1, 2), (2, 1)):
        m = np.eye(4, dtype=complex)
        m[i, j] = np.inf
        for x in (m, np.stack([np.eye(4, dtype=complex), m])):
            for tol in (10.0, np.inf):
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    _exceeds(x, tol)
    # the windows share the rule: a NaN or inf in a kernel projection raises
    # rather than being read as a window within COMMUTE_TOL
    lam = chain(2)
    sides, _, _ = _resolution(_explicit_family([kernel_projection(number_operator(lam))]))
    for bad in (np.nan, np.inf):
        blocks = np.zeros((2, 2, 2), dtype=complex)
        blocks[0, 1, 0] = bad
        g = FockOperator.from_blocks(blocks, lam, lam.sites, EVEN)
        # inf times the zeros of the basis warns before the norm raises
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError,
                                                          match="non-finite"):
            _windows(sides, [g])
    lam, _, family = small_flow_setup
    # a NaN transport of the (2, h, h) shape that the flow multiplies with
    monkeypatch.setattr(gap, "_transport", lambda bases, fine: np.full(
        (2, bases.shape[2], bases.shape[2]), np.nan, dtype=complex))
    with pytest.raises(np.linalg.LinAlgError):
        projection_flow(family, lam, [0.0, 0.1], gamma_min=0.5)


def test_projection_flow_rebuilt_and_profiled_families_agree(small_flow_setup):
    lam, graph, family = small_flow_setup
    profiled = models.rotating_flat_band(4, lambda s: 0.3 + 0.4 * s)
    grid = np.linspace(0, 1, 6)
    rebuilt = projection_flow(family, lam, grid, gamma_min=0.5, defect_target=3e-5)
    got = projection_flow(lambda s: profiled, lam, grid, gamma_min=0.5, defect_target=3e-5)
    assert (got.rank, got.substeps) == (rebuilt.rank, rebuilt.substeps)
    assert np.abs(got.gaps - rebuilt.gaps).max() <= 1e-13
    assert np.abs(got.defects - rebuilt.defects).max() <= 1e-11


def test_projection_flow_one_site_and_empty_lattice():
    # one site: sectors of size 1, the projection onto the empty state
    lam = chain(1)
    number = InteractionTerm((0,), number_operator(lam))
    rep = projection_flow(lambda s: Interaction((number,)), lam, [0.0, 1.0], gamma_min=0.5)
    assert (rep.rank, rep.max_defect) == (1, 0.0)
    with pytest.raises(ValueError, match="at least one site"):
        projection_flow(lambda s: Interaction(()), fock.SiteSet(()), [0.0, 1.0],
                        gamma_min=0.5)


def test_smallest_nonzero_eigenvalue():
    # the first eigenvalue above the kernel split, as gamma_n and exact_gap read it
    lam = chain(3)
    w, v = np.linalg.eigh(number_operator(lam).matrix)
    assert w[_kernel(w, v)[0]] == pytest.approx(1.0)
    w, v = np.linalg.eigh(zero(lam).matrix)
    assert _kernel(w, v)[0] == w.size


def test_spectrum_monotone_under_positive_perturbation(rng):
    # adding t * (positive term) never lowers any eigenvalue
    lam = chain(4)
    H = local_hamiltonian(models.kitaev_chain(4), lam)
    raw = fock.random_local_operator(lam, (1, 2), rng, parity=EVEN)
    herm = 0.5 * (raw + raw.adjoint())
    positive = herm @ herm
    w0 = np.linalg.eigvalsh(H.matrix)
    for t in (0.1, 0.5, 1.5):
        wt = np.linalg.eigvalsh((H + t * positive).matrix)
        assert np.all(wt >= w0 - 1e-10)
        w0 = wt


# -- the epsilon path against a dense recomputation --------------------------

def _assert_bounds_tightly(got, want):
    """Each eps_n^2 is at least the dense product norm, and within 1e-12
    relative plus 1e-28 of it."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert w <= g <= w * (1 + 1e-12) + 1e-28


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("off", [1.0, 1e-3, 1e-12])
def test_sector_norm_bound_is_at_least_the_norm(rng, L, off):
    # random mixed matrices with an off-sector part of relative size off:
    # max_c ||M_cc|| + ||M_off||_F >= ||M||, and it exceeds ||M|| by at most
    # the Frobenius norm of the off-sector part and the roundoff widening
    dim = 2**L
    outside = fock._sector_mesh(dim, 1)
    for _ in range(5):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m[outside] *= off
        norm = np.linalg.svd(m, compute_uv=False)[0]
        off_norm = np.linalg.norm(m[outside])
        assert norm <= _sector_norm_bound(m) <= (norm + off_norm) * (1 + 1e-12)
        # with no off-sector part it is the widened op_norm of the even operator
        even = fock.parity_decompose(FockOperator(m, chain(L), None, MIXED))[0]
        assert _sector_norm_bound(even.matrix) == op_norm(even) * (1 + dim * np.finfo(float).eps)

def _dense_certificate(seq):
    """gamma_n, ell, eps_sq_n, epsilon, bound and exact_gap with every
    product, commutator and norm on the full 2^L matrices."""
    from fermicert.gap import KERNEL_RTOL, KERNEL_GUARD

    def kernel(m):
        w, v = np.linalg.eigh(m)
        tol = KERNEL_RTOL * max(float(np.abs(w).max()), 1.0)
        k = int(np.searchsorted(w, tol, side="right"))
        assert k == w.size or w[k] >= KERNEL_GUARD * tol
        return w, k, v[:, :k] @ v[:, :k].conj().T

    hams = [fock.zero(seq.lattice).matrix] + [H.matrix for H in _hamiltonians(seq)]
    gammas, gs = [], []
    for prev, cur in zip(hams, hams[1:]):
        w, k, g = kernel(cur - prev)
        gammas.append(float(w[k]))
        gs.append(g)
    big = [kernel(H)[2] for H in hams[1:]]
    w, k, _ = kernel(hams[-1])
    exact_gap = float(w[k]) if k < w.size else None
    one = np.eye(len(hams[0]))
    es = [one - big[0]] + [big[n] - big[n + 1] for n in range(len(big) - 1)] + [big[-1]]
    ell = 0
    for n, g in enumerate(gs):
        for k, e in enumerate(es[:n + 1]):
            if np.linalg.svd(e @ g - g @ e, compute_uv=False)[0] > 1e-10:
                ell = max(ell, n - k)
    eps_sq_n = [op_norm(es[n] @ gs[n] @ es[n]) for n in range(len(gs))]
    epsilon = float(np.sqrt(max(eps_sq_n)))
    return {"gamma": min(gammas), "gamma_n": gammas, "ell": ell, "eps_sq_n": eps_sq_n,
            "epsilon": epsilon, "bound": martingale_bound(min(gammas), ell, epsilon),
            "exact_gap": exact_gap}


def _gap_sequences():
    graph = geometry.chain_graph
    yield hamiltonian_sequence(_onsite_number_interaction(4), chain(4))
    for L in (4, 6):
        yield hamiltonian_sequence(
            models.flat_band_model(models.paired_cell_orbitals(L, 0.35), graph(L)), chain(L))
    yield hamiltonian_sequence(models.kitaev_chain(6), chain(6))
    yield hamiltonian_sequence(
        models.flat_band_model(models.overlapping_orbitals(5, 0.4), graph(5)), chain(5))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("index", range(5))
def test_epsilon_path_is_bitwise_the_dense_recomputation(index):
    # gamma, gamma_n, ell and exact_gap to the bit; eps_sq_n bounds the dense
    # product norms from the parity blocks
    seq = list(_gap_sequences())[index]
    cert = martingale_certificate(seq)
    want = _dense_certificate(seq)
    assert cert.ell == want["ell"]
    for key in ("gamma", "exact_gap"):
        assert _bits(getattr(cert, key)) == _bits(want[key]), key
    assert _bits(cert.per_step["gamma_n"]) == _bits(want["gamma_n"])
    _assert_bounds_tightly(cert.per_step["eps_sq_n"], want["eps_sq_n"])
    assert cert.epsilon == np.sqrt(max(cert.per_step["eps_sq_n"]))
    assert cert.bound == martingale_bound(cert.gamma, cert.ell, cert.epsilon)


def test_monotonicity_defect_is_computed_once(monkeypatch):
    L = 6
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.35),
                                 geometry.chain_graph(L))
    calls, streams = [], []
    real, real_pairs = gap._lowest_eigenvalue, gap._pairs
    monkeypatch.setattr(gap, "_lowest_eigenvalue", lambda H: calls.append(H) or real(H))
    monkeypatch.setattr(gap, "_pairs", lambda seq: streams.append(seq) or real_pairs(seq))
    seq = hamiltonian_sequence(phi, chain(L))
    assert calls == []      # no pass over the increments when it is built
    cert = martingale_certificate(seq)
    # no call at all, and one stream of the pairs: the defect and assumption
    # (i) are read from the eigh that gives each kernel
    assert calls == [] and len(streams) == 1
    lowest = min(float(np.linalg.eigh(h.matrix)[0][0]) for h in _increments(seq))
    assert _bits(cert.defects["monotonicity"]) == _bits(max(0.0, -lowest))


# -- assumption (i) and the windows against their recomputations -------------

def _gap_config_sequences():
    """(name, sequence) of every shipped gap-certify config and of the
    benchmark's gap-certify configs of seed 0."""
    root = Path(__file__).resolve().parent.parent
    configs = {path.name: json.loads(path.read_text())
               for path in sorted((root / "configs").glob("gap_*.json"))}
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for config in workloads.configs("spectral", 0):
        if config["task"] == "gap-certify":
            configs[f"spectral-0-{config['output_prefix']}"] = config
    for name, config in configs.items():
        task, diagnostics = cli._parse_config(config)
        assert not diagnostics
        graph, phi = cli._build_model(task)
        yield name, hamiltonian_sequence(phi, graph.sites)


def _weighted_flat_band(L, seed):
    """The flat-band steps scaled by seeded weights in [0.5, 2], so that the
    gamma_n differ."""
    seq = hamiltonian_sequence(_gap_model("flatband", L), chain(L))
    weights = np.random.default_rng(seed).uniform(0.5, 2.0, size=len(seq.steps))
    return HamiltonianSequence(seq.lattice, [
        Interaction(tuple(InteractionTerm(t.sites, c * t.operator) for t in step.terms))
        for c, step in zip(weights, seq.steps)])


def _oracle_sequences():
    yield from _gap_config_sequences()
    for name in ("kitaev", "flatband", "overlap"):
        for L in (6, 8):
            yield f"{name}-{L}", hamiltonian_sequence(_gap_model(name, L), chain(L))
    yield "weighted-flatband-6", _weighted_flat_band(6, 1)


def _assumption_i_oracle(seq, gamma):
    """The largest max(0, -lambda_min(h_n - gamma (1 - g_n))), from a second
    stream of the pairs and the two parity blocks of each difference."""
    one, residuals = identity(seq.lattice), []
    for H_prev, H in _pairs(seq):
        h = H - H_prev
        difference = h - gamma * (one - kernel_projection(h))
        residuals.append(max(0.0, -gap._lowest_eigenvalue(difference)))
    return max(residuals)


def _svd_windows(sides, g_projs):
    """||(1 - V V*) g_{n+1} V|| at row k and column n, each the largest
    singular value over the blocks."""
    out = np.zeros((len(sides), len(g_projs)))
    for n, g in enumerate(g_projs):
        for m, vs in zip(g.blocks, zip(*sides)):
            for k, v in enumerate(vs):
                if v.shape[1]:
                    x = m @ v
                    for _ in range(2):
                        x = x - v @ (v.conj().T @ x)
                    out[k, n] = max(out[k, n], np.linalg.svd(x, compute_uv=False)[0])
    return out


def test_assumption_i_is_the_residual_of_each_increment():
    distinct = 0
    for name, seq in _oracle_sequences():
        cert = martingale_certificate(seq)
        want = _assumption_i_oracle(seq, cert.gamma)
        assert abs(cert.defects["assumption_i"] - want) <= 1e-12, name
        distinct = max(distinct, len(set(cert.per_step["gamma_n"])))
    assert distinct > 1     # some sequence has gamma_n - gamma > 0


def test_windows_bound_the_singular_values_and_keep_every_verdict(monkeypatch):
    real = gap._windows
    above = 0
    for name, seq in _oracle_sequences():
        seen = []

        def windows(sides, g_projs):
            seen.append((real(sides, g_projs), _svd_windows(sides, g_projs)))
            return seen[-1][0]

        monkeypatch.setattr(gap, "_windows", windows)
        cert = martingale_certificate(seq)
        got, want = seen[0]
        assert np.all(got >= want), name
        assert _bits(got[got > COMMUTE_TOL]) == _bits(want[got > COMMUTE_TOL]), name
        assert np.array_equal(got > COMMUTE_TOL, want > COMMUTE_TOL), name
        above += int((got > COMMUTE_TOL).sum())
        monkeypatch.setattr(gap, "_windows", _svd_windows)
        oracle = martingale_certificate(seq)
        assert (cert.ell, cert.certified) == (oracle.ell, oracle.certified), name
        assert cert.defects["forward_commutator"] == oracle.defects["forward_commutator"], name
        assert cert.bound == oracle.bound, name
    assert above     # the overlap models reach the singular-value branch
