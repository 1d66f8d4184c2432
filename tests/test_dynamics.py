"""Local Hamiltonians, unitary propagators, Heisenberg dynamics."""

import tracemalloc

import numpy as np
import pytest

from dynamics_oracles import spectral_expm, stitched_grid, two_profile_kitaev
from fermicert import dynamics, fock, models
from fermicert.dynamics import (UNITARITY_TOL, Interaction, InteractionTerm, eigenbasis,
                                heisenberg, local_hamiltonian, propagate,
                                propagate_grid, scaled_profile, sector_eigh)
from fermicert.fock import (PARITY_TAG_TOL, FockOperator, SiteSet, annihilator,
                            anticommutator, chain, commutator, creator,
                            number_operator, op_norm, parity_operator)


def _random_even_hermitian(L, rng):
    lam = chain(L)
    A = fock.random_local_operator(lam, lam.sites, rng, parity=fock.EVEN)
    return A + A.adjoint()


def test_local_hamiltonian_two_site_spectrum():
    lam = chain(2)
    H = local_hamiltonian(models.hopping_chain(2), lam)
    assert np.allclose(np.linalg.eigvalsh(H.matrix), [-1, 0, 0, 1], atol=1e-12)
    assert H.parity == fock.EVEN
    assert H.is_hermitian()


def test_local_hamiltonian_empty_and_commutes_with_parity():
    lam = chain(4)
    assert not local_hamiltonian(Interaction(()), lam).matrix.any()
    H = local_hamiltonian(models.hopping_chain(4, mu=0.7), lam)
    th = parity_operator(lam)
    assert op_norm(commutator(H, th)) <= 1e-12


def test_local_hamiltonian_restricts_to_volume():
    phi = models.hopping_chain(6)
    sub = chain(3)
    H = local_hamiltonian(phi, sub)
    direct = local_hamiltonian(models.hopping_chain(3), sub)
    assert np.abs(H.matrix - direct.matrix).max() <= 1e-14


def test_local_hamiltonian_time_domain():
    phi = scaled_profile(models.hopping_chain(3), lambda r: r, (0.0, 1.0))
    with pytest.raises(ValueError):
        local_hamiltonian(phi, chain(3), t=2.0)


def test_propagate_identity_at_equal_times():
    lam = chain(3)
    U = propagate(models.hopping_chain(3), lam, 0.5, 0.5)
    assert np.array_equal(U.operator.matrix, np.eye(8, dtype=complex))


def test_propagate_matches_spectral_exponential():
    lam = chain(4)
    phi = models.hopping_chain(4, mu=0.3)
    H = local_hamiltonian(phi, lam).matrix
    for t in (0.7, 2.0):
        U = propagate(phi, lam, 0.0, t)
        assert np.abs(U.operator.matrix - spectral_expm(H, -1j * t)).max() <= 1e-8
        assert U.unitarity_defect <= 1e-9


def test_propagate_cocycle():
    lam = chain(4)
    phi = scaled_profile(models.hopping_chain(4), lambda r: 1.0 + 0.5 * np.sin(r), (0.0, 4.0))
    U20 = propagate(phi, lam, 0.0, 2.0, step=0.01)
    U10 = propagate(phi, lam, 0.0, 1.0, step=0.01)
    U21 = propagate(phi, lam, 1.0, 2.0, step=0.01)
    assert op_norm(U20.operator.matrix - U21.operator.matrix @ U10.operator.matrix) <= 1e-8


def test_propagate_step_halving_second_order():
    lam = chain(4)
    phi = scaled_profile(models.hopping_chain(4), lambda r: 1.0 + np.cos(2 * r), (0.0, 2.0))
    steps = [0.2, 0.1, 0.05, 0.025]
    mats = [propagate(phi, lam, 0.0, 1.0, step=h).operator.matrix for h in steps]
    errs = [np.abs(m - mats[-1]).max() for m in mats[:-1]]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_two_profile_midpoint_stepping_is_second_order():
    lam = chain(4)
    phi = two_profile_kitaev(4)
    assert eigenbasis(phi, lam) is None
    H0, H1 = (local_hamiltonian(phi, lam, t) for t in (0.0, 1.0))
    assert op_norm(commutator(H0, H1)) > 0.1
    steps = [0.2, 0.1, 0.05, 0.025]
    mats = [propagate(phi, lam, 0.0, 1.0, step=h).operator.matrix for h in steps]
    errs = [np.abs(m - mats[-1]).max() for m in mats[:-1]]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_single_profile_grid_keeps_the_midpoint_step_metadata():
    # a shared profile takes one eigendecomposition; a split one steps, with
    # the same partition of the grid, so step and steps_taken agree
    lam = chain(4)
    hop = models.hopping_chain(4, mu=0.3)
    shared = scaled_profile(hop, lambda r: 1.0 + 0.5 * r, (0.0, 2.0))
    split = Interaction(shared.terms[:3] + scaled_profile(
        Interaction(hop.terms[3:]), lambda r: 1.0 + 0.5 * r, (0.0, 2.0)).terms, (0.0, 2.0))
    assert eigenbasis(shared, lam).profile is shared.terms[0].profile
    assert eigenbasis(split, lam) is None
    times = [0.2, 0.5, 0.5, 0.93, 1.6]
    for s in (0.0, 0.5):
        got = [(U.t, U.step, U.steps_taken) for U in propagate_grid(shared, lam, s, times, 0.07)]
        want = [(U.t, U.step, U.steps_taken) for U in propagate_grid(split, lam, s, times, 0.07)]
        assert got == want
    static = eigenbasis(hop, lam)
    assert static.profile is None and static.corrections == 0
    assert static.unitarity_defect <= UNITARITY_TOL


def test_one_sector_eigh_per_grid_for_a_shared_profile(monkeypatch):
    calls = []

    def counting(H):
        calls.append(H)
        return sector_eigh(H)

    monkeypatch.setattr(dynamics, "sector_eigh", counting)
    lam = chain(5)
    ramped = scaled_profile(models.hopping_chain(5), lambda r: 0.5 + r, (0.0, 1.0))
    for phi in (models.hopping_chain(5), ramped):
        calls.clear()
        list(propagate_grid(phi, lam, 0.0, np.linspace(0.0, 1.0, 11), step=0.01))
        assert len(calls) == 1
    calls.clear()
    list(propagate_grid(two_profile_kitaev(5), lam, 0.0, [0.5, 1.0], step=0.1))
    assert len(calls) == 10


def test_propagate_rejects_odd_interactions(rng):
    # an odd-tagged term cannot even enter an interaction
    sub = chain(2)
    odd_op = fock.random_local_operator(sub, (0, 1), rng, parity=fock.ODD)
    term = InteractionTerm((0, 1), 0.5 * (odd_op + odd_op.adjoint()))
    with pytest.raises(ValueError, match="not even-tagged"):
        Interaction((term,))
    with pytest.raises(ValueError, match="not even-tagged"):
        Interaction((models.hopping_chain(2).terms[0], term))


def test_energy_conservation_and_parity_superselection():
    lam = chain(5)
    phi = models.hopping_chain(5, mu=0.2)
    H = local_hamiltonian(phi, lam)
    u = propagate(phi, lam, 0.0, 1.7).operator.matrix
    assert op_norm(u.conj().T @ H.matrix @ u - H.matrix) <= 1e-9
    th = parity_operator(lam).matrix
    assert op_norm(th @ u - u @ th) <= 1e-9


def test_heisenberg_basics(rng):
    lam = chain(4)
    phi = models.hopping_chain(4)
    U0 = propagate(phi, lam, 0.0, 0.0)
    A = fock.random_local_operator(lam, (1, 2), rng, parity=fock.EVEN)
    assert np.abs(heisenberg(A, U0).matrix - A.matrix).max() == 0
    U = propagate(phi, lam, 0.0, 1.2)
    tau = heisenberg(A, U)
    assert tau.parity == fock.EVEN
    assert op_norm(tau) == pytest.approx(op_norm(A), abs=1e-9)


def test_heisenberg_single_mode_phase():
    # H = omega a*a on one site: closed form gives tau_t(a) = e^{-i omega t} a
    # (equivalently tau_t(a*) = e^{+i omega t} a*)
    omega, t = 0.9, 1.3
    lam = chain(1)
    sub = chain(1)
    n = creator(sub, 0) @ annihilator(sub, 0)
    phi = Interaction((InteractionTerm((0,), omega * n),))
    U = propagate(phi, lam, 0.0, t)
    a = annihilator(lam, 0)
    tau = heisenberg(a, U)
    assert np.abs(tau.matrix - np.exp(-1j * omega * t) * a.matrix).max() <= 1e-9
    tau_dag = heisenberg(a.adjoint(), U)
    assert np.abs(tau_dag.matrix - np.exp(1j * omega * t) * a.adjoint().matrix).max() <= 1e-9


def test_inverse_heisenberg_inverts(rng):
    # the inverse automorphism U A U* undoes tau = U* A U
    lam = chain(4)
    phi = models.hopping_chain(4)
    U = propagate(phi, lam, 0.0, 0.8)
    A = fock.random_local_operator(lam, (0, 2), rng)
    u = U.operator.matrix
    back = u @ heisenberg(A, U).matrix @ u.conj().T
    assert np.abs(back - A.matrix).max() <= 1e-9
    U0 = propagate(phi, lam, 0.3, 0.3)
    assert np.abs(heisenberg(A, U0).matrix - A.matrix).max() == 0


def test_inverse_heisenberg_is_reversed_generator():
    # evolving from t back to s is the inverse automorphism of s -> t
    lam = chain(4)
    phi = models.hopping_chain(4)
    U = propagate(phi, lam, 0.6, 0.0)
    A = number_operator(lam, [1])
    inv = heisenberg(A, U)
    # oracle: conjugation by exp(+iHt)
    H = local_hamiltonian(phi, lam).matrix
    V = spectral_expm(H, 1j * 0.6)
    oracle = V.conj().T @ A.matrix @ V
    assert np.abs(inv.matrix - oracle).max() <= 1e-9


def test_propagate_backward_time_inverts():
    lam = chain(4)
    phi = scaled_profile(models.hopping_chain(4), lambda r: 1.0 + 0.3 * r, (0.0, 3.0))
    fwd = propagate(phi, lam, 0.5, 2.0, step=0.01)
    bwd = propagate(phi, lam, 2.0, 0.5, step=0.01)
    assert op_norm(bwd.operator.matrix @ fwd.operator.matrix - np.eye(16)) <= 1e-8


def test_term_operator_embedding():
    phi = models.hopping_chain(4)
    lam = chain(4)
    T = local_hamiltonian(Interaction((phi.terms[1],)), lam)
    direct = creator(lam, 1) @ annihilator(lam, 2) + creator(lam, 2) @ annihilator(lam, 1)
    assert np.abs(T.matrix - direct.matrix).max() <= 1e-13


def test_interaction_validation(rng):
    sub = chain(2)
    nonherm = fock.random_local_operator(sub, (0, 1), rng)
    with pytest.raises(ValueError):
        InteractionTerm((0, 1), nonherm)
    # even templates that an Interaction would accept: a gap sequence's
    # members are self-adjoint because every term is
    hop = creator(sub, 0) @ annihilator(sub, 1)
    for template in (hop, 1j * number_operator(sub), hop + 1e-9 * hop.adjoint()):
        assert template.parity == fock.EVEN
        with pytest.raises(ValueError, match="term template must be self-adjoint"):
            InteractionTerm((0, 1), template)
    InteractionTerm((0, 1), hop + hop.adjoint())


@pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
def test_sector_eigh_exponential_matches_full_eigh(L, rng):
    H = _random_even_hermitian(L, rng)
    sectors = fock._sector_index(H.dim)
    w, v = sector_eigh(H)
    h = H.dim // 2
    assert w.shape == (2, h) and v.shape == (2, h, h)
    U = np.zeros((H.dim, H.dim), dtype=complex)
    for index, w_c, v_c in zip(sectors, w, v):
        U[np.ix_(index, index)] = (v_c * np.exp(-0.7j * w_c)) @ v_c.conj().T
    assert np.abs(U - spectral_expm(H.matrix, -0.7j)).max() <= 1e-12
    # the batched exponential is the per-block one, bit for bit
    assert np.array_equal(dynamics._sector_exp(w, v, -0.7j),
                          [U[np.ix_(index, index)] for index in sectors])
    # the sectors partition the basis by particle-number parity
    even, odd = sectors
    signs = fock._popcount_signs(L)
    assert np.all(signs[even] == 1) and np.all(signs[odd] == -1)
    assert sorted(np.concatenate([even, odd])) == list(range(2 ** L))


def test_unitarize_corrects_both_blocks_of_a_stack(rng):
    # a stack off unitarity by about 1e-6 is replaced by its blocks' polar factors
    h = 8
    q = np.linalg.qr(rng.standard_normal((2, h, h)) + 1j * rng.standard_normal((2, h, h)))[0]
    noisy = q + 1e-6 * rng.standard_normal((2, h, h))
    blocks, defect, corrections = dynamics._unitarize(noisy)
    assert corrections == 1 and defect <= 1e-12
    for c in (0, 1):
        w, _, vh = np.linalg.svd(noisy[c])
        assert np.array_equal(blocks[c], w @ vh)
    kept, _, corrections = dynamics._unitarize(q)    # a unitary stack is kept
    assert kept is q and corrections == 0


def test_sector_eigh_rejects_off_sector_entries(rng):
    H = _random_even_hermitian(4, rng)
    lam = H.ambient
    with pytest.raises(ValueError):
        sector_eigh(FockOperator(H.matrix, lam, parity=fock.MIXED))
    # an odd operator's blocks are square too, but map each sector into the other
    odd = fock.random_local_operator(lam, lam.sites, rng, parity=fock.ODD)
    with pytest.raises(ValueError, match="even operator"):
        sector_eigh(odd + odd.adjoint())
    # the even tag is the one parity check: an entry between the sectors
    # above PARITY_TAG_TOL is refused when the operator is built
    m = H.matrix.copy()
    m[0, 1] = m[1, 0] = 10 * PARITY_TAG_TOL   # state 0 is even, state 1 odd
    with pytest.raises(ValueError, match="declared parity 'even' violated"):
        FockOperator(m, lam, parity=fock.EVEN)


def _dense_hamiltonian(phi, lam, t):
    """Oracle: every term inside ``lam`` embedded densely as the term cache
    takes it, the round trip of its template (``fock._round_trip``), scaled
    by its coefficient at t and added in term order."""
    acc = np.zeros((lam.dim, lam.dim), dtype=complex)
    for term in phi.terms:
        if set(term.sites) <= set(lam.sites):
            op = term.operator
            trip = FockOperator(fock._round_trip(op.matrix, len(op.ambient)), op.ambient,
                                op.support, op.parity)
            acc = acc + term.coefficient(t) * fock.embed(trip, lam).matrix
    return acc


@pytest.mark.parametrize("L", range(1, 7))
def test_local_hamiltonian_is_block_built_and_matches_dense_sum_bitwise(L):
    lam = chain(L)
    phi = models.random_even_interaction(lam, max_range=2, seed=10 + L)
    ramped = scaled_profile(models.hopping_chain(L + 1, mu=0.3),
                            lambda r: 0.2 - 1.3 * r, (0.0, 1.0))
    cases = [(phi, 0.0)] + [(ramped, t) for t in (0.0, 0.35, 1.0)]
    for interaction, t in cases:
        H = local_hamiltonian(interaction, lam, t)
        assert H.parity == fock.EVEN and "matrix" not in H.__dict__
        want = _dense_hamiltonian(interaction, lam, t)
        assert np.array_equal(H.matrix.view(np.uint64), want.view(np.uint64))


def test_local_hamiltonian_peaks_near_its_two_blocks():
    # the 10-site hopping chain's blocks take 8.4 MB; a dense 1024 x 1024
    # embed of each term took 16.8 MB more
    lam = chain(10)
    phi = models.hopping_chain(10, J=1.0, mu=0.3)
    tracemalloc.start()
    try:
        H = local_hamiltonian(phi, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sum(b.nbytes for b in H.blocks)


def test_local_hamiltonian_on_no_sites():
    # the sectors of the empty lattice have sizes 1 and 0, which do not
    # stack: it holds no even operator, so no Hamiltonian and no even term
    lam = SiteSet(())
    with pytest.raises(ValueError, match="at least one site"):
        local_hamiltonian(Interaction(()), lam)
    with pytest.raises(ValueError, match="at least one site"):
        fock.identity(lam)
    # a mixed operator on no sites stays
    assert np.array_equal(FockOperator(np.eye(1), lam).matrix, [[1.0]])


@pytest.mark.parametrize("name", ["static", "ramped", "random_even", "two_profiles"])
def test_propagate_grid_matches_stitched_full_matrix_oracle(name):
    L = 6
    lam = chain(L)
    if name == "two_profiles":
        phi = two_profile_kitaev(L)
    elif name == "static":
        phi = models.hopping_chain(L, mu=0.3)
    elif name == "ramped":
        phi = scaled_profile(models.hopping_chain(L, mu=0.3),
                             lambda r: 0.7 + 0.5 * r, (0.0, 1.0))
    else:
        phi = models.random_even_interaction(lam, max_range=2, seed=3)
    times = [0.0, 0.1, 0.35, 0.35, 0.6, 1.0]
    got = list(propagate_grid(phi, lam, 0.0, times, step=0.02))
    want = stitched_grid(phi, lam, 0.0, times, 0.02)
    assert [U.t for U in got] == times
    for U, oracle in zip(got, want):
        assert np.abs(U.operator.matrix - oracle).max() <= 1e-12
        assert U.unitarity_defect <= UNITARITY_TOL
        assert U.corrections == 0
    assert np.array_equal(got[0].operator.matrix, np.eye(lam.dim))


def test_propagate_grid_sorts_times_and_matches_propagate():
    lam = chain(4)
    phi = scaled_profile(models.hopping_chain(4), lambda r: 1.0 + 0.3 * r, (0.0, 2.0))
    grid = list(propagate_grid(phi, lam, 0.0, [1.5, 0.5], step=0.01))
    assert [U.t for U in grid] == [0.5, 1.5]
    assert grid[-1].steps_taken == 150
    direct = propagate(phi, lam, 0.0, 1.5, step=0.01)
    assert np.abs(grid[-1].operator.matrix - direct.operator.matrix).max() <= 1e-12


def test_propagate_grid_rejects_times_outside_interval():
    phi = scaled_profile(models.hopping_chain(3), lambda r: r, (0.0, 1.0))
    with pytest.raises(ValueError):
        list(propagate_grid(phi, chain(3), 0.0, [0.5, 1.5]))


# -- conjugation on the parity blocks ----------------------------------------

def _assembled_oracle(blocks, L):
    """U from its even- and odd-sector blocks, sectors read off bin(k)."""
    dim = 1 << L
    sectors = ([k for k in range(dim) if bin(k).count("1") % 2 == 0],
               [k for k in range(dim) if bin(k).count("1") % 2 == 1])
    U = np.zeros((dim, dim), dtype=complex)
    for index, block in zip(sectors, blocks):
        U[np.ix_(index, index)] = block
    return U


@pytest.mark.parametrize("L", range(1, 9))
def test_heisenberg_on_blocks_matches_dense(L):
    lam = chain(L)
    rng = np.random.default_rng(200 + L)
    phi = models.random_even_interaction(lam, max_range=2, seed=L)
    ramped = scaled_profile(phi, lambda r: 1.0 + 0.5 * r, (0.0, 1.0))
    for U in (propagate(phi, lam, 0.0, 0.7), propagate(ramped, lam, 0.0, 0.05, step=0.02)):
        u = U.operator.matrix
        for parity in (fock.EVEN, fock.ODD):
            A = fock.random_local_operator(lam, lam.sites, rng, parity=parity)
            a = A.matrix
            got, want = heisenberg(A, U), u.conj().T @ a @ u
            assert got.parity == parity and "_blocks" in got.__dict__
            assert np.abs(got.matrix - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            assert op_norm(got) == pytest.approx(np.linalg.svd(want, compute_uv=False)[0],
                                                 rel=1e-12)


def test_mixed_observable_is_conjugated_densely(rng):
    lam = chain(4)
    U = propagate(models.hopping_chain(4), lam, 0.0, 0.9)
    A = fock.random_local_operator(lam, (0, 2), rng)
    u = U.operator.matrix
    assert np.array_equal(heisenberg(A, U).matrix, u.conj().T @ A.matrix @ u)


def test_block_built_results_assemble_their_matrix_on_every_read(rng):
    lam = chain(6)
    A = fock.random_local_operator(lam, lam.sites, rng, parity=fock.EVEN)
    B = fock.random_local_operator(lam, lam.sites, rng, parity=fock.ODD)
    U = propagate(models.hopping_chain(6), lam, 0.0, 0.5)
    for op in (A @ B, commutator(A, B), anticommutator(B, B), heisenberg(B, U)):
        blocks = op.blocks
        first, second = op.matrix, op.matrix
        assert "matrix" not in op.__dict__ and op.blocks is blocks
        assert first is not second and not first.flags.writeable
        want = fock.sector_matrix(blocks, op.parity, lam.dim)
        for m in (first, second):
            assert np.array_equal(m.view(np.uint64), want.view(np.uint64))


def test_heisenberg_rejects_another_lattice():
    U = propagate(models.hopping_chain(3), chain(3), 0.0, 0.5)
    with pytest.raises(ValueError, match="different site sets"):
        heisenberg(number_operator(chain(4), [0]), U)


@pytest.mark.parametrize("L", [1, 3, 6])
def test_propagator_matrix_is_the_assembled_blocks_bitwise(L):
    lam = chain(L)
    static = models.hopping_chain(L, mu=0.3) if L > 1 else models.random_even_interaction(lam)
    ramped = scaled_profile(static, lambda r: 0.7 + 0.5 * r, (0.0, 1.0))
    for phi in (static, ramped):
        for U in propagate_grid(phi, lam, 0.0, [0.0, 0.3, 0.8], step=0.05):
            assert U.operator.parity == fock.EVEN and "matrix" not in U.operator.__dict__
            assert len(U.operator.blocks) == 2
            want = _assembled_oracle(U.operator.blocks, L)
            assert np.array_equal(U.operator.matrix.view(np.uint64), want.view(np.uint64))
