"""Model zoo: hopping chains, flat-band orbitals, pairing chain, random
even interactions."""

import numpy as np
import pytest

from fermicert import fock, geometry, models
from fermicert.dynamics import Interaction, InteractionTerm, local_hamiltonian
from fermicert.fock import anticommutator, chain, commutator, op_norm, parity_operator


def test_hopping_chain_spectrum_and_tags():
    phi = models.hopping_chain(2, J=1.0)
    H = local_hamiltonian(phi, chain(2))
    assert np.allclose(np.linalg.eigvalsh(H.matrix), [-1, 0, 0, 1], atol=1e-12)
    assert all(t.operator.parity == fock.EVEN for t in phi.terms)
    with pytest.raises(ValueError):
        models.hopping_chain(1)


def test_hopping_chain_onsite_only_commutes():
    phi = models.hopping_chain(4, J=0.0, mu=1.0)
    lam = chain(4)
    ops = [fock.embed(t.operator, lam) for t in phi.terms if t.norm > 0]
    for a in ops:
        for b in ops:
            assert op_norm(commutator(a, b)) <= 1e-12


def test_band_operators_single_site_and_car():
    lam = chain(4)
    f = np.zeros(4, dtype=complex)
    f[2] = 1.0
    orb = models.OrbitalSet(lam, f[None, :], np.zeros((0, 4), dtype=complex),
                            (2,), (), radius=0.0)
    b_ops, _ = models.band_operators(lam, orb)
    assert np.abs(b_ops[0].matrix - fock.annihilator(lam, 2).matrix).max() == 0

    orb2 = models.paired_cell_orbitals(4, angle=0.7)
    b_ops, c_ops = models.band_operators(lam, orb2)
    one = fock.identity(lam)
    for i, b in enumerate(b_ops):
        assert op_norm(b) == pytest.approx(1.0, abs=1e-12)
        for j, b2 in enumerate(b_ops):
            expect = one if i == j else fock.zero(lam)
            assert op_norm(anticommutator(b, b2.adjoint()) - expect) <= 1e-12
        for c in c_ops:
            assert op_norm(anticommutator(b, c.adjoint())) <= 1e-12


def test_band_operators_rejects_nonorthonormal():
    lam = chain(3)
    v = np.array([[1.0, 0, 0], [0.8, 0.6, 0]], dtype=complex)
    orb = models.OrbitalSet(lam, v, np.zeros((0, 3), dtype=complex), (0, 0), (), radius=2.0)
    with pytest.raises(ValueError):
        models.band_operators(lam, orb)


@pytest.mark.parametrize("L", [4, 6])
def test_flat_band_model_gap_one(L):
    lam = chain(L)
    orb = models.paired_cell_orbitals(L, angle=0.3)
    phi = models.flat_band_model(orb, geometry.chain_graph(L))
    H = local_hamiltonian(phi, lam)
    ev = np.linalg.eigvalsh(H.matrix)
    assert abs(ev[0]) <= 1e-12
    assert int(np.sum(ev < 0.5)) == 1  # unique ground state
    assert ev[1] - ev[0] == pytest.approx(1.0, abs=1e-10)
    # each term is a projection
    for t in phi.terms:
        m = t.operator.matrix
        assert np.abs(m @ m - m).max() <= 1e-12


def test_flat_band_ground_state_band_expectations():
    L = 6
    lam = chain(L)
    orb = models.paired_cell_orbitals(L, angle=0.5)
    phi = models.flat_band_model(orb, geometry.chain_graph(L))
    H = local_hamiltonian(phi, lam)
    w, v = np.linalg.eigh(H.matrix)
    psi = v[:, 0]
    b_ops, c_ops = models.band_operators(lam, orb)
    for b in b_ops:
        nb = (b.adjoint() @ b).matrix
        assert np.vdot(psi, nb @ psi).real == pytest.approx(1.0, abs=1e-10)
    for c in c_ops:
        nc = (c.adjoint() @ c).matrix
        assert np.vdot(psi, nc @ psi).real == pytest.approx(0.0, abs=1e-10)


def test_orbital_set_validation_catches_leakage():
    lam = chain(4)
    v = np.full((1, 4), 0.5, dtype=complex)  # global support, radius 1 ball
    orb = models.OrbitalSet(lam, v, np.zeros((0, 4), dtype=complex), (0,), (), radius=1.0)
    with pytest.raises(ValueError):
        orb.validate(geometry.chain_graph(4))


def test_overlapping_orbitals_structure():
    L = 5
    ov = models.overlapping_orbitals(L)
    rep = ov.validate(geometry.chain_graph(L))
    assert rep["span_rank"] == L
    # consecutive valence orbitals overlap, so their terms must not commute
    phi = models.flat_band_model(ov, geometry.chain_graph(L))
    lam = chain(L)
    t0 = fock.embed(phi.terms[0].operator, lam)
    t1 = fock.embed(phi.terms[1].operator, lam)
    assert op_norm(commutator(t0, t1)) > 1e-3


def test_kitaev_chain_terms_even_and_parity_symmetric():
    L = 5
    phi = models.kitaev_chain(L, mu=0.4)
    lam = chain(L)
    assert all(t.operator.parity == fock.EVEN for t in phi.terms)
    H = local_hamiltonian(phi, lam)
    th = parity_operator(lam)
    assert op_norm(commutator(H, th)) <= 1e-12
    # builder shifts every term to be positive semidefinite
    for t in phi.terms:
        assert np.linalg.eigvalsh(t.operator.matrix).min() >= -1e-12


def test_kitaev_chain_frustration_free_point_gap():
    # exact-diagonalization oracle at the shipped parameter point
    L = 6
    lam = chain(L)
    H = local_hamiltonian(models.kitaev_chain(L), lam)
    ev = np.linalg.eigvalsh(H.matrix)
    assert abs(ev[0]) <= 1e-10          # ground energy equals sum of term minima (zero)
    gap = ev[np.searchsorted(ev, 1e-8)] - ev[0]
    assert gap > 0.5


def test_kitaev_chain_spectrum_matches_bdg_oracle():
    # independent quadratic-diagonalization oracle at generic parameters:
    # the many-body spectrum consists of subset sums of the quasiparticle
    # energies (positive Bogoliubov-de Gennes eigenvalues) over the ground
    # energy, for any per-term constant shifts
    import itertools
    L, J, D, mu = 5, 1.0, 0.6, 0.3
    lam = chain(L)
    H = local_hamiltonian(models.kitaev_chain(L, hopping=J, pairing=D, mu=mu), lam)
    ed = np.linalg.eigvalsh(H.matrix)

    h = np.zeros((L, L))
    d = np.zeros((L, L))
    for x in range(L - 1):
        h[x, x + 1] = h[x + 1, x] = -J
        d[x + 1, x] = D
        d[x, x + 1] = -D
    np.fill_diagonal(h, -mu)
    bdg = np.block([[h, d], [d.conj().T, -h.T]])
    eps = np.sort(np.linalg.eigvalsh(bdg))[L:]  # positive half
    levels = sorted(sum(combo) for r in range(L + 1)
                    for combo in itertools.combinations(eps, r))
    assert np.allclose(ed - ed[0], np.array(levels) - levels[0], atol=1e-9)


def test_random_even_interaction_seed_stable():
    lam = chain(5)
    p1 = models.random_even_interaction(lam, max_range=2, strength=0.8, seed=42)
    p2 = models.random_even_interaction(lam, max_range=2, strength=0.8, seed=42)
    assert len(p1.terms) == len(p2.terms)
    for a, b in zip(p1.terms, p2.terms):
        assert a.sites == b.sites
        assert np.array_equal(a.operator.matrix, b.operator.matrix)
    p3 = models.random_even_interaction(lam, max_range=2, strength=0.8, seed=43)
    assert any(not np.array_equal(a.operator.matrix, b.operator.matrix)
               for a, b in zip(p1.terms, p3.terms))


def test_random_even_interaction_norms_and_parity():
    lam = chain(5)
    phi = models.random_even_interaction(lam, max_range=2, strength=0.8, seed=7)
    for t in phi.terms:
        assert t.operator.parity == fock.EVEN
        assert op_norm(t.operator) == pytest.approx(0.8, rel=1e-10)
        assert max(t.sites) - min(t.sites) <= 2
    G = geometry.g_from_f(geometry.DecayFunction(1, 1.0), geometry.chain_graph(5))
    k1 = geometry.interaction_g_norm(phi, G)
    k2 = geometry.interaction_g_norm(
        models.random_even_interaction(lam, max_range=2, strength=0.8, seed=7), G)
    assert np.isfinite(k1) and k1 == k2


# -- the profiled flat-band families against their per-parameter rebuilds ----

def _worst_entry_gap(phi, rebuild, L, s_values):
    """Largest |entry| difference between the parity blocks of
    H(s) = local_hamiltonian(phi, chain(L), s) and of the rebuilt model at s."""
    lam = chain(L)
    worst = 0.0
    for s in s_values:
        H = local_hamiltonian(phi, lam, s)
        R = local_hamiltonian(rebuild(s), lam)
        worst = max(worst, *(np.abs(a - b).max() for a, b in zip(H.blocks, R.blocks)))
    return worst


S_VALUES = np.linspace(0.0, 1.0, 7)


@pytest.mark.parametrize("L", [2, 4, 6])
def test_rotating_flat_band_matches_the_rebuilt_model(L):
    from flow_oracles import rotation_rebuild

    def angle(s):
        return 0.3 + 0.5 * s

    phi = models.rotating_flat_band(L, angle)
    assert phi.is_time_dependent
    assert all(t.operator.parity == fock.EVEN and t.sites == (t.sites[0], t.sites[0] + 1)
               for t in phi.terms)
    assert _worst_entry_gap(phi, rotation_rebuild(L, angle), L, S_VALUES) <= 1e-13


@pytest.mark.parametrize("L", [2, 4, 6])
def test_closing_flat_band_matches_the_scaled_templates(L):
    from flow_oracles import closing_rebuild
    phi = models.flat_band_model(models.paired_cell_orbitals(L, 0.3), geometry.chain_graph(L),
                                 conduction_profile=lambda s: 1.0 - 2.0 * s)
    assert _worst_entry_gap(phi, closing_rebuild(L, 0.3), L, S_VALUES) <= 1e-13


def test_rotation_oracle_rejects_swapped_profiles_in_one_cell():
    # cos^2 and sin^2 swapped on the valence n_a, n_b of the last cell only
    from flow_oracles import rotation_rebuild
    L = 4

    def angle(s):
        return 0.3 + 0.5 * s

    terms = list(models.rotating_flat_band(L, angle).terms)
    parts = {t.label: i for i, t in enumerate(terms)}
    i, k = parts["valence[1].n_a"], parts["valence[1].n_b"]
    swap = lambda t, other: InteractionTerm(t.sites, t.operator, other.profile, t.label)
    terms[i], terms[k] = swap(terms[i], terms[k]), swap(terms[k], terms[i])
    mutant = Interaction(tuple(terms))
    assert _worst_entry_gap(mutant, rotation_rebuild(L, angle), L, S_VALUES) > 1e-13


def test_rotating_flat_band_needs_paired_cells():
    for L in (0, 1, 3):
        with pytest.raises(ValueError):
            models.rotating_flat_band(L, lambda s: 0.3)
