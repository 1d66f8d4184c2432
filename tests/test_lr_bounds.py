"""Light-cone bound evaluation and certification."""

import json
import math

import numpy as np
import pytest

from dynamics_oracles import stitched_grid, two_profile_kitaev
from fermicert import dynamics, fock, geometry, models
from fermicert.dynamics import scaled_profile
from fermicert.errors import CertificationError
from fermicert.fock import annihilator, chain, creator, number_operator
from fermicert.geometry import SIMPSON_SAMPLES, DecayFunction, chain_graph, g_from_f
from fermicert.lr_bounds import (ANTICOMMUTATOR, COMMUTATOR, certify, lr_rhs,
                                 series_diagnostics)


def test_lr_rhs_closed_form():
    assert lr_rhs(1.0, 1.0, 0.0, 0.3) == 0.0
    assert lr_rhs(2.0, 3.0, 1.0, 0.0) == 0.0
    val = lr_rhs(1.0, 1.0, 0.5, 0.1)
    assert val == pytest.approx(2 * (math.e - 1) * 0.1, abs=1e-12)
    assert val == pytest.approx(0.343656365691809, abs=1e-12)
    # cross-check against the series sum_n 2 (2*0.5)^n / n! * 0.1
    series = sum(2 * 1.0 ** n / math.factorial(n) * 0.1 for n in range(1, 40))
    assert val == pytest.approx(series, abs=1e-12)
    with pytest.raises(ValueError):
        lr_rhs(-1.0, 1.0, 0.1, 0.1)


@pytest.fixture(scope="module")
def chain_setup():
    L = 8
    lam = chain(L)
    phi = models.hopping_chain(L)
    G = g_from_f(DecayFunction(1, 1.0), chain_graph(L))
    return lam, phi, G


def test_certify_commutator_number_ops(chain_setup):
    lam, phi, G = chain_setup
    A = number_operator(lam, [0])
    B = number_operator(lam, [7])
    times = np.linspace(0.0, 2.0, 21)
    rep = certify(A, B, phi, G, 0.0, times)
    assert rep.mode == COMMUTATOR
    assert rep.measured[0] == 0.0 and rep.bound[0] == 0.0
    assert np.all(rep.measured <= rep.bound * (1 + 1e-9) + 1e-12)
    assert np.all(rep.ratio < 1.0)
    # something nontrivial must actually propagate
    assert rep.measured[-1] > 1e-4
    # trivial a-priori bound respected
    assert np.all(rep.measured <= 2 * rep.norm_a * rep.norm_b + 1e-12)
    assert rep.boundary_sites == (0,)


def test_certify_anticommutator_odd_pair(chain_setup):
    lam, phi, G = chain_setup
    A = annihilator(lam, 0)
    B = annihilator(lam, 7)
    rep = certify(A, B, phi, G, 0.0, np.linspace(0.0, 2.0, 11))
    assert rep.mode == ANTICOMMUTATOR
    assert np.all(rep.measured <= rep.bound * (1 + 1e-9) + 1e-12)
    # number-conserving dynamics keeps tau(a) inside the span of
    # annihilators, so this pair anticommutes for all times
    assert rep.measured[-1] <= 1e-12
    # a creator partner picks up the propagating single-particle amplitude
    rep2 = certify(A, B.adjoint(), phi, G, 0.0, np.linspace(0.0, 2.0, 11))
    assert rep2.mode == ANTICOMMUTATOR
    assert np.all(rep2.measured <= rep2.bound * (1 + 1e-9) + 1e-12)
    assert rep2.measured[-1] > 1e-4


def test_certify_bound_monotone_for_static_interaction(chain_setup):
    lam, phi, G = chain_setup
    A = number_operator(lam, [0])
    B = number_operator(lam, [6, 7])
    rep = certify(A, B, phi, G, 0.0, np.linspace(0.0, 1.5, 16))
    assert np.all(np.diff(rep.bound) >= -1e-12)


def test_certify_light_cone_decay(chain_setup):
    lam, phi, G = chain_setup
    A = number_operator(lam, [0])
    t = np.array([0.5])
    vals = []
    for k in range(2, 8):
        B = number_operator(lam, [k])
        rep = certify(A, B, phi, G, 0.0, t)
        vals.append(rep.measured[0])
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_certify_time_dependent_ramp(chain_setup):
    lam, _, G = chain_setup
    phi = scaled_profile(models.hopping_chain(8), lambda r: 0.5 * r, (0.0, 2.0))
    A = number_operator(lam, [0])
    B = number_operator(lam, [7])
    rep = certify(A, B, phi, G, 0.0, np.linspace(0.0, 2.0, 9))
    assert np.all(rep.measured <= rep.bound * (1 + 1e-9) + 1e-12)
    # ramp integral grows quadratically: early bound much smaller than static
    assert rep.phi_integrals[1] < rep.phi_integrals[-1] / 10


def test_certify_preconditions(chain_setup, rng):
    lam, phi, G = chain_setup
    A = number_operator(lam, [0, 1])
    B = number_operator(lam, [1, 2])
    with pytest.raises(ValueError, match="disjoint"):
        certify(A, B, phi, G, 0.0, [0.0, 1.0])
    A_odd = annihilator(lam, 0)
    B_even = number_operator(lam, [7])
    with pytest.raises(ValueError, match="anticommutator mode"):
        certify(A_odd, B_even, phi, G, 0.0, [0.5], mode=ANTICOMMUTATOR)
    A_mixed = fock.random_local_operator(lam, (0,), rng)
    B_mixed = fock.random_local_operator(lam, (7,), rng)
    with pytest.raises(ValueError, match="no certifiable mode"):
        certify(A_mixed, B_mixed, phi, G, 0.0, [0.5])


def test_certification_error_carries_worst_point(chain_setup):
    # sabotage G on distant pairs only: the interaction decay norm is
    # unchanged (terms are nearest-neighbor) but the geometry factor
    # collapses, so the "bound" is wrong and the checker must fire
    lam, phi, G = chain_setup
    values = np.array(G.values)
    values[G.graph.distances > 2] = 1e-300
    bad = geometry.GFunction(G.graph, values)
    A = number_operator(lam, [0])
    B = number_operator(lam, [7])
    with pytest.raises(CertificationError) as err:
        certify(A, B, phi, bad, 0.0, np.linspace(0.0, 2.0, 9))
    assert err.value.measured > err.value.bound


def test_series_partial_sums_converge_to_closed_form():
    diag = series_diagnostics(1.0, 1.0, 1.0, 0.25, boundary_size=2, g_norm=0.9, nmax=30)
    assert abs(diag.partial_sums[-1] - diag.closed_form) <= 1e-10
    assert diag.remainder <= 1e-12 * max(1.0, diag.closed_form)
    # first order alone: 2 ||A|| ||B|| (2I) * geometry
    assert diag.partial_sums[0] == pytest.approx(2 * 2.0 * 0.25, rel=1e-12)


def test_series_remainder_factorial_decay():
    diag = series_diagnostics(1.0, 2.0, 1.0, 0.25, boundary_size=3, g_norm=1.0, nmax=30)
    # 2 ||B|| |dX| ||G|| 2^31 / 31!
    expect = 2 * 2.0 * 3 * 1.0 * 2.0 ** 31 / math.factorial(31)
    assert diag.remainder == pytest.approx(expect, rel=1e-12)
    assert diag.remainder < 1e-20


def test_certify_with_spatially_weighted_g(chain_setup):
    lam, phi, G = chain_setup
    # G_g(x, y) = g(x) g(y) G(x, y) for the site weight g(x) = 0.6 + 0.04 x in (0, 1]
    w = 0.6 + 0.04 * np.arange(len(lam))
    Gw = geometry.GFunction(G.graph, w[:, None] * G.values * w[None, :])
    rep = certify(number_operator(lam, [0]), number_operator(lam, [7]),
                  phi, Gw, 0.0, [0.5, 1.5])
    assert np.all(rep.measured <= rep.bound * (1 + 1e-9) + 1e-12)


def test_certify_periodic_chain():
    L = 8
    lam = chain(L)
    phi = models.hopping_chain(L, boundary="periodic")
    G = g_from_f(DecayFunction(1, 1.0), chain_graph(L, boundary="periodic"))
    rep = certify(number_operator(lam, [0]), number_operator(lam, [4]),
                  phi, G, 0.0, [0.4, 0.9])
    assert np.all(rep.measured <= rep.bound * (1 + 1e-9) + 1e-12)
    # the wrap-around bond puts site 0 on the boundary of {0}
    assert rep.boundary_sites == (0,)
    assert rep.measured[-1] > 1e-6


def test_measured_norms_match_free_fermion_oracle(chain_setup):
    # independent one-particle oracle: for the quadratic hopping chain,
    # tau_t(a_x) = sum_z (e^{-i h t})_{xz} a_z with h the hopping matrix, so
    #   ||{tau_t(a_0), a*_7}|| = |(e^{-i h t})_{07}|
    # and [tau_t(n_0), n_7] is the quadratic operator of the one-particle
    # commutator, whose Fock norm is the sum of its positive eigenvalues.
    lam, phi, G = chain_setup
    L = 8
    h = np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
    times = [0.4, 1.1]
    w, v = np.linalg.eigh(h)

    rep_pair = certify(annihilator(lam, 0), fock.creator(lam, 7), phi, G,
                       0.0, times, mode="anticommutator")
    rep_quad = certify(number_operator(lam, [0]), number_operator(lam, [7]),
                       phi, G, 0.0, times)
    for i, t in enumerate(times):
        u1p = (v * np.exp(-1j * w * t)) @ v.conj().T
        c = u1p[0, :]
        assert rep_pair.measured[i] == pytest.approx(abs(c[7]), abs=1e-10)
        M = np.outer(c.conj(), c)
        N = np.zeros((L, L))
        N[7, 7] = 1.0
        K = M @ N - N @ M
        mu = np.linalg.eigvalsh(1j * K)
        assert rep_quad.measured[i] == pytest.approx(mu[mu > 0].sum(), abs=1e-10)


def test_report_serialization(chain_setup):
    lam, phi, G = chain_setup
    A = number_operator(lam, [0])
    B = number_operator(lam, [7])
    rep = certify(A, B, phi, G, 0.0, np.linspace(0.0, 1.0, 5))
    rows = list(rep.rows())
    assert [list(row) for row in rows] == [["t", "measured", "bound", "ratio", "mode"]] * 5
    data = json.loads(json.dumps(rep.to_dict()))   # plain JSON values only
    assert data["mode"] == COMMUTATOR
    assert len(data["times"]) == 5
    assert [row["t"] for row in rows] == data["times"]
    assert [row["ratio"] for row in rows] == data["ratio"]


# -- the eigenbasis against the site basis -----------------------------------

def _chains(L):
    hop = models.hopping_chain(L, mu=0.3)
    return {
        "static": hop,
        "static_kitaev": models.kitaev_chain(L, hopping=1.0, pairing=0.6, mu=0.3),
        "linear": scaled_profile(hop, lambda r: 0.6 + 0.8 * r, (0.0, 1.0)),
        "sine": scaled_profile(hop, lambda r: 1.0 + 0.5 * np.sin(3.0 * r), (0.0, 1.0)),
        "rescaled": scaled_profile(scaled_profile(hop, lambda r: 0.6 + 0.8 * r, (0.0, 1.0)),
                                   lambda r: 1.2 - 0.4 * np.sin(2.0 * r), (0.0, 1.0)),
    }


def _pairs(lam, rng):
    L = len(lam)
    last = number_operator(lam, [L - 1])
    return [
        (number_operator(lam, [0]), last, COMMUTATOR),          # Hermitian: X - X*
        (annihilator(lam, 0), creator(lam, L - 1), ANTICOMMUTATOR),
        (annihilator(lam, 0), annihilator(lam, L - 1), ANTICOMMUTATOR),
        (creator(lam, 0) @ annihilator(lam, 1), last, COMMUTATOR),   # even, not Hermitian
        (fock.random_local_operator(lam, (0,), rng), last, COMMUTATOR),  # mixed parity
    ]


def _site_basis_norms(A, B, unitaries, mode):
    """Oracle: ||[U* A U, B]|| (or the anticommutator) of the full matrices."""
    sign = -1.0 if mode == COMMUTATOR else 1.0
    a, b = A.matrix, B.matrix
    norms = []
    for u in unitaries:
        tau = u.conj().T @ a @ u
        norms.append(np.linalg.norm(tau @ b + sign * (b @ tau), 2))
    return np.array(norms)


@pytest.mark.parametrize("L", [4, 5, 6, 7, 8])
def test_measured_matches_site_basis_oracle(L):
    lam = chain(L)
    G = g_from_f(DecayFunction(1, 1.0), chain_graph(L))
    rng = np.random.default_rng(40 + L)
    times, step = [0.0, 0.3, 0.55, 1.0], 0.1
    pairs = _pairs(lam, rng)
    assert not pairs[3][0].is_hermitian() and pairs[4][0].parity == fock.MIXED
    for name, phi in _chains(L).items():
        unitaries = stitched_grid(phi, lam, 0.0, times, step)
        for A, B, mode in pairs:
            rep = certify(A, B, phi, G, 0.0, times, mode=mode, step=step)
            want = _site_basis_norms(A, B, unitaries, mode)
            assert np.abs(rep.measured - want).max() <= 1e-12, (name, mode)
        assert rep.measured[0] == 0.0


def _integral_per_time(phi, G, s, t):
    """The bound integral as one ``_g_norms`` pass per grid time takes it:
    |t - s| times the rate at s, or composite Simpson on the nodes of [s, t]."""
    if t == s:
        return 0.0
    if not phi.is_time_dependent:
        return abs(t - s) * float(geometry._g_norms(phi, G, (s,))[0])
    vals = geometry._g_norms(phi, G, np.linspace(s, t, SIMPSON_SAMPLES))
    weights = np.ones(SIMPSON_SAMPLES)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return abs(float((t - s) / (SIMPSON_SAMPLES - 1) / 3.0 * (weights @ vals)))


def test_bound_integrals_take_one_g_norm_pass_and_keep_every_bit(chain_setup, monkeypatch):
    lam, phi, G = chain_setup
    passes = []
    g_norms = geometry._g_norms

    def counting(*args):
        passes.append(args)
        return g_norms(*args)

    A, B = number_operator(lam, [0]), number_operator(lam, [7])
    cases = [(phi, 0.0, np.linspace(0.0, 2.0, 41)),
             (phi, 0.2, [0.2, 0.2, 0.7, 1.9]),
             (scaled_profile(phi, lambda r: 0.5 + 0.8 * r, (0.0, 2.0)), 0.0,
              np.linspace(0.0, 2.0, 41)),
             (scaled_profile(phi, lambda r: 1.0 + 0.5 * np.sin(3 * r), (0.0, 2.0)), 0.3,
              [0.3, 0.45, 1.2, 2.0])]
    for interaction, s, times in cases:
        monkeypatch.setattr(geometry, "_g_norms", counting)
        passes.clear()
        rep = certify(A, B, interaction, G, s, times)
        assert len(passes) == 1
        monkeypatch.setattr(geometry, "_g_norms", g_norms)
        integrals = np.array([_integral_per_time(interaction, G, s, t) for t in rep.times])
        bound = np.array([lr_rhs(rep.norm_a, rep.norm_b, v, rep.geometry_factor)
                          for v in integrals])
        ratio = np.where(bound > 0, rep.measured / np.where(bound > 0, bound, 1.0), 0.0)
        for got, want in ((rep.phi_integrals, integrals), (rep.bound, bound),
                          (rep.ratio, ratio)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_sector_eigh_per_certify(chain_setup, monkeypatch):
    lam, phi, G = chain_setup
    calls = []
    sector_eigh = dynamics.sector_eigh

    def counting(H):
        calls.append(H)
        return sector_eigh(H)

    monkeypatch.setattr(dynamics, "sector_eigh", counting)
    A, B = number_operator(lam, [0]), number_operator(lam, [7])
    ramped = scaled_profile(phi, lambda r: 0.5 * r, (0.0, 2.0))
    for interaction in (phi, ramped):
        calls.clear()
        certify(A, B, interaction, G, 0.0, np.linspace(0.0, 2.0, 41))
        assert len(calls) == 1
    # terms with two profiles are refused by name, before any eigh
    calls.clear()
    named = r"term 0 bond\[0,1\] on sites \(0, 1\); term 7 bond\[0,1\] on sites \(0, 1\)"
    with pytest.raises(ValueError, match=named):
        certify(A, B, two_profile_kitaev(8), G, 0.0, [0.5, 1.0])
    assert len(calls) == 0
