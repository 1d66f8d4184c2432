"""Metric graphs, F/G decay functions, interaction norms, boundaries."""

import numpy as np
import pytest

from fermicert import dynamics, fock, models
from fermicert.geometry import (SIMPSON_SAMPLES, DecayFunction, GFunction,
                                chain_graph, f_conv_constant, f_norm, g_from_f,
                                grid_graph, interaction_g_norm,
                                interaction_norm_integrals, phi_boundary)


def _triangle_defect(d):
    """max over all triples of d(x,y) - d(x,z) - d(z,y); <= 0 for a metric."""
    return float((d[:, :, None] - d[:, None, :] - d.T[None, :, :]).max())


def test_chain_graph_metric():
    g = chain_graph(6)
    assert g.distances[0, 5] == 5
    assert g.distances[2, 2] == 0
    assert _triangle_defect(g.distances) <= 0
    ring = chain_graph(6, boundary="periodic")
    assert ring.distances[0, 5] == 1


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_graph_is_the_one_axis_grid(boundary):
    for L in range(1, 17):
        g = chain_graph(L, boundary)
        diff = np.abs(np.arange(L)[:, None] - np.arange(L)[None, :])
        want = np.minimum(diff, L - diff) if boundary == "periodic" else diff
        assert g.sites.sites == tuple(range(L))
        assert all(type(x) is int for x in g.sites)
        assert g.distances.dtype == float and np.array_equal(g.distances, want)
        assert g.boundary == boundary
    with pytest.raises(ValueError, match="unknown boundary 'twisted'"):
        chain_graph(4, "twisted")


def test_grid_graph_l1_metric():
    g = grid_graph([3, 3])
    pos = g.sites.position
    assert g.distances[pos((0, 0)), pos((2, 2))] == 4
    assert _triangle_defect(g.distances) <= 0
    per = grid_graph([4, 4], boundary="periodic")
    assert per.distances[per.sites.position((0, 0)), per.sites.position((3, 3))] == 2


def test_f_norm_single_site_and_chain():
    F = DecayFunction(1, 1.0)
    assert f_norm(F, chain_graph(1)) == 1.0
    # explicit row-sum oracle on the 5-chain: the center row dominates
    g = chain_graph(5)
    rows = [sum(F(abs(i - j)) for j in range(5)) for i in range(5)]
    assert f_norm(F, g) == pytest.approx(max(rows), abs=1e-15)
    assert max(rows) == pytest.approx(1 + 2 * 0.25 + 2 / 9, abs=1e-15)


def test_exponential_weight_never_increases_constants():
    g = chain_graph(8)
    F = DecayFunction(1, 1.0)
    Fa = DecayFunction(1, 1.0, rate=0.7)
    assert f_norm(Fa, g) <= f_norm(F, g)
    assert f_conv_constant(Fa, g) <= f_conv_constant(F, g) + 1e-14


@pytest.mark.parametrize("nu,lengths", [(1, [12]), (2, [5, 5])])
def test_convolution_constant_closed_form_bound(nu, lengths):
    g = grid_graph(lengths)
    F = DecayFunction(nu, 1.0)
    assert f_conv_constant(F, g) <= 2 ** (nu + 1.0) * f_norm(F, g)


def test_convolution_constant_monotone_in_slab_size():
    F = DecayFunction(1, 1.0)
    vals = [f_conv_constant(F, chain_graph(L)) for L in (1, 2, 4, 8, 12)]
    assert vals[0] == 1.0
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_g_function_properties_on_chain():
    g = chain_graph(8)
    G = g_from_f(DecayFunction(1, 1.0), g)
    d = G.defects()
    assert d["symmetry"] == 0.0
    assert d["convolution"] <= 1e-12
    assert G.norm == pytest.approx(G.values.sum(axis=1).max())


def test_spatially_weighted_g_keeps_properties():
    g = chain_graph(8)
    G = g_from_f(DecayFunction(1, 1.0), g)
    # G_g(x, y) = g(x) g(y) G(x, y) for a site weight g with values in (0, 1]
    w = 0.5 + 0.05 * np.arange(8)
    Gw = GFunction(g, w[:, None] * G.values * w[None, :])
    d = Gw.defects()
    assert d["symmetry"] <= 1e-15
    assert d["convolution"] <= 1e-12
    with pytest.raises(ValueError, match="strictly positive"):
        GFunction(g, 0.0 * G.values)


def test_interaction_g_norm_hopping_oracle():
    L, J = 6, 1.3
    phi = models.hopping_chain(L, J=J)
    g = chain_graph(L)
    G = g_from_f(DecayFunction(1, 1.0), g)
    # oracle: enumerate pair sums over the term list directly
    best = 0.0
    for i in range(L):
        for j in range(L):
            tot = sum(abs(t.coefficient(0.0)) * t.norm for t in phi.terms
                      if i in t.sites and j in t.sites)
            best = max(best, tot / G.values[i, j])
    assert interaction_g_norm(phi, G) == pytest.approx(best, rel=1e-12)
    # adjacent pairs dominate for pure hopping
    adj = max(t.norm / G.values[t.sites[0], t.sites[1]] for t in phi.terms)
    assert interaction_g_norm(phi, G) == pytest.approx(adj, rel=1e-12)


def test_interaction_g_norm_homogeneity_and_zero():
    L = 5
    g = chain_graph(L)
    G = g_from_f(DecayFunction(1, 1.0), g)
    phi = models.hopping_chain(L, J=1.0)
    phi3 = models.hopping_chain(L, J=3.0)
    assert interaction_g_norm(phi3, G) == pytest.approx(3 * interaction_g_norm(phi, G), rel=1e-12)
    from fermicert.dynamics import Interaction
    assert interaction_g_norm(Interaction(()), G) == 0.0


def test_interaction_norm_integral_time_independent_exact():
    L = 5
    g = chain_graph(L)
    G = g_from_f(DecayFunction(1, 1.0), g)
    phi = models.hopping_chain(L)
    k = interaction_g_norm(phi, G)
    assert interaction_norm_integrals(phi, G, 0.0, [2.0])[0] == pytest.approx(2 * k, rel=1e-14)


def test_interaction_norm_integral_ramp_matches_quadrature():
    from fermicert.dynamics import scaled_profile
    L = 5
    g = chain_graph(L)
    G = g_from_f(DecayFunction(1, 1.0), g)
    phi = scaled_profile(models.hopping_chain(L), lambda r: r, (0.0, 2.0))
    k = interaction_g_norm(models.hopping_chain(L), G)
    # linear ramp: integral of k*r over [0, 2] is 2k
    assert interaction_norm_integrals(phi, G, 0.0, [2.0])[0] == pytest.approx(2 * k, rel=1e-10)


def test_interaction_norm_integral_is_scipy_simpson():
    from scipy.integrate import simpson
    from fermicert.dynamics import scaled_profile
    L = 5
    G = g_from_f(DecayFunction(1, 1.0), chain_graph(L))
    phi = scaled_profile(models.hopping_chain(L), lambda r: 1.0 + 0.5 * np.sin(3 * r),
                         (0.0, 3.0))
    for s, t in [(0.0, 2.0), (0.3, 1.7), (2.5, 0.5), (0.0, 3.0)]:
        grid = np.linspace(s, t, SIMPSON_SAMPLES)
        vals = [interaction_g_norm(phi, G, r) for r in grid]
        want = abs(float(simpson(vals, x=grid)))
        got = interaction_norm_integrals(phi, G, s, [t])[0]
        assert got == pytest.approx(want, rel=1e-14)


def test_ramped_certify_does_not_import_scipy_integrate():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from fermicert import fock, geometry, lr_bounds, models\n"
        "from fermicert.dynamics import scaled_profile\n"
        "lam = fock.chain(4)\n"
        "phi = scaled_profile(models.hopping_chain(4), lambda r: 1 + r, (0.0, 1.0))\n"
        "G = geometry.g_from_f(geometry.DecayFunction(1, 1.0), geometry.chain_graph(4))\n"
        "lr_bounds.certify(fock.number_operator(lam, [0]), fock.number_operator(lam, [3]),\n"
        "                  phi, G, 0.0, np.linspace(0.0, 1.0, 3))\n"
        "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "False"


def test_phi_boundary_chain_segment():
    phi = models.hopping_chain(8)
    assert phi_boundary(phi, {3, 4, 5}) == {3, 5}
    assert phi_boundary(phi, set()) == frozenset()
    onsite = models.hopping_chain(8, J=0.0, mu=1.0)
    # pure on-site interaction has no crossing terms
    assert phi_boundary(onsite, {3, 4, 5}) == frozenset()


def test_phi_boundary_respects_time_window():
    from fermicert.dynamics import scaled_profile
    phi = scaled_profile(models.hopping_chain(6), lambda r: max(0.0, r - 1.0), (0.0, 2.0))
    # coupling vanishes identically on [0, 1]
    assert phi_boundary(phi, {0, 1, 2}, interval=(0.0, 0.9)) == frozenset()
    assert phi_boundary(phi, {0, 1, 2}, interval=(0.0, 2.0)) == {2}


def test_phi_boundary_subset_of_x_and_all_to_all():
    lam = fock.chain(4)
    phi = models.random_even_interaction(lam, max_range=3, strength=1.0, seed=3, n_terms=12)
    X = {1, 2}
    bd = phi_boundary(phi, X)
    assert bd <= X
    # a term covering the whole chain makes every proper subset all boundary
    from fermicert.dynamics import Interaction, InteractionTerm
    rng = np.random.default_rng(1)
    op = fock.random_local_operator(lam, lam.sites, rng, parity="even")
    herm = 0.5 * (op + op.adjoint())
    full = Interaction((InteractionTerm(lam.sites, herm),))
    assert phi_boundary(full, X) == X


def _g_norm_per_node(phi, G, t):
    """||Phi||_G at one time, one term at a time: the evaluation that
    the Simpson integral made at each node before the nodes were batched."""
    sites = G.graph.sites
    n = len(sites)
    acc = np.zeros((n, n))
    for term in phi.terms:
        w = abs(term.coefficient(t)) * term.norm
        if w == 0.0:
            continue
        pos = list(sites.positions(term.sites))
        acc[np.ix_(pos, pos)] += w
    if not acc.any():
        return 0.0
    return float((acc / G.values).max())


def test_g_norms_at_all_nodes_are_the_per_node_loop_bitwise():
    from fermicert.dynamics import scaled_profile
    from fermicert.geometry import _g_norms
    L = 6
    lam = fock.chain(L)
    G = g_from_f(DecayFunction(1, 1.0), chain_graph(L))
    base = models.random_even_interaction(lam, max_range=3, seed=5, n_terms=12)
    profiles = [lambda r: r, lambda r: 1.0 + 0.5 * np.sin(3 * r), lambda r: r * r - 0.7]
    for profile in profiles:
        phi = scaled_profile(base, profile, (-2.0, 3.0))
        for s, t, samples in [(0.0, 2.0, 65), (-1.0, 1.0, 65), (2.5, 0.5, 9)]:
            grid = np.linspace(s, t, samples)
            want = np.array([_g_norm_per_node(phi, G, r) for r in grid])
            got = _g_norms(phi, G, grid)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert interaction_g_norm(phi, G, grid[3]) == want[3]
    assert _g_norms(dynamics.Interaction(()), G, np.linspace(0, 1, 5)).tolist() == [0.0] * 5
