"""Tracial state, Kraus unitaries, both conditional-expectation families,
and the local-approximation error bound."""

import numpy as np
import pytest

from fermicert import fock, geometry, models
from fermicert.cond_exp import (conditional_expectation,
                                expectation_diagnostics,
                                expectation_family_report, local_approximation,
                                trace_invariant_expectation)
from fermicert.dynamics import heisenberg, propagate
from fermicert.fock import (EVEN, MIXED, ODD, annihilator, chain, creator, identity,
                            number_operator, op_norm, parity_operator)
from kraus_oracles import (exhaustive_commutator_bound, kraus_sum, kraus_unitaries,
                           site_sweep, twisted_kraus_sum)


def tracial_state(A):
    """The normalized trace tr(A) / 2^|Lambda|."""
    return A.trace() / A.dim


def test_tracial_state_basics(lam4, rng):
    assert tracial_state(identity(lam4)) == 1.0
    n = creator(lam4, 2) @ annihilator(lam4, 2)
    assert tracial_state(n) == pytest.approx(0.5)
    assert tracial_state(annihilator(lam4, 1) @ annihilator(lam4, 2)) == 0


def test_tracial_state_product_property(rng):
    lam = chain(4)
    ops = [fock.random_local_operator(lam, (x,), rng) for x in (0, 2, 3)]
    prod = ops[0] @ ops[1] @ ops[2]
    lhs = tracial_state(prod)
    rhs = np.prod([tracial_state(o) for o in ops])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_kraus_unitaries_structure(lam4):
    us = kraus_unitaries(lam4, 1)
    one = identity(lam4)
    assert np.array_equal(us[0].matrix, one.matrix)
    expected_parity = (EVEN, ODD, ODD, EVEN)
    for u, p in zip(us, expected_parity):
        assert u.parity == p
        assert op_norm(u.adjoint() @ u - one) <= 1e-12
    # u1 squares to the identity since {a, a*} = 1
    assert op_norm(us[1] @ us[1] - one) <= 1e-12
    # u3 equals the single-site parity operator
    assert np.abs(us[3].matrix - parity_operator(lam4, [1]).matrix).max() == 0


def test_expectation_fixes_even_local(rng):
    lam = chain(5)
    X = (1, 2)
    A = fock.random_local_operator(lam, X, rng, parity=EVEN)
    assert op_norm(conditional_expectation(A, X) - A) <= 1e-12


def test_expectation_trace_property_outside(rng):
    lam = chain(5)
    X = (1, 2)
    A = fock.random_local_operator(lam, (0, 3, 4), rng)
    out = conditional_expectation(A, X)
    target = tracial_state(A) * identity(lam)
    assert op_norm(out - target) <= 1e-12
    A_odd = fock.random_local_operator(lam, (0, 3, 4), rng, parity=ODD)
    assert op_norm(conditional_expectation(A_odd, X)) <= 1e-12


def test_sweep_matches_brute_force(rng):
    lam = chain(6)
    for X in [(0, 1), (2, 3, 4), (0, 2, 4, 5)]:
        A = fock.random_local_operator(lam, lam.sites, rng)
        out = conditional_expectation(A, X)
        assert np.abs(out.matrix - kraus_sum(A, X)).max() <= 1e-12


def test_sweep_order_independent(rng):
    # the per-site averages, in any order, compose to E_X
    lam = chain(5)
    A = fock.random_local_operator(lam, lam.sites, rng)
    X = (1, 3)
    out = conditional_expectation(A, X)
    comp = [x for x in lam.sites if x not in X]
    for order in ([0, 2, 4], [4, 0, 2], [2, 4, 0]):
        assert sorted(order) == sorted(comp)
        assert np.abs(site_sweep(A, X, order) - out.matrix).max() <= 1e-12


@pytest.mark.parametrize("parity", [EVEN, ODD, MIXED])
@pytest.mark.parametrize("lam, X", [
    (chain(5), ()),                # empty
    (chain(4), (0, 1, 2, 3)),      # full
    (chain(6), (1, 2, 3)),         # contiguous
    (chain(6), (0, 2, 5)),         # non-contiguous
    (chain(3), (1,)),
])
def test_expectation_matches_kraus_oracle(rng, lam, X, parity):
    A = fock.random_local_operator(lam, lam.sites, rng, parity=parity)
    out = conditional_expectation(A, X)
    assert np.abs(out.matrix - kraus_sum(A, X)).max() <= 1e-12
    assert out.parity == parity
    assert out.support == (frozenset(X) if parity == EVEN else frozenset(lam.sites))


def test_norm_one_contraction_and_projection(rng):
    lam = chain(5)
    X = (0, 1, 2)
    for _ in range(5):
        A = fock.random_local_operator(lam, lam.sites, rng)
        out = conditional_expectation(A, X)
        assert op_norm(out) <= op_norm(A) + 1e-12
        again = conditional_expectation(out, X)
        assert op_norm(again - out) <= 1e-12


def test_range_structure_on_mixed_input(rng):
    lam = chain(5)
    X = (1, 2)
    A = fock.random_local_operator(lam, lam.sites, rng)
    d = expectation_diagnostics(A, X)
    assert d.projection_defect <= 1e-12
    assert d.contraction_excess <= 1e-12
    assert d.range_support_defect <= 1e-12
    assert d.range_parity_defect <= 1e-12


def test_bimodule_property_even(rng):
    lam = chain(5)
    X = (0, 1)
    B = fock.random_local_operator(lam, X, rng, parity=EVEN)
    C = fock.random_local_operator(lam, X, rng, parity=EVEN)
    A = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
    lhs = conditional_expectation(B @ A @ C, X)
    rhs = B @ conditional_expectation(A, X) @ C
    assert op_norm(lhs - rhs) <= 1e-12


def test_trace_invariant_expectation_even_agreement(rng):
    lam = chain(5)
    X = (1, 2, 3)
    for _ in range(5):
        A = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
        e = conditional_expectation(A, X)
        f = trace_invariant_expectation(A, X)
        assert np.abs(e.matrix - f.matrix).max() <= 1e-12
    assert op_norm(trace_invariant_expectation(identity(lam), X) - identity(lam)) <= 1e-12


def test_trace_invariant_expectation_strictly_local(rng):
    lam = chain(5)
    X = (1, 2)
    A = fock.random_local_operator(lam, lam.sites, rng)
    out = trace_invariant_expectation(A, X)
    assert fock.support_defect(out, X) <= 1e-12
    # output commutes with even generators outside X and the tracial state
    # is left invariant against local partners
    B = fock.random_local_operator(lam, X, rng)
    lhs = tracial_state(trace_invariant_expectation(A @ B, X))
    rhs = tracial_state(trace_invariant_expectation(A, X) @ B)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("parity", [ODD, "mixed"])
def test_trace_invariant_expectation_matches_twisted_kraus_sum(rng, parity):
    for lam, X in [(chain(4), (1, 2)), (chain(5), (0, 2, 4)), (chain(5), (1, 3)),
                   (chain(3), ()), (chain(4), (0, 1, 2, 3))]:
        A = fock.random_local_operator(lam, lam.sites, rng, parity=parity)
        out = trace_invariant_expectation(A, X)
        assert out.parity == parity
        assert np.abs(out.matrix - twisted_kraus_sum(A, X)).max() <= 1e-12


def test_trace_invariance_of_both_families(rng):
    lam = chain(4)
    X = (0, 1)
    A = fock.random_local_operator(lam, lam.sites, rng)
    for fn in (conditional_expectation, trace_invariant_expectation):
        assert tracial_state(fn(A, X)) == pytest.approx(tracial_state(A), abs=1e-12)


def test_size_caps(rng):
    # both families are exact at any size: no 4^k sum is taken
    big = chain(11)
    one = identity(big)
    assert np.array_equal(trace_invariant_expectation(one, ()).matrix, one.matrix)
    assert np.array_equal(conditional_expectation(one, ()).matrix, one.matrix)
    lam = chain(9)
    A = fock.random_local_operator(lam, lam.sites, rng)
    X = (1, 4, 6)
    assert np.abs(conditional_expectation(A, X).matrix - site_sweep(A, X)).max() <= 1e-12


def test_local_approximation_exact_in_range(rng):
    lam = chain(5)
    X = (0, 1, 2)
    A = fock.random_local_operator(lam, X, rng, parity=EVEN)
    approx, err = local_approximation(A, X)
    assert err <= 1e-12
    with pytest.raises(ValueError):
        local_approximation(fock.random_local_operator(lam, X, rng), X)


def test_local_approximation_error_vs_exhaustive_kraus_bound(rng):
    # complement of size 3: exhaustive max over 64 Kraus words
    lam = chain(5)
    X = (0, 1)
    for _ in range(5):
        A = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
        _, err = local_approximation(A, X)
        bound = exhaustive_commutator_bound(A, X)
        assert err <= bound + 1e-12


def test_local_approximation_shrinks_with_ball_and_lr_bound():
    # evolved density localizes: error decreases with the ball radius and
    # is controlled by the light-cone estimate against outside unitaries
    from fermicert.lr_bounds import lr_rhs
    L = 7
    lam = chain(L)
    phi = models.hopping_chain(L)
    graph = geometry.chain_graph(L)
    G = geometry.g_from_f(geometry.DecayFunction(1, 1.0), graph)
    t = 0.4
    U = propagate(phi, lam, 0.0, t)
    A0 = number_operator(lam, [0])
    A = heisenberg(A0, U)
    errs = []
    for radius in (2, 4, 6):
        X = tuple(range(radius + 1))
        _, err = local_approximation(A, X)
        errs.append(err)
        rate = geometry.interaction_g_norm(phi, G)
        boundary = geometry.phi_boundary(phi, A0.support)
        outside = tuple(s for s in lam.sites if s not in X)
        if outside:
            eps_lr = lr_rhs(op_norm(A0), 1.0, rate * t, G.pair_sum(boundary, outside))
            assert err <= eps_lr + 1e-12
    assert errs[0] >= errs[1] >= errs[2] - 1e-15
    assert errs[2] <= 1e-9  # X = whole chain


def test_family_report_small_defects(rng):
    lam = chain(6)
    rep = expectation_family_report(lam, (0, 1, 2), (2, 3), samples=5, seed=11)
    assert rep.max_defect <= 1e-12


def test_family_report_disjoint_regions_reduce_to_trace(rng):
    lam = chain(5)
    X, Y = (0, 1), (3, 4)
    A = fock.random_local_operator(lam, lam.sites, rng)
    composed = conditional_expectation(conditional_expectation(A, Y), X)
    target = tracial_state(A) * identity(lam)
    # X and Y disjoint: composition is the expectation onto the empty set
    assert op_norm(composed - target) <= 1e-12
    rep = expectation_family_report(lam, X, Y, samples=3, seed=5)
    assert rep.composition_defect <= 1e-12


def test_family_report_idempotence_via_equal_regions(rng):
    lam = chain(5)
    rep = expectation_family_report(lam, (1, 2), (1, 2), samples=3, seed=9)
    assert rep.idempotence_defect <= 1e-12
    assert rep.composition_defect <= 1e-12
