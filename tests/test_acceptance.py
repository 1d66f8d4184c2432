"""Acceptance suite: one test per shipped criterion, each printing a
one-line verdict.  Run with ``pytest tests/test_acceptance.py -v -s``.

Derived expected values are computed by independent oracles inside the
tests (occupation enumeration, explicit row sums, series evaluation,
brute-force Kraus sums, exact diagonalization); closed-form reference
numbers are asserted at their stated tolerances.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from fermicert import cli, cond_exp, fock, gap, geometry, models
from fermicert.dynamics import (Interaction, InteractionTerm,
                                local_hamiltonian, scaled_profile)
from fermicert.errors import GapClosureError
from fermicert.fock import (EVEN, ODD, annihilator, anticommutator, chain,
                            commutator, creator, identity, number_operator,
                            op_norm, zero)
from fermicert.lr_bounds import certify, series_diagnostics
from kraus_oracles import exhaustive_commutator_bound, kraus_sum

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok


def test_criterion_1_car_suite():
    t0 = time.monotonic()
    worst = 0.0
    for L in range(2, 11):
        lam = chain(L)
        ann = [annihilator(lam, x) for x in lam]
        one = identity(lam)
        for x, y in itertools.combinations_with_replacement(range(L), 2):
            worst = max(worst, op_norm(anticommutator(ann[x], ann[y])))
            worst = max(worst, op_norm(
                anticommutator(ann[x].adjoint(), ann[y].adjoint())))
            mixed = anticommutator(ann[x], ann[y].adjoint())
            expected = one if x == y else zero(lam)
            worst = max(worst, op_norm(mixed - expected))
    elapsed = time.monotonic() - t0
    _report(1, worst <= 1e-12 and elapsed <= 30.0,
            f"CAR defect {worst:.1e} over L=2..10 in {elapsed:.1f}s")


def test_criterion_2_disjoint_support_classification():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for L in range(4, 9):
        lam = chain(L)
        cut = L // 2
        left = tuple(range(cut))
        right = tuple(range(cut, L))
        for _ in range(100):
            pa = EVEN if rng.integers(2) else ODD
            pb = EVEN if rng.integers(2) else ODD
            A = fock.random_local_operator(lam, left, rng, parity=pa)
            B = fock.random_local_operator(lam, right, rng, parity=pb)
            if pa == ODD and pb == ODD:
                d = anticommutator(A, B)
            else:
                d = commutator(A, B)
            # Frobenius norm bounds the operator norm from above
            worst = max(worst, float(np.linalg.norm(d.matrix)))
    _report(2, worst <= 1e-12,
            f"worst (anti)commutator defect {worst:.1e} over 500 pairs")


def test_criterion_3_lr_certification():
    t0 = time.monotonic()
    L = 8
    lam = chain(L)
    phi = models.hopping_chain(L)
    G = geometry.g_from_f(geometry.DecayFunction(1, 1.0), geometry.chain_graph(L))
    times = np.linspace(0.0, 2.0, 41)

    rep_c = certify(number_operator(lam, [0]), number_operator(lam, [7]),
                    phi, G, 0.0, times, mode="commutator")
    rep_a = certify(annihilator(lam, 0), annihilator(lam, 7),
                    phi, G, 0.0, times, mode="anticommutator")
    ramped = scaled_profile(models.hopping_chain(L), lambda r: 0.5 * r, (0.0, 2.0))
    rep_r = certify(number_operator(lam, [0]), number_operator(lam, [7]),
                    ramped, G, 0.0, times, mode="commutator")
    elapsed = time.monotonic() - t0
    ok = (np.all(rep_c.ratio < 1.0) and np.all(rep_a.ratio < 1.0)
          and np.all(rep_r.ratio < 1.0) and elapsed <= 120.0)
    _report(3, ok, f"max ratios {rep_c.ratio.max():.2e} / {rep_a.ratio.max():.2e} "
                   f"/ {rep_r.ratio.max():.2e} in {elapsed:.1f}s")


def test_criterion_4_series_consistency():
    diag = series_diagnostics(norm_a=1.0, norm_b=1.0, phi_norm_integral=1.0,
                              geometry=0.2, boundary_size=2, g_norm=0.8, nmax=30)
    gap_to_closed = abs(diag.partial_sums[-1] - diag.closed_form)
    scale = max(diag.closed_form, 1.0)
    ok = gap_to_closed <= 1e-10 and diag.remainder <= 1e-12 * scale
    _report(4, ok, f"partial-sum gap {gap_to_closed:.1e}, "
                   f"remainder {diag.remainder:.1e} at N=30")


def test_criterion_5_f_function_constants():
    ok = True
    details = []
    for nu, lengths in ((1, [16]), (2, [5, 5])):
        graph = geometry.grid_graph(lengths)
        F = geometry.DecayFunction(nu, 1.0)
        c = geometry.f_conv_constant(F, graph)
        bound = 2.0 ** (nu + 1.0) * geometry.f_norm(F, graph)
        G = geometry.g_from_f(F, graph)
        conv = G.defects()["convolution"]
        ok = ok and c <= bound and conv <= 1e-12
        details.append(f"Z^{nu}: C={c:.3f}<={bound:.3f}, conv residual {conv:.1e}")
    _report(5, ok, "; ".join(details))


def test_criterion_6_conditional_expectations():
    t0 = time.monotonic()
    rng = np.random.default_rng(66)
    L = 6
    lam = chain(L)
    X = (0, 1, 2)

    proj_worst = contr_worst = 0.0
    for _ in range(100):
        A = fock.random_local_operator(lam, lam.sites, rng)
        out = cond_exp.conditional_expectation(A, X)
        proj_worst = max(proj_worst, op_norm(
            cond_exp.conditional_expectation(out, X) - out))
        contr_worst = max(contr_worst, max(0.0, op_norm(out) - op_norm(A)))

    oracle_worst = 0.0
    for region in [(0, 1), (0, 1, 2), (1, 2, 3, 4)]:
        A = fock.random_local_operator(lam, lam.sites, rng)
        sw = cond_exp.conditional_expectation(A, region)
        oracle_worst = max(oracle_worst,
                           float(np.abs(sw.matrix - kraus_sum(A, region)).max()))

    ef_worst = 0.0
    for _ in range(100):
        A = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
        e = cond_exp.conditional_expectation(A, X)
        f = cond_exp.trace_invariant_expectation(A, X)
        ef_worst = max(ef_worst, float(np.abs(e.matrix - f.matrix).max()))

    fam = cond_exp.expectation_family_report(lam, (0, 1, 2), (2, 3),
                                             samples=10, seed=7)

    approx_worst = -1.0
    for _ in range(5):
        A = fock.random_local_operator(lam, lam.sites, rng, parity=EVEN)
        _, err = cond_exp.local_approximation(A, X)
        bound = exhaustive_commutator_bound(A, X)
        approx_worst = max(approx_worst, err - bound)

    elapsed = time.monotonic() - t0
    ok = (proj_worst <= 1e-12 and contr_worst <= 1e-12 and oracle_worst <= 1e-12
          and ef_worst <= 1e-12 and fam.max_defect <= 1e-12
          and approx_worst <= 0.0 and elapsed <= 180.0)
    _report(6, ok,
            f"projection {proj_worst:.1e}, contraction {contr_worst:.1e}, "
            f"E_X-vs-Kraus-sum {oracle_worst:.1e}, local-vs-global {ef_worst:.1e}, "
            f"family {fam.max_defect:.1e}, approx-bound slack {approx_worst:.1e}, "
            f"{elapsed:.0f}s")


def test_criterion_7_flat_band_gap_one():
    ok = True
    details = []
    for L in (6, 8):
        lam = chain(L)
        orb = models.paired_cell_orbitals(L, angle=0.35)
        phi = models.flat_band_model(orb, geometry.chain_graph(L))
        H = local_hamiltonian(phi, lam)
        w, v = np.linalg.eigh(H.matrix)
        gap_val = w[1] - w[0]
        ff = gap.frustration_free_check(phi, lam)
        psi = v[:, 0]
        b_ops, c_ops = models.band_operators(lam, orb)
        filled = max(abs(np.vdot(psi, (b.adjoint() @ b).matrix @ psi).real - 1.0)
                     for b in b_ops)
        empty = max(abs(np.vdot(psi, (c.adjoint() @ c).matrix @ psi).real)
                    for c in c_ops)
        ok = ok and (abs(gap_val - 1.0) <= 1e-10 and ff.residual <= 1e-10
                     and filled <= 1e-10 and empty <= 1e-10)
        details.append(f"L={L}: gap-1={gap_val - 1:.1e}, ff {ff.residual:.1e}, "
                       f"band defects {filled:.1e}/{empty:.1e}")
    _report(7, ok, "; ".join(details))


def test_criterion_8_martingale_certificates():
    # commuting toy model: certificate equals the exact gap
    L = 4
    lam = chain(L)
    terms = []
    for x in range(L):
        sub = fock.SiteSet((x,))
        terms.append(InteractionTerm((x,), creator(sub, x) @ annihilator(sub, x)))
    toy = gap.martingale_certificate(
        gap.hamiltonian_sequence(Interaction(tuple(terms)), lam))
    toy_ok = (abs(toy.bound - 1.0) <= 1e-10 and abs(toy.exact_gap - 1.0) <= 1e-10)

    sound = True
    formula = True
    details = [f"toy bound {toy.bound:.12f}"]
    for L in (6, 8):
        lam = chain(L)
        for name, phi in (
                ("kitaev", models.kitaev_chain(L)),
                ("flatband", models.flat_band_model(
                    models.paired_cell_orbitals(L, 0.35), geometry.chain_graph(L))),
                ("overlap", models.flat_band_model(
                    models.overlapping_orbitals(L, 0.4), geometry.chain_graph(L)))):
            cert = gap.martingale_certificate(gap.hamiltonian_sequence(phi, lam))
            sound = sound and cert.certified and 0 < cert.bound <= cert.exact_gap + 1e-8
            formula = formula and cert.bound == gap.martingale_bound(
                cert.gamma, cert.ell, cert.epsilon)
            details.append(f"{name}@L={L}: {cert.bound:.4f}<={cert.exact_gap:.4f}")
    _report(8, toy_ok and sound and formula, "; ".join(details))


def test_criterion_9_projection_flow():
    L = 6
    lam = chain(L)
    graph = geometry.chain_graph(L)

    def rotation(s):
        return models.flat_band_model(
            models.paired_cell_orbitals(L, 0.3 + 0.5 * s), graph)

    rep = gap.projection_flow(rotation, lam, np.linspace(0.0, 1.0, 21),
                              gamma_min=0.5)
    rotation_ok = rep.rank == 1 and rep.max_defect <= 1e-6

    base = models.flat_band_model(models.paired_cell_orbitals(L, 0.3), graph)

    def closing(s):
        new = [InteractionTerm(t.sites, (1.0 - 2.0 * s) * t.operator, label=t.label)
               if t.label.startswith("conduction") else t for t in base.terms]
        return Interaction(tuple(new))

    fired = False
    located = math.nan
    try:
        gap.projection_flow(closing, lam, np.linspace(0.0, 1.0, 11), gamma_min=0.2)
    except GapClosureError as err:
        fired = True
        located = err.location
    closure_ok = fired and abs(located - 0.4) <= 0.02
    _report(9, rotation_ok and closure_ok,
            f"rank {rep.rank}, transport defect {rep.max_defect:.1e}, "
            f"closure located at s={located:.4f}")


def test_criterion_10_end_to_end_configs(tmp_path):
    t0 = time.monotonic()
    ok = True
    details = []
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        with open(cfg_path, encoding="utf-8") as fh:
            config = json.load(fh)
        out1 = tmp_path / "run1" / cfg_path.stem
        out2 = tmp_path / "run2" / cfg_path.stem
        rc1 = cli.run(json.loads(json.dumps(config)), out1)
        rc2 = cli.run(json.loads(json.dumps(config)), out2)
        same = True
        for produced in sorted(out1.glob("*")):
            twin = out2 / produced.name
            if produced.suffix == ".json":
                a = "\n".join(l for l in produced.read_text().splitlines()
                              if '"timestamp"' not in l)
                b = "\n".join(l for l in twin.read_text().splitlines()
                              if '"timestamp"' not in l)
                same = same and a == b
            else:
                same = same and produced.read_bytes() == twin.read_bytes()
        ok = ok and rc1 == 0 and rc2 == 0 and same
        details.append(f"{cfg_path.stem}: rc={rc1} deterministic={same}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed <= 900.0
    _report(10, ok, f"{len(details)} configs in {elapsed:.0f}s")
