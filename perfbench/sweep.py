"""Per-layer size sweep, run in a fresh interpreter:

    python3 perfbench/sweep.py

Times one call of each layer at L = 6, 8, 10 sites through the public
functions only, and prints one JSON object: ``{"metrics": {name: seconds},
"problems": [...]}``.  Inputs are built outside the timed call.  Small
sizes take the median of a few calls; the 1024-dimensional ones are timed
once.  Why the sweep stops at 10 sites, and martingale at 8, is in NOTES.md.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from fermicert import cond_exp, dynamics, fock, gap, geometry, models

SIZES = (6, 8, 10)
MARTINGALE_SIZES = (6, 8)
BUDGET_S = 0.2     # keep timing a layer at one size until this much was spent
MAX_CALLS = 7


def _timed(call, prepare=lambda: None) -> float:
    """Median seconds of ``call(prepare())``; preparation is not timed."""
    samples = []
    while len(samples) < MAX_CALLS and sum(samples) < BUDGET_S:
        arg = prepare()
        t0 = time.perf_counter()
        call(arg)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def sweep_size(L: int, metrics: dict, problems: list) -> None:
    lam = fock.chain(L)
    graph = geometry.chain_graph(L)
    rng = np.random.default_rng(L)

    def flat(angle: float) -> dynamics.Interaction:
        # fresh term objects each time, so the term cache misses
        return models.flat_band_model(models.paired_cell_orbitals(L, angle), graph)

    def put(name: str, seconds: float) -> None:
        metrics[f"{name}.L{L}"] = seconds

    # a 3-site valence term embedded into the chain
    three_site = flat(0.3).terms[1].operator
    put("fock.embed_term_s", _timed(lambda op: fock.embed(op, lam), lambda: three_site))

    dense = fock.random_local_operator(lam, lam.sites, rng)
    put("fock.project_support_s",
        _timed(lambda A: fock.project_support(A, lam.sites[:3]), lambda: dense))

    put("dynamics.assemble_H_s",
        _timed(lambda phi: dynamics.local_hamiltonian(phi, lam), lambda: flat(0.3)))

    hop = models.hopping_chain(L)
    dynamics.local_hamiltonian(hop, lam)          # fill the term cache
    U = None

    def static(_):
        nonlocal U
        U = dynamics.propagate(hop, lam, 0.0, 1.0)

    put("dynamics.static_diag_s", _timed(static))
    if U.unitarity_defect > dynamics.UNITARITY_TOL:
        problems.append(f"sweep L{L}: static propagator defect {U.unitarity_defect:.2e}")

    ramped = dynamics.scaled_profile(hop, lambda r: 1.0 + 0.5 * r, (0.0, 1.0))
    dynamics.propagate(ramped, lam, 0.0, 0.01, step=0.01)   # fill the term cache
    put("dynamics.midpoint_step_s",
        _timed(lambda _: dynamics.propagate(ramped, lam, 0.0, 0.01, step=0.01)))

    A = fock.number_operator(lam, [0])
    B = fock.number_operator(lam, [L - 1])
    put("dynamics.heisenberg_bracket_norm_s",
        _timed(lambda _: fock.op_norm(fock.commutator(dynamics.heisenberg(A, U), B))))

    # one sweep over a fixed two-site complement
    put("cond_exp.sweep_s",
        _timed(lambda M: cond_exp.conditional_expectation(M, lam.sites[:L - 2]),
               lambda: dense))

    H = dynamics.local_hamiltonian(flat(0.3), lam)
    ranks = []
    put("gap.kernel_projection_s",
        _timed(lambda h: ranks.append(int(round(gap.kernel_projection(h).trace().real))),
               lambda: H))
    if set(ranks) != {1}:
        problems.append(f"sweep L{L}: flat-band kernel rank {ranks}, expected 1")

    # one flow interval with a single substep
    put("gap.flow_substep_s",
        _timed(lambda _: gap.projection_flow(lambda s: flat(0.3 + 0.5 * s), lam,
                                             [0.0, 1.0 / 64], gamma_min=0.5,
                                             max_substeps=1)))

    if L in MARTINGALE_SIZES:
        seq = gap.hamiltonian_sequence(flat(0.35), lam)
        certs = []
        put("gap.martingale_s",
            _timed(lambda s: certs.append(gap.martingale_certificate(s)), lambda: seq))
        if not all(c.certified and c.bound <= c.exact_gap for c in certs):
            problems.append(f"sweep L{L}: martingale certificate failed")


def main() -> None:
    metrics, problems = {}, []
    for L in SIZES:
        sweep_size(L, metrics, problems)
    print(json.dumps({"metrics": metrics, "problems": problems}))


if __name__ == "__main__":
    main()
