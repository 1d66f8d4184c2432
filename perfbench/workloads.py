"""Benchmark workloads: the CLI task configs each workload runs, made from a seed.

Every workload fixes its lattice sizes, grids, sample counts and defect
targets, so each seed costs the same work.  The seed only moves couplings,
observable sites and regions, and it is written into every config as the
config's own ``seed``.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

WORKLOADS = ("lightcone", "spectral", "transport", "condexp")


def _chain(length: int) -> dict:
    return {"dimension": 1, "lengths": [length], "boundary": "open"}


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _lightcone(rng: random.Random, seed: int) -> list:
    # three lr-certify runs on the 8-site hopping chain: two static ones
    # (one eigh per grid point) and a linear ramp (one eigh per midpoint step)
    params = {"J": _u(rng, 0.8, 1.2), "mu": _u(rng, -0.5, 0.5)}
    x, y = rng.choice([0, 1]), rng.choice([6, 7])
    stop, ramp_stop = 1.0, 0.5
    base = {"task": "lr-certify", "lattice": _chain(8),
            "f_function": {"nu": 1, "epsilon": 1.0, "rate": 0.0}, "seed": seed}
    number = {"A": {"kind": "number", "site": x}, "B": {"kind": "number", "site": y}}
    return [
        dict(base, model={"name": "hopping_chain", "params": params},
             observables=number, mode="commutator",
             time={"start": 0.0, "stop": stop, "points": 9},
             output_prefix="lr_chain"),
        dict(base, model={"name": "hopping_chain", "params": params},
             observables={"A": {"kind": "annihilator", "site": x},
                          "B": {"kind": "creator", "site": y}},
             mode="anticommutator",
             time={"start": 0.0, "stop": stop, "points": 9},
             output_prefix="lr_chain_odd"),
        dict(base, model={"name": "hopping_chain", "params": params,
                          "ramp": {"kind": "linear", "slope": _u(rng, 0.3, 0.7),
                                   "offset": _u(rng, 0.5, 1.0),
                                   "interval": [0.0, ramp_stop]}},
             observables=number, mode="commutator",
             time={"start": 0.0, "stop": ramp_stop, "points": 9},
             output_prefix="lr_ramped"),
    ]


def _spectral(rng: random.Random, seed: int) -> list:
    # gap-certify on three frustration-free models plus model-info; the
    # overlap model has whole-chain terms, so its embeds are the large ones
    hop = _u(rng, 0.8, 1.2)
    return [
        {"task": "gap-certify", "lattice": _chain(8),
         "model": {"name": "flat_band_chain", "params": {"angle": _u(rng, 0.25, 0.45)}},
         "seed": seed, "output_prefix": "gap_flatband"},
        {"task": "gap-certify", "lattice": _chain(6),
         "model": {"name": "kitaev_chain",
                   "params": {"hopping": hop, "pairing": hop, "mu": 0.0}},
         "seed": seed, "output_prefix": "gap_kitaev"},
        {"task": "gap-certify", "lattice": _chain(5),
         "model": {"name": "overlap_band_chain", "params": {"tilt": _u(rng, 0.3, 0.5)}},
         "seed": seed, "output_prefix": "gap_overlap"},
        {"task": "model-info", "lattice": _chain(6),
         "model": {"name": "flat_band_chain", "params": {"angle": _u(rng, 0.2, 0.4)}},
         "seed": seed, "output_prefix": "model_info_flatband"},
    ]


def _transport(rng: random.Random, seed: int) -> list:
    # the flow rebuilds every term at each parameter it probes, so the
    # term cache never hits; a fixed angle span keeps the substep count fixed
    start = _u(rng, 0.2, 0.4)
    return [{"task": "flow-check", "lattice": _chain(6),
             "model": {"name": "flat_band_chain", "params": {"angle": start}},
             "flow": {"kind": "rotation", "points": 11, "gamma_min": 0.5,
                      "angle_start": start, "angle_stop": round(start + 0.5, 6),
                      "defect_target": 3e-5},
             "seed": seed, "output_prefix": "flow_rotation"}]


def _condexp(rng: random.Random, seed: int) -> list:
    # three-site X and two-site Y anywhere on the 6-site chain
    a, b = rng.randrange(4), rng.randrange(5)
    return [{"task": "condexp-check", "lattice": _chain(6),
             "region_x": [a, a + 1, a + 2], "region_y": [b, b + 1],
             "samples": 3, "tol": 1e-12, "seed": seed,
             "output_prefix": "condexp_chain"}]


_BUILDERS = {"lightcone": _lightcone, "spectral": _spectral,
             "transport": _transport, "condexp": _condexp}


def configs(workload: str, seed: int) -> list:
    """The task configs of ``workload`` for ``seed``; equal seeds give equal configs."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), seed)
