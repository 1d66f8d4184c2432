"""Command-line entry point: run certification tasks from a JSON config.

Tasks: lr-certify, condexp-check, gap-certify, flow-check, model-info.
Each run writes <prefix>_report.json (full metadata), <prefix>_table.csv
(the main table) and <prefix>_plot.csv (plot-ready columns) into the
output directory.  Exit codes: 0 success, 1 usage/config error, 2
certification failure.  Reports are byte-identical across runs with the
same config and seed, except for the timestamp field.

BLAS thread count follows the usual environment variables
(OMP_NUM_THREADS / OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import cond_exp, fock, gap, geometry, models
from .dynamics import Interaction, InteractionTerm, scaled_profile
from .errors import (AmbiguousKernelError, CertificationError,
                     GapClosureError, KernelMismatchError, SiteNotInLattice)
from .fock import SiteSet, annihilator, creator, monomial, number_operator
from .geometry import DecayFunction, MetricGraph, chain_graph, grid_graph
from .lr_bounds import certify

TASKS = ("lr-certify", "condexp-check", "gap-certify", "flow-check", "model-info")
MODELS = ("hopping_chain", "kitaev_chain", "flat_band_chain", "overlap_band_chain",
          "random_even")
OBSERVABLES = ("number", "annihilator", "creator", "monomial")
DEFAULT_SITE_CAP = 12


# -- config validation -------------------------------------------------------

def _is_number(value, integer: bool = False) -> bool:
    """JSON number check; booleans are rejected although bool is an int."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _number_diags(prefix: str, obj: dict, keys) -> list:
    """Diagnostics for the present ``keys`` of ``obj`` that are not numbers."""
    return [f"{prefix}{key}: need a number, got {obj[key]!r}"
            for key in keys if key in obj and not _is_number(obj[key])]


def _count_diags(field: str, value, least: int) -> list:
    """Diagnostic for a count that must be an integer >= ``least``."""
    if _is_number(value, integer=True) and value >= least:
        return []
    return [f"{field}: need an integer >= {least}, got {value!r}"]


def _is_site(value) -> bool:
    """A site as JSON writes it: an integer or a list of integer coordinates."""
    if isinstance(value, list):
        return all(_is_number(v, integer=True) for v in value)
    return _is_number(value, integer=True)


def _observable_diags(name: str, desc) -> list:
    """Diagnostics for the observable descriptor ``observables.<name>``."""
    field = f"observables.{name}"
    if not isinstance(desc, dict) or desc.get("kind") not in OBSERVABLES:
        return [f"{field}: need an object with kind in {OBSERVABLES}, got {desc!r}"]
    if desc["kind"] == "monomial":
        label = desc.get("label")
        if not isinstance(label, list) or not all(isinstance(s, str) for s in label):
            return [f"{field}.label: need a list of monomial symbols, got {label!r}"]
    elif not _is_site(desc.get("site")):
        return [f"{field}.site: need an integer or a list of integers, "
                f"got {desc.get('site')!r}"]
    return []


def _ramp_diags(ramp) -> list:
    """Diagnostics for a ``model.ramp`` object."""
    if not isinstance(ramp, dict):
        return ["model.ramp: need an object with kind/interval and its coefficients"]
    diags = []
    if ramp.get("kind", "linear") not in ("linear", "sine"):
        diags.append(f"model.ramp.kind: expected 'linear' or 'sine', got {ramp['kind']!r}")
    diags += _number_diags("model.ramp.", ramp, ("slope", "offset", "amplitude", "frequency"))
    interval = ramp.get("interval", [0.0, 1.0])
    if (not isinstance(interval, list) or len(interval) != 2
            or not all(_is_number(v) for v in interval) or interval[0] > interval[1]):
        diags.append(f"model.ramp.interval: need two numbers lo <= hi, got {interval!r}")
    return diags


def validate(config: dict) -> list:
    """Field-level diagnostics; empty list means the config is runnable."""
    diags = []
    if not isinstance(config, dict):
        return ["config: must be a JSON object"]
    task = config.get("task")
    if task not in TASKS:
        diags.append(f"task: expected one of {TASKS}, got {task!r}")

    lattice = config.get("lattice")
    nsites = None
    if not isinstance(lattice, dict):
        diags.append("lattice: missing object with dimension/lengths/boundary")
    else:
        lengths = lattice.get("lengths")
        if (not isinstance(lengths, list) or not lengths
                or any(not _is_number(n, integer=True) or n < 1 for n in lengths)):
            diags.append("lattice.lengths: need a list of positive integers")
        else:
            nsites = int(np.prod(lengths))
        dim = lattice.get("dimension", len(lengths) if isinstance(lengths, list) else 1)
        if isinstance(lengths, list) and isinstance(dim, int) and dim != len(lengths):
            diags.append("lattice.dimension: inconsistent with lengths")
        if lattice.get("boundary", "open") not in ("open", "periodic"):
            diags.append("lattice.boundary: expected 'open' or 'periodic'")
    cap = config.get("site_cap", DEFAULT_SITE_CAP)
    if not _is_number(cap, integer=True):
        diags.append(f"site_cap: need an integer, got {cap!r}")
    elif nsites is not None and nsites > cap:
        diags.append(f"lattice: {nsites} sites exceeds the cap of {cap}")

    model = config.get("model")
    if task in ("lr-certify", "gap-certify", "flow-check", "model-info"):
        if not isinstance(model, dict) or model.get("name") not in MODELS:
            diags.append(f"model.name: expected one of {MODELS}")
        elif (model["name"] != "random_even" and isinstance(lattice, dict)
              and isinstance(lattice.get("lengths"), list)
              and len(lattice["lengths"]) > 1):
            diags.append(f"model.name: {model['name']} is a chain model and "
                         "needs a one-dimensional lattice")
        if isinstance(model, dict) and "params" in model:
            params = model["params"]
            if not isinstance(params, dict):
                diags.append("model.params: need an object of named numbers")
            else:
                # n_terms: null means one term per site
                diags += _number_diags("model.params.", params,
                                       [k for k, v in params.items()
                                        if v is not None or k != "n_terms"])
        if isinstance(model, dict) and model.get("ramp") is not None:
            diags += _ramp_diags(model["ramp"])

    if task == "lr-certify":
        if not isinstance(config.get("f_function"), dict):
            diags.append("f_function: missing object with nu/epsilon")
        else:
            diags += _number_diags("f_function.", config["f_function"],
                                   ("nu", "epsilon", "rate"))
        diags += _number_diags("", config, ("step",))
        obs = config.get("observables")
        if not isinstance(obs, dict) or "A" not in obs or "B" not in obs:
            diags.append("observables: need descriptors A and B")
        else:
            diags += _observable_diags("A", obs["A"]) + _observable_diags("B", obs["B"])
        tgrid = config.get("time")
        if not isinstance(tgrid, dict) or not {"start", "stop", "points"} <= set(tgrid):
            diags.append("time: need start/stop/points")
        else:
            time_diags = _number_diags("time.", tgrid, ("start", "stop"))
            diags += time_diags + _count_diags("time.points", tgrid["points"], 1)
            if not time_diags and tgrid["stop"] < tgrid["start"]:
                diags.append("time: need stop >= start")
    if task == "condexp-check":
        for key in ("region_x", "region_y"):
            region = config.get(key)
            if not isinstance(region, list) or not all(_is_site(s) for s in region):
                diags.append(f"{key}: need a list of sites (integers or lists of "
                             f"integers), got {region!r}")
        diags += _count_diags("samples", config.get("samples", 20), 1)
        diags += _number_diags("", config, ("tol",))
    if task == "flow-check":
        flow = config.get("flow")
        if not isinstance(flow, dict) or "gamma_min" not in flow:
            diags.append("flow: need an object with gamma_min (and optionally "
                         "points/angle_start/angle_stop/kind)")
        else:
            if flow.get("kind", "rotation") not in ("rotation", "closing"):
                diags.append("flow.kind: expected 'rotation' or 'closing'")
            diags += _number_diags("flow.", flow, ("gamma_min", "angle_start",
                                                   "angle_stop", "defect_target"))
            diags += _count_diags("flow.points", flow.get("points", 21), 2)
    diags += _count_diags("seed", config.get("seed", 0), 0)
    return diags


# -- construction helpers ----------------------------------------------------

def _build_graph(config: dict) -> MetricGraph:
    lat = config["lattice"]
    lengths = lat["lengths"]
    boundary = lat.get("boundary", "open")
    if len(lengths) == 1:
        return chain_graph(lengths[0], boundary)
    return grid_graph(lengths, boundary)


def _build_model(config: dict, graph: MetricGraph) -> Interaction:
    model = config["model"]
    name = model["name"]
    params = dict(model.get("params", {}))
    L = len(graph.sites)
    if name == "hopping_chain":
        phi = models.hopping_chain(L, J=params.get("J", 1.0),
                                   mu=params.get("mu", 0.0),
                                   boundary=graph.boundary)
    elif name == "kitaev_chain":
        phi = models.kitaev_chain(L, hopping=params.get("hopping", 1.0),
                                  pairing=params.get("pairing", 1.0),
                                  mu=params.get("mu", 0.0))
    elif name == "flat_band_chain":
        orb = models.paired_cell_orbitals(L, angle=params.get("angle", 0.3))
        phi = models.flat_band_model(orb, graph)
    elif name == "overlap_band_chain":
        orb = models.overlapping_orbitals(L, tilt=params.get("tilt", 0.4))
        phi = models.flat_band_model(orb, graph)
    elif name == "random_even":
        phi = models.random_even_interaction(
            graph.sites, max_range=params.get("max_range", 1),
            strength=params.get("strength", 1.0),
            seed=config.get("seed", 0),
            n_terms=params.get("n_terms"))
    else:
        raise ValueError(f"unknown model {name!r}")
    ramp = model.get("ramp")
    if ramp:
        kind = ramp.get("kind", "linear")
        lo, hi = ramp.get("interval", [0.0, 1.0])
        if kind == "linear":
            slope = ramp.get("slope", 1.0)
            offset = ramp.get("offset", 0.0)
            phi = scaled_profile(phi, lambda r: offset + slope * r, (lo, hi))
        elif kind == "sine":
            amp = ramp.get("amplitude", 0.5)
            freq = ramp.get("frequency", 1.0)
            phi = scaled_profile(phi, lambda r: 1.0 + amp * math.sin(freq * r), (lo, hi))
        else:
            raise ValueError(f"unknown ramp kind {kind!r}")
    return phi


def _site_key(site):
    # grid coordinates arrive as JSON lists
    return tuple(site) if isinstance(site, list) else site


def _build_observable(desc: dict, lam: SiteSet):
    kind = desc.get("kind")
    if kind == "number":
        return number_operator(lam, [_site_key(desc["site"])])
    if kind == "annihilator":
        return annihilator(lam, _site_key(desc["site"]))
    if kind == "creator":
        return creator(lam, _site_key(desc["site"]))
    if kind == "monomial":
        return monomial(lam, desc["label"])
    raise ValueError(f"unknown observable kind {kind!r}")


# -- report plumbing ---------------------------------------------------------

def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, fieldnames: list, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _emit(out_dir: Path, prefix: str, report: dict, table: tuple, plot: tuple):
    report = dict(report)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    _write_json(out_dir / f"{prefix}_report.json", report)
    _write_csv(out_dir / f"{prefix}_table.csv", table[0], table[1])
    _write_csv(out_dir / f"{prefix}_plot.csv", plot[0], plot[1])


def _error_object(code: str, message: str, **extra) -> dict:
    obj = {"error": code, "message": message}
    obj.update(extra)
    return obj


# -- task runners ------------------------------------------------------------

def _run_lr_certify(config, out_dir, prefix):
    graph = _build_graph(config)
    lam = graph.sites
    phi = _build_model(config, graph)
    f_cfg = config["f_function"]
    F = DecayFunction(f_cfg.get("nu", len(config["lattice"]["lengths"])),
                      f_cfg.get("epsilon", 1.0), f_cfg.get("rate", 0.0))
    G = geometry.g_from_f(F, graph)
    A = _build_observable(config["observables"]["A"], lam)
    B = _build_observable(config["observables"]["B"], lam)
    tcfg = config["time"]
    times = np.linspace(tcfg["start"], tcfg["stop"], int(tcfg["points"]))
    rep = certify(A, B, phi, G, tcfg["start"], times,
                  mode=config.get("mode"), step=config.get("step", 1e-2))
    payload = {"task": "lr-certify", "config": config, "certified": True,
               "result": rep.to_dict()}
    rows = list(rep.rows())
    plot_rows = [{"t": r["t"], "measured": r["measured"], "bound": r["bound"]}
                 for r in rows]
    _emit(out_dir, prefix, payload,
          (["t", "measured", "bound", "ratio", "mode"], rows),
          (["t", "measured", "bound"], plot_rows))
    return 0


def _run_condexp_check(config, out_dir, prefix):
    graph = _build_graph(config)
    lam = graph.sites
    X = [tuple(s) if isinstance(s, list) else s for s in config["region_x"]]
    Y = [tuple(s) if isinstance(s, list) else s for s in config["region_y"]]
    samples = int(config.get("samples", 20))
    seed = int(config.get("seed", 0))
    tol = float(config.get("tol", 1e-12))
    rep = cond_exp.expectation_family_report(lam, X, Y, samples=samples, seed=seed)
    rng = np.random.default_rng(seed + 1)
    probe = fock.random_local_operator(lam, lam.sites, rng)
    diag = cond_exp.expectation_diagnostics(probe, X)
    defects = {
        "composition": rep.composition_defect,
        "idempotence": rep.idempotence_defect,
        "product_split": rep.product_defect,
        "volume_independence": rep.volume_defect,
        "projection": diag.projection_defect,
        "contraction_excess": diag.contraction_excess,
        "range_support": diag.range_support_defect,
        "range_parity": diag.range_parity_defect,
    }
    ok = max(defects.values()) <= tol
    payload = {"task": "condexp-check", "config": config, "certified": ok,
               "tolerance": tol, "defects": defects}
    rows = [{"defect": k, "value": v} for k, v in sorted(defects.items())]
    _emit(out_dir, prefix, payload, (["defect", "value"], rows),
          (["defect", "value"], rows))
    if not ok:
        print(json.dumps(_error_object("defect-exceeds-tolerance",
                                       f"worst defect {max(defects.values()):.3e}")))
        return 2
    return 0


def _run_gap_certify(config, out_dir, prefix):
    graph = _build_graph(config)
    lam = graph.sites
    phi = _build_model(config, graph)
    ff = gap.frustration_free_check(phi, lam)
    seq = gap.hamiltonian_sequence(phi, lam)
    cert = gap.martingale_certificate(seq)
    payload = {"task": "gap-certify", "config": config,
               "certified": cert.certified,
               "frustration_free": ff.frustration_free,
               "frustration_residual": ff.residual,
               "certificate": cert.to_dict()}
    steps = len(cert.per_step.get("gamma_n", []))
    rows = []
    for n in range(steps):
        rows.append({
            "n": n + 1,
            "gamma_n": cert.per_step["gamma_n"][n],
            "eps_sq_n": cert.per_step.get("eps_sq_n", [0.0] * steps)[n] if n < steps else 0.0,
            "commutator_defect_n": cert.per_step.get("max_commutator_n", [0.0] * steps)[n],
        })
    _emit(out_dir, prefix, payload,
          (["n", "gamma_n", "eps_sq_n", "commutator_defect_n"], rows),
          (["n", "gamma_n", "eps_sq_n", "commutator_defect_n"], rows))
    if not cert.certified:
        print(json.dumps(_error_object("no-certificate",
                                       cert.no_certificate_reason or "uncertified")))
        return 2
    return 0


def _run_flow_check(config, out_dir, prefix):
    graph = _build_graph(config)
    lam = graph.sites
    flow_cfg = config.get("flow", {})
    points = int(flow_cfg.get("points", 21))
    gamma_min = float(flow_cfg.get("gamma_min", 0.5))
    kind = flow_cfg.get("kind", "rotation")
    a0 = float(flow_cfg.get("angle_start", 0.3))
    a1 = float(flow_cfg.get("angle_stop", 0.8))
    base = models.flat_band_model(models.paired_cell_orbitals(len(lam), a0), graph)

    if kind == "rotation":
        def family(s):
            angle = a0 + (a1 - a0) * s
            return models.flat_band_model(
                models.paired_cell_orbitals(len(lam), angle), graph)
    else:
        def family(s):
            terms = [InteractionTerm(t.sites, (1.0 - 2.0 * s) * t.operator, label=t.label)
                     if t.label.startswith("conduction") else t
                     for t in base.terms]
            return Interaction(tuple(terms))

    try:
        rep = gap.projection_flow(family, lam, np.linspace(0.0, 1.0, points),
                                  gamma_min=gamma_min,
                                  defect_target=float(flow_cfg.get("defect_target", 1e-6)))
    except GapClosureError as err:
        payload = {"task": "flow-check", "config": config, "certified": False,
                   "error": _error_object("gap-closure", str(err),
                                          location=err.location,
                                          bracket=list(err.bracket))}
        _emit(out_dir, prefix, payload, (["s", "gap", "defect"], []),
              (["s", "gap", "defect"], []))
        print(json.dumps(payload["error"]))
        return 2
    payload = {"task": "flow-check", "config": config, "certified": True,
               "rank": rep.rank, "max_defect": rep.max_defect,
               "substeps": rep.substeps,
               "parameters": [float(s) for s in rep.parameters],
               "gaps": [float(g) for g in rep.gaps],
               "defects": [float(d) for d in rep.defects]}
    rows = [{"s": float(s), "gap": float(g), "defect": float(d)}
            for s, g, d in zip(rep.parameters, rep.gaps, rep.defects)]
    _emit(out_dir, prefix, payload, (["s", "gap", "defect"], rows),
          (["s", "gap", "defect"], rows))
    return 0


def _run_model_info(config, out_dir, prefix):
    graph = _build_graph(config)
    lam = graph.sites
    phi = _build_model(config, graph)
    info = {
        "sites": [repr(s) for s in lam.sites],
        "n_sites": len(lam),
        "n_terms": len(phi.terms),
        "even": phi.even,
        "time_dependent": phi.is_time_dependent,
        "terms": [{"label": t.label, "sites": [repr(s) for s in t.sites],
                   "norm": t.norm, "parity": t.operator.parity}
                  for t in phi.terms],
    }
    if not phi.is_time_dependent:
        ff = gap.frustration_free_check(phi, lam)
        info["frustration_free"] = ff.frustration_free
        info["frustration_residual"] = ff.residual
        info["ground_energy"] = ff.ground_energy
    payload = {"task": "model-info", "config": config, "certified": True,
               "model": info}
    rows = [{"label": t["label"], "sites": " ".join(t["sites"]), "norm": t["norm"]}
            for t in info["terms"]]
    _emit(out_dir, prefix, payload, (["label", "sites", "norm"], rows),
          (["label", "sites", "norm"], rows))
    return 0


_RUNNERS = {
    "lr-certify": _run_lr_certify,
    "condexp-check": _run_condexp_check,
    "gap-certify": _run_gap_certify,
    "flow-check": _run_flow_check,
    "model-info": _run_model_info,
}


def run(config: dict, out_dir) -> int:
    """Validate and execute one task; returns the process exit code."""
    diags = validate(config)
    if diags:
        print(json.dumps(_error_object("invalid-config", "config validation failed",
                                       diagnostics=diags)))
        return 1
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = config.get("output_prefix", config["task"].replace("-", "_"))
    try:
        return _RUNNERS[config["task"]](config, out_dir, prefix)
    except CertificationError as err:
        print(json.dumps(_error_object("certification-failed", str(err),
                                       where=err.where, measured=err.measured,
                                       bound=err.bound)))
        return 2
    except (AmbiguousKernelError, KernelMismatchError) as err:
        print(json.dumps(_error_object("spectral-analysis-failed", str(err))))
        return 2
    except (SiteNotInLattice, ValueError, KeyError) as err:
        print(json.dumps(_error_object("invalid-config",
                                       f"{type(err).__name__}: {err}")))
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fermicert",
        description="certify light-cone bounds, conditional expectations and "
                    "spectral gaps for finite lattice fermion systems")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the number of time/parameter grid points")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the defect tolerance")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(json.dumps(_error_object("unreadable-config", str(err))))
        return 1
    if not isinstance(config, dict):   # no overrides; validate() reports it
        return run(config, args.out)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tol is not None:
        config["tol"] = args.tol
    if args.grid is not None:
        if isinstance(config.get("time"), dict):
            config["time"]["points"] = args.grid
        flow = config.get("flow", {})
        if config.get("task") == "flow-check" and isinstance(flow, dict):
            config["flow"] = dict(flow, points=args.grid)
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
