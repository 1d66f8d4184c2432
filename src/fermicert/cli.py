"""Command-line entry point: run certification tasks from a JSON config.

Tasks: lr-certify, condexp-check, gap-certify, flow-check, model-info.
Each task's runner takes the typed task alone and returns ``(certified,
fields, table, plot, error)``.  ``run`` alone then writes, in this order,
<prefix>_report.json (``{"task", "config", "certified", **fields,
"timestamp"}``), <prefix>_table.csv and <prefix>_plot.csv (``table`` and
``plot`` are (columns, rows); a ``plot`` of None is the table) into the
output directory, made if needed, prints ``error`` unless it is None, and
picks the exit code: 0 success, 1 usage/config error or an output that
cannot be written (``"error": "unwritable-output"``), 2 certification or
numerical failure.  A runner that raises writes no file.  Reports are
byte-identical across runs with the same config and seed, except for the
timestamp field.

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
from dataclasses import MISSING, field, fields, make_dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import cond_exp, fock, gap, geometry, models
from .dynamics import scaled_profile
from .errors import (AmbiguousKernelError, CertificationError, GapClosureError,
                     SiteNotInLattice)
from .fock import (MONOMIAL_SYMBOLS, SiteSet, annihilator, creator, monomial,
                   number_operator)
from .geometry import DecayFunction, MetricGraph, grid_graph
from .lr_bounds import certify

TASKS = ("lr-certify", "condexp-check", "gap-certify", "flow-check", "model-info")
SITE_CAP = 12        # one dense complex matrix at 13 sites is 1 GiB
COUNT_CAP = 10_000   # every count in a config: grid points, samples, terms, steps
MAGNITUDE_CAP = 1e6  # every time and coupling in a config, in absolute value
FLOW_SITE_CAP = 8    # flow-check: 5 s, 104 MB at 8 sites; at 10 (estimated) 1,281 eighs
                     # of 512^2 blocks, minutes, and ~1 GB of one interval's projections
CONDEXP_SITE_CAP = 8  # condexp-check: its volume check embeds into L + 2; 956 MB, 170 s at 10


# -- config schema -----------------------------------------------------------

class _Invalid(Exception):
    """``args[0]``: the diagnostics of a value that its schema rejects."""


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _schema(name: str, /, **spec):
    """The frozen dataclass of a task or of an object in a task config, from
    ``key=(check,)`` (required) or ``key=(check, default)``; ``check(value,
    path)`` returns the typed value or raises _Invalid.  ``name`` is
    positional-only because ``model`` has a key ``name``."""
    return make_dataclass(name, [(key, object, field(default=d[0] if d else MISSING,
                                                       metadata={"check": check}))
                                 for key, (check, *d) in spec.items()],
                          frozen=True, kw_only=True, eq=False)


def _parse(schema, raw, path: str):
    """The ``schema`` dataclass of the JSON object ``raw`` found at ``path``,
    built in one pass: every wrong-typed, missing, out-of-range or unknown key
    is a ``path: message`` diagnostic."""
    if not isinstance(raw, dict):
        raise _Invalid([f"{path}: need an object, got {raw!r}"])
    diags, values = [], {}
    for f in fields(schema):
        if f.name in raw:
            try:
                values[f.name] = f.metadata["check"](raw[f.name], _join(path, f.name))
            except _Invalid as err:
                diags += err.args[0]
        elif f.default is MISSING:
            diags.append(f"{_join(path, f.name)}: missing")
    diags += [f"{_join(path, key)}: unknown key" for key in raw
              if key not in schema.__dataclass_fields__]
    if diags:
        raise _Invalid(diags)
    return schema(**values)


def _is(test, what: str, typed=lambda value: value):
    """The check that takes a value passing ``test`` as ``typed(value)``."""
    def check(value, path):
        if not test(value):
            raise _Invalid([f"{path}: need {what}, got {value!r}"])
        return typed(value)
    return check


def _number(value, integer: bool = False) -> bool:
    """A finite JSON number; booleans are rejected although bool is an int."""
    return (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def _int(lo: int):
    return _is(lambda v: _number(v, integer=True) and lo <= v <= COUNT_CAP,
               f"an integer in [{lo}, {COUNT_CAP}]")


def _choice(*options):
    return _is(lambda v: isinstance(v, str) and v in options, f"one of {options}")


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


def _one_of(tag: str, schemas: dict):
    """An object whose ``tag`` key picks its schema among ``schemas``."""
    def check(value, path):
        kind = value.get(tag) if isinstance(value, dict) else None
        if not isinstance(kind, str) or kind not in schemas:
            raise _Invalid([f"{path}: need an object with {path}.{tag} in "
                            f"{tuple(schemas)}, got {value!r}"])
        return _parse(schemas[kind], value, path)
    return check


def _is_site(value) -> bool:
    """An integer, or a list of integer coordinates."""
    return (_number(value, integer=True) or isinstance(value, list)
            and all(_number(c, integer=True) for c in value))


def _moderate(value) -> bool:
    """A finite number of magnitude at most MAGNITUDE_CAP: times and couplings
    beyond it overflow the exponentials of the propagator and the bound."""
    return _number(value) and abs(value) <= MAGNITUDE_CAP


_REAL = _is(_number, "a finite number")
_MODERATE = _is(_moderate, f"a number of magnitude at most {MAGNITUDE_CAP:g}")
_POSITIVE = _is(lambda v: _number(v) and v > 0, "a finite number > 0")
_NONNEGATIVE = _is(lambda v: _number(v) and v >= 0, "a finite number >= 0")
_SITE = _is(_is_site, "an integer or a list of integers",
            lambda v: tuple(v) if isinstance(v, list) else v)   # a grid site is a tuple
_SITES = _is(lambda v: isinstance(v, list) and all(map(_is_site, v)),
             "a list of sites (integers or lists of integers)",
             lambda v: [_SITE(s, None) for s in v])


Lattice = _schema(
    "Lattice",
    lengths=(_is(lambda v: isinstance(v, list) and v != []
                 and all(_number(n, integer=True) and n >= 1 for n in v)
                 and math.prod(v) <= SITE_CAP,
                 f"a list of positive integers, at most {SITE_CAP} sites in all (the cap)",
                 tuple),),
    boundary=(_choice("open", "periodic"), "open"),
    dimension=(_optional(_int(1)), None))   # None: len(lengths)
Ramp = _schema(   # linear: offset + slope t; sine: 1 + amplitude sin(frequency t)
    "Ramp", kind=(_choice("linear", "sine"), "linear"), slope=(_MODERATE, 1.0),
    offset=(_MODERATE, 0.0), amplitude=(_MODERATE, 0.5), frequency=(_MODERATE, 1.0),
    interval=(_is(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_moderate, v))
                  and v[0] <= v[1],
                  f"two numbers lo <= hi of magnitude at most {MAGNITUDE_CAP:g}", tuple),
              (0.0, 1.0)))


def _family(name: str, **params):
    """The ``model`` schema of family ``name`` with ``model.params`` ``params``."""
    params = _schema(f"{name}.params", **params)
    return _schema(name, name=(_choice(name),), params=(partial(_parse, params), params()),
                   ramp=(_optional(partial(_parse, Ramp)), None))


_MODELS = {model.__name__: model for model in (
    _family("hopping_chain", J=(_MODERATE, 1.0), mu=(_MODERATE, 0.0)),
    _family("kitaev_chain", hopping=(_MODERATE, 1.0), pairing=(_MODERATE, 1.0),
            mu=(_MODERATE, 0.0)),
    _family("flat_band_chain", angle=(_REAL, 0.3)),
    _family("overlap_band_chain", tilt=(_REAL, 0.4)),
    _family("random_even", max_range=(_int(0), 1), strength=(_MODERATE, 1.0),
            n_terms=(_optional(_int(1)), None)))}   # None: one term per site
_SITE_OBSERVABLE = _schema("SiteObservable", kind=(_choice("number", "annihilator", "creator"),),
                           site=(_SITE,))
_OBSERVABLE = _one_of("kind", {
    "number": _SITE_OBSERVABLE, "annihilator": _SITE_OBSERVABLE, "creator": _SITE_OBSERVABLE,
    "monomial": _schema("Monomial", kind=(_choice("monomial"),), label=(_is(
        lambda v: isinstance(v, list) and all(s in MONOMIAL_SYMBOLS for s in v),
        f"a list of monomial symbols from {MONOMIAL_SYMBOLS}"),))})

_EVERY_TASK = dict(
    task=(_choice(*TASKS),),
    lattice=(partial(_parse, Lattice),),
    seed=(_is(lambda v: _number(v, integer=True) and v >= 0, "an integer >= 0"), 0),
    output_prefix=(_is(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                       and not set(v) & set("/\\\0"),
                       "a file name without a path separator"), None))   # None: the task
_MODEL_TASK = dict(_EVERY_TASK, model=(_one_of("name", _MODELS),))

LRCertify = _schema(
    "LRCertify", **_MODEL_TASK,
    f_function=(partial(_parse, _schema(
        "FFunction", nu=(_optional(_REAL), None),   # None: the lattice dimension
        epsilon=(_POSITIVE, 1.0),
        rate=(_NONNEGATIVE, 0.0))),),
    observables=(partial(_parse, _schema("Observables", A=(_OBSERVABLE,),
                                         B=(_OBSERVABLE,))),),
    time=(partial(_parse, _schema("TimeGrid", start=(_MODERATE,), stop=(_MODERATE,),
                                  points=(_int(1),))),),
    mode=(_optional(_choice("commutator", "anticommutator")), None),   # None: by parity
    step=(_POSITIVE, 1e-2))   # midpoint step of a ramped interaction
CondexpCheck = _schema("CondexpCheck", **_EVERY_TASK, region_x=(_SITES,), region_y=(_SITES,),
                       samples=(_int(1), 20), tol=(_NONNEGATIVE, 1e-12))
ModelTask = _schema("ModelTask", **_MODEL_TASK)   # gap-certify, model-info
FlowCheck = _schema(   # the flat-band family rotated, or its conduction band closing
    "FlowCheck", **dict(_MODEL_TASK, model=(_one_of("name", {
        "flat_band_chain": _MODELS["flat_band_chain"]}),)),
    flow=(partial(_parse, _schema(
        "Flow", gamma_min=(_POSITIVE,), kind=(_choice("rotation", "closing"), "rotation"),
        points=(_int(2), 21), angle_start=(_REAL, 0.3), angle_stop=(_REAL, 0.8),
        defect_target=(_POSITIVE, 1e-6))),))


_CHAIN_LENGTHS = {   # model: (test on the number of sites, what it needs)
    "hopping_chain": (lambda n: n >= 2, "at least 2 sites"),
    "kitaev_chain": (lambda n: n >= 2, "at least 2 sites"),
    "flat_band_chain": (lambda n: n >= 2 and n % 2 == 0, "an even number of sites >= 2"),
    # every term of the overlap model spans the whole chain
    "overlap_band_chain": (lambda n: 3 <= n <= fock.EXPANSION_CAP,
                           f"3 to {fock.EXPANSION_CAP} sites"),
}


def _constraints(task):
    """``(field, message)`` for each broken constraint between valid fields."""
    lengths, dimension = task.lattice.lengths, task.lattice.dimension
    sites = _build_graph(task.lattice).sites
    model = getattr(task, "model", None)
    if dimension not in (None, len(lengths)):
        yield "lattice.dimension", f"need len(lengths) = {len(lengths)}, got {dimension}"
    if model is not None and model.name != "random_even" and len(lengths) > 1:
        yield "model.name", f"{model.name} is a chain model and needs one length"
    elif model is not None and model.name in _CHAIN_LENGTHS:
        test, need = _CHAIN_LENGTHS[model.name]
        if not test(len(sites)):
            yield "lattice.lengths", f"{model.name} needs {need}, got {len(sites)}"
    if task.task in ("gap-certify", "flow-check") and model.ramp is not None:
        yield "model.ramp", f"{task.task} takes a static model and no ramp"
    if model is not None and model.name == "random_even" and min(
            model.params.max_range + 1, len(sites)) > fock.EXPANSION_CAP:
        yield "model.params.max_range", (   # its terms span up to max_range + 1 sites
            f"need at most {fock.EXPANSION_CAP - 1} on more than {fock.EXPANSION_CAP} sites, "
            f"got {model.params.max_range}")
    if task.task == "condexp-check" and len(sites) > CONDEXP_SITE_CAP:
        yield ("lattice.lengths",
               f"condexp-check needs at most {CONDEXP_SITE_CAP} sites, got {len(sites)}")
    if task.task == "flow-check" and len(sites) > FLOW_SITE_CAP:
        yield ("lattice.lengths",
               f"flow-check needs at most {FLOW_SITE_CAP} sites, got {len(sites)}")
    located = [(key, site) for key in ("region_x", "region_y")
               for site in getattr(task, key, ())]
    for key in ("A", "B") if hasattr(task, "observables") else ():
        obs = getattr(task.observables, key)
        if obs.kind != "monomial":
            located.append((f"observables.{key}.site", obs.site))
        elif len(obs.label) != len(sites):
            yield (f"observables.{key}.label",
                   f"need one symbol per site ({len(sites)}), got {len(obs.label)}")
    for key, site in located:
        if site not in sites:
            yield key, f"site {site!r} is not in the lattice {sites.sites}"
    if hasattr(task, "time"):
        steps = (task.time.stop - task.time.start) / task.step
        if steps < 0:
            yield "time", "need stop >= start"
        elif model.ramp is not None and steps > COUNT_CAP:
            yield "step", f"need at most {COUNT_CAP} midpoint steps, got {steps:.3g}"
        if model.ramp is not None:
            lo, hi = model.ramp.interval
            for key, t in (("time.start", task.time.start), ("time.stop", task.time.stop)):
                if not lo <= t <= hi:
                    yield key, f"need a time in model.ramp.interval [{lo}, {hi}], got {t}"


def _parse_config(config) -> tuple:
    """``(task, diagnostics)``: the typed config of ``config``'s task, or None
    and every diagnostic when the config is not runnable."""
    if not isinstance(config, dict):
        return None, ["config: must be a JSON object"]
    name = config.get("task")
    if isinstance(name, str) and name in _TASKS:
        schema = _TASKS[name][0]
    else:   # without a task only the keys every task has are known
        schema = _schema("Task", **_EVERY_TASK)
        config = {k: v for k, v in config.items() if k in _EVERY_TASK}
    try:
        task = _parse(schema, config, "")
    except _Invalid as err:
        return None, err.args[0]
    diags = [f"{key}: {message}" for key, message in _constraints(task)]
    return (None if diags else task), diags


def validate(config) -> list:
    """Field-level diagnostics; empty list means the config is runnable."""
    return _parse_config(config)[1]


# -- construction helpers ----------------------------------------------------

def _build_graph(lattice) -> MetricGraph:
    return grid_graph(lattice.lengths, lattice.boundary)


def _build_model(task) -> tuple:
    """The graph of ``task.lattice`` and the interaction of ``task.model`` on it."""
    graph, model = _build_graph(task.lattice), task.model
    p, L = model.params, len(graph.sites)
    if model.name == "hopping_chain":
        phi = models.hopping_chain(L, J=p.J, mu=p.mu, boundary=graph.boundary)
    elif model.name == "kitaev_chain":
        phi = models.kitaev_chain(L, hopping=p.hopping, pairing=p.pairing, mu=p.mu)
    elif model.name == "flat_band_chain":
        phi = models.flat_band_model(models.paired_cell_orbitals(L, angle=p.angle), graph)
    elif model.name == "overlap_band_chain":
        phi = models.flat_band_model(models.overlapping_orbitals(L, tilt=p.tilt), graph)
    else:
        phi = models.random_even_interaction(graph.sites, max_range=p.max_range,
                                             strength=p.strength, seed=task.seed,
                                             n_terms=p.n_terms)
    ramp = model.ramp
    if ramp is None:
        return graph, phi
    if ramp.kind == "linear":
        return graph, scaled_profile(phi, lambda r: ramp.offset + ramp.slope * r, ramp.interval)
    return graph, scaled_profile(
        phi, lambda r: 1.0 + ramp.amplitude * math.sin(ramp.frequency * r), ramp.interval)


def _build_observable(obs, lam: SiteSet):
    if obs.kind == "number":
        return number_operator(lam, [obs.site])
    if obs.kind == "annihilator":
        return annihilator(lam, obs.site)
    if obs.kind == "creator":
        return creator(lam, obs.site)
    return monomial(lam, obs.label)


# -- report plumbing ---------------------------------------------------------

def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, fieldnames: list, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _error_object(code: str, message: str, **extra) -> dict:
    return {"error": code, "message": message, **extra}


# -- task runners: each returns (certified, fields, table, plot, error) ------

def _run_lr_certify(task):
    graph, phi = _build_model(task)
    lam = graph.sites
    f = task.f_function
    F = DecayFunction(len(task.lattice.lengths) if f.nu is None else f.nu, f.epsilon, f.rate)
    G = geometry.g_from_f(F, graph)
    A = _build_observable(task.observables.A, lam)
    B = _build_observable(task.observables.B, lam)
    times = np.linspace(task.time.start, task.time.stop, task.time.points)
    rep = certify(A, B, phi, G, task.time.start, times, mode=task.mode, step=task.step)
    rows = list(rep.rows())
    return (True, {"result": rep.to_dict()}, (["t", "measured", "bound", "ratio", "mode"], rows),
            (["t", "measured", "bound"], rows), None)


def _run_condexp_check(task):
    lam = _build_graph(task.lattice).sites
    tol = float(task.tol)
    rep = cond_exp.expectation_family_report(lam, task.region_x, task.region_y,
                                             samples=task.samples, seed=task.seed)
    rng = np.random.default_rng(task.seed + 1)
    probe = fock.random_local_operator(lam, lam.sites, rng)
    diag = cond_exp.expectation_diagnostics(probe, task.region_x)
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
    rows = [{"defect": k, "value": v} for k, v in sorted(defects.items())]
    return (ok, {"tolerance": tol, "defects": defects}, (["defect", "value"], rows), None,
            None if ok else _error_object("defect-exceeds-tolerance",
                                          f"worst defect {max(defects.values()):.3e}"))


def _run_gap_certify(task):
    graph, phi = _build_model(task)
    lam = graph.sites
    ff = gap.frustration_free_check(phi, lam)
    seq = gap.hamiltonian_sequence(phi, lam)
    cert = gap.martingale_certificate(seq)
    per_step = cert.per_step
    rows = [{"n": n, "gamma_n": g, "eps_sq_n": e, "commutator_defect_n": c}
            for n, (g, e, c) in enumerate(zip(per_step["gamma_n"], per_step["eps_sq_n"],
                                              per_step["max_commutator_n"]), start=1)]
    return (cert.certified,
            {"frustration_free": ff.frustration_free, "frustration_residual": ff.residual,
             "certificate": cert.to_dict()},
            (["n", "gamma_n", "eps_sq_n", "commutator_defect_n"], rows), None,
            None if cert.certified else _error_object(
                "no-certificate", cert.no_certificate_reason or "uncertified"))


def _run_flow_check(task):
    graph = _build_graph(task.lattice)
    lam = graph.sites
    flow = task.flow
    a0, a1 = float(flow.angle_start), float(flow.angle_stop)
    target = float(flow.defect_target)
    if flow.kind == "rotation":
        phi = models.rotating_flat_band(len(lam), lambda s: a0 + (a1 - a0) * s)
    else:
        phi = models.flat_band_model(models.paired_cell_orbitals(len(lam), a0), graph,
                                     conduction_profile=lambda s: 1.0 - 2.0 * s)
    columns = ["s", "gap", "defect"]
    try:
        rep = gap.projection_flow(lambda s: phi, lam, np.linspace(0.0, 1.0, flow.points),
                                  gamma_min=float(flow.gamma_min), defect_target=target)
    except GapClosureError as err:
        error = _error_object("gap-closure", str(err), location=err.location,
                              bracket=list(err.bracket))
        return False, {"error": error}, (columns, []), None, error
    fields = {"rank": rep.rank, "max_defect": rep.max_defect, "substeps": rep.substeps,
              "parameters": [float(s) for s in rep.parameters],
              "gaps": [float(g) for g in rep.gaps],
              "defects": [float(d) for d in rep.defects]}
    # the substep cap can stop refinement before the transport meets its target
    error = None
    if rep.max_defect > target:
        error = fields["error"] = _error_object(
            "defect-target-missed",
            f"max_defect {rep.max_defect:.3e} above defect_target {target:.3e} "
            f"at {rep.substeps} substeps")
    rows = [{"s": float(s), "gap": float(g), "defect": float(d)}
            for s, g, d in zip(rep.parameters, rep.gaps, rep.defects)]
    return error is None, fields, (columns, rows), None, error


def _run_model_info(task):
    graph, phi = _build_model(task)
    lam = graph.sites
    info = {
        "sites": [repr(s) for s in lam.sites],
        "n_sites": len(lam),
        "n_terms": len(phi.terms),
        "even": True,
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
    rows = [{"label": t["label"], "sites": " ".join(t["sites"]), "norm": t["norm"]}
            for t in info["terms"]]
    return True, {"model": info}, (["label", "sites", "norm"], rows), None, None


_TASKS = {   # task: (schema, runner)
    "lr-certify": (LRCertify, _run_lr_certify),
    "condexp-check": (CondexpCheck, _run_condexp_check),
    "gap-certify": (ModelTask, _run_gap_certify),
    "flow-check": (FlowCheck, _run_flow_check),
    "model-info": (ModelTask, _run_model_info),
}


def run(config: dict, out_dir) -> int:
    """Validate and execute one task; write its files and return the process
    exit code (module docstring).  The report echoes ``config`` as given."""
    task, diags = _parse_config(config)
    if diags:
        print(json.dumps(_error_object("invalid-config", "config validation failed",
                                       diagnostics=diags)))
        return 1
    out_dir = Path(out_dir)
    prefix = task.output_prefix or task.task.replace("-", "_")
    try:
        certified, fields, table, plot, error = _TASKS[task.task][1](task)
    except CertificationError as err:
        print(json.dumps(_error_object("certification-failed", str(err),
                                       where=err.where, measured=err.measured,
                                       bound=err.bound)))
        return 2
    except AmbiguousKernelError as err:
        print(json.dumps(_error_object("spectral-analysis-failed", str(err))))
        return 2
    except np.linalg.LinAlgError as err:   # a ValueError, but not a config error
        print(json.dumps(_error_object("numerical-failure", f"LinAlgError: {err}")))
        return 2
    except (SiteNotInLattice, ValueError, KeyError) as err:
        print(json.dumps(_error_object("invalid-config",
                                       f"{type(err).__name__}: {err}")))
        return 1
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / f"{prefix}_report.json",
                    {"task": task.task, "config": config, "certified": certified, **fields,
                     "timestamp": datetime.now(timezone.utc).isoformat()})
        _write_csv(out_dir / f"{prefix}_table.csv", *table)
        _write_csv(out_dir / f"{prefix}_plot.csv", *(plot or table))
    except OSError as err:
        print(json.dumps(_error_object("unwritable-output", f"{type(err).__name__}: {err}")))
        return 1
    if error is None:
        return 0
    print(json.dumps(error))
    return 2


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
                        help="override the defect tolerance of condexp-check")
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(json.dumps(_error_object("unreadable-config", str(err))))
        return 1
    if isinstance(config, dict):   # run() reports a config that is not an object
        task = config.get("task")
        if args.seed is not None:
            config["seed"] = args.seed
        if args.tol is not None and task == "condexp-check":   # the only task with a tol
            config["tol"] = args.tol
        grid = "flow" if task == "flow-check" else "time"
        if args.grid is not None and isinstance(config.get(grid), dict):
            config[grid]["points"] = args.grid
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
