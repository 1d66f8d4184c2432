"""Output checks for every task run of the benchmark.

A task run passes when its exit code is 0 and its report

- matches ``reference.json`` for the default seed: equal apart from the
  timestamp, numbers equal within ``RTOL``/``ATOL``;
- keeps the certificate's own invariants for any seed: measured <= bound
  at every grid point, gap bound <= exact gap, every condexp defect <=
  ``tol``, flow ``max_defect`` <= ``defect_target``, flat-band models
  frustration-free;
- for the hopping chain, matches the one-particle free-fermion oracle
  (``free_fermion_norms``) to ``ORACLE_TOL``.

``self_check`` perturbs a passing report and requires each perturbation to
fail, which shows the checks above can fail.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

RTOL = 1e-8
ATOL = 1e-10
ORACLE_TOL = 1e-10
# slack on measured <= bound, as in lr_bounds.CERT_RTOL / CERT_ATOL_SCALE
CERT_RTOL = 1e-9
CERT_ATOL_SCALE = 1e-12


def load_report(out_dir: Path, prefix: str) -> dict:
    with open(out_dir / f"{prefix}_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timestamp", None)
    return report


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _differences(got, want, path="report") -> list:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number"]
        if math.isinf(want) or math.isinf(got):
            return [] if got == want else [f"{path}: {got!r} != {want!r}"]
        if abs(got - want) <= ATOL + RTOL * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length or type differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += _differences(g, w, f"{path}[{i}]")
        return out
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"{path}: keys differ"]
    out = []
    for key in sorted(want):
        out += _differences(got[key], want[key], f"{path}.{key}")
    return out


def free_fermion_norms(config: dict, times) -> np.ndarray | None:
    """Measured norms predicted by the one-particle picture of the hopping
    chain, or None when the config is outside it.

    With h the one-particle hopping matrix and F(t) the integrated coupling
    profile, tau_t(a_x) = sum_z u_xz a_z with u = exp(-i F(t) h).  So
    ||{tau_t(a_x), a*_y}|| = |u_xy|, and [tau_t(n_x), n_y] is the quadratic
    operator of the one-particle commutator K = [M, N], M = conj(u_x) u_x^T,
    N = e_y e_y^T, whose Fock norm is the sum of the positive eigenvalues
    of iK.  Midpoint stepping integrates a linear ramp exactly.
    """
    model = config["model"]
    if model["name"] != "hopping_chain" or config["lattice"]["boundary"] != "open":
        return None
    (L,) = config["lattice"]["lengths"]
    J = model["params"].get("J", 1.0)
    mu = model["params"].get("mu", 0.0)
    h = J * (np.eye(L, k=1) + np.eye(L, k=-1)) + mu * np.eye(L)
    w, v = np.linalg.eigh(h)
    t = np.asarray(times, dtype=float) - config["time"]["start"]
    ramp = model.get("ramp")
    if ramp is None:
        phase = t
    elif ramp["kind"] == "linear" and config["time"]["start"] == 0.0:
        phase = ramp.get("offset", 0.0) * t + 0.5 * ramp.get("slope", 1.0) * t ** 2
    else:
        return None
    A, B = config["observables"]["A"], config["observables"]["B"]
    x, y = A["site"], B["site"]
    out = []
    for f in phase:
        u = (v * np.exp(-1j * w * f)) @ v.conj().T
        if (A["kind"], B["kind"]) == ("number", "number"):
            c = u[x, :]
            M = np.outer(c.conj(), c)
            N = np.zeros((L, L))
            N[y, y] = 1.0
            eig = np.linalg.eigvalsh(1j * (M @ N - N @ M))
            out.append(eig[eig > 0].sum())
        elif (A["kind"], B["kind"]) == ("annihilator", "creator"):
            out.append(abs(u[x, y]))
        else:
            return None
    return np.array(out)


def _lr_problems(config: dict, report: dict) -> list:
    res = report["result"]
    measured, bound = np.array(res["measured"]), np.array(res["bound"])
    problems = []
    if measured.size != config["time"]["points"]:
        problems.append("lr: wrong number of grid points")
    floor = CERT_ATOL_SCALE * max(1.0, res["norm_a"] * res["norm_b"])
    if np.any(measured > bound * (1 + CERT_RTOL) + floor):
        problems.append("lr: measured exceeds bound")
    oracle = free_fermion_norms(config, res["times"])
    if oracle is not None and not np.allclose(measured, oracle, rtol=0.0, atol=ORACLE_TOL):
        problems.append(f"lr: oracle mismatch {np.abs(measured - oracle).max():.3e}")
    return problems


def _gap_problems(config: dict, report: dict) -> list:
    cert = report["certificate"]
    if cert["bound"] is None or cert["exact_gap"] is None:
        return ["gap: no bound or no exact gap"]
    if cert["bound"] > cert["exact_gap"] * (1 + 1e-9):
        return ["gap: bound exceeds exact gap"]
    return []


def _condexp_problems(config: dict, report: dict) -> list:
    tol = config["tol"]
    return [f"condexp: {k} defect {v:.3e} > tol" for k, v in report["defects"].items() if v > tol]


def _flow_problems(config: dict, report: dict) -> list:
    target = config["flow"]["defect_target"]
    if report["max_defect"] > target or max(report["defects"]) > report["max_defect"]:
        return ["flow: max_defect exceeds defect_target"]
    return []


def _model_info_problems(config: dict, report: dict) -> list:
    info = report["model"]
    if not info.get("frustration_free") or info["frustration_residual"] > 1e-9:
        return ["model-info: flat-band model reported frustrated"]
    return []


_INVARIANTS = {"lr-certify": _lr_problems, "gap-certify": _gap_problems,
               "condexp-check": _condexp_problems, "flow-check": _flow_problems,
               "model-info": _model_info_problems}


def report_problems(config: dict, report: dict, reference: dict | None) -> list:
    """Everything wrong with one task's report; empty when it passes."""
    problems = [] if report.get("certified") is True else ["report not certified"]
    try:
        if reference is not None:
            problems += _differences(report, reference[config["output_prefix"]])[:3]
        problems += _INVARIANTS[config["task"]](config, report)
    except (KeyError, TypeError, ValueError) as err:
        problems.append(f"malformed report: {type(err).__name__}: {err}")
    return problems


def task_problems(config: dict, rc: int, out_dir: Path, reference: dict | None) -> list:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = load_report(out_dir, config["output_prefix"])
    except (OSError, json.JSONDecodeError) as err:
        return [f"unreadable report: {err}"]
    return report_problems(config, report, reference)


def _perturbations(config: dict, report: dict):
    """(label, perturbed report) pairs that a correct checker must reject."""
    p = copy.deepcopy(report)
    task = config["task"]
    if task == "lr-certify":
        res = p["result"]
        res["bound"][-1] = res["measured"][-1] / 2
        yield "bound below measured", p
        q = copy.deepcopy(report)
        q["result"]["measured"][-1] += 1e-8
        if free_fermion_norms(config, report["result"]["times"]) is not None:
            yield "measured value +1e-8", q
    elif task == "gap-certify":
        p["certificate"]["bound"] = p["certificate"]["exact_gap"] * 1.01
        yield "gap bound above exact gap", p
    elif task == "condexp-check":
        key = sorted(p["defects"])[0]
        p["defects"][key] = 10 * config["tol"]
        yield "defect above tol", p
    elif task == "flow-check":
        p["max_defect"] = 10 * config["flow"]["defect_target"]
        yield "flow defect above target", p
    elif task == "model-info":
        p["model"]["frustration_free"] = False
        yield "frustrated model", p


def self_check(configs: list, out_dir: Path, reference: dict | None) -> tuple:
    """Checks perturbed copies of passing reports.

    Returns (perturbed runs attempted, perturbed runs rejected, labels that
    slipped through).  The checker is sound only if every one is rejected.
    """
    attempted = rejected = 0
    missed = []
    for config in configs:
        report = load_report(out_dir, config["output_prefix"])
        for label, perturbed in _perturbations(config, report):
            attempted += 1
            if report_problems(config, perturbed, reference):
                rejected += 1
            else:
                missed.append(f"{config['output_prefix']}: {label}")
    return attempted, rejected, missed
