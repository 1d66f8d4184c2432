"""fermicert benchmark: the shipped CLI tasks on configs made from a seed.

    python3 perfbench/run.py --workload lightcone --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed N]   # every workload, both modes;
                                                # rewrites BENCHMARK.json
    python3 perfbench/run.py --write-reference  # rewrites reference.json

Run from the repository root; the package is imported from ``src/``.
Every repeat runs in a fresh interpreter with one BLAS thread, so the
package's caches start empty and peak RSS is per repeat.

``--trace 0`` spawns set-up probes, then repeats the workload for at most
``--seconds`` and reports the end-to-end medians.  ``wall_s`` is scaled by
a reference kernel timed between the repeats (see NOTES.md); the unscaled
median is printed too.  ``--trace 1`` runs the
workload untraced, traced and untraced again, then the size sweep, and
reports the per-layer metrics.  Every task run of both modes is checked
(verify.py); a failed check counts in ``failed`` and makes ``correct``
false.  The last stdout line is the JSON result; the lines before it give
the environment, the sample counts and quartiles, and the fail ratio.  A
fuller record of the run goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"      # before numpy loads, here and in every child

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

RUN_SECONDS = 25
DEADLINE_S = 170.0      # a run must end within 180 s
PROBES = 2              # set-up probes per run, after one warm-up probe
REFERENCE_KERNEL_S = 0.1    # wall_s is scaled to a host where the kernel takes this

WHY = {
    "lightcone": "lr-certify on the 8-site hopping chain, static and ramped: eigh per "
                 "grid point and per midpoint step, op_norm; the term cache mostly hits",
    "spectral": "gap-certify on flat-band, Kitaev and overlap chains plus model-info: "
                "martingale op_norm SVDs, kernel projections, whole-chain embeds",
    "transport": "flow-check rotation: every probed parameter rebuilds all terms, so "
                 "fock.embed dominates and the term cache never hits",
    "condexp": "condexp-check: dense full-support operators embedded into 8 sites "
               "and projected onto subsets; the only cond_exp workload",
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

LAYERS = ("fock", "geometry", "dynamics", "lr_bounds", "cond_exp", "gap", "models",
          "cli", "lapack")
COUNTED = ("fock.embed", "fock.op_norm", "dynamics.local_hamiltonian",
           "dynamics.propagate", "lapack.eigh", "lapack.eigvalsh", "lapack.svd")
SWEPT = ("fock.embed_term_s", "fock.project_support_s", "dynamics.assemble_H_s",
         "dynamics.static_diag_s", "dynamics.midpoint_step_s",
         "dynamics.heisenberg_bracket_norm_s", "cond_exp.sweep_s",
         "gap.kernel_projection_s", "gap.flow_substep_s")
PER_LAYER = (
    [{"name": f"{layer}.self_s", "unit": "s", "better": "lower"} for layer in LAYERS]
    + [{"name": f"{span}.calls", "unit": "count", "better": "lower"} for span in COUNTED]
    + [{"name": "dynamics.term_cache.hit_ratio", "unit": "ratio", "better": "higher"},
       {"name": "trace.overhead_s", "unit": "s", "better": "lower"}]
    + [{"name": f"{name}.L{L}", "unit": "s", "better": "lower"}
       for L in (6, 8, 10) for name in SWEPT]
    + [{"name": f"gap.martingale_s.L{L}", "unit": "s", "better": "lower"} for L in (6, 8)]
)


def spec() -> dict:
    """The contents of BENCHMARK.json."""
    return {"command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
            "run_seconds": RUN_SECONDS,
            "workloads": [{"name": w, "why": WHY[w]} for w in workloads.WORKLOADS],
            "end_to_end": END_TO_END, "per_layer": PER_LAYER}


class Run:
    """Children, samples and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, reference: dict | None):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.configs = workloads.configs(workload, seed)
        self.started = time.monotonic()
        self.attempted = self.failed = 0
        self.problems = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))

    def child(self, script: str, *args: str) -> tuple:
        """(last stdout line as JSON or None, monotonic time at spawn)."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{script} {' '.join(args)}: over the run deadline")
            return None, t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.problems.append(f"{script} exited {proc.returncode}: {proc.stderr[-500:]}")
            return None, t0
        return json.loads(lines[-1]), t0

    def repeat(self, tag: str, trace: str | None = None) -> dict | None:
        """One fresh-interpreter repeat of the workload, with its outputs checked."""
        out = self.workdir / tag
        args = ["--workload", self.workload, "--seed", str(self.seed), "--out", str(out)]
        record, t0 = self.child("child.py", *args, *(["--trace", trace] if trace else []))
        self.attempted += len(self.configs)
        if record is None:
            self.failed += len(self.configs)
            return None
        record["setup_s"] = record["imported"] - t0
        record["out"] = out
        for config, task in zip(self.configs, record["tasks"]):
            problems = verify.task_problems(config, task["rc"], out, self.reference)
            if problems:
                self.failed += 1
                self.problems.append(f"{tag} {config['output_prefix']}: {problems}")
        return record

    def self_check(self, record: dict | None) -> dict:
        """Perturbed copies of the first passing outputs must all be rejected."""
        if record is None or self.failed:
            return {"attempted": 0, "rejected": 0, "missed": ["no passing outputs"]}
        attempted, rejected, missed = verify.self_check(self.configs, record["out"],
                                                        self.reference)
        if missed:
            self.problems.append(f"self-check: perturbations passed: {missed}")
        return {"attempted": attempted, "rejected": rejected, "missed": missed}


def reference_kernel_s() -> float:
    """Seconds for a fixed kernel that does not touch fermicert: complex
    Hermitian eigh calls and a Python loop over small integer arrays, the
    two kinds of work the workloads do."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    h = m + m.conj().T
    cols = np.arange(256)
    t0 = time.perf_counter()
    for _ in range(8):
        np.linalg.eigh(h)
    acc = 0
    for y in range(8000):
        acc += int((((cols >> (y % 8)) & 1) * y).sum())
    return time.perf_counter() - t0


def end_to_end(run: Run, seconds: float) -> tuple:
    run.child("child.py", "--probe")                 # warm-up: bytecode, page cache
    setup = []
    for _ in range(PROBES):
        record, t0 = run.child("child.py", "--probe")
        if record is not None:
            setup.append(record["imported"] - t0)
    records = []
    kernel = [reference_kernel_s()]
    begin = time.monotonic()
    while True:
        records.append(run.repeat(f"rep{len(records)}"))
        kernel.append(reference_kernel_s())
        per_repeat = (time.monotonic() - begin) / len(records)
        if (time.monotonic() - begin + per_repeat > seconds
                or time.monotonic() - run.started + per_repeat > DEADLINE_S - 10):
            break
    done = [r for r in records if r is not None]
    checked = run.self_check(records[0])
    # The host's speed drifts by up to +-25% over tens of seconds; the
    # reference kernel, timed between the repeats, tracks that drift.
    scale = REFERENCE_KERNEL_S / statistics.median(kernel)
    samples = {
        "wall_s": [r["wall_s"] * scale for r in done],
        "setup_s": setup + [r["setup_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_kb"] * 1024 / 1e6 for r in done],
    }
    extra = {"raw_wall_s": [r["wall_s"] for r in done], "kernel_s": kernel,
             "task_wall_s": [r["tasks"] for r in done]}
    return samples, checked, extra


def per_layer(run: Run) -> tuple:
    trace_file = OUT / f"trace-{run.workload}-seed{run.seed}.json"
    before = run.repeat("untraced0")
    traced = run.repeat("traced", trace=str(trace_file))
    after = run.repeat("untraced1")
    checked = run.self_check(traced)
    sweep, _ = run.child("sweep.py")
    run.attempted += 1
    if sweep is None or sweep["problems"]:
        run.failed += 1
        run.problems += sweep["problems"] if sweep else []
    if None in (before, traced, after) or sweep is None:
        return None, checked, {}
    summary = traced["trace"]
    cache = traced["term_cache"]
    lookups = cache["hits"] + cache["misses"]
    values = {f"{layer}.self_s": summary["self_s"][layer] for layer in LAYERS}
    values.update({f"{span}.calls": summary["calls"].get(span, 0) for span in COUNTED})
    values["dynamics.term_cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["trace.overhead_s"] = summary["overhead_s"]
    values.update(sweep["metrics"])
    extra = {"untraced_wall_s": [before["wall_s"], after["wall_s"]],
             "traced_wall_s": traced["wall_s"], "term_cache": cache,
             "calls": summary["calls"], "trace_file": str(trace_file)}
    return {name: [value] for name, value in values.items()}, checked, extra


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "seed": seed}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One benchmark run; prints its report lines and returns the result
    object, or None when no sample could be taken."""
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = verify.load_reference()["reports"]
    run = Run(workload, seed, reference)
    declared = PER_LAYER if trace else END_TO_END
    try:
        samples, checked, extra = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if samples is None or any(not samples[m["name"]] for m in declared):
        print("\n".join(run.problems), file=sys.stderr)
        return None

    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
               for m in declared}
    env = environment(seed)
    print(json.dumps({"environment": env}))
    for name, metric in metrics.items():
        values = samples[name]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{workload:10s} {name:40s} {metric['value']:<12.6g} {metric['unit']:6s} "
              f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}")
    if trace:
        overhead = extra["traced_wall_s"] - statistics.mean(extra["untraced_wall_s"])
        print(f"{workload:10s} traced minus untraced wall: {overhead:.4f} s")
    else:
        print(f"{workload:10s} unscaled wall_s {statistics.median(extra['raw_wall_s']):.6g} s; "
              f"reference kernel {statistics.median(extra['kernel_s']):.6g} s "
              f"(median of {len(extra['kernel_s'])})")
    print(f"{workload:10s} fail_ratio {run.failed}/{run.attempted} task runs; self-check "
          f"rejected {checked['rejected']}/{checked['attempted']} perturbed reports")
    for problem in run.problems:
        print(f"problem: {problem}")
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env,
              "samples": samples, "details": extra, "self_check": checked,
              "problems": run.problems, "result": result}
    with open(OUT / f"last-{workload}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def write_reference() -> int:
    """Record the default-seed reports, after they pass every invariant."""
    reports = {}
    for name in workloads.WORKLOADS:
        run = Run(name, workloads.DEFAULT_SEED, None)
        try:
            record = run.repeat("reference")
            if record is None or run.failed:
                print("\n".join(run.problems), file=sys.stderr)
                return 1
            for config in run.configs:
                prefix = config["output_prefix"]
                reports[prefix] = verify.load_report(record["out"], prefix)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
    with open(verify.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "reports": reports}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermicert" / "cli.py").is_file():
        print(f"perfbench: no fermicert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()
    if args.all:
        results = []
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                results.append(bench(name, args.seed, args.seconds, trace))
                print(json.dumps(results[-1]))
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0 if all(r is not None and r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = bench(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
