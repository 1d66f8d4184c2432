"""One benchmark repeat in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --out DIR [--trace FILE]
    python3 perfbench/child.py --probe

The first thing this script does is import ``fermicert.cli``; the monotonic
time right after it marks the end of set-up (the parent reads the clock
just before it spawns the process).  ``--probe`` stops there.  Otherwise
the workload's configs run through ``cli.run`` and the last stdout line is
a JSON record of the per-task exit codes and times, the peak RSS and the
term-cache counters.

With ``--trace`` numpy and scipy are loaded first and the tracer hooks the
package imports, so import spans time only fermicert's own module bodies;
then it wraps the package, and the spans are written to FILE at the end.
The set-up time of a traced repeat is not used.
"""

import sys
import time

if "--trace" in sys.argv:
    import numpy.linalg  # noqa: F401
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    import tracer

    TRACER = tracer.Tracer()
    TRACER.hook_imports()

import fermicert.cli  # noqa: E402

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from fermicert import dynamics  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--trace")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"imported": IMPORTED}))
        return

    if args.trace:
        TRACER.install()
    tasks = []
    for config in workloads.configs(args.workload, args.seed):
        t0 = time.perf_counter()
        rc = fermicert.cli.run(config, args.out)
        tasks.append({"prefix": config["output_prefix"], "rc": rc,
                      "wall_s": time.perf_counter() - t0})
    record = {
        "imported": IMPORTED,
        "tasks": tasks,
        "wall_s": sum(t["wall_s"] for t in tasks),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "term_cache": dynamics._embedded_sparse.cache_info()._asdict(),
    }
    if args.trace:
        TRACER.write(args.trace)
        record["trace"] = TRACER.summary()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
