"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload tcp_hot --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` measures the workload untraced and prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` makes the separate
traced run (``traced.py``) and prints the per-layer metrics.  The last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run's environment and the
checks that make a run valid.  Scratch files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fp:
        return json.load(fp)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a checkout holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads

    spec = load_spec(root)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    try:
        if args.trace:
            import traced

            result = traced.run(root, args.workload, args.seed, args.seconds)
            wanted = spec["per_layer"]
        else:
            run = workloads.WORKLOADS[args.workload]
            result = run(root, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench_out",
                                   f"{args.workload}-{args.seed}"),
                      ignore_errors=True)
    names = [metric["name"] for metric in wanted]
    if sorted(result["metrics"]) != sorted(names):
        print(f"error: the run measured {sorted(result['metrics'])}, "
              f"BENCHMARK.json names {sorted(names)}", file=sys.stderr)
        return 1
    metrics = {}
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    env.update(result.get("validity", {}))
    print(json.dumps({"run": env, "reasons": result.get("reasons", [])}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
