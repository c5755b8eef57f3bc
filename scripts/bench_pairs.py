#!/usr/bin/env python3
"""Alternated parent/change pairs of the fixed-work benchmark.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --workloads learned oracle repair --seeds $(seq 700 709) \\
        --trace-seed 0 --out BENCH_name.json

PARENT_DIR and CHANGE_DIR are two checkouts.  For each seed, in turn, every
workload runs ``python3 schemabench/run.py --workload W --seed S`` once from
each checkout, the parent first on even pair indices and the change first on
odd ones.  The last line of each run's output is its JSON result.  The file
written holds every run's metrics and ``failed`` count and, per workload and
end-to-end metric, both sides' quartiles, the change's wins and the relative
change of the medians; a metric's direction is the one ``BENCHMARK.json``
declares.  With ``--trace-seed`` each side also makes one ``--trace 1`` run
of every workload on that seed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUNNER = "schemabench/run.py"


def run_bench(checkout, workload: str, seed: int, trace: int = 0) -> dict:
    """One benchmark run from ``checkout``; its JSON result line."""
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Quartiles of both sides, the pairs the change wins (ties count for
    neither side) and the change of the median relative to the parent's.
    ``beyond_parent_iqr`` is whether the medians differ by more than the
    distance between the parent's quartiles."""
    sign = 1.0 if better == "higher" else -1.0
    p_q, c_q = (statistics.quantiles(x, n=4, method="inclusive") for x in (parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent_q1_med_q3": [round(v, 4) for v in p_q],
        "change_q1_med_q3": [round(v, 4) for v in c_q],
        "change_wins": f"{wins}/{len(parent)}",
        "median_change_rel": round(c_q[1] / p_q[1] - 1.0, 4),
        "beyond_parent_iqr": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0],
    }


def machine() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    model = next(
        (line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")),
        platform.machine(),
    )
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return (
        f"{os.cpu_count()} CPUs ({model}), {memory:.0f} GiB, "
        f"Python {platform.python_version()}, "
        f"NumPy {numpy.__version__}, {blas['name']} {blas.get('version', '')}, "
        f"thread variables {threads or 'unset'}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {w: {side: [] for side in sides} for w in args.workloads}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                result = run_bench(sides[side], workload, seed)
                runs[workload][side].append(result)
                print(
                    f"pair {i} seed {seed} {workload} {side}: items_per_s "
                    f"{result['metrics']['items_per_s']['value']:.4g}",
                    file=sys.stderr, flush=True,
                )

    doc = {
        "machine": machine(),
        "command": (
            f"python3 {RUNNER} --workload <w> --seed <n>, parent and change "
            "alternated (parent first on even pair index), each workload in turn "
            "for each seed; each side from its own checkout (named by its directory)"
        ),
        "parent": sides["parent"].name,
        "change": sides["change"].name,
        "workloads": {},
        "summary": {},
    }
    for workload, by_side in runs.items():
        entry = {
            "seeds": args.seeds,
            "first": ["parent-first" if i % 2 == 0 else "change-first"
                      for i in range(len(args.seeds))],
        }
        for side, results in by_side.items():
            entry[side] = {
                "failed": [r["failed"] for r in results],
                "attempted": results[0]["attempted"],
                "metrics": {
                    name: [r["metrics"][name]["value"] for r in results] for name in better
                },
            }
        doc["workloads"][workload] = entry
        doc["summary"][workload] = {
            name: summarize(
                entry["parent"]["metrics"][name], entry["change"]["metrics"][name], how
            )
            for name, how in better.items()
        }
    if args.trace_seed is not None:
        doc["trace"] = {}
        for workload in args.workloads:
            doc["trace"][workload] = {}
            for side, checkout in sides.items():
                result = run_bench(checkout, workload, args.trace_seed, trace=1)
                doc["trace"][workload][side] = {
                    "command": (
                        f"python3 {RUNNER} --workload {workload} "
                        f"--seed {args.trace_seed} --trace 1"
                    ),
                    "failed": result["failed"],
                    "attempted": result["attempted"],
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
