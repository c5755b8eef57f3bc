#!/usr/bin/env python3
"""Fixed-work benchmark of body-schema recovery.

    python3 schemabench/run.py --workload oracle --seed 0 --seconds 30 --trace 0
    python3 schemabench/run.py --workload all --seed 0

Each run makes the workload's item list from ``--seed``, runs every item
through the program from ``src/`` in this process, checks every output with
the benchmark's own checks, and prints one line per metric followed, as the
last line, by a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same items with the per-module trace installed and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn, each in
its own process.  Result and trace files go to ``schemabench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOADS = ("learned", "oracle", "repair")
STAGES = ("simulate", "train_extract", "extract_translate")


def load_program() -> float:
    """Import the program from this checkout's ``src/`` and build the robot
    specs; returns the set-up time.  The import happens once per process, so
    only the spec build is repeated and its median taken."""
    src = ROOT / "src"
    if not (src / "bodyschema" / "__init__.py").is_file():
        raise SystemExit(f"schemabench: no program source at {src}")
    sys.path.insert(0, str(src))
    from bodyschema import robots

    imported = time.perf_counter() - _START
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        for name in robots.BUILTIN_NAMES:
            robots.builtin_robot(name)
        builds.append(time.perf_counter() - t)
    return imported + statistics.median(builds)


def run_items(items, rounds, tracer=None):
    """Run whole rounds of the item list; returns per-item records, the wall
    time of the whole list, CPU seconds and the summed stage timings."""
    records = []
    stages = dict.fromkeys(STAGES, 0.0)
    pipeline_items = 0
    cpu0 = os.times()
    wall0 = time.perf_counter()
    for _ in range(rounds):
        for item in items:
            if tracer is not None:
                tracer.item = item.label
            t = time.perf_counter()
            try:
                out = item.call()
            except Exception:  # an item that raises is a failed item
                traceback.print_exc()
                out = None
            elapsed = time.perf_counter() - t
            ok = out is not None and item.check(out)
            records.append((item.label, elapsed, ok, item.known_fault))
            timings = getattr(out, "timings", None)
            if timings is not None:
                pipeline_items += 1
                for stage in STAGES:
                    stages[stage] += timings[stage]
    wall = time.perf_counter() - wall0
    cpu1 = os.times()
    cpu = sum(cpu1[i] - cpu0[i] for i in range(4))  # user, sys, children's
    if pipeline_items:
        stages = {k: v / pipeline_items for k, v in stages.items()}
    return records, wall, cpu, stages


def peak_rss_mb() -> float:
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def run_one(args) -> dict:
    setup_s = load_program()
    import workloads

    items = workloads.make_items(args.workload, args.seed)
    rounds = workloads.ROUNDS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer:
            records, wall, cpu, stages = run_items(items, rounds, tracer)
    else:
        records, wall, cpu, stages = run_items(items, rounds)

    times = [r[1] for r in records]
    failed = [r for r in records if not r[2]]
    item_ms_p50 = statistics.median(times) * 1e3
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (len(records) / wall, "1/s"),
            "item_ms_p50": (item_ms_p50, "ms"),
            "cpu_ms_per_item": (cpu * 1e3 / len(records), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = tracer.metrics()
        for stage in STAGES:
            metrics[f"pipeline.stage.{stage}.s"] = (stages[stage], "s")
        metrics["traced.item_ms_p50"] = (item_ms_p50, "ms")
    result = {
        "correct": all(r[3] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        rounds=rounds,
        wall_s=wall,
        nproc=os.cpu_count(),
        blas_env={
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        items=[
            {"label": lab, "ms": t * 1e3, "ok": ok, "known_fault": kf}
            for lab, t, ok, kf in records
        ],
    )
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.to_json_dict()))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  attempted = {len(records)}  failed = {len(failed)}")
    for label, _, _, known in failed:
        print(f"{args.workload}  failed item {label}{' (known fault)' if known else ''}")
    return result


def run_all(args) -> dict:
    """Every workload in turn, each in a fresh process so that set-up time
    and peak memory are its own."""
    results = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"schemabench: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=int, default=30,
        help="run length, accepted for the common benchmark interface; every "
        "workload does a fixed amount of work, so it does not change what a run does",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    result = run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
