#!/usr/bin/env python3
"""Sweep all six built-in robots in one mode and summarize recovery.

    python scripts/sweep_builtins.py --mode oracle-fk
    python scripts/sweep_builtins.py --mode learned --out results/
    python scripts/sweep_builtins.py --mode learned --seeds 0-9,303 \
        --duration 20 --epochs 20 --sensors-per-link 1 --out results/

``--seeds`` takes comma-separated seeds and inclusive ranges ``A-B``; every
robot runs on every seed, and the last line names the runs that missed.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bodyschema.pipeline import ExperimentManifest, run_pipeline
from bodyschema.robots import BUILTIN_NAMES

# the run's stages whose wall times (s) are printed and summarized
STAGES = ("simulate", "train_extract", "extract_translate")


def parse_seeds(text: str) -> list[int]:
    """'0-9,303' -> [0, 1, ..., 9, 303]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("oracle-fk", "learned"), default="oracle-fk")
    parser.add_argument("--seeds", type=parse_seeds, default=[0])
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--sensors-per-link", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k in ("duration", "epochs", "sensors_per_link") and v is not None
    }

    rows = []
    start = time.perf_counter()
    for seed in args.seeds:
        for name in BUILTIN_NAMES:
            manifest = ExperimentManifest(robot=name, mode=args.mode, seed=seed, **overrides)
            if args.out:
                manifest.out_dir = str(Path(args.out) / name / str(seed))
            report = run_pipeline(manifest)
            rows.append((f"{name}/{seed}", report))
            stages = " ".join(f"{k}={report.timings[k]:.3f}s" for k in STAGES)
            print(
                f"{name}/{seed}: exact={report.exact_match} "
                f"hamming={report.hamming_to_truth} delta={report.delta_used:.3f} "
                f"purity={report.cluster_purity:.2f} corrected={report.corrected} "
                f"completed={report.completed} {stages}"
            )
    elapsed = time.perf_counter() - start
    missed = [run for run, r in rows if not r.exact_match]
    print(f"\n{len(rows) - len(missed)}/{len(rows)} recovered exactly in {elapsed:.2f}s")
    print("missed: " + (" ".join(missed) or "none"))
    if args.out:
        summary = {
            run: {
                "exact_match": r.exact_match,
                "hamming": r.hamming_to_truth,
                "delta": r.delta_used,
                "purity": r.cluster_purity,
                "timings": {k: r.timings[k] for k in STAGES},
            }
            for run, r in rows
        }
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0 if not missed else 1


if __name__ == "__main__":
    sys.exit(main())
