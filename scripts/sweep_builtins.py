#!/usr/bin/env python3
"""Sweep all six built-in robots in one mode and summarize recovery.

    python scripts/sweep_builtins.py --mode oracle-fk
    python scripts/sweep_builtins.py --mode learned --out results/
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("oracle-fk", "learned"), default="oracle-fk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = []
    start = time.perf_counter()
    for name in BUILTIN_NAMES:
        manifest = ExperimentManifest(robot=name, mode=args.mode, seed=args.seed)
        if args.duration is not None:
            manifest.duration = args.duration
        if args.out:
            manifest.out_dir = str(Path(args.out) / name)
        report = run_pipeline(manifest)
        rows.append((name, report))
        stages = " ".join(f"{k}={report.timings[k]:.3f}s" for k in STAGES)
        print(
            f"{name}: exact={report.exact_match} "
            f"hamming={report.hamming_to_truth} delta={report.delta_used:.3f} "
            f"purity={report.cluster_purity:.2f} corrected={report.corrected} "
            f"completed={report.completed} {stages}"
        )
    elapsed = time.perf_counter() - start
    exact = sum(1 for _, r in rows if r.exact_match)
    print(f"\n{exact}/{len(rows)} recovered exactly in {elapsed:.2f}s")
    if args.out:
        summary = {
            name: {
                "exact_match": r.exact_match,
                "hamming": r.hamming_to_truth,
                "delta": r.delta_used,
                "purity": r.cluster_purity,
                "timings": {k: r.timings[k] for k in STAGES},
            }
            for name, r in rows
        }
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "summary.json").write_text(json.dumps(summary, indent=1))
    return 0 if exact == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
