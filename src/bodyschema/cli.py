"""Command-line surface: each pipeline stage as a subcommand over files,
plus ``run`` for the fused pipeline driven by a manifest.

Exit codes: 0 success, 2 malformed input file, 3 matrix not translatable or
completable, or no sensor row survived, 4 diverged training.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import chain, extraction, pose_net, robots
from . import topology as tp
from .completion import complete, fresh_labels, is_unique_completion
from .correction import correct_partial, hamming, trellis_correct
from .errors import (
    DegenerateSensorError,
    NotATreeError,
    NotCompletableError,
    SchemaError,
    TrainingDivergedError,
)
from .pipeline import (
    ExperimentManifest,
    _extraction_thetas,
    jacobian_fns,
    load_manifest,
    net_file,
    run_pipeline,
    sensor_features,
    simulate,
    train_sensor,
)

EXIT_SCHEMA = 2
EXIT_NOT_A_TREE = 3
EXIT_DIVERGED = 4


def _load_matrix(path) -> tp.DependencyMatrix:
    try:
        with open(path) as f:
            return tp.DependencyMatrix.from_json_dict(json.load(f))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _manifest(args, manifest: ExperimentManifest | None = None) -> ExperimentManifest:
    """``manifest`` (default: all defaults) with every given flag whose dest
    is a manifest field copied over; ``--gravity on|off`` becomes a bool.
    The result is checked like a manifest file."""
    if manifest is None:
        manifest = ExperimentManifest()
    for name, value in vars(args).items():
        if name in ExperimentManifest.__dataclass_fields__ and value is not None:
            setattr(manifest, name, value == "on" if name == "gravity" else value)
    manifest._check_values()
    return manifest


def _load_trajectory(path, spec: chain.RobotSpec, sensors=()) -> chain.Trajectory:
    """The trajectory file at ``path``, checked to be over the spec's joints
    and to carry ``sensors``."""
    traj, meta = chain.load_trajectory(path)
    if meta["joints"] != list(spec.joint_order):
        raise SchemaError(
            f"trajectory file {path} is over joints {meta['joints']}, "
            f"not the spec's {list(spec.joint_order)}"
        )
    missing = [sid for sid in sensors if sid not in traj.sensor_ids]
    if missing:
        raise SchemaError(f"trajectory file {path} lacks sensor(s) {', '.join(missing)}")
    return traj


def cmd_generate(args) -> int:
    manifest = _manifest(args)
    spec = robots.builtin_robot(manifest.robot, sensors_per_link=manifest.sensors_per_link)
    chain.save_robot(spec, args.out)
    print(f"wrote {args.out}: {args.robot} with {len(spec.sensor_ids)} sensors")
    return 0


def cmd_simulate(args) -> int:
    spec = chain.load_robot(args.spec)
    traj = simulate(spec, _manifest(args))
    chain.save_trajectory(traj, spec, args.out)
    print(f"wrote {args.out}: {len(traj)} samples at {args.rate} Hz")
    return 0


def cmd_train(args) -> int:
    spec = chain.load_robot(args.spec)
    manifest = _manifest(args)
    sensors = [args.sensor] if args.sensor else list(spec.sensor_ids)
    traj = _load_trajectory(args.traj, spec, sensors)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for sid in sensors:
        result = train_sensor(spec, traj, sid, manifest)
        path = net_file(args.out_dir, sid)
        pose_net.save_net(result.net, path)
        print(f"{sid}: final loss {result.final_loss:.4f} -> {path}")
    return 0


def cmd_extract(args) -> int:
    spec = chain.load_robot(args.spec)
    manifest = _manifest(args)
    manifest.mode = "learned" if args.nets_dir else "oracle-fk"
    traj = nets = None
    if args.nets_dir:
        if not args.traj:
            raise SchemaError("--nets-dir requires --traj to sample configurations")
        traj = _load_trajectory(args.traj, spec)
        nets = {
            sid: pose_net.load_net(net_file(args.nets_dir, sid))
            for sid in spec.sensor_ids
        }
    # the same sampling rule as ``run`` for this seed and mode
    thetas = _extraction_thetas(spec, traj, manifest)
    dprimes, skipped = sensor_features(
        jacobian_fns(spec, nets), thetas, spec.sensor_ids
    )
    for sid in skipped:
        print(f"skipped degenerate sensor {sid}", file=sys.stderr)
    # one row per sensor at the fixed threshold, without clustering
    labels = sorted(dprimes)
    features = [extraction.threshold(dprimes[sid], manifest.delta) for sid in labels]
    matrix = extraction.build_matrix(features, labels, spec.joint_order)
    _write_json(args.out, matrix.to_json_dict())
    print(f"wrote {args.out}: {matrix.shape[0]}x{matrix.shape[1]} at delta={args.delta}")
    return 0


def cmd_to_tree(args) -> int:
    matrix = _load_matrix(args.matrix)
    tree = tp.matrix_to_tree(matrix)
    if args.out_json:
        _write_json(args.out_json, tree.to_json_dict())
    if args.out_dot:
        Path(args.out_dot).write_text(tree.to_dot())
    print(tree.to_dot())
    return 0


def _require_not_tall(matrix: tp.DependencyMatrix, path) -> None:
    k, n = matrix.shape
    if k > n:
        raise NotATreeError(f"{path}: {k} rows but only {n} columns")


def _fresh_row_labels(matrix: tp.DependencyMatrix, given: str | None) -> list[str]:
    """The ``--labels`` list, checked to name each missing row once and no
    observed row; without it, ``u1, u2, ...`` skipping observed labels."""
    missing = matrix.shape[1] - matrix.shape[0]
    if not given:
        return fresh_labels(matrix.row_labels, missing)
    labels = given.split(",")
    if len(labels) != missing or len(set(labels)) != len(labels):
        raise SchemaError(
            f"--labels must name the {missing} missing row(s) once each, got {given!r}"
        )
    taken = sorted(set(labels) & set(matrix.row_labels))
    if taken:
        raise SchemaError(f"--labels repeats observed row(s) {', '.join(taken)}")
    return labels


def cmd_complete(args) -> int:
    matrix = _load_matrix(args.matrix)
    _require_not_tall(matrix, args.matrix)
    labels = _fresh_row_labels(matrix, args.labels)
    unique = is_unique_completion(matrix)
    full = complete(matrix, labels, seed=args.seed)
    _write_json(args.out, full.to_json_dict())
    print(f"wrote {args.out} (unique filling: {unique})")
    return 0


def cmd_correct(args) -> int:
    matrix = _load_matrix(args.matrix)
    _require_not_tall(matrix, args.matrix)
    k, n = matrix.shape
    result = correct_partial(matrix) if k < n else trellis_correct(matrix)
    _write_json(args.out, result.to_json_dict())
    print(
        f"wrote {args.out}: {len(result.candidates)} candidate(s) "
        f"at distance {result.distance}"
    )
    return 0


def cmd_compare(args) -> int:
    a = _load_matrix(args.matrix_a)
    b = _load_matrix(args.matrix_b)
    try:
        dist = hamming(a, b)
    except ValueError as exc:
        print(f"not comparable: {exc}")
        return EXIT_SCHEMA
    match = a == b
    print(f"hamming: {dist}")
    print(f"exact match: {match}")
    return 0


def cmd_run(args) -> int:
    manifest = _manifest(args, load_manifest(args.manifest) if args.manifest else None)
    report = run_pipeline(manifest)
    print(json.dumps(
        {
            "robot": manifest.robot,
            "mode": manifest.mode,
            "delta_used": report.delta_used,
            "exact_match": report.exact_match,
            "structure_match": report.structure_match,
            "hamming_to_truth": report.hamming_to_truth,
            "cluster_purity": report.cluster_purity,
            "completed": report.completed,
            "corrected": report.corrected,
            "timings": {k: round(v, 2) for k, v in report.timings.items()},
        },
        indent=1,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodyschema",
        description="Recover an open-chain robot's body topology from "
        "on-body inertial sensing and joint encoders",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a built-in robot spec")
    p.add_argument("--robot", default="robot1", choices=robots.BUILTIN_NAMES)
    p.add_argument("--sensors-per-link", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="sample a trajectory with measurements")
    p.add_argument("--spec", required=True)
    p.add_argument("--trajectory-mode", default="sinusoidal",
                   choices=("sinusoidal", "smooth_random"))
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-alpha", type=float, default=0.0)
    p.add_argument("--sigma-beta", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train per-sensor pose nets")
    p.add_argument("--spec", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--sensor", help="train a single sensor (default: all)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--learning-rate", type=float, default=0.01)
    p.add_argument("--width", type=int, default=64, dest="hidden_width")
    p.add_argument("--rate", type=float, default=100.0)
    p.add_argument("--gravity", choices=("on", "off"), default="on")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract a dependency matrix")
    p.add_argument("--spec", required=True)
    p.add_argument("--traj", help="required with --nets-dir")
    p.add_argument("--nets-dir", help="trained nets; omit to use the analytic oracle")
    p.add_argument("--theta-samples", type=int, default=64)
    p.add_argument("--delta", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("to-tree", help="translate a matrix file to a tree")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out-json")
    p.add_argument("--out-dot")
    p.set_defaults(func=cmd_to_tree)

    p = sub.add_parser("complete", help="fill a partial matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", help="comma-separated fresh row labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("correct", help="repair a contradictory matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("compare", help="compare two matrix files")
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="fused pipeline from a manifest")
    p.add_argument("--manifest")
    p.add_argument("--robot")
    p.add_argument("--mode", choices=("learned", "oracle-fk"))
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--delta", type=float)
    p.add_argument("--gravity", choices=("on", "off"))
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (NotATreeError, NotCompletableError) as exc:
        report = getattr(exc, "report", None)
        detail = f" (failed conditions: {report.failed()})" if report else ""
        print(f"invalid topology: {exc}{detail}", file=sys.stderr)
        return EXIT_NOT_A_TREE
    except DegenerateSensorError as exc:
        print(f"no sensor row: {exc}", file=sys.stderr)
        return EXIT_NOT_A_TREE
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
