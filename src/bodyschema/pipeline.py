"""End-to-end orchestration: simulate a robot, learn (or shortcut via the
analytic oracle) per-sensor pose maps, extract the dependency matrix, repair
it if partial or contradictory, translate it to a tree, and score the result
against the ground truth."""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import chain, extraction, pose_net, robots
from . import topology as tp
from .completion import complete, fresh_labels, is_unique_completion
from .correction import correct_partial, hamming, trellis_correct
from .errors import DegenerateSensorError, SchemaError
from .topology import DependencyMatrix, OutTree, check_conditions


# The values run_pipeline accepts.  Enumerated strings list their choices;
# integer fields give their least value; real fields must be positive or
# non-negative.
_CHOICES = {
    "mode": ("oracle-fk", "learned"),
    "trajectory_mode": ("sinusoidal", "smooth_random"),
}
_INTEGERS = {
    "sensors_per_link": 1,
    "seed": 0,
    "hidden_width": 1,
    "epochs": 0,
    "batch_size": 1,
    "theta_samples": 2,  # tij_aggregate needs two configurations
    "delta_grid_size": 1,
}
_POSITIVE = ("duration", "rate", "learning_rate")
_NON_NEGATIVE = ("sigma_alpha", "sigma_beta", "lam")


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class ExperimentManifest:
    """Everything one run needs; serialized alongside results so any run can
    be reproduced bit-for-bit from its manifest."""

    robot: str = "robot1"  # builtin name or path to a robot JSON
    mode: str = "oracle-fk"  # or "learned"
    sensors_per_link: int = 2
    duration: float = 60.0
    rate: float = 100.0
    trajectory_mode: str = "sinusoidal"
    seed: int = 0
    sigma_alpha: float = 0.05
    sigma_beta: float = 0.01
    gravity: bool = True
    # pose-net training
    hidden_width: int = 64
    epochs: int = 30
    batch_size: int = 128
    learning_rate: float = 0.01
    # extraction
    theta_samples: int = 64
    delta: float | None = None  # fixed threshold; None optimizes it
    delta_grid_size: int = 50
    delta_grid_max: float = 0.5  # beyond 0.5 no depth>=4 feature can survive
    lam: float = 1.0
    # plumbing
    out_dir: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentManifest":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise SchemaError(f"unknown manifest fields: {sorted(unknown)}")
        manifest = cls(**doc)
        manifest._check_values()
        return manifest

    def _check_values(self) -> None:
        """Raise ``SchemaError`` naming the first field whose value the
        pipeline cannot run with."""

        def fail(name, wanted):
            raise SchemaError(
                f"manifest field {name!r} must be {wanted}, got {getattr(self, name)!r}"
            )

        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                fail(name, f"one of {list(choices)}")
        for name, least in _INTEGERS.items():
            value = getattr(self, name)
            if not (_is_real(value) and isinstance(value, int) and value >= least):
                fail(name, f"an integer >= {least}")
        if self.sensors_per_link > robots.MAX_SENSORS_PER_LINK:
            fail("sensors_per_link", f"an integer in 1..{robots.MAX_SENSORS_PER_LINK}")
        for name in _POSITIVE:
            value = getattr(self, name)
            if not (_is_real(value) and value > 0):
                fail(name, "a positive number")
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if not (_is_real(value) and value >= 0):
                fail(name, "a non-negative number")
        if self.delta is not None and not (_is_real(self.delta) and 0 < self.delta < 1):
            fail("delta", "null or a number strictly between 0 and 1")
        if not (_is_real(self.delta_grid_max) and 0 < self.delta_grid_max < 1):
            fail("delta_grid_max", "a number strictly between 0 and 1")
        if not isinstance(self.gravity, bool):
            fail("gravity", "true or false")
        if not isinstance(self.robot, str):
            fail("robot", "a built-in robot name or a path")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            fail("out_dir", "null or a path")


@dataclass
class RunReport:
    manifest: dict
    delta_used: float | None
    exact_match: bool
    structure_match: bool
    hamming_to_truth: int | None
    cluster_purity: float | None
    completed: bool
    unique_completion: bool
    corrected: bool
    candidate_count: int
    skipped_sensors: tuple[str, ...]
    timings: dict[str, float]
    matrix: dict
    tree: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def load_manifest(path) -> ExperimentManifest:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"manifest {path} is not valid JSON: {exc}") from exc
    return ExperimentManifest.from_json_dict(doc)


def _resolve_robot(manifest: ExperimentManifest) -> chain.RobotSpec:
    if manifest.robot in robots.BUILTIN_TOPOLOGIES:
        return robots.builtin_robot(
            manifest.robot, sensors_per_link=manifest.sensors_per_link
        )
    return chain.load_robot(manifest.robot)


def _sensor_seed(base: int, index: int) -> int:
    return (base * 1_000_003 + 7919 * index) % 2**31


def simulate(spec: chain.RobotSpec, manifest: ExperimentManifest) -> chain.Trajectory:
    """The manifest's trajectory, with its measurement noise when a sigma is
    non-zero."""
    traj = chain.gen_trajectory(
        spec,
        mode=manifest.trajectory_mode,
        duration=manifest.duration,
        rate=manifest.rate,
        seed=manifest.seed,
    )
    if manifest.sigma_alpha or manifest.sigma_beta:
        traj = chain.add_noise(
            traj, manifest.sigma_alpha, manifest.sigma_beta, seed=manifest.seed
        )
    return traj


def net_file(directory, sensor_id: str) -> Path:
    """Where a sensor's pose net is stored in a nets directory."""
    return Path(directory) / f"{sensor_id.replace(':', '_')}.json"


def train_sensor(
    spec: chain.RobotSpec,
    traj: chain.Trajectory,
    sensor_id: str,
    manifest: ExperimentManifest,
) -> pose_net.TrainResult:
    cfg = pose_net.TrainConfig(
        learning_rate=manifest.learning_rate,
        epochs=manifest.epochs,
        batch_size=manifest.batch_size,
        seed=_sensor_seed(manifest.seed, spec.sensor_ids.index(sensor_id)),
        ts=1.0 / manifest.rate,
        gravity=manifest.gravity,
        gravity_vector=tuple(spec.gravity),
    )
    dataset = pose_net.SensorDataset.from_samples(traj, sensor_id)
    net = pose_net.init_pose_net(
        spec.n_joints,
        widths=(manifest.hidden_width,) * 3,
        seed=_sensor_seed(manifest.seed + 1, spec.sensor_ids.index(sensor_id)),
    )
    return pose_net.train(net, dataset, cfg)


def _extraction_thetas(spec, traj, manifest: ExperimentManifest) -> np.ndarray:
    """(theta_samples, N) configurations: distinct trajectory rows in time
    order in learned mode, uniform angles in oracle mode."""
    rng = np.random.default_rng(manifest.seed + 2)
    if manifest.mode == "learned":
        # stay on the distribution the nets were trained on
        idx = rng.choice(
            len(traj), size=min(manifest.theta_samples, len(traj)), replace=False
        )
        return traj.theta[np.sort(idx)]
    return rng.uniform(-np.pi, np.pi, (manifest.theta_samples, spec.n_joints))


def jacobian_fns(spec: chain.RobotSpec, nets=None):
    """One callable mapping a (T, N) stack of configurations to ``(sensor_id,
    (T, 12, N) pose Jacobian stack)`` pairs: from the trained pose nets when
    ``nets`` (``{sensor_id: PoseNet}``) is given, else from one walk of the
    analytic oracle over every sensor of ``spec``, in tree order."""
    if nets is None:
        return lambda thetas: chain.analytic_jacobians(spec, thetas)
    return lambda thetas: (
        (sid, pose_net.pose_jacobian(net, thetas)) for sid, net in nets.items()
    )


def sensor_features(jacobians, thetas, sensor_ids):
    """Each sensor's normalized feature ``d'`` over the configurations, and
    the sensors skipped because their aggregated Jacobian is all zero, both
    in ``sensor_ids`` order.  ``jacobians`` is a ``jacobian_fns`` callable;
    each stack is squashed as it arrives.

    Raises ``DegenerateSensorError`` when every sensor is skipped."""
    found: dict[str, np.ndarray] = {}
    degenerate = set()
    for sid, stack in jacobians(thetas):
        try:
            found[sid] = extraction.feature_raw(
                extraction.tij_aggregate(lambda th, stack=stack: stack, thetas)
            )
        except DegenerateSensorError:
            degenerate.add(sid)
    dprimes = {sid: found[sid] for sid in sensor_ids if sid in found}
    skipped = [sid for sid in sensor_ids if sid in degenerate]
    if not dprimes:
        raise DegenerateSensorError(f"every sensor is degenerate: {skipped}")
    return dprimes, skipped


def _majority_label(sensor_ids, spec) -> str:
    links = sorted(spec.sensor_link(s) for s in sensor_ids)
    best = max(set(links), key=lambda l: (links.count(l), l))
    return best


def _assemble_matrix(dprimes: dict[str, np.ndarray], delta, spec, manifest):
    """Threshold, group, reduce and label the per-sensor features.

    Returns the matrix, the cluster purity and the groups of identical rows
    (``None`` outside learned mode, where every sensor keeps its own row)."""
    sensor_ids = sorted(dprimes)
    rows = [extraction.threshold(dprimes[s], delta) for s in sensor_ids]
    if manifest.mode == "learned":
        clusters = extraction.cluster_rows(rows)
        features, labels, members = [], [], []
        for k in extraction.reduce_rows(clusters, spec.n_joints):
            group = [s for s, a in zip(sensor_ids, clusters.assignments) if a == k]
            label = _majority_label(group, spec)
            while label in labels:
                label += "+"
            features.append(clusters.means[k])
            labels.append(label)
            members.append(group)
        purity_num = sum(
            Counter(spec.sensor_link(s) for s in ms).most_common(1)[0][1]
            for ms in members
        )
        purity = purity_num / max(1, sum(len(ms) for ms in members))
    else:
        clusters = None
        features = rows
        labels = list(sensor_ids)
        purity = 1.0
    matrix = extraction.build_matrix(features, labels, spec.joint_order)
    if manifest.mode != "learned":
        relabeled = tuple(
            _majority_label(matrix.merged_groups[r], spec) for r in matrix.row_labels
        )
        if len(set(relabeled)) == len(relabeled):
            matrix = DependencyMatrix(
                relabeled, matrix.col_labels, matrix.values, matrix.merged_groups
            )
    return matrix, purity, clusters


def _candidate(dprimes, delta: float, spec, manifest):
    """The canonical key and separation score of the matrix at ``delta``, or
    ``(None, -inf)`` when all rows form one group, no row is nonzero, or the
    matrix fails the condition set (the partial one when rows are missing)."""
    try:
        matrix, _, clusters = _assemble_matrix(dprimes, delta, spec, manifest)
    except DegenerateSensorError:
        return None, -np.inf
    if clusters.n_clusters < 2:
        return None, -np.inf
    report = check_conditions(matrix)
    full = matrix.shape[0] == spec.n_joints
    if not (report.satisfies_P if full else report.satisfies_Pminus):
        return None, -np.inf
    return matrix.canonical_key(), extraction.separation_score(clusters, manifest.lam)


def _select_delta(dprimes, spec, manifest: ExperimentManifest) -> float:
    """Threshold selection for a full run.

    The separation objective alone cannot rank thresholds here: groups of
    identical rows make every candidate's dispersion zero, and a threshold
    that merely truncates nested rows can even leave a valid tree matrix,
    so the score neither sees the damage nor the repair stage catches it.
    What does distinguish the right threshold is persistence: the true
    matrix survives over the whole gap between the largest spurious entry
    and the weakest genuine one, while truncation artifacts live on thin
    slivers.  So every grid point runs the extraction stage of the full
    run once (``_assemble_matrix``: threshold, group, reduce, label), and
    its matrix is a candidate when the rows form at least two groups and
    the matrix passes downstream consistency (full condition set, or the
    partial one when rows are missing).  Consecutive thresholds yielding
    the identical matrix form a run, and the longest run wins -- the
    separation score of those same groups, then the smaller threshold, as
    tie breaks.  The winning run's first threshold
    is returned.  With nothing valid anywhere the mid-band default 0.3 is
    used.
    """
    if manifest.mode != "learned":
        return 0.3  # oracle features are exact; any mid-band value works
    grid = np.linspace(0.02, manifest.delta_grid_max, manifest.delta_grid_size)
    runs: list[dict] = []  # {key, start, len, score}
    for delta in grid:
        key, score = _candidate(dprimes, float(delta), spec, manifest)
        if key is None:
            runs.append({"key": None, "start": float(delta), "len": 0, "score": score})
        elif runs and runs[-1]["key"] == key:
            runs[-1]["len"] += 1
            runs[-1]["score"] = max(runs[-1]["score"], score)
        else:
            runs.append({"key": key, "start": float(delta), "len": 1, "score": score})
    valid = [r for r in runs if r["key"] is not None]
    if not valid:
        return 0.3
    best = max(valid, key=lambda r: (r["len"], r["score"], -r["start"]))
    return best["start"]


def _repair(matrix: DependencyMatrix, manifest: ExperimentManifest):
    """Completion for missing rows, trellis correction for contradictions."""
    k, n = matrix.shape
    completed = corrected = unique = False
    candidates = 1
    if k < n:
        report = check_conditions(matrix)
        if report.satisfies_Pminus:
            unique = is_unique_completion(matrix)
            fresh = fresh_labels(matrix.row_labels, n - k)
            matrix = complete(matrix, fresh, seed=manifest.seed + 4)
            completed = True
        else:
            result = correct_partial(matrix)
            matrix = result.candidates[0]
            candidates = len(result.candidates)
            corrected = True
    if not check_conditions(matrix).satisfies_P:
        result = trellis_correct(matrix)
        matrix = result.candidates[0]
        candidates = len(result.candidates)
        corrected = True
    return matrix, completed, unique, corrected, candidates


def _edge_parent_map(t: OutTree) -> dict[str, str | None]:
    """Tree structure keyed purely by edge labels (node labels ignored)."""
    out = {}
    for node, (parent, edge) in t.parents.items():
        out[edge] = None if parent is None else t.edge_to(parent)
    return out


def _aligned_hamming(recovered: OutTree, truth: OutTree) -> int | None:
    """Hamming between the trees' matrices after renaming each recovered
    node to the truth node owning the same edge (edges are observed joint
    labels, so this is well-defined whenever the edge sets agree)."""
    if set(recovered.edges) != set(truth.edges):
        return None
    owner = {edge: node for node, (_, edge) in truth.parents.items()}
    renamed = {}
    for node, (parent, edge) in recovered.parents.items():
        new_parent = None if parent is None else owner[recovered.edge_to(parent)]
        renamed[owner[edge]] = (new_parent, edge)
    return hamming(
        tp.tree_to_matrix(OutTree(renamed)), tp.tree_to_matrix(truth)
    )


def run_pipeline(manifest: ExperimentManifest) -> RunReport:
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    spec = _resolve_robot(manifest)
    truth_tree = spec.topology
    timings["generate"] = time.perf_counter() - t0

    # only the learned mode reads a trajectory: the oracle draws its
    # configurations uniformly
    t0 = time.perf_counter()
    traj = simulate(spec, manifest) if manifest.mode == "learned" else None
    timings["simulate"] = time.perf_counter() - t0

    out_dir = Path(manifest.out_dir) if manifest.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        chain.save_robot(spec, out_dir / "robot.json")

    t0 = time.perf_counter()
    thetas = _extraction_thetas(spec, traj, manifest)
    if manifest.mode == "learned":
        nets = {
            sid: train_sensor(spec, traj, sid, manifest).net
            for sid in spec.sensor_ids
        }
        if out_dir:
            (out_dir / "nets").mkdir(exist_ok=True)
            for sid, net in nets.items():
                pose_net.save_net(net, net_file(out_dir / "nets", sid))
    elif manifest.mode == "oracle-fk":
        nets = None
    else:
        raise ValueError(f"unknown mode {manifest.mode!r}")
    dprimes, skipped = sensor_features(
        jacobian_fns(spec, nets), thetas, spec.sensor_ids
    )
    timings["train_extract"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if manifest.delta is not None:
        delta = manifest.delta
    else:
        delta = _select_delta(dprimes, spec, manifest)
    matrix, purity, _ = _assemble_matrix(dprimes, delta, spec, manifest)
    if out_dir:
        (out_dir / "matrix.json").write_text(json.dumps(matrix.to_json_dict(), indent=1))
    repaired, completed, unique, corrected, candidates = _repair(matrix, manifest)
    tree = tp.matrix_to_tree(repaired)
    timings["extract_translate"] = time.perf_counter() - t0

    exact = tree == truth_tree
    structure = _edge_parent_map(tree) == _edge_parent_map(truth_tree)
    ham = _aligned_hamming(tree, truth_tree)

    report = RunReport(
        manifest=manifest.to_json_dict(),
        delta_used=float(delta),
        exact_match=bool(exact),
        structure_match=bool(structure),
        hamming_to_truth=ham,
        cluster_purity=purity,
        completed=completed,
        unique_completion=unique,
        corrected=corrected,
        candidate_count=candidates,
        skipped_sensors=tuple(skipped),
        timings=timings,
        matrix=repaired.to_json_dict(),
        tree=tree.to_json_dict(),
    )
    if out_dir:
        (out_dir / "matrix_repaired.json").write_text(
            json.dumps(repaired.to_json_dict(), indent=1)
        )
        (out_dir / "tree.json").write_text(json.dumps(tree.to_json_dict(), indent=1))
        (out_dir / "tree.dot").write_text(tree.to_dot())
        (out_dir / "report.json").write_text(
            json.dumps(report.to_json_dict(), indent=1)
        )
    return report
