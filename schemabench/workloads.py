"""The benchmark's workloads: a fixed, seeded list of items each.

An item is an input made before timing starts, the call into the program
that is timed, and an independent check of what the call returned.  The
program receives only the generated inputs: manifests for ``run_pipeline``
and damaged dependency matrices for the repair calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from bodyschema import completion, correction, robots
from bodyschema import topology as tp
from bodyschema.pipeline import ExperimentManifest, run_pipeline

import checks

# Learned mode with the training budget cut from 60 s / 30 epochs to 20 s /
# 20 epochs, one sensor per link (two would double training per robot).
# robot1, robot3 and robot4 are left out: at this budget their recovery
# depends on the seed (see README), and an item must pass on every seed.
LEARNED_ROBOTS = ("robot2", "robot5", "robot6")
LEARNED_BUDGET = dict(duration=20.0, epochs=20, sensors_per_link=1)

# Criterion 1's cells: 1 s of motion at 50 Hz over the stated threshold band.
ORACLE_DELTAS = (0.05, 0.1625, 0.275, 0.3875, 0.5)
ORACLE_RUN = dict(duration=1.0, rate=50.0)
# A depth-4 sensor's L2-normalised feature has smallest entry <= 1/sqrt(4),
# so no sampled configuration lets delta = 0.5 keep it: these cells fail for
# every seed until the program changes its normalisation.
KNOWN_FAULTS = {("robot1", 0.5), ("robot2", 0.5)}

# Repair corpus: (damage, amount, matrices per size) for every size.  Noise
# flips entries, partial observability drops rows.  Flipped matrices cost
# 10-600 ms each in trellis correction and drive items_per_s; completions
# take about 1 ms.  Completions are the larger share (432 of 720), so the
# median item is a completion and not the seed-dependent boundary between
# the two groups.
REPAIR_SIZES = (5, 6, 7, 8)
REPAIR_DAMAGE = (
    ("flip", 1, 24), ("flip", 2, 24), ("flip", 3, 24), ("drop", 1, 54), ("drop", 2, 54),
)

# Whole rounds of the item list per run: cheap workloads repeat their list
# so that a run measures several seconds of work.
ROUNDS = {"learned": 1, "oracle": 6, "repair": 1}


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    known_fault: bool = False


def _pipeline_item(label, manifest, truth, known_fault=False) -> Item:
    return Item(
        label,
        lambda: run_pipeline(manifest),
        lambda report: checks.tree_matches(report.tree, truth),
        known_fault,
    )


def learned_items(seed: int) -> list[Item]:
    return [
        _pipeline_item(
            f"{name}/seed{seed}",
            ExperimentManifest(
                robot=name, mode="learned", seed=seed, **LEARNED_BUDGET
            ),
            robots.BUILTIN_TOPOLOGIES[name],
        )
        for name in LEARNED_ROBOTS
    ]


def oracle_items(seed: int) -> list[Item]:
    return [
        _pipeline_item(
            f"{name}/delta{delta}/seed{seed}",
            ExperimentManifest(
                robot=name, mode="oracle-fk", seed=seed, delta=delta, **ORACLE_RUN
            ),
            robots.BUILTIN_TOPOLOGIES[name],
            known_fault=(name, delta) in KNOWN_FAULTS,
        )
        for name in robots.BUILTIN_NAMES
        for delta in ORACLE_DELTAS
    ]


def random_tree_matrix(n: int, rng) -> tp.DependencyMatrix:
    """Matrix of a random labelled tree: nodes join in a random order, each
    under the root or an earlier node, over shuffled joint labels."""
    nodes = [f"n{i}" for i in range(1, n + 1)]
    edges = [f"e{i}" for i in range(1, n + 1)]
    order = rng.permutation(n)
    edge_of = rng.permutation(n)
    path: dict[int, set[int]] = {}
    for k, node in enumerate(order):
        parent = int(rng.integers(k + 1)) - 1  # -1 is the root
        above = path[int(order[parent])] if parent >= 0 else set()
        path[int(node)] = above | {int(edge_of[node])}
    values = np.zeros((n, n), dtype=np.int8)
    for node, cols in path.items():
        values[node, sorted(cols)] = 1
    return tp.DependencyMatrix(tuple(nodes), tuple(edges), values)


def damage(d: tp.DependencyMatrix, kind: str, count: int, rng) -> tp.DependencyMatrix:
    """Noise flips ``count`` entries; partial observability drops ``count``
    rows."""
    k, n = d.shape
    if kind == "flip":
        values = d.values.copy()
        for pos in rng.choice(k * n, size=count, replace=False):
            values[pos // n, pos % n] ^= 1
        return d.with_values(values)
    keep = sorted(set(range(k)) - set(rng.choice(k, size=count, replace=False).tolist()))
    return d.restrict_rows([d.row_labels[i] for i in keep])


def repair(d: tp.DependencyMatrix, seed: int):
    """The public calls that the pipeline's repair stage makes, in its
    order: condition check, then completion, partial correction or trellis
    correction, then translation to a tree.  Returns the repaired matrix,
    the matrix the last correction measured its distance to (or None), that
    distance, whether completion ran, and the tree."""
    k, n = d.shape
    ref = distance = None
    completed = False
    if k < n:
        if tp.check_conditions(d).satisfies_Pminus:
            fresh = [f"u{i}" for i in range(1, n - k + 1)]
            d = completion.complete(d, fresh, seed=seed)
            completed = True
        else:
            ref, result = d, correction.correct_partial(d)
            d, distance = result.candidates[0], result.distance
    if not tp.check_conditions(d).satisfies_P:
        ref, result = d, correction.trellis_correct(d)
        d, distance = result.candidates[0], result.distance
    return d, ref, distance, completed, tp.matrix_to_tree(d)


def check_repair(damaged: tp.DependencyMatrix, out) -> bool:
    matrix, ref, distance, completed, tree = out
    got = checks.as_entries(matrix.row_labels, matrix.col_labels, matrix.values)
    if not checks.is_tree_matrix(matrix.values):
        return False
    if distance is not None:
        ref_e = checks.as_entries(ref.row_labels, ref.col_labels, ref.values)
        if checks.hamming_padded(got, ref_e) != distance:
            return False
    if completed:
        observed = checks.as_entries(damaged.row_labels, damaged.col_labels, damaged.values)
        if not checks.keeps_rows(got, observed):
            return False
    back = tp.tree_to_matrix(tree)
    return checks.as_entries(back.row_labels, back.col_labels, back.values) == got


def repair_items(seed: int) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for n in REPAIR_SIZES:
        for kind, count, per_size in REPAIR_DAMAGE:
            for k in range(per_size):
                damaged = damage(random_tree_matrix(n, rng), kind, count, rng)
                item_seed = int(rng.integers(2**31))
                items.append(
                    Item(
                        f"n{n}/{kind}{count}/{k}/seed{seed}",
                        lambda d=damaged, s=item_seed: repair(d, s),
                        lambda out, d=damaged: check_repair(d, out),
                    )
                )
    return items


def make_items(workload: str, seed: int) -> list[Item]:
    if workload == "learned":
        return learned_items(seed)
    if workload == "oracle":
        return oracle_items(seed)
    if workload == "repair":
        return repair_items(seed)
    raise ValueError(f"unknown workload {workload!r}")
