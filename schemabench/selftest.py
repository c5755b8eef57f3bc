#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks; runs in a few seconds.

    python3 schemabench/selftest.py

Exits 0 when every checker accepts what it must accept and rejects what it
must reject, 1 otherwise.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from bodyschema import robots  # noqa: E402
from bodyschema import topology as tp  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def entries(d):
    return checks.as_entries(d.row_labels, d.col_labels, d.values)


def main() -> int:
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # every labelled tree on four nodes is accepted, and survives the round trip
    count = 0
    for t in tp.enumerate_trees(4):
        m = tp.tree_to_matrix(t)
        expect(checks.is_tree_matrix(m.values), f"rejected the tree matrix of {t.parents}")
        back = tp.tree_to_matrix(tp.matrix_to_tree(m))
        expect(entries(back) == entries(m), f"round trip changed {t.parents}")
        count += 1
    expect(count == 3000, f"enumerated {count} trees on four nodes, not 3000")

    # the no-tree counterexample, a zero row, a duplicate row, a non-square shape
    for bad in (
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0]],
    ):
        expect(not checks.is_tree_matrix(np.array(bad)), f"accepted {bad}")

    # a recovered tree with two links' labels swapped does not match the robot
    truth = robots.BUILTIN_TOPOLOGIES["robot2"]
    doc = tp.OutTree(truth).to_json_dict()
    expect(checks.tree_matches(doc, truth), "rejected the true robot2 tree")
    swapped = {
        {"l3": "l4", "l4": "l3"}.get(node, node): (
            {"l3": "l4", "l4": "l3"}.get(parent, parent), edge
        )
        for node, (parent, edge) in truth.items()
    }
    expect(
        not checks.tree_matches(tp.OutTree(swapped).to_json_dict(), truth),
        "accepted robot2 with links l3 and l4 swapped",
    )

    # Hamming against a reference, missing rows counting as zero rows
    a = {"r1": {"c1": 1, "c2": 0}, "u1": {"c1": 1, "c2": 1}}
    ref = {"r1": {"c1": 1, "c2": 1}}
    expect(checks.hamming_padded(a, ref) == 3, "wrong padded Hamming distance")
    expect(checks.keeps_rows(a, {"r1": {"c1": 1, "c2": 0}}), "lost an unchanged row")
    expect(not checks.keeps_rows(a, ref), "missed a changed observed row")

    # the repair check accepts real repairs and rejects a tampered distance
    rng = np.random.default_rng(0)
    for kind, n_damage in (("flip", 2), ("drop", 1)):
        damaged = workloads.damage(workloads.random_tree_matrix(6, rng), kind, n_damage, rng)
        out = workloads.repair(damaged, 0)
        expect(workloads.check_repair(damaged, out), f"rejected a {kind} repair")
    bad = tp.DependencyMatrix(
        ("r1", "r2", "r3"), ("c1", "c2", "c3"), np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    )
    out = workloads.repair(bad, 0)
    expect(workloads.check_repair(bad, out), "rejected the repair of the counterexample")
    matrix, ref_m, distance, completed, tree = out
    tampered = (matrix, ref_m, distance + 1, completed, tree)
    expect(not workloads.check_repair(bad, tampered), "accepted a wrong distance")

    for f in failures:
        print("FAIL", f)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
