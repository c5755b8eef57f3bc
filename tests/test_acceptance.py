"""Acceptance gates for the whole package: each test prints one pass/fail
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).

Criterion 1's threshold band is asserted exactly as stated; its upper
endpoint is provably unattainable (a unit-norm feature with four or more
active entries cannot keep them all above 0.5), so that cell fails with the
analysis in the failure message.  Everything else is expected green.
"""

import itertools
import time

import numpy as np
import pytest

from bodyschema import chain, correction as co, extraction as ex
from bodyschema import pose_net as pn
from bodyschema import robots
from bodyschema import topology as tp
from bodyschema.completion import complete, is_unique_completion
from bodyschema.errors import NotATreeError
from bodyschema.pipeline import ExperimentManifest, run_pipeline

from test_completion import random_tree, single_row_oracle
from test_topology import FIVE_NODE_COLS, FIVE_NODE_ROWS, FIVE_NODE_TREE, five_node_matrix

ALL_ROBOTS = robots.BUILTIN_NAMES


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_oracle_recovery_over_delta_band():
    """All six robots, oracle pose maps, noiseless, thresholds sampled across
    the stated band [0.05, 0.5], full pipeline, under 60 seconds."""
    deltas = [0.05, 0.1625, 0.275, 0.3875, 0.5]
    start = time.perf_counter()
    failures = []
    for name in ALL_ROBOTS:
        for delta in deltas:
            manifest = ExperimentManifest(
                robot=name, mode="oracle-fk", duration=1.0, rate=50.0,
                seed=0, delta=delta,
            )
            report = run_pipeline(manifest)
            if not report.exact_match:
                failures.append((name, delta, report.hamming_to_truth))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report(
        "1",
        ok,
        f"{len(ALL_ROBOTS) * len(deltas) - len(failures)}/"
        f"{len(ALL_ROBOTS) * len(deltas)} cells exact in {elapsed:.1f}s; "
        f"failing cells: {failures}",
    )
    assert elapsed < 60.0
    assert not failures, (
        f"cells {failures} cannot recover: a unit-norm dependency feature "
        "with d >= 4 active entries has min entry <= 1/sqrt(d) < 0.5, so a "
        "0.5 threshold provably erases genuine dependencies of depth-4+ "
        "sensors (see notes/decisions.md); the band is attainable up to "
        "~0.40 and every cell below passes"
    )


def test_criterion_2_learned_recovery_default_manifest():
    """Learned mode, default manifest (60 s at 100 Hz, measurement noise),
    at least five of six robots recovered exactly within 30 minutes."""
    start = time.perf_counter()
    outcomes = {}
    for name in ALL_ROBOTS:
        report = run_pipeline(ExperimentManifest(robot=name, mode="learned", seed=0))
        outcomes[name] = (report.exact_match, report.hamming_to_truth,
                          report.corrected, report.delta_used)
    elapsed = time.perf_counter() - start
    exact = sum(1 for ok, *_ in outcomes.values() if ok)
    _report(
        "2",
        exact >= 5 and elapsed < 1800.0,
        f"{exact}/6 exact in {elapsed / 60.0:.1f} min; per-robot: {outcomes}",
    )
    assert elapsed < 1800.0
    assert exact >= 5, outcomes


def test_criterion_3_bijection_counts_and_roundtrip():
    expected = {1: 1, 2: 6, 3: 96, 4: 3000}
    for n, count in expected.items():
        seen = set()
        total = 0
        for t in tp.enumerate_trees(n):
            m = tp.tree_to_matrix(t)
            assert tp.matrix_to_tree(m) == t
            key = m.canonical_key()
            assert key not in seen  # injectivity of the translation
            seen.add(key)
            total += 1
        assert total == count == tp.tree_count_formula(n)
    _report("3", True, f"round-trip identity and counts {expected} verified")


def test_criterion_4_condition_equivalence_all_3x3():
    mismatches = 0
    for bits in itertools.product([0, 1], repeat=9):
        d = tp.DependencyMatrix(
            ("r1", "r2", "r3"),
            ("c1", "c2", "c3"),
            np.array(bits, dtype=np.int8).reshape(3, 3),
        )
        report = tp.check_conditions(d)
        try:
            tp.matrix_to_tree(d)
            translatable = True
        except NotATreeError:
            translatable = False
        try:
            tp.reduce_to_permutation(d)
            reducible = True
        except NotATreeError:
            reducible = False
        if not (report.satisfies_P == report.satisfies_P0 == translatable == reducible):
            mismatches += 1
    _report("4", mismatches == 0, f"512 matrices, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_5_operation_commutation_all_trees_up_to_4():
    mismatches = 0
    checked = 0
    for n in (1, 2, 3, 4):
        for t in tp.enumerate_trees(n):
            m = tp.tree_to_matrix(t)
            for i in t.nodes:
                for j in t.nodes:
                    if i == j:
                        continue
                    if tp.tree_to_matrix(tp.dilation_tree(t, i, j)) != (
                        tp.dilation_matrix(m, i, j)
                    ):
                        mismatches += 1
                    if tp.tree_to_matrix(tp.absorption_tree(t, j, i)) != (
                        tp.absorption_matrix(m, j, i)
                    ):
                        mismatches += 1
                    checked += 2
    _report("5", mismatches == 0, f"{checked} op applications, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_6_assignment_equals_overlap_program():
    labels = ("r1", "r2", "r3")
    cols = ("c1", "c2", "c3")
    mismatches = 0
    for bits in itertools.product([0, 1], repeat=9):
        vals = np.array(bits, dtype=np.int8).reshape(3, 3)
        d = tp.DependencyMatrix(labels, cols, vals)
        brute = max(
            int(vals[range(3), perm].sum())
            for perm in itertools.permutations(range(3))
        )
        if co.overlap(d, co.nearest_permutation(d)) != brute:
            mismatches += 1

    rng = np.random.default_rng(0)
    perms6 = np.array(list(itertools.permutations(range(6))))
    rows6 = np.arange(6)
    labels6 = tuple(f"r{i}" for i in range(6))
    cols6 = tuple(f"c{i}" for i in range(6))
    for _ in range(1000):
        vals = (rng.random((6, 6)) < rng.uniform(0.2, 0.8)).astype(np.int8)
        d = tp.DependencyMatrix(labels6, cols6, vals)
        brute = int(vals[rows6, perms6].sum(axis=1).max())
        if co.overlap(d, co.nearest_permutation(d)) != brute:
            mismatches += 1
    _report("6", mismatches == 0, f"512 + 1000 instances, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_7_completion_suite():
    rng = np.random.default_rng(1)
    completed = 0
    unique_checked = 0
    failures = 0
    while completed < 1000:
        n = int(rng.integers(2, 6))
        tree = random_tree(rng, n)
        full = tp.tree_to_matrix(tree)
        k = int(rng.integers(1, n))
        keep = sorted(rng.choice(list(full.row_labels), size=k, replace=False))
        sub = full.restrict_rows(keep)
        if not tp.check_conditions(sub).satisfies_Pminus:
            continue
        filled = complete(sub, [f"u{i}" for i in range(n - k)], seed=completed)
        if not tp.check_conditions(filled).satisfies_P:
            failures += 1
        if not np.array_equal(filled.values[:k], sub.values):
            failures += 1
        if n - k == 1:
            oracle_rows = single_row_oracle(sub)
            predicted = is_unique_completion(sub)
            if predicted != (len(oracle_rows) == 1):
                failures += 1
            if tuple(filled.values[-1].tolist()) not in oracle_rows:
                failures += 1
            unique_checked += 1
        completed += 1
    _report(
        "7",
        failures == 0,
        f"1000 completions valid and restriction-exact, "
        f"{unique_checked} single-row instances agree with the exhaustive oracle, "
        f"{failures} failures",
    )
    assert failures == 0


# deterministic measured baselines for the beam-vs-exhaustive match rate;
# the greedy plateau stop makes no optimality promise, so these only guard
# against the search degrading
BEAM_MATCH_BASELINE_3X3 = 380 / 416
BEAM_MATCH_BASELINE_4X4 = 0.80


def test_criterion_8_correction_validity_and_measured_optimality():
    labels = ("r1", "r2", "r3")
    cols = ("c1", "c2", "c3")
    tree_matrices = [
        tp.tree_to_matrix(t) for t in tp.enumerate_trees(3, labels, cols)
    ]
    invalid = 0
    optimal = 0
    total = 0
    for bits in itertools.product([0, 1], repeat=9):
        d = tp.DependencyMatrix(labels, cols, np.array(bits, dtype=np.int8).reshape(3, 3))
        if tp.check_conditions(d).satisfies_P:
            continue
        result = co.trellis_correct(d)
        brute = min(co.hamming(m, d) for m in tree_matrices)
        for cand in result.candidates:
            if not tp.check_conditions(cand).satisfies_P:
                invalid += 1
        assert result.distance >= brute  # the beam cannot beat exhaustion
        optimal += int(result.distance == brute)
        total += 1
    rate3 = optimal / total

    # random 1-3 bit corruptions of 4-node tree matrices
    labels4 = ("r1", "r2", "r3", "r4")
    cols4 = ("c1", "c2", "c3", "c4")
    trees4 = [tp.tree_to_matrix(t) for t in tp.enumerate_trees(4, labels4, cols4)]
    stack4 = np.stack([m.canonical().values for m in trees4])
    rng = np.random.default_rng(3)
    invalid4 = 0
    optimal4 = 0
    total4 = 0
    while total4 < 1000:
        base = trees4[int(rng.integers(len(trees4)))]
        vals = base.canonical().values.copy()
        for _ in range(int(rng.integers(1, 4))):
            vals[rng.integers(4), rng.integers(4)] ^= 1
        d = tp.DependencyMatrix(labels4, cols4, vals)
        if tp.check_conditions(d).satisfies_P:
            continue
        result = co.trellis_correct(d)
        brute = int((stack4 != vals[None, :, :]).sum(axis=(1, 2)).min())
        for cand in result.candidates:
            if not tp.check_conditions(cand).satisfies_P:
                invalid4 += 1
        assert result.distance >= brute
        optimal4 += int(result.distance == brute)
        total4 += 1
    rate4 = optimal4 / total4

    _report(
        "8",
        invalid == 0 and invalid4 == 0,
        f"3x3: {total} contradictory matrices, {invalid} validity violations, "
        f"beam at exhaustive minimum {optimal}/{total} = {rate3:.3f}; "
        f"4x4: {total4} corrupted, {invalid4} violations, match {rate4:.3f} "
        f"(measured, baselines {BEAM_MATCH_BASELINE_3X3:.3f}/{BEAM_MATCH_BASELINE_4X4:.2f})",
    )
    assert invalid == 0 and invalid4 == 0
    assert rate3 >= BEAM_MATCH_BASELINE_3X3
    assert rate4 >= BEAM_MATCH_BASELINE_4X4


def test_criterion_9_numerics():
    # squashed-Jacobian invariance under constant reference-frame changes
    spec = robots.builtin_robot("robot2")
    rng = np.random.default_rng(2)
    theta = rng.uniform(-1, 1, 5)
    jac = chain.analytic_jacobian(spec, theta, "l4:1")
    base = ex.tij(lambda t: jac, theta)
    worst_tij = 0.0
    for _ in range(100):
        import bodyschema.rigid_motion as rm

        y_rot = rm.rpy_matrix(rng.uniform(-np.pi, np.pi, 3))
        moved = np.vstack([y_rot @ jac[3 * b : 3 * b + 3] for b in range(4)])
        worst_tij = max(worst_tij, np.abs(ex.tij(lambda t: moved, theta) - base).max())

    # loss parameter gradients against central differences
    cfg = pn.TrainConfig(ts=0.01, gravity=True)
    worst_grad = 0.0
    for n in (1, 2, 3):
        net = pn.init_pose_net(n, widths=(8, 8, 8), seed=n)
        th, thd, thdd = (rng.normal(size=(2, n)) for _ in range(3))
        alpha, beta = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        grads = pn.parameter_gradients(net, th, thd, thdd, alpha, beta, cfg)
        h = 1e-5
        for p, g in zip(net.params(), grads):
            flat, gflat = p.ravel(), np.asarray(g).ravel()
            scale = max(float(np.abs(gflat).max()), 1e-8)
            for i in rng.choice(flat.size, size=min(12, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + h
                lp, _ = pn._batch_loss_and_grads(net, th, thd, thdd, alpha, beta, cfg, want_grads=False)
                flat[i] = old - h
                lm, _ = pn._batch_loss_and_grads(net, th, thd, thdd, alpha, beta, cfg, want_grads=False)
                flat[i] = old
                fd = (lp - lm) / (2 * h)
                worst_grad = max(
                    worst_grad, abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), scale)
                )

    # synthesized accelerometer readings against a time-difference oracle
    quiet = chain.RobotSpec(spec.topology, spec.joints, spec.mounts, np.zeros(3))
    rate = 100.0
    traj = chain.gen_trajectory(quiet, duration=0.5, rate=rate)
    h = 1.0 / rate
    worst_alpha = 0.0
    for k in range(1, len(traj) - 1):
        poses = chain.fk(quiet, traj.theta[k])
        prev = chain.fk(quiet, traj.theta[k - 1])
        nxt = chain.fk(quiet, traj.theta[k + 1])
        for sid in ("l1:0", "l5:1"):
            b_dd = (nxt[sid][:3, 3] - 2 * poses[sid][:3, 3] + prev[sid][:3, 3]) / h**2
            alpha_fd = poses[sid][:3, :3].T @ b_dd
            alpha = traj.alpha[k, traj.sensor_ids.index(sid)]
            worst_alpha = max(worst_alpha, np.abs(alpha_fd - alpha).max())

    ok = worst_tij < 1e-9 and worst_grad < 1e-4 and worst_alpha < 1e-4
    _report(
        "9",
        ok,
        f"TIJ invariance {worst_tij:.2e} (<1e-9), gradients {worst_grad:.2e} "
        f"(<1e-4), accel vs time-FD {worst_alpha:.2e} (<1e-4)",
    )
    assert worst_tij < 1e-9
    assert worst_grad < 1e-4
    assert worst_alpha < 1e-4


def test_criterion_10_fixture_fidelity():
    # worked matrix <-> tree translation
    assert tp.matrix_to_tree(five_node_matrix()) == FIVE_NODE_TREE
    assert tp.tree_to_matrix(FIVE_NODE_TREE) == five_node_matrix()

    # max-filter + normalization example
    jbar = np.array(
        [
            [3.14, 6.23, 0.0, 1.56],
            [7.23, 2.64, 0.0, 3.25],
            [2.33, 3.08, 0.0, 6.32],
            [7.33, 8.32, 0.0, 9.17],
        ]
    )
    dprime = ex.feature_raw(jbar)
    assert np.abs(dprime - np.array([0.5, 0.57, 0.0, 0.63])).max() < 0.01

    # thresholded feature pattern
    assert ex.threshold(dprime, 0.1).tolist() == [1, 1, 0, 1]

    # the no-tree counterexample
    bad = tp.DependencyMatrix(
        ("r1", "r2", "r3"),
        ("c1", "c2", "c3"),
        np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.int8),
    )
    with pytest.raises(NotATreeError):
        tp.matrix_to_tree(bad)
    assert not tp.check_conditions(bad).satisfies_P
    _report("10", True, "worked matrix/tree, filter, threshold and counterexample fixtures exact")
