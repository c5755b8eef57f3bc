import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyschema import chain, extraction as ex, rigid_motion as rm, robots
from bodyschema import topology as tp
from bodyschema.errors import DegenerateSensorError

from test_chain import ref_jacobian

# worked filtering example: max over rows then unit normalization
WORKED_JBAR = np.array(
    [
        [3.14, 6.23, 0.0, 1.56],
        [7.23, 2.64, 0.0, 3.25],
        [2.33, 3.08, 0.0, 6.32],
        [7.33, 8.32, 0.0, 9.17],
    ]
)


class TestTij:
    def test_constant_pose_all_zero(self):
        jac_fn = lambda theta: np.zeros((12, 4))
        assert np.array_equal(ex.tij(jac_fn, np.zeros(4)), np.zeros((4, 4)))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            ex.tij(lambda theta: np.zeros((6, 4)), np.zeros(4))

    def test_invariance_under_constant_transforms(self):
        spec = robots.builtin_robot("robot2")
        rng = np.random.default_rng(1)
        theta = rng.uniform(-1, 1, 5)
        sid = "l4:0"
        jac = chain.analytic_jacobian(spec, theta, sid)
        base = ex.tij(lambda t: jac, theta)
        worst = 0.0
        for _ in range(100):
            y_rot = rm.rpy_matrix(rng.uniform(-np.pi, np.pi, 3))
            moved = np.vstack([y_rot @ jac[3 * b : 3 * b + 3] for b in range(4)])
            worst = max(worst, np.abs(ex.tij(lambda t: moved, theta) - base).max())
        assert worst < 1e-9

    def test_oracle_zero_columns_off_path(self):
        spec = robots.builtin_robot("robot3")
        rng = np.random.default_rng(2)
        for sid in spec.sensor_ids:
            jac_fn = lambda t, s=sid: chain.analytic_jacobian(spec, t, s)
            value = ex.tij(jac_fn, rng.uniform(-np.pi, np.pi, 5))
            path = spec.topology.root_path_edges(spec.sensor_link(sid))
            for k, edge in enumerate(spec.joint_order):
                assert (value[:, k].max() > 1e-9) == (edge in path)


@pytest.fixture(scope="module")
def oracle():
    spec = robots.builtin_robot("robot2")
    rng = np.random.default_rng(3)
    thetas = [rng.uniform(-np.pi, np.pi, 5) for _ in range(32)]
    return spec, thetas


class TestAggregation:

    def test_variance_of_constant_tij_is_zero(self):
        # a constant squash is its own RMS: blocks with one unit entry per
        # column squash to all ones at every configuration
        jac = np.zeros((12, 3))
        jac[::3] = 1.0
        assert np.array_equal(
            ex.tij_aggregate(
                lambda t: np.broadcast_to(jac, (len(t), 12, 3)),
                [np.zeros(3), np.ones(3)],
            ),
            np.ones((4, 3)),
        )

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ex.tij_aggregate(lambda t: np.zeros((12, 2)), [np.zeros(2)])

    def test_off_path_columns_zero_variance(self, oracle):
        spec, thetas = oracle
        jac_fn = lambda t: chain.analytic_jacobian(spec, t, "l5:0")
        rms = ex.tij_aggregate(jac_fn, thetas)
        path = spec.topology.root_path_edges("l5")
        for k, edge in enumerate(spec.joint_order):
            if edge not in path:
                assert np.array_equal(rms[:, k], np.zeros(4))

    def test_variance_permutation_invariant(self, oracle):
        spec, thetas = oracle
        jac_fn = lambda t: chain.analytic_jacobian(spec, t, "l3:1")
        a = ex.tij_aggregate(jac_fn, thetas)
        b = ex.tij_aggregate(jac_fn, list(reversed(thetas)))
        assert np.allclose(a, b)

    def test_terminal_joint_variance_collapses_but_moment_does_not(self, oracle):
        # an exact pose map's own-terminal-joint column has constant norm
        # |hat(axis) @ mount column|, so its variance vanishes while the
        # RMS keeps the dependence visible
        spec, thetas = oracle
        jac_fn = lambda t: chain.analytic_jacobian(spec, t, "l1:0")
        own = spec.joint_order.index("j1")
        var = ex.tij(jac_fn, thetas).var(axis=0)
        rms = ex.tij_aggregate(jac_fn, thetas)
        assert var[:, own].max() < 1e-12
        assert rms[:, own].max() > 1e-3

    def test_batched_aggregate_equals_per_sample(self):
        # the per-configuration squash and stack the single batched call replaced
        def per_sample(jac_fn, thetas):
            squashes = [np.linalg.norm(jac_fn(th).reshape(4, 3, -1), axis=1) for th in thetas]
            stack = np.stack(squashes)
            return np.sqrt((stack**2).mean(axis=0))

        for name in robots.BUILTIN_NAMES:
            spec = robots.builtin_robot(name)
            rng = np.random.default_rng(4)
            thetas = [rng.uniform(-np.pi, np.pi, spec.n_joints) for _ in range(64)]
            for sid in spec.sensor_ids:
                got = ex.tij_aggregate(
                    lambda t, s=sid: chain.analytic_jacobian(spec, t, s), thetas
                )
                ref = per_sample(lambda t, s=sid: ref_jacobian(spec, t, s), thetas)
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


class TestFeature:
    def test_worked_example(self):
        dprime = ex.feature_raw(WORKED_JBAR)
        assert np.abs(dprime - np.array([0.5, 0.57, 0.0, 0.63])).max() < 0.01
        assert dprime[2] == 0.0

    def test_one_hot(self):
        jbar = np.zeros((4, 3))
        jbar[2, 1] = 5.0
        assert np.array_equal(ex.feature_raw(jbar), [0.0, 1.0, 0.0])

    def test_scale_invariant(self):
        assert np.allclose(ex.feature_raw(WORKED_JBAR), ex.feature_raw(10 * WORKED_JBAR))

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateSensorError):
            ex.feature_raw(np.zeros((4, 5)))


class TestThreshold:
    def test_worked_example(self):
        assert ex.threshold(np.array([0.5, 0.57, 0.0, 0.63]), 0.1).tolist() == [1, 1, 0, 1]

    def test_all_below_goes_dark(self):
        assert ex.threshold(np.array([0.4, 0.3]), 0.999).tolist() == [0, 0]

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, 8)
        prev = ex.threshold(v, 0.05)
        for delta in (0.2, 0.5, 0.8):
            cur = ex.threshold(v, delta)
            assert ((prev - cur) >= 0).all()
            prev = cur

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            ex.threshold(np.array([0.5]), 0.0)


def _reference_dp_means(features, alpha):
    """DP-means (Kulis and Jordan, 2012) as the pipeline ran it before exact
    grouping: deterministic hard assignment, where a row farther than the
    penalty 1 / (1 + alpha) (squared distance) from every center spawns a
    new one.  Returns the labels, the per-cluster means and the counts."""
    x = np.asarray([np.asarray(f, dtype=float) for f in features])
    penalty = 1.0 / (1.0 + alpha)

    def compact(labels):
        uniq = sorted(set(int(v) for v in labels))
        remap = {old: new for new, old in enumerate(uniq)}
        return np.array([remap[int(v)] for v in labels])

    centers = [x[0]]
    labels = np.zeros(len(x), dtype=int)
    for _ in range(100):
        changed = False
        for i, row in enumerate(x):
            d2 = np.array([float(((row - c) ** 2).sum()) for c in centers])
            j = int(np.argmin(d2))
            if d2[j] > penalty:
                centers.append(row.copy())
                j = len(centers) - 1
            if labels[i] != j:
                labels[i] = j
                changed = True
        centers = [
            x[labels == k].mean(axis=0) for k in range(len(centers))
            if (labels == k).any()
        ]
        labels = compact(labels)
        if not changed:
            break
    k = int(labels.max()) + 1
    means = np.stack([x[labels == c].mean(axis=0) for c in range(k)])
    counts = np.array([int((labels == c).sum()) for c in range(k)])
    return labels, means, counts


binary_rows = st.integers(1, 6).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=1, max_size=14
    )
)


class TestClustering:
    def test_identical_rows_single_cluster(self):
        rows = [np.array([1.0, 0.0, 1.0])] * 6
        result = ex.cluster_rows(rows)
        assert result.n_clusters == 1
        assert np.allclose(result.means[0], [1, 0, 1])
        assert result.counts.tolist() == [6]

    def test_two_separated_groups(self):
        rows = [np.array([1, 1, 0, 0])] * 3 + [np.array([0, 0, 1, 1])] * 3
        result = ex.cluster_rows(rows)
        assert result.n_clusters == 2
        assert sorted(result.counts.tolist()) == [3, 3]

    def test_single_row_is_its_own_cluster(self):
        row = np.array([1, 0, 1], dtype=np.int8)
        result = ex.cluster_rows([row])
        assert result.assignments.tolist() == [0]
        assert np.array_equal(result.means, [row])
        assert result.counts.tolist() == [1]

    def test_cluster_count_bounded(self):
        rng = np.random.default_rng(4)
        rows = [rng.integers(0, 2, 4).astype(float) for _ in range(12)]
        result = ex.cluster_rows(rows)
        assert 1 <= result.n_clusters <= 12

    @given(binary_rows)
    @settings(max_examples=300, deadline=None)
    def test_binary_rows_group_like_dp_means(self, rows):
        rows = [np.array(r, dtype=np.int8) for r in rows]
        result = ex.cluster_rows(rows)
        for alpha in (0.01, 1.0, 100.0):
            labels, means, counts = _reference_dp_means(rows, alpha)
            assert np.array_equal(result.assignments, labels)
            assert np.array_equal(result.means, means)
            assert np.array_equal(result.counts, counts)
        # labels in order of first appearance
        _, first = np.unique(result.assignments, return_index=True)
        assert np.all(np.diff(first) > 0)


class TestReduceRows:
    def test_exact_duplicates_reduce_to_distinct(self):
        rows = [np.array([1, 0, 0]), np.array([1, 0, 0]), np.array([1, 1, 0])]
        clusters = ex.cluster_rows(rows)
        kept = ex.reduce_rows(clusters, 3)
        assert kept == [0, 1]
        assert clusters.means[kept].tolist() == [[1, 0, 0], [1, 1, 0]]

    def test_largest_first_then_by_row(self):
        # groups by first appearance: [1,1,0] x2, [0,1,0] x2, [1,0,0] x1,
        # [0,0,1] x3; the two groups of two go in the order of their rows
        rows = [
            [1, 1, 0], [0, 1, 0], [1, 0, 0], [0, 1, 0],
            [1, 1, 0], [0, 0, 1], [0, 0, 1], [0, 0, 1],
        ]
        clusters = ex.cluster_rows([np.array(r) for r in rows])
        assert clusters.counts.tolist() == [2, 2, 1, 3]
        assert ex.reduce_rows(clusters, 4) == [3, 1, 0, 2]
        assert ex.reduce_rows(clusters, 2) == [3, 1]

    def test_row_budget(self):
        rows = [np.eye(4)[k] for k in range(4)]
        clusters = ex.cluster_rows(rows)
        assert len(ex.reduce_rows(clusters, 2)) <= 2


class TestSeparationScore:
    """The separation objective that δ selection breaks ties with."""

    def test_lambda_zero_drops_entropy_term(self):
        # two groups at Hamming distance 1: |det| = 1, the least distinct
        # 0/1 rows allow, so the determinant term is 1e12 and the entropy
        # difference is representable to within its spacing
        rows = [np.array([1, 0, 0])] * 3 + [np.array([1, 1, 0])]
        clusters = ex.cluster_rows(rows)
        assert clusters.n_clusters == 2
        with_ent = ex.separation_score(clusters, 1.0)
        without = ex.separation_score(clusters, 0.0)
        assert without == 1.0 / 1e-12
        p = clusters.counts / clusters.counts.sum()
        entropy = -float(np.sum(p * np.log(p)))
        assert abs((with_ent - without) - entropy) <= np.spacing(without)


class TestTrainedNetInvariance:
    def test_feature_agrees_across_training_gauges(self):
        """Two differently seeded nets learn poses in different reference
        frames (the loss fixes the pose only up to a constant transform
        stabilizing gravity); the normalized dependency feature is the
        gauge-free quantity.  Raw squashed-Jacobian agreement is limited by
        the loss's flat directions to about 1e-1 at practical budgets, so
        the assertion lives at the feature level with a measured bound."""
        from bodyschema import pose_net as pn
        from bodyschema.chain import Joint, RobotSpec
        from bodyschema.topology import OutTree

        topo = OutTree({"l1": (None, "j1"), "l2": ("l1", "j2")})
        joints = {
            "j1": Joint(
                np.array([0.0, 0.0, 1.0]),
                rm.make_transform(rm.rot_y(0.5) @ rm.rot_x(0.3), [0, 0, 0.1]),
            ),
            "j2": Joint(
                np.array([0.0, 1.0, 0.0]),
                rm.make_transform(rm.rot_y(0.4), [0.26, 0.0, 0.04]),
            ),
        }
        mounts = {
            "l1": (rm.make_transform(rm.rot_x(0.3), [0.15, 0.05, 0.02]),),
            "l2": (rm.make_transform(rm.rot_z(-0.4), [0.2, -0.04, 0.05]),),
        }
        spec = RobotSpec(topo, joints, mounts, np.array([0.0, 0.0, -9.8]))
        traj = chain.gen_trajectory(spec, duration=30.0, rate=100)
        cfg = pn.TrainConfig(
            learning_rate=0.02, epochs=40, batch_size=128, seed=0,
            ts=0.01, gravity=True,
        )
        thetas = [traj.theta[i] for i in range(0, 3000, 100)]
        truth = {"l1:0": [1, 0], "l2:0": [1, 1]}
        for sid, want in truth.items():
            dataset = pn.SensorDataset.from_samples(traj, sid)
            feats = []
            for seed in (0, 1):
                result = pn.train(
                    pn.init_pose_net(2, widths=(64, 64, 64), seed=seed), dataset, cfg
                )
                jac_fn = lambda t, net=result.net: pn.pose_jacobian(net, t)
                feats.append(
                    ex.feature_raw(ex.tij_aggregate(jac_fn, thetas))
                )
            assert np.abs(feats[0] - feats[1]).max() < 0.15
            for f in feats:
                assert ex.threshold(f, 0.15).tolist() == want


class TestBuildMatrix:
    def test_same_link_rows_merge(self):
        feats = [np.array([1, 1, 0]), np.array([1, 1, 0]), np.array([1, 0, 0])]
        m = ex.build_matrix(feats, ["a:0", "a:1", "b:0"], ("j1", "j2", "j3"))
        assert m.shape == (2, 3)
        assert m.merged_groups["a:0"] == ("a:0", "a:1")

    def test_distinct_rows_kept(self):
        feats = [np.array([1, 0]), np.array([1, 1])]
        m = ex.build_matrix(feats, ["x", "y"], ("j1", "j2"))
        assert m.shape == (2, 2)

    def test_all_zero_rows_dropped(self):
        feats = [np.array([0, 0]), np.array([1, 0])]
        m = ex.build_matrix(feats, ["root_sensor", "x"], ("j1", "j2"))
        assert m.row_labels == ("x",)

    def test_oracle_chain_gives_nested_pattern(self):
        spec = robots.builtin_robot("robot1")
        rng = np.random.default_rng(6)
        thetas = [rng.uniform(-np.pi, np.pi, 5) for _ in range(32)]
        feats, labels = [], []
        for sid in spec.sensor_ids:
            jac_fn = lambda t, s=sid: chain.analytic_jacobian(spec, t, s)
            agg = ex.tij_aggregate(jac_fn, thetas)
            feats.append(ex.threshold(ex.feature_raw(agg), 0.2))
            labels.append(sid)
        m = ex.build_matrix(feats, labels, spec.joint_order)
        renamed = tp.DependencyMatrix(
            tuple(spec.sensor_link(r) for r in m.row_labels), m.col_labels, m.values
        )
        assert renamed == tp.tree_to_matrix(spec.topology)
        for node in spec.topology.nodes:
            depth = spec.topology.depth(node)
            assert int(renamed.row(node).sum()) == depth
