import itertools

import numpy as np
import pytest

from bodyschema import chain, pose_net as pn, rigid_motion as rm, robots
from bodyschema.chain import Joint, RobotSpec
from bodyschema.errors import TrainingDivergedError
from bodyschema.topology import OutTree


def one_joint_robot():
    topo = OutTree({"l1": (None, "j1")})
    joints = {
        "j1": Joint(np.array([0.0, 0.0, 1.0]), rm.make_transform(rm.rot_y(0.5), [0, 0, 0.1]))
    }
    mounts = {"l1": (rm.make_transform(rm.rot_x(0.3), [0.15, 0.05, 0.02]),)}
    return RobotSpec(topo, joints, mounts, np.array([0.0, 0.0, -9.8]))


# ---------------------------------------------------------------------------
# Matrix-form references.  The package trains and differentiates the net with
# the closed-form kernel and ``pose_jacobian`` alone; these build the pose and
# the loss as 3x3 and 4x4 matrices, the way the objective is written, so the
# tests can check the kernel against them.
# ---------------------------------------------------------------------------


def _head_outputs(net, x, u, v):
    wt, bt = net.head_t
    wr, br = net.head_r
    t = x @ wt.T + bt
    td = u @ wt.T
    tdd = v @ wt.T
    r = x @ wr.T + br
    rd = u @ wr.T
    rdd = v @ wr.T
    return t, td, tdd, r, rd, rdd


def forward(net, theta):
    """Pose at one configuration, assembled into a homogeneous transform."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (net.n_joints,):
        raise ValueError(f"theta must have length {net.n_joints}")
    x, _, _, _ = pn._mlp_streams(net, theta, np.zeros_like(theta), np.zeros_like(theta))
    t, _, _, r, _, _ = _head_outputs(net, x, x, x)
    return rm.make_transform(rm.rpy_matrix(r[0]), t[0])


def rotation_head_angles(net, theta):
    """Rotation head output wrapped into [0, 2pi)."""
    x, _, _, _ = pn._mlp_streams(net, theta, np.zeros_like(theta), np.zeros_like(theta))
    _, _, _, r, _, _ = _head_outputs(net, x, x, x)
    return np.mod(r[0], 2.0 * np.pi)


def _rotation_triple(r, rd, rdd):
    """(R, dR/dt, d2R/dt2) batched, from angle triples and their rates."""
    f1, f1d_m, f1dd_m = pn._axis_rot_batch(0, r[:, 0])
    f2, f2d_m, f2dd_m = pn._axis_rot_batch(1, r[:, 1])
    f3, f3d_m, f3dd_m = pn._axis_rot_batch(2, r[:, 2])

    def dots(a1, a2, phi_d, phi_dd):
        d = a1 * phi_d[:, None, None]
        dd = a2 * (phi_d**2)[:, None, None] + a1 * phi_dd[:, None, None]
        return d, dd

    f1_d, f1_dd = dots(f1d_m, f1dd_m, rd[:, 0], rdd[:, 0])
    f2_d, f2_dd = dots(f2d_m, f2dd_m, rd[:, 1], rdd[:, 1])
    f3_d, f3_dd = dots(f3d_m, f3dd_m, rd[:, 2], rdd[:, 2])

    g = f2 @ f1
    g_d = f2_d @ f1 + f2 @ f1_d
    g_dd = f2_dd @ f1 + 2.0 * (f2_d @ f1_d) + f2 @ f1_dd
    rot = f3 @ g
    rot_d = f3_d @ g + f3 @ g_d
    rot_dd = f3_dd @ g + 2.0 * (f3_d @ g_d) + f3 @ g_dd
    return rot, rot_d, rot_dd


def time_derivatives(net, theta, theta_dot, theta_ddot):
    """(T, dT/dt, d2T/dt2) along the given joint rates, from the two
    directional-derivative streams in closed form."""
    theta = np.asarray(theta, dtype=float)
    theta_dot = np.asarray(theta_dot, dtype=float)
    theta_ddot = np.asarray(theta_ddot, dtype=float)
    if not theta.shape == theta_dot.shape == theta_ddot.shape == (net.n_joints,):
        raise ValueError("inconsistent joint-vector lengths")
    x, u, v, _ = pn._mlp_streams(net, theta, theta_dot, theta_ddot)
    t, td, tdd, r, rd, rdd = _head_outputs(net, x, u, v)
    rot, rot_d, rot_dd = _rotation_triple(r, rd, rdd)
    out = rm.make_transform(rot[0], t[0])
    out_d = np.zeros((4, 4))
    out_d[:3, :3] = rot_d[0]
    out_d[:3, 3] = td[0]
    out_dd = np.zeros((4, 4))
    out_dd[:3, :3] = rot_dd[0]
    out_dd[:3, 3] = tdd[0]
    return out, out_d, out_dd


def loss_from_pose(t, t_dot, t_ddot, alpha_b, beta_b, ts, gravity_vector=None):
    """The training objective evaluated on an arbitrary pose triple: the
    net's (``time_derivatives``) or the ground-truth kinematics'."""
    r = np.asarray(t, dtype=float)[:3, :3]
    r_dot = np.asarray(t_dot, dtype=float)[:3, :3]
    b_dd = np.asarray(t_ddot, dtype=float)[:3, 3]
    g = np.zeros(3) if gravity_vector is None else np.asarray(gravity_vector, float)
    res = np.asarray(alpha_b, float) - r.T @ (b_dd - g)
    l1 = float(np.sqrt(res @ res + pn._NORM_EPS))
    omega = rm.vee_antisym(r.T @ r_dot)
    r1 = rm.rodrigues(omega, ts)
    r2 = rm.rpy_matrix(np.asarray(beta_b, float) * ts)
    return l1 - float(np.sum(r1 * r2))


def loss(net, theta, theta_dot, theta_ddot, alpha_b, beta_b, cfg):
    """The kernel's objective for one sensor measurement."""
    value, _ = pn._batch_loss_and_grads(
        net,
        np.atleast_2d(theta),
        np.atleast_2d(theta_dot),
        np.atleast_2d(theta_ddot),
        np.atleast_2d(alpha_b),
        np.atleast_2d(beta_b),
        cfg,
        want_grads=False,
    )
    if not np.isfinite(value):
        raise TrainingDivergedError("non-finite loss value")
    return float(value)


@pytest.fixture(scope="module")
def small_net():
    return pn.init_pose_net(3, widths=(8, 8, 8), seed=1)


class TestForward:
    def test_deterministic(self, small_net):
        theta = np.array([0.3, -0.2, 0.5])
        a = forward(small_net, theta)
        b = forward(small_net, theta)
        assert np.array_equal(a, b)

    def test_rotation_block_is_orthonormal(self, small_net):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = forward(small_net, rng.uniform(-2, 2, 3))
            assert rm.is_rotation(t[:3, :3])
            assert np.array_equal(t[3], [0, 0, 0, 1])

    def test_zero_net_is_identity(self):
        net = pn.init_pose_net(2, widths=(4, 4, 4), seed=0)
        for w, b in net.hidden:
            w[:] = 0.0
            b[:] = 0.0
        net.head_t[0][:] = 0.0
        net.head_r[0][:] = 0.0
        # linear heads on zero weights output zero angles and translation
        assert np.allclose(forward(net, np.zeros(2)), np.eye(4))

    def test_head_angles_wrapped(self, small_net):
        angles = rotation_head_angles(small_net, np.array([0.1, 0.2, 0.3]))
        assert ((0 <= angles) & (angles < 2 * np.pi)).all()


def _fd_time_derivatives(net, theta, theta_dot, theta_ddot, h):
    """Central differences of the forward map along theta_dot, plus
    theta_ddot for the curvature term; the homogeneous rows stay exact."""
    f0 = forward(net, theta)
    fp, fm = forward(net, theta + h * theta_dot), forward(net, theta - h * theta_dot)
    gp, gm = forward(net, theta + h * theta_ddot), forward(net, theta - h * theta_ddot)
    td = (fp - fm) / (2.0 * h)
    tdd = (fp - 2.0 * f0 + fm) / h**2 + (gp - gm) / (2.0 * h)
    td[3] = 0.0
    tdd[3] = 0.0
    return f0, td, tdd


class TestTimeDerivatives:
    def test_zero_rates_zero_derivatives(self, small_net):
        t, td, tdd = time_derivatives(
            small_net, np.array([0.1, 0.2, 0.3]), np.zeros(3), np.zeros(3)
        )
        assert np.array_equal(td, np.zeros((4, 4)))
        assert np.array_equal(tdd, np.zeros((4, 4)))

    def test_analytic_matches_fd(self, small_net):
        rng = np.random.default_rng(1)
        for _ in range(10):
            th, thd, thdd = (rng.normal(size=3) for _ in range(3))
            ta, tda, tdda = time_derivatives(small_net, th, thd, thdd)
            tf, tdf, tddf = _fd_time_derivatives(small_net, th, thd, thdd, 1e-4)
            assert np.allclose(ta, tf)
            scale_d = max(np.abs(tda).max(), 1.0)
            scale_dd = max(np.abs(tdda).max(), 1.0)
            assert np.abs(tda - tdf).max() / scale_d < 1e-4
            assert np.abs(tdda - tddf).max() / scale_dd < 1e-4

    def test_first_derivative_linear_in_rates(self, small_net):
        rng = np.random.default_rng(2)
        th, thd = rng.normal(size=3), rng.normal(size=3)
        _, td1, _ = time_derivatives(small_net, th, thd, np.zeros(3))
        _, td2, _ = time_derivatives(small_net, th, 2 * thd, np.zeros(3))
        assert np.allclose(td2, 2 * td1, atol=1e-12)


class TestPoseJacobian:
    def test_matches_fd_of_forward(self, small_net):
        rng = np.random.default_rng(3)
        th = rng.normal(size=3)
        jac = pn.pose_jacobian(small_net, th)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            d = (forward(small_net, th + e) - forward(small_net, th - e)) / (2 * h)
            fd = np.concatenate([d[:3, 0], d[:3, 1], d[:3, 2], d[:3, 3]])
            assert np.abs(jac[:, k] - fd).max() < 1e-6


class TestLoss:
    def test_ground_truth_pose_attains_minimum(self):
        spec = one_joint_robot()
        quiet = chain.RobotSpec(spec.topology, spec.joints, spec.mounts, np.zeros(3))
        for robot, gravity_vector in ((spec, spec.gravity), (quiet, None)):
            traj = chain.gen_trajectory(robot, duration=1.0, rate=100)
            for k in range(0, len(traj), 20):
                t, td, tdd = chain.pose_with_time_derivatives(
                    robot, "l1:0", traj.theta[k], traj.theta_dot[k], traj.theta_ddot[k]
                )
                j = traj.sensor_ids.index("l1:0")
                alpha, beta = traj.alpha[k, j], traj.beta[k, j]
                value = loss_from_pose(
                    t, td, tdd, alpha, beta, ts=0.01, gravity_vector=gravity_vector
                )
                assert abs(value - (-3.0)) < 1e-9

    def test_trace_term_bounded_below(self, small_net):
        rng = np.random.default_rng(4)
        cfg = pn.TrainConfig(ts=0.01, gravity=False)
        for _ in range(20):
            th, thd, thdd = (rng.normal(size=3) for _ in range(3))
            alpha, beta = rng.normal(size=3), rng.normal(size=3)
            value = loss(small_net, th, thd, thdd, alpha, beta, cfg)
            assert value >= -3.0 - 1e-9  # |res| >= 0 and tr(R1^T R2) <= 3

    def test_gradients_match_finite_differences(self):
        # relative to each parameter tensor's gradient scale: elementwise
        # ratios are meaningless where the true gradient sits below the
        # central-difference roundoff floor
        rng = np.random.default_rng(5)
        cfg = pn.TrainConfig(ts=0.01, gravity=True, seed=0)
        worst = 0.0
        for n in (1, 2, 3):
            net = pn.init_pose_net(n, widths=(8, 8, 8), seed=n)
            b = 3
            th, thd, thdd = (rng.normal(size=(b, n)) for _ in range(3))
            alpha, beta = rng.normal(size=(b, 3)), rng.normal(size=(b, 3))
            batch = (th, thd, thdd, alpha, beta)
            worst = max(worst, _worst_fd_gradient_error(net, batch, cfg, rng))
        assert worst < 1e-4


def _worst_fd_gradient_error(
    net, batch, cfg, rng, per_tensor=25, h=1e-5, extrapolate=False
):
    """Largest gap between the kernel's gradient and central differences of
    its loss, over up to per_tensor random entries of each parameter.

    With ``extrapolate`` the differences at steps h and h/2 are combined by
    Richardson extrapolation, (4 D(h/2) - D(h)) / 3, whose error is O(h^4)
    instead of O(h^2)."""
    grads = pn.parameter_gradients(net, *batch, cfg)

    def central(flat, i, step):
        old = flat[i]
        flat[i] = old + step
        lp, _ = pn._batch_loss_and_grads(net, *batch, cfg, want_grads=False)
        flat[i] = old - step
        lm, _ = pn._batch_loss_and_grads(net, *batch, cfg, want_grads=False)
        flat[i] = old
        return (lp - lm) / (2 * step)

    worst = 0.0
    for p, g in zip(net.params(), grads):
        flat, gflat = p.ravel(), np.asarray(g).ravel()
        scale = max(float(np.abs(gflat).max()), 1e-8)
        for i in rng.choice(flat.size, size=min(per_tensor, flat.size), replace=False):
            fd = central(flat, i, h)
            if extrapolate:
                fd = (4.0 * central(flat, i, h / 2) - fd) / 3.0
            denom = max(abs(fd), abs(gflat[i]), scale)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


# regimes of the closed-form rotation head: gimbal lock at pitch = +-pi/2,
# raw head angles beyond 2 pi, and a rotation per sample period small
# enough for the series form of the rodrigues coefficients
HEAD_CASES = ("generic", "pitch+pi/2", "pitch-pi/2", "beyond-2pi", "small-rotation")


def _head_case(case):
    """A net, a batch of 8 samples and a config putting the head in case."""
    rng = np.random.default_rng(21)
    n = 3
    net = pn.init_pose_net(n, widths=(8, 8, 8), seed=7)
    for p in net.params():
        p += rng.normal(scale=0.3, size=p.shape)
    th, thd, thdd = (rng.normal(size=(8, n)) for _ in range(3))
    thd *= 20.0  # body rates near 1, so sigma ts sits well above the switch
    alpha, beta = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    wr, br = net.head_r
    if case.startswith("pitch"):
        wr[1] *= 1e-7
        br[:] = (0.4, np.pi / 2 if case == "pitch+pi/2" else -np.pi / 2, -0.8)
    elif case == "beyond-2pi":
        br[:] = (7.5, -9.0, 13.0)
    elif case == "small-rotation":
        thd *= 1e-4
        beta *= 100.0  # beta ts near 1 keeps R2 away from the identity
    return net, (th, thd, thdd, alpha, beta), pn.TrainConfig(ts=0.01, gravity=True)


class TestClosedFormHead:
    """The kernel's closed-form rotation head against the matrix-form
    reference (``time_derivatives`` and ``loss_from_pose``)."""

    @pytest.mark.parametrize("case", HEAD_CASES)
    def test_case_reaches_its_regime(self, case):
        net, (th, thd, thdd, _, _), cfg = _head_case(case)
        x, u, _, _ = pn._mlp_streams(net, th, thd, thdd)
        ang = _head_outputs(net, x, u, u)[3]
        sigma = []
        for k in range(len(th)):
            t, td, _ = time_derivatives(net, th[k], thd[k], thdd[k])
            sigma.append(np.linalg.norm(rm.vee_antisym(t[:3, :3].T @ td[:3, :3])))
        small = np.array(sigma) * cfg.ts < pn._SERIES_SWITCH
        if case.startswith("pitch"):
            assert np.abs(np.cos(ang[:, 1])).max() < 1e-6
        assert (np.abs(ang).max() > 2 * np.pi) == (case == "beyond-2pi")
        assert small.all() if case == "small-rotation" else not small.any()

    @pytest.mark.parametrize("case", HEAD_CASES)
    def test_loss_equals_matrix_reference(self, case):
        net, batch, cfg = _head_case(case)
        for th, thd, thdd, alpha, beta in zip(*batch):
            want = loss_from_pose(
                *time_derivatives(net, th, thd, thdd),
                alpha, beta, cfg.ts, cfg.gravity_vector,
            )
            got = loss(net, th, thd, thdd, alpha, beta, cfg)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("case", HEAD_CASES)
    def test_gradients_match_finite_differences(self, case):
        net, batch, cfg = _head_case(case)
        rng = np.random.default_rng(22)
        assert _worst_fd_gradient_error(net, batch, cfg, rng) < 1e-4

    @pytest.mark.parametrize("case", HEAD_CASES)
    def test_gradients_match_extrapolated_differences(self, case):
        # the 1e-4 gate above cannot see a term about 1e-4 of the gradient
        # (the 2 f2 tr R2 part of the omega adjoint) being 1% off; these
        # differences agree with the kernel to about 1e-10, and that error
        # shows at about 1e-6
        net, batch, cfg = _head_case(case)
        rng = np.random.default_rng(23)
        assert _worst_fd_gradient_error(
            net, batch, cfg, rng, h=1e-3, extrapolate=True
        ) < 1e-8


@pytest.fixture(scope="module")
def tiny_training_setup():
    spec = one_joint_robot()
    samples = chain.gen_trajectory(spec, duration=30.0, rate=100)
    dataset = pn.SensorDataset.from_samples(samples, "l1:0")
    cfg = pn.TrainConfig(
        learning_rate=0.02,
        epochs=40,
        batch_size=128,
        seed=0,
        ts=0.01,
        gravity=True,
    )
    return spec, dataset, cfg


class TestTraining:
    def test_noiseless_one_joint_converges(self, tiny_training_setup):
        _, dataset, cfg = tiny_training_setup
        net = pn.init_pose_net(1, widths=(64, 64, 64), seed=0)
        result = pn.train(net, dataset, cfg)
        assert result.final_loss < -2.9

    def test_same_seed_identical_parameters(self, tiny_training_setup):
        _, dataset, cfg = tiny_training_setup
        short = pn.TrainConfig(**{**cfg.__dict__, "epochs": 3})
        a = pn.train(pn.init_pose_net(1, seed=0), dataset, short)
        b = pn.train(pn.init_pose_net(1, seed=0), dataset, short)
        for pa, pb in zip(a.net.params(), b.net.params()):
            assert np.array_equal(pa, pb)

    def test_shuffled_data_same_dependency_feature(self, tiny_training_setup):
        from bodyschema import extraction as ex

        _, dataset, cfg = tiny_training_setup
        short = pn.TrainConfig(**{**cfg.__dict__, "epochs": 10})
        rng = np.random.default_rng(8)
        perm = rng.permutation(len(dataset))
        shuffled = pn.SensorDataset(
            dataset.theta[perm],
            dataset.theta_dot[perm],
            dataset.theta_ddot[perm],
            dataset.alpha[perm],
            dataset.beta[perm],
        )
        a = pn.train(pn.init_pose_net(1, seed=0), dataset, short)
        b = pn.train(pn.init_pose_net(1, seed=0), shuffled, short)
        assert not all(
            np.array_equal(pa, pb) for pa, pb in zip(a.net.params(), b.net.params())
        )
        thetas = [dataset.theta[i] for i in range(0, 300, 10)]
        feats = []
        for res in (a, b):
            jac_fn = lambda th, net=res.net: pn.pose_jacobian(net, th)
            agg = ex.tij_aggregate(jac_fn, thetas)
            feats.append(ex.threshold(ex.feature_raw(agg), 0.3))
        assert np.array_equal(feats[0], feats[1])
        assert feats[0].tolist() == [1]

    def test_divergence_is_reported(self, tiny_training_setup):
        # sigmoids keep the loss finite under almost any blow-up, so poison
        # a weight directly to exercise the guard
        _, dataset, cfg = tiny_training_setup
        short = pn.TrainConfig(**{**cfg.__dict__, "epochs": 1})
        net = pn.init_pose_net(1, seed=0)
        net.hidden[0][0][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            pn.train(net, dataset, short)
        with pytest.raises(TrainingDivergedError):
            loss(
                net,
                dataset.theta[0],
                dataset.theta_dot[0],
                dataset.theta_ddot[0],
                dataset.alpha[0],
                dataset.beta[0],
                short,
            )

    def test_empty_dataset_rejected(self, tiny_training_setup):
        _, dataset, cfg = tiny_training_setup
        empty = pn.SensorDataset(*(arr[:0] for arr in (
            dataset.theta, dataset.theta_dot, dataset.theta_ddot,
            dataset.alpha, dataset.beta,
        )))
        with pytest.raises(ValueError):
            pn.train(pn.init_pose_net(1, seed=0), empty, cfg)

    def test_kernel_calls_seen_by_benchmark_trace(self, tiny_training_setup, monkeypatch):
        # the benchmark's tracer replaces the module global and counts a
        # training batch for each call without want_grads=False
        _, dataset, cfg = tiny_training_setup
        short = pn.TrainConfig(**{**cfg.__dict__, "epochs": 3, "batch_size": 1000})
        kernel, calls = pn._batch_loss_and_grads, []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("want_grads", True))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pn, "_batch_loss_and_grads", counted)
        pn.train(pn.init_pose_net(1, seed=0), dataset, short)
        batches = -(-len(dataset) // short.batch_size)
        assert calls == [True] * (short.epochs * batches) + [False]


def _axis_rot_batch_stacked(axis, ang):
    """The single-axis rotation triple assembled entry by entry with
    np.stack; the reference the in-place kernel must reproduce."""
    c, s = np.cos(ang), np.sin(ang)
    zero, one = np.zeros(ang.shape[0]), np.ones(ang.shape[0])

    def m(rows):
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    if axis == 0:
        return (
            m([[one, zero, zero], [zero, c, -s], [zero, s, c]]),
            m([[zero, zero, zero], [zero, -s, -c], [zero, c, -s]]),
            m([[zero, zero, zero], [zero, -c, s], [zero, -s, -c]]),
        )
    if axis == 1:
        return (
            m([[c, zero, s], [zero, one, zero], [-s, zero, c]]),
            m([[-s, zero, c], [zero, zero, zero], [-c, zero, -s]]),
            m([[-c, zero, -s], [zero, zero, zero], [s, zero, -c]]),
        )
    return (
        m([[c, -s, zero], [s, c, zero], [zero, zero, one]]),
        m([[-s, -c, zero], [c, -s, zero], [zero, zero, zero]]),
        m([[-c, s, zero], [-s, -c, zero], [zero, zero, zero]]),
    )


SPECIAL_ANGLES = (0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi)


class TestKernelBitIdentity:
    """The batched kernel must give the very floats of the per-sample
    construction, so trained nets do not drift; compared exactly."""

    def test_axis_rotations_equal_rigid_motion(self):
        rng = np.random.default_rng(11)
        ang = np.concatenate([rng.uniform(-7.0, 7.0, 1000), SPECIAL_ANGLES])
        for axis, rot in enumerate((rm.rot_x, rm.rot_y, rm.rot_z)):
            got = pn._axis_rot_batch(axis, ang)
            ref = np.stack([rot(a) for a in ang])
            assert np.array_equal(got[0], ref)
            assert np.array_equal(np.signbit(got[0]), np.signbit(ref))
            for g, r in zip(got, _axis_rot_batch_stacked(axis, ang)):
                assert np.array_equal(g, r)
                assert np.array_equal(np.signbit(g), np.signbit(r))

    def test_target_rotation_equals_rpy_matrix(self):
        rng = np.random.default_rng(12)
        for ts in (0.01, 1.0):
            beta = np.concatenate([
                rng.normal(scale=3.0, size=(500, 3)),
                np.array(list(itertools.product(SPECIAL_ANGLES, repeat=3))) / ts,
            ])
            got = pn._rpy_batch(beta * ts)
            ref = np.stack([rm.rpy_matrix(b * ts) for b in beta])
            assert np.array_equal(got, ref)

    def test_training_equals_per_sample_reference(self, monkeypatch):
        spec = robots.builtin_robot("robot2", sensors_per_link=1)
        samples = chain.add_noise(
            chain.gen_trajectory(spec, duration=5.0, rate=100, seed=3), 0.05, 0.01, 3
        )
        dataset = pn.SensorDataset.from_samples(samples, spec.sensor_ids[-1])
        # a long sample period keeps R2 far from the identity, where a
        # last-bit change in it would reach the parameters
        cfg = pn.TrainConfig(learning_rate=0.01, epochs=3, seed=4, ts=1.0)
        net = pn.init_pose_net(spec.n_joints, widths=(16, 16, 16), seed=5)
        fast = pn.train(net, dataset, cfg)
        monkeypatch.setattr(pn, "_axis_rot_batch", _axis_rot_batch_stacked)
        monkeypatch.setattr(
            pn, "_rpy_batch", lambda ang: np.stack([rm.rpy_matrix(a) for a in ang])
        )
        ref = pn.train(net, dataset, cfg)
        for pf, pr in zip(fast.net.params(), ref.net.params()):
            assert np.array_equal(pf, pr)
        assert fast.epoch_losses == ref.epoch_losses
        assert fast.final_loss == ref.final_loss

    def test_flat_optimizer_step_equals_per_tensor_loop(self):
        spec = robots.builtin_robot("robot2", sensors_per_link=1)
        traj = chain.add_noise(
            chain.gen_trajectory(spec, duration=3.0, rate=100, seed=3), 0.05, 0.01, 3
        )
        data = pn.SensorDataset.from_samples(traj, spec.sensor_ids[-1])
        cfg = pn.TrainConfig(learning_rate=0.01, epochs=2, seed=4)
        net = pn.init_pose_net(spec.n_joints, widths=(16, 16, 16), seed=5)
        fast = pn.train(net, data, cfg)
        # the per-tensor update loop, each batch's kernel fed its beta rows
        params = [p.copy() for p in net.params()]
        ref = pn.PoseNet(
            list(zip(params[:-4:2], params[1:-4:2])), tuple(params[-4:-2]), tuple(params[-2:])
        )
        velocity = [np.zeros_like(p) for p in params]
        second = [np.zeros_like(p) for p in params]
        rng, step = np.random.default_rng(cfg.seed), 0
        for _ in range(cfg.epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = pn._batch_loss_and_grads(
                    ref, data.theta[idx], data.theta_dot[idx], data.theta_ddot[idx],
                    data.alpha[idx], data.beta[idx], cfg,
                )
                step += 1
                for p, vel, sec, grad in zip(params, velocity, second, grads):
                    vel *= 0.9
                    vel += (1.0 - 0.9) * grad
                    sec *= 0.999
                    sec += (1.0 - 0.999) * grad * grad
                    vhat = vel / (1.0 - 0.9**step)
                    shat = sec / (1.0 - 0.999**step)
                    p -= cfg.learning_rate * vhat / (np.sqrt(shat) + 1e-8)
        for pf, pr in zip(fast.net.params(), params):
            assert np.array_equal(pf, pr)


def _ref_pose_jacobian(net, theta):
    """The 12xN pose-net Jacobian at one configuration."""
    n = net.n_joints
    x = np.atleast_2d(theta)
    tangents = np.eye(n)
    for w, b in net.hidden:
        s = pn._sigmoid(x @ w.T + b)
        tangents = (tangents @ w.T) * (s * (1.0 - s))
        x = s
    wt, _ = net.head_t
    wr, br = net.head_r
    db = tangents @ wt.T
    dr = tangents @ wr.T
    ang = (x @ wr.T + br)[0][None, :]
    f1, f1d, _ = pn._axis_rot_batch(0, ang[:, 0])
    f2, f2d, _ = pn._axis_rot_batch(1, ang[:, 1])
    f3, f3d, _ = pn._axis_rot_batch(2, ang[:, 2])
    d_roll = (f3 @ f2 @ f1d)[0]
    d_pitch = (f3 @ f2d @ f1)[0]
    d_yaw = (f3d @ f2 @ f1)[0]
    jac = np.zeros((12, n))
    for j in range(n):
        drot = d_roll * dr[j, 0] + d_pitch * dr[j, 1] + d_yaw * dr[j, 2]
        jac[0:9, j] = drot.T.ravel()
        jac[9:12, j] = db[j]
    return jac


class TestPoseJacobianBitIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_stack_equals_per_sample(self, seed):
        rng = np.random.default_rng(seed)
        net = pn.init_pose_net(5, widths=(16, 16, 16), seed=seed)
        for p in net.params():
            p += rng.normal(scale=0.5, size=p.shape)  # non-zero biases too
        thetas = rng.uniform(-np.pi, np.pi, (64, 5))
        ref = np.stack([_ref_pose_jacobian(net, th) for th in thetas])
        got = pn.pose_jacobian(net, thetas)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert np.array_equal(pn.pose_jacobian(net, thetas[0]), ref[0])


class TestSerialization:
    def test_roundtrip(self, small_net, tmp_path):
        path = tmp_path / "net.json"
        pn.save_net(small_net, path)
        loaded = pn.load_net(path)
        theta = np.array([0.2, -0.4, 0.6])
        assert np.allclose(forward(loaded, theta), forward(small_net, theta))
