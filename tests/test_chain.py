import json
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodyschema import chain, rigid_motion as rm, robots
from bodyschema.chain import Joint, RobotSpec
from bodyschema.errors import SchemaError
from bodyschema.topology import OutTree

from test_topology import random_trees


@pytest.fixture(scope="module")
def serial():
    return robots.builtin_robot("robot1")


@pytest.fixture(scope="module")
def branched():
    return robots.builtin_robot("robot2")


def one_joint_robot(axis=(0, 0, 1), mount_x=1.0):
    topo = OutTree({"l1": (None, "j1")})
    joints = {"j1": Joint(np.array(axis, dtype=float), np.eye(4))}
    mounts = {"l1": (rm.translate([mount_x, 0.0, 0.0]),)}
    return RobotSpec(topo, joints, mounts, np.array([0.0, 0.0, -9.8]))


class TestSpecValidation:
    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            Joint(np.array([0.0, 0.0, 2.0]), np.eye(4))

    def test_rejects_wrong_joint_keys(self):
        topo = OutTree({"l1": (None, "j1")})
        with pytest.raises(ValueError):
            RobotSpec(topo, {"jX": Joint(np.array([0, 0, 1.0]), np.eye(4))}, {})

    def test_sensor_ids_and_links(self, serial):
        assert serial.sensor_ids[0] == "l1:0"
        assert serial.sensor_link("l3:1") == "l3"
        assert len(serial.sensor_ids) == 10


class TestForwardKinematics:
    def test_zero_theta_single_joint_is_mount(self):
        spec = one_joint_robot()
        poses = chain.fk(spec, np.zeros(1))
        assert np.allclose(poses["l1:0"], rm.translate([1, 0, 0]))

    def test_quarter_turn_moves_unit_x_to_unit_y(self):
        spec = one_joint_robot()
        pose = chain.fk(spec, np.array([np.pi / 2]))["l1:0"]
        assert np.allclose(pose[:3, 3], [0, 1, 0], atol=1e-12)

    def test_off_path_joint_does_not_move_sensor(self, branched):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-1, 1, 5)
        # l5 hangs under l2; j3, j4 are on the other branch
        base = chain.fk(branched, theta)["l5:0"]
        for k, edge in enumerate(branched.joint_order):
            bumped = theta.copy()
            bumped[k] += 0.37
            moved = chain.fk(branched, bumped)["l5:0"]
            on_path = edge in branched.topology.root_path_edges("l5")
            assert np.allclose(moved, base) != on_path

    def test_dimension_mismatch(self, serial):
        with pytest.raises(ValueError):
            chain.fk(serial, np.zeros(3))


class TestJacobian:
    def test_single_joint_hand_value(self):
        spec = one_joint_robot()
        jac = chain.analytic_jacobian(spec, np.zeros(1), "l1:0")
        assert np.allclose(jac[9:12, 0], [0, 1, 0], atol=1e-12)

    def test_matches_finite_differences(self, serial):
        rng = np.random.default_rng(1)
        theta = rng.uniform(-1, 1, 5)
        h = 1e-6
        for sid in ("l1:0", "l3:0", "l5:1"):
            jac = chain.analytic_jacobian(serial, theta, sid)
            fd = np.zeros_like(jac)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                tp_ = chain.fk(serial, theta + e)[sid]
                tm = chain.fk(serial, theta - e)[sid]
                d = (tp_ - tm) / (2 * h)
                fd[0:3, k], fd[3:6, k] = d[:3, 0], d[:3, 1]
                fd[6:9, k], fd[9:12, k] = d[:3, 2], d[:3, 3]
            assert np.abs(jac - fd).max() < 1e-6

    def test_off_path_columns_exactly_zero(self, branched):
        rng = np.random.default_rng(2)
        for sid in branched.sensor_ids:
            path = branched.topology.root_path_edges(branched.sensor_link(sid))
            jac = chain.analytic_jacobian(branched, rng.uniform(-2, 2, 5), sid)
            for k, edge in enumerate(branched.joint_order):
                if edge not in path:
                    assert np.array_equal(jac[:, k], np.zeros(12))

    def test_same_link_sensors_share_pattern(self, branched):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1, 1, 5)
        for node in branched.topology.nodes:
            jacs = [
                chain.analytic_jacobian(branched, theta, f"{node}:{k}")
                for k in range(2)
            ]
            patterns = [
                tuple(bool(np.abs(j[:, c]).max() > 1e-12) for c in range(5))
                for j in jacs
            ]
            assert patterns[0] == patterns[1]


class TestMeasurementSynthesis:
    def test_static_no_gravity_is_silent(self, serial):
        quiet = RobotSpec(
            serial.topology, serial.joints, serial.mounts, np.zeros(3)
        )
        out = chain.synthesize_imu(quiet, np.zeros(5), np.zeros(5), np.zeros(5))
        for alpha, beta in out.values():
            assert np.array_equal(alpha, np.zeros(3))
            assert np.array_equal(beta, np.zeros(3))

    def test_static_gravity_reads_specific_force(self):
        spec = one_joint_robot()
        alpha, beta = chain.synthesize_imu(
            spec, np.zeros(1), np.zeros(1), np.zeros(1)
        )["l1:0"]
        assert np.allclose(alpha, [0, 0, 9.8])
        assert np.allclose(beta, 0.0)

    def test_alpha_matches_position_fd_over_time(self, serial):
        # independent oracle: second-order central difference of the sensor
        # position along the trajectory, rotated into the body frame
        quiet = RobotSpec(serial.topology, serial.joints, serial.mounts, np.zeros(3))
        rate = 100.0
        traj = chain.gen_trajectory(quiet, duration=1.0, rate=rate)
        h = 1.0 / rate
        worst = 0.0
        for k in range(1, len(traj) - 1):
            poses = chain.fk(quiet, traj.theta[k])
            prev = chain.fk(quiet, traj.theta[k - 1])
            nxt = chain.fk(quiet, traj.theta[k + 1])
            for sid in ("l2:0", "l5:1"):
                b_dd = (nxt[sid][:3, 3] - 2 * poses[sid][:3, 3] + prev[sid][:3, 3]) / h**2
                alpha_fd = poses[sid][:3, :3].T @ b_dd
                alpha = traj.alpha[k, traj.sensor_ids.index(sid)]
                worst = max(worst, np.abs(alpha_fd - alpha).max())
        assert worst < 1e-4

    def test_beta_integrates_to_true_rotation(self, serial):
        ts = 0.01
        rng = np.random.default_rng(4)
        theta, theta_dot, theta_ddot = (rng.uniform(-1, 1, 5) for _ in range(3))
        meas = chain.synthesize_imu(serial, theta, theta_dot, theta_ddot, ts)
        for sid in serial.sensor_ids[:4]:
            t, td, _ = chain.pose_with_time_derivatives(
                serial, sid, theta, theta_dot, theta_ddot
            )
            omega = rm.vee_antisym(t[:3, :3].T @ td[:3, :3])
            r1 = rm.rodrigues(omega, ts)
            r2 = rm.rpy_matrix(meas[sid][1] * ts)
            assert np.abs(r1 - r2).max() < 1e-12


class TestTrajectories:
    def test_zero_amplitude_is_constant(self, serial):
        table = ((0.0, 0.1, 0.1),) * 5
        traj = chain.gen_trajectory(serial, duration=0.2, rate=50, table=table)
        assert np.allclose(traj.theta, 0.0)

    def test_first_table_row_initial_velocity(self, serial):
        traj = chain.gen_trajectory(serial, duration=0.1, rate=100)
        assert abs(traj.theta_dot[0, 0] - 0.2 * np.sin(0.1)) < 1e-12

    def test_velocity_matches_position_fd(self, serial):
        # central differences of theta carry an h^2 theta''' / 6 truncation
        # term, about 6e-6 at the fastest table row and 100 Hz
        traj = chain.gen_trajectory(serial, duration=1.0, rate=100)
        h = 0.01
        worst = 0.0
        for k in range(1, len(traj) - 1):
            fd = (traj.theta[k + 1] - traj.theta[k - 1]) / (2 * h)
            worst = max(worst, np.abs(fd - traj.theta_dot[k]).max())
        assert worst < 1e-5

    def test_smooth_random_is_seeded_and_consistent(self, serial):
        a = chain.gen_trajectory(serial, mode="smooth_random", duration=0.3, rate=50, seed=7)
        b = chain.gen_trajectory(serial, mode="smooth_random", duration=0.3, rate=50, seed=7)
        assert np.array_equal(a.theta, b.theta)
        h = 0.02
        for k in range(1, len(a) - 1):
            fd = (a.theta[k + 1] - a.theta[k - 1]) / (2 * h)
            assert np.abs(fd - a.theta_dot[k]).max() < 1e-4

    def test_bad_mode_rejected(self, serial):
        with pytest.raises(ValueError):
            chain.gen_trajectory(serial, mode="warp", duration=1.0)

    def test_all_measurements_finite(self, serial):
        traj = chain.gen_trajectory(serial, duration=0.5, rate=50)
        assert np.isfinite(traj.theta).all()
        assert traj.sensor_ids == serial.sensor_ids
        assert traj.alpha.shape == traj.beta.shape == (len(traj), len(serial.sensor_ids), 3)
        assert np.isfinite(traj.alpha).all() and np.isfinite(traj.beta).all()


@pytest.fixture(scope="module")
def short_traj(serial):
    return chain.gen_trajectory(serial, duration=0.3, rate=50)


class TestNoise:

    def test_zero_sigma_identity(self, short_traj):
        noisy = chain.add_noise(short_traj, 0.0, 0.0, seed=1)
        assert np.array_equal(short_traj.alpha, noisy.alpha)
        assert np.array_equal(short_traj.beta, noisy.beta)

    def test_same_seed_identical(self, short_traj):
        n1 = chain.add_noise(short_traj, 0.05, 0.01, seed=3)
        n2 = chain.add_noise(short_traj, 0.05, 0.01, seed=3)
        assert np.array_equal(n1.alpha, n2.alpha)

    def test_noise_statistics(self):
        # mean of the added noise over many draws stays within 3 sigma/sqrt(n)
        rng_draws = 100_000
        spec = one_joint_robot()
        base = chain.gen_trajectory(spec, duration=rng_draws / 100.0, rate=100)
        noisy = chain.add_noise(base, 0.05, 0.0, seed=9)
        j = base.sensor_ids.index("l1:0")
        diffs = noisy.alpha[:, j] - base.alpha[:, j]
        n = diffs.shape[0]
        assert np.abs(diffs.mean(axis=0)).max() < 3 * 0.05 / np.sqrt(n)


class TestSerialization:
    def test_robot_roundtrip(self, branched, tmp_path):
        path = tmp_path / "robot.json"
        chain.save_robot(branched, path)
        loaded = chain.load_robot(path)
        assert loaded.topology == branched.topology
        for e in branched.joints:
            assert np.allclose(loaded.joints[e].axis, branched.joints[e].axis)
            assert np.allclose(loaded.joints[e].offset, branched.joints[e].offset)
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1, 1, 5)
        for sid in branched.sensor_ids:
            assert np.allclose(
                chain.fk(loaded, theta)[sid], chain.fk(branched, theta)[sid]
            )

    def test_trajectory_roundtrip(self, serial, tmp_path):
        path = tmp_path / "traj.jsonl"
        traj = chain.gen_trajectory(serial, duration=0.1, rate=50)
        chain.save_trajectory(traj, serial, path)
        loaded, meta = chain.load_trajectory(path)
        assert meta["joints"] == list(serial.joint_order)
        assert len(loaded) == len(traj)
        assert np.allclose(traj.theta, loaded.theta)
        assert np.allclose(traj.alpha, loaded.alpha)

    def test_trajectory_roundtrip_exact(self, branched, tmp_path):
        path = tmp_path / "traj.jsonl"
        traj = chain.add_noise(
            chain.gen_trajectory(branched, mode="smooth_random", duration=0.2, rate=50, seed=2),
            0.05, 0.01, seed=2,
        )
        chain.save_trajectory(traj, branched, path)
        loaded, _ = chain.load_trajectory(path)
        assert loaded.sensor_ids == traj.sensor_ids
        for name in ("t", "theta", "theta_dot", "theta_ddot", "alpha", "beta"):
            assert_identical(getattr(loaded, name), getattr(traj, name))

    def test_trajectory_file_equals_per_sample_writer(self, branched, tmp_path):
        path = tmp_path / "traj.jsonl"
        traj = chain.gen_trajectory(branched, duration=0.2, rate=50)
        chain.save_trajectory(traj, branched, path)
        ref = _ref_trajectory(branched, "sinusoidal", 0.2, 50, 0)
        assert path.read_text() == _ref_trajectory_file(ref, branched)

    def test_malformed_robot_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"topology": {"parents": []}}))
        with pytest.raises(SchemaError):
            chain.load_robot(path)

    def test_trajectory_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0.0}\n')
        with pytest.raises(SchemaError):
            chain.load_trajectory(path)


# ---------------------------------------------------------------------------
# Per-sample reference: the one-configuration kinematics that the batched
# code replaced, kept here so that every batched result can be compared
# with it exactly.
# ---------------------------------------------------------------------------


def _ref_hat(v):
    x, y, z = np.asarray(v, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _ref_rodrigues(omega_b, ts):
    omega_b = np.asarray(omega_b, dtype=float)
    speed = float(np.linalg.norm(omega_b))
    if speed < rm.ZERO_RATE:
        return np.eye(3)
    k = _ref_hat(omega_b / speed)
    angle = speed * ts
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _ref_rpy_from_matrix(r):
    sp = min(1.0, max(-1.0, -r[2, 0]))
    pitch = np.arcsin(sp)
    if np.cos(pitch) > 1e-9:
        roll = np.arctan2(r[2, 1], r[2, 2])
        yaw = np.arctan2(r[1, 0], r[0, 0])
    else:
        roll = 0.0
        yaw = np.arctan2(-r[0, 1], r[1, 1])
    return np.array([roll, pitch, yaw])


def _ref_rot4(axis, q):
    t = np.eye(4)
    t[:3, :3] = _ref_rodrigues(axis, q)
    return t


def _ref_hat4(axis):
    h = np.zeros((4, 4))
    h[:3, :3] = _ref_hat(axis)
    return h


def ref_jacobian(spec, theta, sensor_id):
    """The 12xN pose Jacobian at one configuration."""
    path = spec.topology.root_path_edges(spec.sensor_link(sensor_id))
    factors = []
    for edge in path:
        joint = spec.joints[edge]
        rot = _ref_rot4(joint.axis, theta[spec.joint_index(edge)])
        factors.append((joint.offset @ rot, joint.offset @ rot @ _ref_hat4(joint.axis)))
    jac = np.zeros((12, spec.n_joints))
    for pos, edge in enumerate(path):
        dt = np.eye(4)
        for q, (m, dm) in enumerate(factors):
            dt = dt @ (dm if q == pos else m)
        dt = dt @ spec.mount_of(sensor_id)
        jac[:, spec.joint_index(edge)] = dt[:3].T.ravel()  # n_x, n_y, n_z, b
    return jac


def _ref_pose_triple(spec, sensor_id, theta, theta_dot, theta_ddot):
    zero = np.zeros((4, 4))
    factors = []
    for edge in spec.topology.root_path_edges(spec.sensor_link(sensor_id)):
        joint, k = spec.joints[edge], spec.joint_index(edge)
        rot, h = _ref_rot4(joint.axis, theta[k]), _ref_hat4(joint.axis)
        d_rot = rot @ h
        factors.append((
            joint.offset @ rot,
            joint.offset @ d_rot * theta_dot[k],
            joint.offset @ (d_rot @ h) * theta_dot[k] * theta_dot[k]
            + joint.offset @ d_rot * theta_ddot[k],
        ))
    factors.append((spec.mount_of(sensor_id), zero, zero))
    t, td, tdd = factors[0]
    for f, fd, fdd in factors[1:]:
        t, td, tdd = t @ f, td @ f + t @ fd, tdd @ f + 2.0 * (td @ fd) + t @ fdd
    return t, td, tdd


def _ref_imu(spec, theta, theta_dot, theta_ddot, ts):
    out = {}
    for sid in spec.sensor_ids:
        t, td, tdd = _ref_pose_triple(spec, sid, theta, theta_dot, theta_ddot)
        r = t[:3, :3]
        alpha = r.T @ (tdd[:3, 3] - spec.gravity)
        w = r.T @ td[:3, :3]
        omega = 0.5 * np.array([w[2, 1] - w[1, 2], w[0, 2] - w[2, 0], w[1, 0] - w[0, 1]])
        out[sid] = (alpha, _ref_rpy_from_matrix(_ref_rodrigues(omega, ts)) / ts)
    return out


def _ref_state(mode, n, seed, t):
    theta, theta_dot, theta_ddot = [], [], []
    if mode == "sinusoidal":
        for i in range(n):
            a, k, y = chain.SINUSOID_TABLE[i % len(chain.SINUSOID_TABLE)]
            w = 2.0 * np.pi * k
            theta.append((a / w) * (np.cos(y) - np.cos(w * t + y)))
            theta_dot.append(a * np.sin(w * t + y))
            theta_ddot.append(a * w * np.cos(w * t + y))
    else:
        for comps in chain._smooth_random_params(n, 0.3, seed):
            q = qd = qdd = 0.0
            for a, f, phase in comps:
                w = 2.0 * np.pi * f
                qd += a * np.sin(w * t + phase)
                q += (a / w) * (np.cos(phase) - np.cos(w * t + phase))
                qdd += a * w * np.cos(w * t + phase)
            theta.append(q)
            theta_dot.append(qd)
            theta_ddot.append(qdd)
    return np.array(theta), np.array(theta_dot), np.array(theta_ddot)


# one record; ``measurements`` maps sensor id to (alpha, beta)
RefSample = namedtuple("RefSample", "t theta theta_dot theta_ddot measurements")


def _ref_trajectory(spec, mode, duration, rate, seed):
    ts = 1.0 / rate
    samples = []
    for k in range(int(round(duration * rate)) + 1):
        t = k * ts
        theta, theta_dot, theta_ddot = _ref_state(mode, spec.n_joints, seed, t)
        meas = _ref_imu(spec, theta, theta_dot, theta_ddot, ts)
        samples.append(RefSample(t, theta, theta_dot, theta_ddot, meas))
    return samples


def _ref_trajectory_file(samples, spec):
    """The JSONL text of the per-sample writer."""
    meta = {"joints": list(spec.joint_order), "sensors": list(spec.sensor_ids),
            "gravity": spec.gravity.tolist()}
    lines = [json.dumps({"meta": meta})]
    for s in samples:
        lines.append(json.dumps({
            "t": s.t,
            "theta": s.theta.tolist(),
            "theta_dot": s.theta_dot.tolist(),
            "theta_ddot": s.theta_ddot.tolist(),
            "sensors": {
                sid: {"alpha": a.tolist(), "beta": b.tolist()}
                for sid, (a, b) in sorted(s.measurements.items())
            },
        }))
    return "\n".join(lines) + "\n"


def _ref_add_noise(samples, sigma_alpha, sigma_beta, seed):
    rng = np.random.default_rng(seed)
    out = []
    for s in samples:
        meas = {}
        for sid in sorted(s.measurements):
            alpha, beta = s.measurements[sid]
            meas[sid] = (
                alpha + rng.normal(0.0, 1.0, 3) * sigma_alpha,
                beta + rng.normal(0.0, 1.0, 3) * sigma_beta,
            )
        out.append(RefSample(s.t, s.theta, s.theta_dot, s.theta_ddot, meas))
    return out


def assert_identical(got, ref):
    """Exactly the same floats, signs of zeros included."""
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def assert_same_samples(got, ref):
    """A ``chain.Trajectory`` holds the per-sample reference's floats."""
    assert len(got) == len(ref)
    for k, r in enumerate(ref):
        assert got.t[k] == r.t
        for name in ("theta", "theta_dot", "theta_ddot"):
            assert_identical(getattr(got, name)[k], getattr(r, name))
        assert sorted(got.sensor_ids) == sorted(r.measurements)
        for sid, (alpha, beta) in r.measurements.items():
            j = got.sensor_ids.index(sid)
            assert_identical(got.alpha[k, j], alpha)
            assert_identical(got.beta[k, j], beta)


class TestBatchedBitIdentity:
    """The batched kinematics give the very floats of the per-sample
    reference above."""

    @pytest.mark.parametrize("name", robots.BUILTIN_NAMES)
    def test_analytic_jacobian_equals_per_sample(self, name):
        spec = robots.builtin_robot(name, sensors_per_link=2)
        rng = np.random.default_rng(21)
        thetas = rng.uniform(-np.pi, np.pi, (64, spec.n_joints))
        for sid in spec.sensor_ids:
            ref = np.stack([ref_jacobian(spec, th, sid) for th in thetas])
            assert_identical(chain.analytic_jacobian(spec, thetas, sid), ref)
            assert_identical(chain.analytic_jacobian(spec, thetas[0], sid), ref[0])

    @pytest.mark.parametrize("sensors_per_link", [1, 2])
    @pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "no-gravity"])
    @pytest.mark.parametrize("mode", ["sinusoidal", "smooth_random"])
    def test_trajectory_equals_per_sample(self, mode, gravity, sensors_per_link):
        for name in robots.BUILTIN_NAMES:
            spec = robots.builtin_robot(name, sensors_per_link=sensors_per_link)
            if not gravity:
                spec = RobotSpec(spec.topology, spec.joints, spec.mounts, np.zeros(3))
            got = chain.gen_trajectory(spec, mode=mode, duration=0.3, rate=100, seed=6)
            assert got.sensor_ids == spec.sensor_ids
            assert_same_samples(got, _ref_trajectory(spec, mode, 0.3, 100, 6))

    @pytest.mark.parametrize("moving", [True, False], ids=["moving", "at-rest"])
    def test_single_state_synthesis_equals_per_sample(self, branched, moving):
        rng = np.random.default_rng(22)
        states = rng.uniform(-2.0, 2.0, (3, branched.n_joints))
        if not moving:
            states[1:] = 0.0  # zero body rate: the identity branch
        got = chain.synthesize_imu(branched, *states, 0.02)
        ref = _ref_imu(branched, *states, 0.02)
        assert list(got) == list(ref)
        for sid in ref:
            assert_identical(got[sid][0], ref[sid][0])
            assert_identical(got[sid][1], ref[sid][1])
            for g, r in zip(
                chain.pose_with_time_derivatives(branched, sid, *states),
                _ref_pose_triple(branched, sid, *states),
            ):
                assert_identical(g, r)

    def test_rigid_motion_stacks_equal_per_vector(self):
        rng = np.random.default_rng(23)
        omegas = np.concatenate([
            rng.normal(scale=2.0, size=(500, 3)),
            np.zeros((1, 3)),
            np.full((1, 3), 1e-13),  # below ZERO_RATE
        ])
        got = rm.rodrigues(omegas, 0.01)
        assert_identical(got, np.stack([_ref_rodrigues(w, 0.01) for w in omegas]))
        # pitch at +-pi/2 takes the singular branch
        rots = np.concatenate([
            got,
            np.stack([rm.rpy_matrix([0.3, p, -0.2]) for p in (np.pi / 2, -np.pi / 2)]),
        ])
        assert_identical(
            rm.rpy_from_matrix(rots), np.stack([_ref_rpy_from_matrix(r) for r in rots])
        )

    def test_add_noise_equals_per_sample_loop(self):
        spec = robots.builtin_robot("robot3", sensors_per_link=2)
        base = chain.gen_trajectory(spec, duration=0.5, rate=100)
        assert_same_samples(
            chain.add_noise(base, 0.05, 0.01, seed=8),
            _ref_add_noise(_ref_trajectory(spec, "sinusoidal", 0.5, 100, 0), 0.05, 0.01, 8),
        )

    def test_add_noise_unsorted_sensor_ids_equals_per_sample_loop(self):
        # "l1-tip" sorts before "l1:0" but its node after "l1": the noise is
        # still drawn in sorted-sensor order
        topo = OutTree({"l1": (None, "j1"), "l1-tip": ("l1", "j2")})
        joints = {
            "j1": Joint(np.array([0.0, 0.0, 1.0]), np.eye(4)),
            "j2": Joint(np.array([0.0, 1.0, 0.0]), rm.make_transform(np.eye(3), [0.3, 0, 0])),
        }
        mount = rm.make_transform(rm.rot_x(0.2), [0.1, 0.02, 0.0])
        spec = RobotSpec(topo, joints, {"l1": (mount, mount), "l1-tip": (mount,)})
        assert list(spec.sensor_ids) != sorted(spec.sensor_ids)
        base = chain.gen_trajectory(spec, mode="smooth_random", duration=0.3, rate=100, seed=4)
        ref = _ref_trajectory(spec, "smooth_random", 0.3, 100, 4)
        assert_same_samples(base, ref)
        assert_same_samples(
            chain.add_noise(base, 0.05, 0.01, seed=5), _ref_add_noise(ref, 0.05, 0.01, 5)
        )


def _reference_analytic_jacobian(spec, theta, sensor_id):
    """One sensor's pose Jacobian by the fold along its own root path: each
    column p is I @ f_1 @ ... @ df_p @ ... @ f_L @ mount.  The walk must
    give these very floats."""
    theta = chain._check_theta(spec, theta, max_ndim=2)
    thetas = np.atleast_2d(theta)
    path = spec.topology.root_path_edges(spec.sensor_link(sensor_id))
    rots = chain._joint_rotations(spec, path, thetas)
    factors = []
    for edge in path:
        joint = spec.joints[edge]
        m = joint.offset @ rots[edge]
        factors.append((m, m @ chain._hat4(joint.axis)))
    mount = spec.mount_of(sensor_id)

    jac = np.zeros((len(thetas), 12, spec.n_joints))
    for pos, edge in enumerate(path):
        k = spec.joint_index(edge)
        dt = np.eye(4)
        for q, (m, dm) in enumerate(factors):
            dt = dt @ (dm if q == pos else m)
        dt = dt @ mount
        jac[:, 0:3, k] = dt[:, :3, 0]
        jac[:, 3:6, k] = dt[:, :3, 1]
        jac[:, 6:9, k] = dt[:, :3, 2]
        jac[:, 9:12, k] = dt[:, :3, 3]
    return jac[0] if theta.ndim == 1 else jac


def _random_pose(rng, scale):
    return rm.make_transform(
        rm.rpy_matrix(rng.uniform(-np.pi, np.pi, 3)), rng.normal(scale=scale, size=3)
    )


@st.composite
def random_robots(draw):
    """A random tree with random joint axes, offsets and 0-2 sensors a link."""
    topo = draw(random_trees())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joints = {}
    for edge in topo.edges:
        axis = rng.normal(size=3)
        joints[edge] = Joint(axis / np.linalg.norm(axis), _random_pose(rng, 0.3))
    mounts = {
        node: tuple(_random_pose(rng, 0.1) for _ in range(draw(st.integers(0, 2))))
        for node in topo.nodes
    }
    return RobotSpec(topo, joints, mounts)


class TestJacobianWalk:
    """One depth-first walk gives every sensor's Jacobian, each equal to the
    per-sensor fold, compared exactly."""

    @pytest.mark.parametrize("sensors_per_link", [1, 2, 3])
    @pytest.mark.parametrize("name", robots.BUILTIN_NAMES)
    def test_walk_equals_per_sensor_fold(self, name, sensors_per_link):
        spec = robots.builtin_robot(name, sensors_per_link=sensors_per_link)
        thetas = np.random.default_rng(31).uniform(-np.pi, np.pi, (64, spec.n_joints))
        for theta in (thetas, thetas[:1], thetas[0]):
            got = list(chain.analytic_jacobians(spec, theta))
            assert sorted(sid for sid, _ in got) == sorted(spec.sensor_ids)
            for sid, jac in got:
                assert jac.shape == theta.shape[:-1] + (12, spec.n_joints)
                assert_identical(jac, _reference_analytic_jacobian(spec, theta, sid))
                assert_identical(chain.analytic_jacobian(spec, theta, sid), jac)

    def test_subsets_yield_their_sensors_only(self, branched):
        thetas = np.random.default_rng(32).uniform(-np.pi, np.pi, (16, branched.n_joints))
        full = dict(chain.analytic_jacobians(branched, thetas))
        for subset in (["l5:1"], ["l4:0", "l1:1", "l4:1"], branched.sensor_ids[::-1]):
            got = list(chain.analytic_jacobians(branched, thetas, subset))
            assert sorted(sid for sid, _ in got) == sorted(subset)
            for sid, jac in got:
                assert_identical(jac, full[sid])

    @given(random_robots(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_equal_per_sensor_fold(self, spec, data):
        ids = list(spec.sensor_ids)
        subset = data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
        rows = data.draw(st.sampled_from([(), (1,), (5,)]))  # (N,), T = 1, (T, N)
        theta = np.random.default_rng(33).uniform(-np.pi, np.pi, rows + (spec.n_joints,))
        for sensors, want in ((None, ids), (subset, subset)):
            got = list(chain.analytic_jacobians(spec, theta, sensors))
            assert sorted(sid for sid, _ in got) == sorted(want)
            for sid, jac in got:
                assert_identical(jac, _reference_analytic_jacobian(spec, theta, sid))

    def test_one_rodrigues_call_per_walk(self, branched, monkeypatch):
        calls = []
        rodrigues = rm.rodrigues

        def counted(*args):
            calls.append(1)
            return rodrigues(*args)

        monkeypatch.setattr(rm, "rodrigues", counted)
        thetas = np.zeros((8, branched.n_joints))
        assert len(list(chain.analytic_jacobians(branched, thetas))) == 10
        assert len(calls) == 1

    def test_rejects_wrong_theta_length(self, branched):
        with pytest.raises(ValueError):
            chain.analytic_jacobians(branched, np.zeros((4, 3)))
