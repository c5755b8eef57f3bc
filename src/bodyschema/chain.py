"""Ground-truth world: geometric robot specs over an out-tree, analytic
forward kinematics with exact time derivatives, inertial-sensor synthesis,
and joint trajectory generation.

Every joint is revolute.  The transform contributed by edge ``e`` at angle
``q`` is ``offset_e @ Rot(axis_e, q)``; a sensor's pose is the product of
the factors along its node's root path, times the mount pose in the link
frame.  Accelerometers report specific force ``R^T (b_dd - g)`` so a resting
sensor in an upright frame reads +|g| on z; gyros report roll-pitch-yaw
rates whose integrated rotation over one sample period matches the true
body angular velocity exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import rigid_motion as rm
from .errors import SchemaError
from .topology import OutTree

AXIS_TOL = 1e-9

# Per-joint sinusoidal velocity parameters (amplitude, frequency, phase);
# rows cycle for robots with more joints than rows.
SINUSOID_TABLE = (
    (0.2, 0.10, 0.1),
    (0.2, 0.13, 0.2),
    (0.2, 0.15, 0.3),
    (0.2, 0.17, 0.4),
    (0.2, 0.19, 0.5),
    (0.2, 0.21, 0.6),
)


@dataclass(frozen=True)
class Joint:
    """Revolute joint: fixed offset from the parent frame, then rotation
    about a unit axis."""

    axis: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > AXIS_TOL:
            raise ValueError("joint axis must be a unit vector")
        offset = np.asarray(self.offset, dtype=float)
        if offset.shape != (4, 4):
            raise ValueError("joint offset must be a 4x4 transform")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True)
class RobotSpec:
    """Geometric realization of a topology.

    ``joints`` is keyed by edge label, ``mounts`` maps each node to the
    sensor mount poses in its link frame.  The joint vector ordering used
    everywhere is ``joint_order`` (sorted edge labels).
    """

    topology: OutTree
    joints: dict[str, Joint]
    mounts: dict[str, tuple[np.ndarray, ...]]
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -9.8]))

    def __post_init__(self):
        if set(self.joints) != set(self.topology.edges):
            raise ValueError("joints must be keyed by exactly the topology's edges")
        for node in self.mounts:
            if node not in self.topology.parents:
                raise ValueError(f"mounts given for unknown node {node!r}")
        mounts = {
            node: tuple(np.asarray(m, dtype=float) for m in ms)
            for node, ms in self.mounts.items()
        }
        object.__setattr__(self, "mounts", mounts)
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))

    @property
    def joint_order(self) -> tuple[str, ...]:
        return self.topology.edges

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        ids = []
        for node in self.topology.nodes:
            for k in range(len(self.mounts.get(node, ()))):
                ids.append(f"{node}:{k}")
        return tuple(ids)

    def sensor_link(self, sensor_id: str) -> str:
        return sensor_id.rsplit(":", 1)[0]

    def mount_of(self, sensor_id: str) -> np.ndarray:
        node, k = sensor_id.rsplit(":", 1)
        return self.mounts[node][int(k)]

    def joint_index(self, edge: str) -> int:
        return self.joint_order.index(edge)


@dataclass(frozen=True)
class Trajectory:
    """Timestamped proprioception and exteroception records as arrays.

    ``theta``, ``theta_dot`` and ``theta_ddot`` are (T, N) joint states in
    ``joint_order``; ``alpha`` and ``beta`` are (T, S, 3) body-frame linear
    accelerations and roll-pitch-yaw rates of the sensors in ``sensor_ids``.
    """

    sensor_ids: tuple[str, ...]
    t: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------


def _axis_rot_homogeneous(axis: np.ndarray, q) -> np.ndarray:
    """Rot(axis, q) as a homogeneous transform; leading axes of ``axis``
    (shape ``(..., 3)``) and of ``q`` broadcast into a stack of them."""
    r = rm.rodrigues(axis, q)
    t = np.zeros(r.shape[:-2] + (4, 4))
    t[..., :3, :3] = r
    t[..., 3, 3] = 1.0
    return t


def _hat4(axis: np.ndarray) -> np.ndarray:
    h = np.zeros((4, 4))
    h[:3, :3] = rm.hat(axis)
    return h


def _joint_rotations(spec: RobotSpec, edges, theta: np.ndarray) -> dict:
    """``{edge: (T, 4, 4) stack of Rot(axis, theta_edge)}`` over the rows of
    a (T, N) theta, from one ``rm.rodrigues`` call for all edges."""
    axes = np.stack([spec.joints[e].axis for e in edges])
    q = theta[:, [spec.joint_index(e) for e in edges]]
    return dict(zip(edges, _axis_rot_homogeneous(axes[:, None, :], q.T)))


def _factor_triple(joint: Joint, rot, qd, qdd):
    """(M, dM/dt, d2M/dt2) for one joint factor offset @ Rot(axis, q(t)),
    given the (T, 4, 4) stack ``rot`` and the (T,) joint rates."""
    qd = qd[:, None, None]
    qdd = qdd[:, None, None]
    h = _hat4(joint.axis)
    m = joint.offset @ rot
    d_rot = rot @ h  # d/dq Rot(axis, q) = Rot @ hat(axis)
    md = joint.offset @ d_rot * qd
    mdd = joint.offset @ (d_rot @ h) * qd * qd + joint.offset @ d_rot * qdd
    return m, md, mdd


def _chain_triple(factors):
    """Fold (value, dot, ddot) factor triples with the product rule."""
    t, td, tdd = factors[0]
    for f, fd, fdd in factors[1:]:
        t, td, tdd = (
            t @ f,
            td @ f + t @ fd,
            tdd @ f + 2.0 * (td @ fd) + t @ fdd,
        )
    return t, td, tdd


def _check_theta(spec: RobotSpec, theta, max_ndim: int = 1) -> np.ndarray:
    """theta as a float array of length N, or with ``max_ndim = 2`` also a
    (T, N) stack."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (spec.n_joints,) or theta.ndim > max_ndim:
        raise ValueError(
            f"theta must have length {spec.n_joints}, got shape {theta.shape}"
        )
    return theta


def _walk(spec: RobotSpec, sensor_ids, theta, root, extend, emit):
    """Yield ``(sensor_id, emit(state, sensor_id))`` for the given sensors
    from one depth-first walk of the nodes on their root paths.

    A node's state is ``extend(parent_state, edge, rot)``, with ``root`` as
    the state above the tree and ``rot`` the (T, 4, 4) stack of the node's
    joint rotation over the rows of the (T, N) theta; all rotations come
    from one ``rm.rodrigues`` call.  Each state is computed once for every
    sensor below it and dropped once its subtree is done.
    """
    top = spec.topology
    by_node: dict[str, list[str]] = {}
    for sid in sensor_ids:
        by_node.setdefault(spec.sensor_link(sid), []).append(sid)
    nodes = set()
    for node in by_node:
        while node is not None:
            nodes.add(node)
            node = top.parent(node)
    if not nodes:
        return
    nodes = sorted(nodes)
    children: dict[str | None, list[str]] = {}
    for node in nodes:
        children.setdefault(top.parent(node), []).append(node)
    rots = _joint_rotations(spec, [top.edge_to(n) for n in nodes], theta)

    def visit(node, parent_state):
        edge = top.edge_to(node)
        state = extend(parent_state, edge, rots.pop(edge))
        for sid in by_node.get(node, ()):
            yield sid, emit(state, sid)
        for child in children.get(node, ()):
            yield from visit(child, state)

    for node in children.get(None, ()):
        yield from visit(node, root)


def _sensor_triples(spec: RobotSpec, sensor_ids, theta, theta_dot, theta_ddot):
    """Yield ``(sensor_id, (T, dT/dt, d2T/dt2))`` for the given sensors, each
    a (T, 4, 4) stack over the rows of the (T, N) joint states.

    A node's triple is its parent's folded with its own joint factor, the
    same left fold as along the whole root path.
    """
    zero = np.zeros((4, 4))

    def extend(parent_triple, edge, rot):
        k = spec.joint_index(edge)
        triple = _factor_triple(
            spec.joints[edge], rot, theta_dot[:, k], theta_ddot[:, k]
        )
        if parent_triple is None:
            return triple
        return _chain_triple([parent_triple, triple])

    def emit(triple, sid):
        return _chain_triple([triple, (spec.mount_of(sid), zero, zero)])

    return _walk(spec, sensor_ids, theta, None, extend, emit)


def pose_with_time_derivatives(
    spec: RobotSpec, sensor_id: str, theta, theta_dot, theta_ddot
):
    """(T, dT/dt, d2T/dt2) of one sensor along the given joint state."""
    states = [_check_theta(spec, x)[None] for x in (theta, theta_dot, theta_ddot)]
    ((_, (t, td, tdd)),) = _sensor_triples(spec, [sensor_id], *states)
    return t[0], td[0], tdd[0]


def fk(spec: RobotSpec, theta) -> dict[str, np.ndarray]:
    """Pose of every sensor at configuration theta."""
    theta = _check_theta(spec, theta)
    node_pose: dict[str | None, np.ndarray] = {None: np.eye(4)}

    def pose_of(node):
        if node not in node_pose:
            parent, edge = spec.topology.parents[node]
            k = spec.joint_index(edge)
            joint = spec.joints[edge]
            node_pose[node] = (
                pose_of(parent) @ joint.offset @ _axis_rot_homogeneous(joint.axis, theta[k])
            )
        return node_pose[node]

    out = {}
    for sid in spec.sensor_ids:
        out[sid] = pose_of(spec.sensor_link(sid)) @ spec.mount_of(sid)
    return out


def analytic_jacobians(spec: RobotSpec, theta, sensor_ids=None):
    """Yield ``(sensor_id, jacobian)`` for ``sensor_ids`` (default: every
    sensor), depth first over the tree rather than in the given order.

    Each Jacobian is 12xN: rows stack d(n_x)/dtheta, d(n_y)/dtheta,
    d(n_z)/dtheta, d(b)/dtheta.  Columns of joints off the sensor's root
    path are identically zero.  A (T, N) stack of configurations gives the
    (T, 12, N) stack of their Jacobians, each equal to its one-configuration
    result.

    Column ``p`` of a sensor below factors f_1 ... f_L is the left fold
    I @ f_1 @ ... @ df_p @ ... @ f_L @ mount, with f = offset @ Rot(axis,
    q) and df = f @ hat(axis).  The walk keeps, per node, the fold of the
    factors (``value``) and the (L, T, 4, 4) partial folds of every column
    so far; a child extends each partial by its own factor and adds one
    column, ``value @ df``.  The products are the ones a fold along each
    sensor's root path would make, so every Jacobian is bit-identical to it.
    """
    theta = _check_theta(spec, theta, max_ndim=2)
    thetas = np.atleast_2d(theta)
    # (value, partials, joint columns of the partials); the fold starts at I
    root = (np.eye(4), np.empty((0, 1, 4, 4)), ())

    def extend(state, edge, rot):
        value, partials, cols = state
        joint = spec.joints[edge]
        m = joint.offset @ rot
        dm = m @ _hat4(joint.axis)
        partials = np.concatenate([partials @ m, (value @ dm)[None]])
        return value @ m, partials, cols + (spec.joint_index(edge),)

    def emit(state, sid):
        _, partials, cols = state
        # (L, T, 4, 4) to (T, 12, L), reading the columns of R then the
        # translation: n_x, n_y, n_z, b
        dts = (partials @ spec.mount_of(sid))[:, :, :3].transpose(1, 3, 2, 0)
        jac = np.zeros((len(thetas), 12, spec.n_joints))
        jac[:, :, list(cols)] = dts.reshape(len(thetas), 12, -1)
        return jac[0] if theta.ndim == 1 else jac

    ids = spec.sensor_ids if sensor_ids is None else sensor_ids
    return _walk(spec, ids, thetas, root, extend, emit)


def analytic_jacobian(spec: RobotSpec, theta, sensor_id: str) -> np.ndarray:
    """One sensor's pose Jacobian: the one-sensor case of
    ``analytic_jacobians``."""
    ((_, jac),) = analytic_jacobians(spec, theta, [sensor_id])
    return jac


# ---------------------------------------------------------------------------
# Measurement synthesis
# ---------------------------------------------------------------------------


def body_rates_to_rpy_rates(omega_b: np.ndarray, ts: float) -> np.ndarray:
    """Roll-pitch-yaw rates whose integrated rotation over ts seconds equals
    the rotation produced by the body rate omega_b over the same period.
    Leading axes of ``omega_b`` are batch axes."""
    r1 = rm.rodrigues(omega_b, ts)
    return rm.rpy_from_matrix(r1) / ts


def synthesize_imu(
    spec: RobotSpec, theta, theta_dot, theta_ddot, ts: float = 0.01
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-sensor (alpha_b, beta_b) at one joint state.

    alpha_b = R^T (b_dd - g); beta_b integrates to the exact body rotation
    over ``ts`` so the two rotation constructions agree on noiseless data.
    (T, N) joint states give (T, 3) readings, each row equal to its
    one-state result.
    """
    states = [_check_theta(spec, x, max_ndim=2) for x in (theta, theta_dot, theta_ddot)]
    single = states[0].ndim == 1
    states = [np.atleast_2d(x) for x in states]
    out = {}
    for sid, (t, td, tdd) in _sensor_triples(spec, spec.sensor_ids, *states):
        r_t = np.swapaxes(t[:, :3, :3], 1, 2)
        b_dd = tdd[:, :3, 3]
        alpha = (r_t @ (b_dd - spec.gravity)[:, :, None])[:, :, 0]
        omega_b = rm.vee_antisym(r_t @ td[:, :3, :3])
        beta = body_rates_to_rpy_rates(omega_b, ts)
        out[sid] = (alpha[0], beta[0]) if single else (alpha, beta)
    return {sid: out[sid] for sid in spec.sensor_ids}


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


def _sinusoid_state(params, t):
    """theta, theta_dot, theta_ddot for qd_i(t) = A sin(2 pi k t + y),
    integrated analytically from theta(0) = 0; a (T,) array of times gives
    (T, N) states."""
    theta, theta_dot, theta_ddot = [], [], []
    for a, k, y in params:
        w = 2.0 * np.pi * k
        theta.append((a / w) * (np.cos(y) - np.cos(w * t + y)))
        theta_dot.append(a * np.sin(w * t + y))
        theta_ddot.append(a * w * np.cos(w * t + y))
    return tuple(np.stack(x, axis=-1) for x in (theta, theta_dot, theta_ddot))


def _smooth_random_params(n_joints: int, bandwidth: float, seed: int):
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(n_joints):
        comps = []
        for _ in range(3):
            a = rng.uniform(-0.15, 0.15)
            f = rng.uniform(0.05, bandwidth)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            comps.append((a, f, phase))
        params.append(comps)
    return params


def _smooth_random_state(params, t):
    theta, theta_dot, theta_ddot = [], [], []
    for comps in params:
        q = qd = qdd = 0.0
        for a, f, phase in comps:
            w = 2.0 * np.pi * f
            qd += a * np.sin(w * t + phase)
            q += (a / w) * (np.cos(phase) - np.cos(w * t + phase))
            qdd += a * w * np.cos(w * t + phase)
        theta.append(q)
        theta_dot.append(qd)
        theta_ddot.append(qdd)
    return tuple(np.stack(x, axis=-1) for x in (theta, theta_dot, theta_ddot))


def gen_trajectory(
    spec: RobotSpec,
    mode: str = "sinusoidal",
    duration: float = 60.0,
    rate: float = 100.0,
    seed: int = 0,
    bandwidth: float = 0.3,
    table=SINUSOID_TABLE,
) -> Trajectory:
    """Sample a joint trajectory at ``rate`` Hz and synthesize noiseless
    measurements at each step."""
    if duration <= 0 or rate <= 0:
        raise ValueError("duration and rate must be positive")
    n = spec.n_joints
    ts = 1.0 / rate
    if mode == "sinusoidal":
        params = [table[i % len(table)] for i in range(n)]
        state = lambda t: _sinusoid_state(params, t)
    elif mode == "smooth_random":
        params = _smooth_random_params(n, bandwidth, seed)
        state = lambda t: _smooth_random_state(params, t)
    else:
        raise ValueError(f"unknown trajectory mode {mode!r}")

    t = np.arange(int(round(duration * rate)) + 1) * ts
    theta, theta_dot, theta_ddot = state(t)
    meas = synthesize_imu(spec, theta, theta_dot, theta_ddot, ts)
    return Trajectory(
        spec.sensor_ids,
        t,
        theta,
        theta_dot,
        theta_ddot,
        np.stack([alpha for alpha, _ in meas.values()], axis=1),
        np.stack([beta for _, beta in meas.values()], axis=1),
    )


def add_noise(
    traj: Trajectory,
    sigma_alpha: float = 0.05,
    sigma_beta: float = 0.01,
    seed: int = 0,
) -> Trajectory:
    """Add iid Gaussian noise to the measurements; deterministic per seed,
    identity when both sigmas are zero."""
    if sigma_alpha < 0 or sigma_beta < 0:
        raise ValueError("noise levels must be non-negative")
    ids = traj.sensor_ids
    # one draw in sample, sorted-sensor, alpha-then-beta order: the same
    # numbers as three-value draws in that order, whatever the sensor order
    noise = np.random.default_rng(seed).normal(0.0, 1.0, (len(traj), len(ids), 2, 3))
    noise = noise[:, [sorted(ids).index(sid) for sid in ids]]
    return replace(
        traj,
        alpha=traj.alpha + noise[:, :, 0] * sigma_alpha,
        beta=traj.beta + noise[:, :, 1] * sigma_beta,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def robot_to_json_dict(spec: RobotSpec) -> dict:
    return {
        "topology": spec.topology.to_json_dict(),
        "joints": {
            e: {"axis": j.axis.tolist(), "offset": j.offset.tolist()}
            for e, j in sorted(spec.joints.items())
        },
        "mounts": {
            node: [m.tolist() for m in ms] for node, ms in sorted(spec.mounts.items())
        },
        "gravity": spec.gravity.tolist(),
    }


def robot_from_json_dict(doc: dict) -> RobotSpec:
    try:
        topology = OutTree.from_json_dict(doc["topology"])
        joints = {
            e: Joint(np.array(j["axis"]), np.array(j["offset"]))
            for e, j in doc["joints"].items()
        }
        mounts = {
            node: tuple(np.array(m) for m in ms)
            for node, ms in doc.get("mounts", {}).items()
        }
        gravity = np.array(doc.get("gravity", [0.0, 0.0, -9.8]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed robot document: {exc}") from exc
    return RobotSpec(topology, joints, mounts, gravity)


def save_robot(spec: RobotSpec, path) -> None:
    with open(path, "w") as f:
        json.dump(robot_to_json_dict(spec), f, indent=1)


def load_robot(path) -> RobotSpec:
    with open(path) as f:
        return robot_from_json_dict(json.load(f))


_STATES = ("t", "theta", "theta_dot", "theta_ddot")


def save_trajectory(traj: Trajectory, spec: RobotSpec, path) -> None:
    """JSONL: one metadata line, then one sample per line with its sensors
    in sorted order."""
    states = [getattr(traj, name).tolist() for name in _STATES]
    alpha, beta = traj.alpha.tolist(), traj.beta.tolist()
    order = sorted(range(len(traj.sensor_ids)), key=traj.sensor_ids.__getitem__)
    with open(path, "w") as f:
        meta = {
            "meta": {
                "joints": list(spec.joint_order),
                "sensors": list(spec.sensor_ids),
                "gravity": spec.gravity.tolist(),
            }
        }
        f.write(json.dumps(meta) + "\n")
        for k in range(len(traj)):
            rec = {name: column[k] for name, column in zip(_STATES, states)}
            rec["sensors"] = {
                traj.sensor_ids[j]: {"alpha": alpha[k][j], "beta": beta[k][j]}
                for j in order
            }
            f.write(json.dumps(rec) + "\n")


def load_trajectory(path) -> tuple[Trajectory, dict]:
    """Returns (trajectory, meta dict); the sensors are the metadata's, and
    every sample must carry each of them and every joint."""
    records = []
    meta = None
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if "meta" in rec:
                    meta = rec["meta"]
                else:
                    records.append(rec)
        if meta is None:
            raise SchemaError(f"trajectory file {path} missing metadata line")
        if not records:
            raise SchemaError(f"trajectory file {path} has no samples")
        n, ids = len(meta["joints"]), tuple(meta["sensors"])
        states = [np.array([rec[name] for rec in records], dtype=float) for name in _STATES]
        alpha, beta = (
            np.array([[rec["sensors"][sid][key] for sid in ids] for rec in records], dtype=float)
            for key in ("alpha", "beta")
        )
    except KeyError as exc:
        raise SchemaError(f"trajectory file {path} lacks {exc}") from exc
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise SchemaError(f"malformed trajectory file {path}: {exc}") from exc
    shapes = [x.shape for x in (*states, alpha, beta)]
    size = len(records)
    if shapes != [(size,)] + [(size, n)] * 3 + [(size, len(ids), 3)] * 2:
        raise SchemaError(
            f"trajectory file {path}: shapes {shapes} do not fit "
            f"{n} joints and {len(ids)} sensors"
        )
    return Trajectory(ids, *states, alpha, beta), meta
