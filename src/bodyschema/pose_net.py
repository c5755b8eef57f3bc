"""Per-sensor pose approximator and its training loss.

Each sensor owns one small network: three sigmoid hidden layers feeding a
3-unit linear translation head and a 3-unit linear rotation head whose
outputs are read as roll-pitch-yaw angles (periodic, so no range clamp is
needed).  The rotation block is assembled as Rz(yaw) @ Ry(pitch) @ Rx(roll),
giving an orthonormal block by construction.

Training minimizes, per sample,

    || alpha_b - R^T (b_dd - g) ||  -  tr(R1^T R2)

where b_dd is the translation head's second time-derivative, R1 integrates
the net's own body angular velocity over one sample period, and R2
integrates the measured roll-pitch-yaw rates over the same period.  First
and second time-derivatives are propagated in closed form through every
layer (value / first / second streams), and parameter gradients are the
exact adjoints of that propagation -- no autodiff framework, no full
Hessian tensor is ever materialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError, TrainingDivergedError

# smoothing for the norm term: keeps the gradient finite at a perfect fit
# while shifting the attainable minimum by only sqrt(eps) = 1e-12
_NORM_EPS = 1e-24

# below this integrated angle the closed-form rodrigues coefficients lose
# precision; switch to their series
_SERIES_SWITCH = 1e-4


@dataclass
class PoseNet:
    """Weights of one sensor's pose approximator."""

    hidden: list[tuple[np.ndarray, np.ndarray]]
    head_t: tuple[np.ndarray, np.ndarray]
    head_r: tuple[np.ndarray, np.ndarray]

    @property
    def n_joints(self) -> int:
        return self.hidden[0][0].shape[1]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in self.hidden:
            out += [w, b]
        out += [self.head_t[0], self.head_t[1], self.head_r[0], self.head_r[1]]
        return out

    def to_json_dict(self) -> dict:
        """Layer shapes plus flat weight arrays."""

        def tensor(a: np.ndarray) -> dict:
            return {"shape": list(a.shape), "data": a.ravel().tolist()}

        return {
            "widths": [w.shape[0] for w, _ in self.hidden],
            "n_joints": self.n_joints,
            "hidden": [{"w": tensor(w), "b": tensor(b)} for w, b in self.hidden],
            "head_t": {"w": tensor(self.head_t[0]), "b": tensor(self.head_t[1])},
            "head_r": {"w": tensor(self.head_r[0]), "b": tensor(self.head_r[1])},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PoseNet":
        def tensor(rec: dict) -> np.ndarray:
            return np.array(rec["data"], dtype=float).reshape(rec["shape"])

        try:
            hidden = [
                (tensor(rec["w"]), tensor(rec["b"])) for rec in doc["hidden"]
            ]
            head_t = (tensor(doc["head_t"]["w"]), tensor(doc["head_t"]["b"]))
            head_r = (tensor(doc["head_r"]["w"]), tensor(doc["head_r"]["b"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed net document: {exc}") from exc
        return cls(hidden, head_t, head_r)


def save_net(net: PoseNet, path) -> None:
    with open(path, "w") as f:
        json.dump(net.to_json_dict(), f)


def load_net(path) -> PoseNet:
    with open(path) as f:
        return PoseNet.from_json_dict(json.load(f))


def init_pose_net(n_joints: int, widths=(64, 64, 64), seed: int = 0) -> PoseNet:
    """Uniform fan-balanced init, deterministic per seed."""
    rng = np.random.default_rng(seed)
    dims = [n_joints, *widths]
    hidden = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        lim = np.sqrt(6.0 / (d_in + d_out))
        hidden.append(
            (rng.uniform(-lim, lim, (d_out, d_in)), np.zeros(d_out))
        )
    lim = np.sqrt(6.0 / (dims[-1] + 3))
    head_t = (rng.uniform(-lim, lim, (3, dims[-1])), np.zeros(3))
    head_r = (rng.uniform(-lim, lim, (3, dims[-1])), np.zeros(3))
    return PoseNet(hidden, head_t, head_r)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 60
    batch_size: int = 128
    seed: int = 0
    ts: float = 0.01
    gravity: bool = True
    gravity_vector: tuple = (0.0, 0.0, -9.8)

    def __post_init__(self):
        if self.ts <= 0:
            raise ValueError("ts must be positive")


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def _axis_rot_batch(axis: int, ang: np.ndarray):
    """(A, A', A'') for a single-axis rotation, batched over angles.

    Entries are written in place, so each matrix equals ``rm.rot_x`` /
    ``rot_y`` / ``rot_z`` (or its angle derivatives) bit for bit."""
    c, s = np.cos(ang), np.sin(ang)
    nc, ns = -c, -s
    a0, a1, a2 = np.zeros((3, ang.shape[0], 3, 3))
    # the rotation turns the (i, j) plane: (y, z) for roll, (z, x) for
    # pitch, (x, y) for yaw
    i, j = (axis + 1) % 3, (axis + 2) % 3
    a0[:, axis, axis] = 1.0
    a0[:, i, i] = a0[:, j, j] = c
    a0[:, i, j], a0[:, j, i] = ns, s
    a1[:, i, i] = a1[:, j, j] = ns
    a1[:, i, j], a1[:, j, i] = nc, c
    a2[:, i, i] = a2[:, j, j] = nc
    a2[:, i, j], a2[:, j, i] = s, ns
    return a0, a1, a2


def _rpy_batch(ang: np.ndarray) -> np.ndarray:
    """``rm.rpy_matrix`` of each row of ang, with the same product order."""
    return (
        _axis_rot_batch(2, ang[:, 2])[0]
        @ _axis_rot_batch(1, ang[:, 1])[0]
        @ _axis_rot_batch(0, ang[:, 0])[0]
    )


def _vee_star_batch(m: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            m[:, 2, 1] - m[:, 1, 2],
            m[:, 0, 2] - m[:, 2, 0],
            m[:, 1, 0] - m[:, 0, 1],
        ],
        axis=-1,
    )


def _rodrigues_coeffs(sigma: np.ndarray, ts: float):
    """f1 = sin(sigma ts)/sigma, f2 = (1 - cos(sigma ts))/sigma^2 and the
    sigma-normalized derivatives g_i = f_i'(sigma)/sigma, series-safe."""
    x = sigma * ts
    small = x < _SERIES_SWITCH
    sig = np.where(small, 1.0, sigma)  # dummy to avoid 0/0 in the closed form
    sx, cx = np.sin(x), np.cos(x)
    f1 = np.where(small, ts * (1.0 - x**2 / 6.0), sx / sig)
    f2 = np.where(small, ts**2 * (0.5 - x**2 / 24.0), (1.0 - cx) / sig**2)
    g1 = np.where(
        small,
        ts**3 * (-1.0 / 3.0 + x**2 / 30.0),
        (ts * cx * sig - sx) / sig**3,
    )
    g2 = np.where(
        small,
        ts**4 * (-1.0 / 12.0 + x**2 / 180.0),
        (ts * sx * sig**2 - 2.0 * sig * (1.0 - cx)) / sig**5,
    )
    return f1, f2, g1, g2


def _mlp_streams(net: PoseNet, theta, theta_dot, theta_ddot):
    """Propagate value / first / second time-derivative streams through the
    hidden stack; returns the head inputs and per-layer caches.

    With s = sigmoid(a), s' = s1 = s (1 - s) and s'' = s1 (1 - 2s), so a
    layer maps (x, u, v) to (s, s1 p, s1 ((1 - 2s) p^2 + q)) and caches
    (s1, 1 - 2s, p^2) for the adjoints."""
    x = np.atleast_2d(np.asarray(theta, dtype=float))
    u = np.atleast_2d(np.asarray(theta_dot, dtype=float))
    v = np.atleast_2d(np.asarray(theta_ddot, dtype=float))
    caches = []
    for w, b in net.hidden:
        a = x @ w.T
        a += b
        p = u @ w.T
        q = v @ w.T
        s = np.exp(np.negative(a, out=a), out=a)  # _sigmoid, in place
        s += 1.0
        np.divide(1.0, s, out=s)
        s1 = 1.0 - s
        s1 *= s
        d = s * -2.0
        d += 1.0
        p2 = p * p
        caches.append((x, u, v, p, q, s1, d, p2))
        x = s
        u = s1 * p
        v = d * p2
        v += q
        v *= s1
    return x, u, v, caches


def pose_jacobian(net: PoseNet, theta) -> np.ndarray:
    """12xN Jacobian of the pose map, rows stacking the derivatives of the
    three rotation columns and the translation.

    A (T, N) stack of configurations gives the (T, 12, N) stack of their
    Jacobians.  Each configuration stays a (1, N) row of a (T, 1, N) stack,
    so every matrix product has the one-configuration shape and each
    Jacobian equals its one-configuration result."""
    theta = np.asarray(theta, dtype=float)
    n = net.n_joints
    x = theta.reshape(-1, 1, n)
    tangents = np.eye(n)
    for w, b in net.hidden:
        a = x @ w.T + b
        s = _sigmoid(a)
        tangents = (tangents @ w.T) * (s * (1.0 - s))
        x = s
    wt, _ = net.head_t
    wr, br = net.head_r
    db = tangents @ wt.T  # (T, N, 3)
    dr = tangents @ wr.T  # (T, N, 3)
    ang = (x @ wr.T + br)[:, 0]

    f1, f1d, _ = _axis_rot_batch(0, ang[:, 0])
    f2, f2d, _ = _axis_rot_batch(1, ang[:, 1])
    f3, f3d, _ = _axis_rot_batch(2, ang[:, 2])
    d_roll = (f3 @ f2 @ f1d)[:, None]
    d_pitch = (f3 @ f2d @ f1)[:, None]
    d_yaw = (f3d @ f2 @ f1)[:, None]

    # drot[t, j] = d R / d theta_j; its columns n_x, n_y, n_z fill rows 0-8
    drot = (
        d_roll * dr[..., 0, None, None]
        + d_pitch * dr[..., 1, None, None]
        + d_yaw * dr[..., 2, None, None]
    )
    jac = np.empty((len(x), 12, n))
    jac[:, :9] = drot.transpose(0, 3, 2, 1).reshape(-1, 9, n)
    jac[:, 9:] = db.transpose(0, 2, 1)
    return jac[0] if theta.ndim == 1 else jac


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def _turn(vec, axis: int, c, s):
    """Rot_axis(angle)^T vec for (3, B) columns, given the angle's cos and
    sin; with -sin it is Rot_axis(angle) vec, the adjoint."""
    i, j = (axis + 1) % 3, (axis + 2) % 3
    out = vec.copy()
    out[i] = c * vec[i] + s * vec[j]
    out[j] = c * vec[j] - s * vec[i]
    return out


def _target_terms(beta, ts: float) -> np.ndarray:
    """(13, B) rows of R2 = rpy(beta ts) that the loss reads: tr R2,
    vee*(R2) and the row-major symmetric part of R2."""
    r2 = _rpy_batch(np.asarray(beta, dtype=float) * ts)
    sym = 0.5 * (r2 + r2.transpose(0, 2, 1))
    trace = np.trace(r2, axis1=1, axis2=2)
    return np.concatenate([trace[None], _vee_star_batch(r2).T, sym.reshape(-1, 9).T])


def _batch_loss_and_grads(
    net: PoseNet, theta, theta_dot, theta_ddot, alpha, beta, cfg: TrainConfig,
    want_grads: bool = True, target=None,
):
    """Mean loss over a batch and the exact parameter gradients.

    ``target`` is the batch's ``_target_terms(beta, cfg.ts)`` when the
    caller has it precomputed; beta is then not read.  The rotation head
    works on (3, B) columns in closed form, with R = Rz(yaw) Ry(pitch)
    Rx(roll): R^T q is three planar turns, the body rate is
    omega = (dr - sp dy, cr dp + sr cp dy, cr cp dy - sr dp), and with
    R1 = I + f1 K + f2 K^2, K = hat(omega), sigma = |omega|,

        tr(R1^T R2) = tr R2 + f1 omega . vee*(R2)
                      + f2 (omega^T sym(R2) omega - sigma^2 tr R2).
    """
    bsz = theta.shape[0]
    if target is None:
        target = _target_terms(beta, cfg.ts)
    tr2, vee2, sym2 = target[0], target[1:4], target[4:].reshape(3, 3, -1)
    g_eff = (
        np.asarray(cfg.gravity_vector, dtype=float)
        if cfg.gravity
        else np.zeros(3)
    )

    x3, u3, v3, caches = _mlp_streams(net, theta, theta_dot, theta_ddot)
    wt, _ = net.head_t
    wr, br = net.head_r
    q_vec = wt @ v3.T  # translation second derivative is all the loss sees
    q_vec -= g_eff[:, None]
    ang = wr @ x3.T
    ang += br[:, None]
    rate = wr @ u3.T
    cos, sin = np.cos(ang), np.sin(ang)

    # R^T q: undo yaw, then pitch, then roll
    turned = [q_vec]
    for axis in (2, 1, 0):
        turned.append(_turn(turned[-1], axis, cos[axis], sin[axis]))
    res = alpha.T - turned[-1]
    l1 = np.sqrt(np.einsum("ib,ib->b", res, res) + _NORM_EPS)

    (cr, cp, _), (sr, sp, _) = cos, sin
    cp_dy = cp * rate[2]
    omega = np.stack(
        [rate[0] - sp * rate[2], cr * rate[1] + sr * cp_dy, cr * cp_dy - sr * rate[1]]
    )
    sigma2 = np.einsum("ib,ib->b", omega, omega)
    fc1, fc2, gc1, gc2 = _rodrigues_coeffs(np.sqrt(sigma2), cfg.ts)
    sym_omega = np.einsum("ijb,jb->ib", sym2, omega)
    omega_vee = np.einsum("ib,ib->b", omega, vee2)
    quad = np.einsum("ib,ib->b", omega, sym_omega) - sigma2 * tr2
    trace = tr2 + fc1 * omega_vee + fc2 * quad

    mean_loss = float(np.mean(l1 - trace))
    if not want_grads:
        return mean_loss, None

    # ---- adjoints -------------------------------------------------------
    c = 1.0 / bsz
    bar = (-c / l1) * res  # adjoint of R^T q
    ang_bar = np.empty_like(ang)
    for axis, out in zip((0, 1, 2), turned[:0:-1]):
        i, j = (axis + 1) % 3, (axis + 2) % 3
        ang_bar[axis] = bar[i] * out[j] - bar[j] * out[i]
        bar = _turn(bar, axis, cos[axis], -sin[axis])
    q_bar = bar

    # d tr(R1^T R2) / d omega, with g_i = f_i'(sigma) / sigma
    coef = gc1 * omega_vee + gc2 * quad - 2.0 * fc2 * tr2
    omega_bar = fc1 * vee2 + (2.0 * fc2) * sym_omega + coef * omega
    omega_bar *= -c
    ob0, ob1, ob2 = omega_bar
    turn_bar = sr * ob1 + cr * ob2
    ang_bar[0] += ob1 * omega[2] - ob2 * omega[1]
    ang_bar[1] -= rate[2] * (cp * ob0 + sp * turn_bar)
    rate_bar = np.stack([ob0, cr * ob1 - sr * ob2, cp * turn_bar - sp * ob0])

    # head adjoints
    wt_grad = q_bar @ v3
    bt_grad = np.zeros(3)  # the translation value never enters the loss
    wr_grad = ang_bar @ x3
    wr_grad += rate_bar @ u3
    br_grad = ang_bar.sum(axis=1)
    x_bar = ang_bar.T @ wr
    u_bar = rate_bar.T @ wr
    v_bar = q_bar.T @ wt

    # per layer, s1 is factored out of a_bar = x_bar s' + u_bar s'' p +
    # v_bar (s''' p^2 + s'' q) and p_bar = u_bar s' + 2 v_bar s'' p, where
    # s'' = s1 (1 - 2s) and s''' = s1 (1 - 6 s1)
    grads_hidden = []
    for layer in reversed(range(len(net.hidden))):
        x_in, u_in, v_in, p, q, s1, d, p2 = caches[layer]
        dp = d * p
        q_bar_l = v_bar * s1
        p_bar = v_bar * dp
        p_bar *= 2.0
        p_bar += u_bar
        p_bar *= s1
        a_bar = s1 * -6.0
        a_bar += 1.0
        a_bar *= p2
        a_bar += d * q
        a_bar *= v_bar
        a_bar += u_bar * dp
        a_bar += x_bar
        a_bar *= s1
        w_grad = a_bar.T @ x_in
        w_grad += p_bar.T @ u_in
        w_grad += q_bar_l.T @ v_in
        grads_hidden.append((w_grad, a_bar.sum(axis=0)))
        if layer:  # the joint inputs need no adjoint
            w = net.hidden[layer][0]
            x_bar = a_bar @ w
            u_bar = p_bar @ w
            v_bar = q_bar_l @ w
    grads_hidden.reverse()

    grads = []
    for w_grad, b_grad in grads_hidden:
        grads += [w_grad, b_grad]
    grads += [wt_grad, bt_grad, wr_grad, br_grad]
    return mean_loss, grads


def parameter_gradients(
    net: PoseNet, theta, theta_dot, theta_ddot, alpha, beta, cfg: TrainConfig
):
    """Exact gradients of the mean batch loss, ordered as net.params()."""
    _, grads = _batch_loss_and_grads(
        net,
        np.atleast_2d(theta),
        np.atleast_2d(theta_dot),
        np.atleast_2d(theta_ddot),
        np.atleast_2d(alpha),
        np.atleast_2d(beta),
        cfg,
    )
    return grads


@dataclass(frozen=True)
class SensorDataset:
    """Training arrays for one sensor."""

    theta: np.ndarray
    theta_dot: np.ndarray
    theta_ddot: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)

    @classmethod
    def from_samples(cls, traj, sensor_id: str) -> "SensorDataset":
        """One sensor's columns of a ``chain.Trajectory``, without copying."""
        k = traj.sensor_ids.index(sensor_id)
        return cls(
            traj.theta, traj.theta_dot, traj.theta_ddot, traj.alpha[:, k], traj.beta[:, k]
        )


@dataclass(frozen=True)
class TrainResult:
    net: PoseNet
    final_loss: float
    epoch_losses: tuple[float, ...] = field(default_factory=tuple)


def train(net: PoseNet, dataset: SensorDataset, cfg: TrainConfig) -> TrainResult:
    """Mini-batch Adam on the mean loss; deterministic per seed.

    Raises TrainingDivergedError on a non-finite loss so a blown-up run
    never masquerades as a trained model.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    # every parameter is a view of one flat buffer, so an Adam step is a few
    # whole-buffer operations
    params = net.params()
    flat = np.concatenate([p.ravel() for p in params])
    cuts = np.cumsum([p.size for p in params])[:-1]
    views = [c.reshape(p.shape) for c, p in zip(np.split(flat, cuts), params)]
    net = PoseNet(
        list(zip(views[:-4:2], views[1:-4:2])), tuple(views[-4:-2]), tuple(views[-2:])
    )
    target = _target_terms(dataset.beta, cfg.ts)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    grad = np.empty_like(flat)
    first = np.zeros_like(flat)
    second = np.zeros_like(flat)
    b1, b2, eps = 0.9, 0.999, 1e-8
    step = 0
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            value, grads = _batch_loss_and_grads(
                net,
                dataset.theta[idx],
                dataset.theta_dot[idx],
                dataset.theta_ddot[idx],
                dataset.alpha[idx],
                None,
                cfg,
                target=target[:, idx],
            )
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"loss became non-finite after {len(epoch_losses)} epochs"
                )
            epoch_loss += value * len(idx)
            step += 1
            np.concatenate([g.ravel() for g in grads], out=grad)
            first *= b1
            first += (1.0 - b1) * grad
            second *= b2
            second += (1.0 - b2) * grad * grad
            fhat = first / (1.0 - b1**step)
            shat = second / (1.0 - b2**step)
            flat -= cfg.learning_rate * fhat / (np.sqrt(shat) + eps)
        epoch_losses.append(epoch_loss / n)

    final, _ = _batch_loss_and_grads(
        net,
        dataset.theta,
        dataset.theta_dot,
        dataset.theta_ddot,
        dataset.alpha,
        None,
        cfg,
        want_grads=False,
        target=target,
    )
    if not np.isfinite(final):
        raise TrainingDivergedError("final loss is non-finite")
    return TrainResult(net, float(final), tuple(epoch_losses))
