"""Minimal SO(3)/SE(3) algebra used throughout the package.

Rotations are plain 3x3 numpy arrays, homogeneous transforms are 4x4 arrays
with the bottom row [0, 0, 0, 1].  All functions are pure.
"""

from __future__ import annotations

import numpy as np

ROTATION_TOL = 1e-9

# Below this body rate (rad/s) the rotation axis is undefined and the
# integrated rotation is taken to be the identity.
ZERO_RATE = 1e-12


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector: hat(v) @ w == cross(v, w).
    Leading axes of ``v`` are batch axes."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    k = np.zeros(v.shape[:-1] + (3, 3))
    k[..., 0, 1], k[..., 0, 2] = -z, y
    k[..., 1, 0], k[..., 1, 2] = z, -x
    k[..., 2, 0], k[..., 2, 1] = -y, x
    return k


def vee(w: np.ndarray) -> np.ndarray:
    """Inverse of hat.  Reads the canonical entries, so the round trip
    hat(vee(w)) == w is exact for skew-symmetric input."""
    w = np.asarray(w, dtype=float)
    return np.array([w[2, 1], w[0, 2], w[1, 0]])


def vee_antisym(w: np.ndarray) -> np.ndarray:
    """vee of the antisymmetric part of w; use on numerically near-skew input.
    Leading axes of ``w`` are batch axes."""
    w = np.asarray(w, dtype=float)
    return 0.5 * np.stack(
        [
            w[..., 2, 1] - w[..., 1, 2],
            w[..., 0, 2] - w[..., 2, 0],
            w[..., 1, 0] - w[..., 0, 1],
        ],
        axis=-1,
    )


def rodrigues(omega_b: np.ndarray, ts) -> np.ndarray:
    """Rotation reached after spinning at constant body rate omega_b for ts
    seconds.

    The rate is decomposed into a speed and a unit axis; speeds below
    ZERO_RATE give the identity (the axis would be undefined).  Leading
    axes of ``omega_b`` (shape ``(..., 3)``) and of ``ts`` broadcast against
    each other, and every matrix of the stack equals the one-rate result.
    """
    omega_b = np.asarray(omega_b, dtype=float)
    # the 1x3 @ 3x1 product is the dot product np.linalg.norm takes of one
    # vector, so each speed equals that norm bit for bit
    speed = np.sqrt((omega_b[..., None, :] @ omega_b[..., :, None])[..., 0, 0])
    still = speed < ZERO_RATE
    k = hat(omega_b / np.where(still, 1.0, speed)[..., None])
    angle = speed * np.asarray(ts, dtype=float)
    r = (
        np.eye(3)
        + np.sin(angle)[..., None, None] * k
        + (1.0 - np.cos(angle))[..., None, None] * (k @ k)
    )
    return np.where(still[..., None, None], np.eye(3), r)


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rpy_matrix(angles: np.ndarray) -> np.ndarray:
    """Rotation from [roll, pitch, yaw]: R_z(yaw) @ R_y(pitch) @ R_x(roll)."""
    r, p, y = np.asarray(angles, dtype=float)
    return rot_z(y) @ rot_y(p) @ rot_x(r)


def rpy_from_matrix(r: np.ndarray) -> np.ndarray:
    """Extract [roll, pitch, yaw] with r == rpy_matrix(result).

    At the pitch singularity (|pitch| = pi/2) roll is pinned to zero; the
    returned triple still reproduces r.  Leading axes of ``r`` are batch
    axes.
    """
    r = np.asarray(r, dtype=float)
    sp = np.minimum(1.0, np.maximum(-1.0, -r[..., 2, 0]))
    pitch = np.arcsin(sp)
    regular = np.cos(pitch) > 1e-9
    roll = np.where(regular, np.arctan2(r[..., 2, 1], r[..., 2, 2]), 0.0)
    yaw = np.where(
        regular,
        np.arctan2(r[..., 1, 0], r[..., 0, 0]),
        np.arctan2(-r[..., 0, 1], r[..., 1, 1]),
    )
    return np.stack([roll, pitch, yaw], axis=-1)


def rotation_angle(r: np.ndarray) -> float:
    """Angle of rotation in [0, pi] via the trace identity
    tr(R) = 1 + 2 cos(angle).  Clamping absorbs round-off."""
    r = np.asarray(r, dtype=float)
    c = (np.trace(r) - 1.0) / 2.0
    return float(np.arccos(min(1.0, max(-1.0, c))))


def make_transform(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rotation
    t[:3, 3] = np.asarray(translation, dtype=float)
    return t


def translate(v: np.ndarray) -> np.ndarray:
    return make_transform(np.eye(3), v)


def is_rotation(r: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if not np.allclose(r @ r.T, np.eye(3), atol=tol):
        return False
    return abs(np.linalg.det(r) - 1.0) <= tol
