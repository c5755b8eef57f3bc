"""Built-in desk-scale robots: six five-joint topologies covering a serial
chain, increasingly branched trees, and a pure star, each realized with
deterministic geometry and a configurable number of sensors per link."""

from __future__ import annotations

import numpy as np

from . import rigid_motion as rm
from .chain import Joint, RobotSpec
from .topology import OutTree

# node -> (parent, joint) maps; links l1..l5, joints j1..j5
BUILTIN_TOPOLOGIES = {
    "robot1": {  # serial chain
        "l1": (None, "j1"),
        "l2": ("l1", "j2"),
        "l3": ("l2", "j3"),
        "l4": ("l3", "j4"),
        "l5": ("l4", "j5"),
    },
    "robot2": {  # chain with one side branch
        "l1": (None, "j1"),
        "l2": ("l1", "j2"),
        "l3": ("l2", "j3"),
        "l4": ("l3", "j4"),
        "l5": ("l2", "j5"),
    },
    "robot3": {  # Y: two arms off the first link
        "l1": (None, "j1"),
        "l2": ("l1", "j2"),
        "l3": ("l1", "j3"),
        "l4": ("l2", "j4"),
        "l5": ("l3", "j5"),
    },
    "robot4": {  # wide fan with one extension
        "l1": (None, "j1"),
        "l2": ("l1", "j2"),
        "l3": ("l1", "j3"),
        "l4": ("l1", "j4"),
        "l5": ("l2", "j5"),
    },
    "robot5": {  # two limbs from the base
        "l1": (None, "j1"),
        "l2": (None, "j2"),
        "l3": ("l1", "j3"),
        "l4": ("l3", "j4"),
        "l5": ("l2", "j5"),
    },
    "robot6": {  # star: every joint at the base
        "l1": (None, "j1"),
        "l2": (None, "j2"),
        "l3": (None, "j3"),
        "l4": (None, "j4"),
        "l5": (None, "j5"),
    },
}

BUILTIN_NAMES = tuple(sorted(BUILTIN_TOPOLOGIES))

# the most sensors ``builtin_robot`` mounts on one link; manifests are checked
# against it
MAX_SENSORS_PER_LINK = 12

_AXES = (
    np.array([0.0, 0.0, 1.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 1.0]),
    np.array([1.0, 0.0, 0.0]),
)


def _mount(idx: int, count: int, link_idx: int) -> np.ndarray:
    """Deterministic mount pose: sensors wrap around the link at staggered
    positions so no two share a frame and none sits on a joint axis."""
    around = 2.0 * np.pi * idx / max(count, 1)
    along = 0.10 + 0.015 * idx + 0.01 * link_idx
    return (
        rm.make_transform(rm.rot_x(around), [along, 0.045, 0.025])
        @ rm.make_transform(rm.rot_z(0.3 + 0.05 * idx), [0.0, 0.0, 0.0])
        @ rm.make_transform(rm.rot_y(0.2), [0.0, 0.0, 0.0])
    )


def builtin_robot(
    name: str, sensors_per_link: int = 2, gravity=(0.0, 0.0, -9.8)
) -> RobotSpec:
    """Instantiate one of robot1..robot6 at desk scale (~0.25 m links).

    Every joint frame is tilted away from the vertical so that no axis ends
    up parallel to gravity at rest: a joint spinning about the gravity
    direction barely registers on accelerometers (R^T g is invariant to it),
    which starves pose learning of its strongest signal.
    """
    if name not in BUILTIN_TOPOLOGIES:
        raise ValueError(f"unknown robot {name!r}; choose from {BUILTIN_NAMES}")
    if not 1 <= sensors_per_link <= MAX_SENSORS_PER_LINK:
        raise ValueError(f"sensors_per_link must be in 1..{MAX_SENSORS_PER_LINK}")
    topo = OutTree(BUILTIN_TOPOLOGIES[name])
    joints: dict[str, Joint] = {}
    for node in topo.nodes:
        parent, edge = topo.parents[node]
        j_idx = int(edge[1:]) - 1
        axis = _AXES[j_idx % len(_AXES)]
        if parent is None:
            rank = sorted(n for n, (p, _) in topo.parents.items() if p is None).index(node)
            tilt = rm.rot_x(0.45 + 0.12 * rank) @ rm.rot_y(0.35 + 0.09 * rank)
            offset = rm.make_transform(
                tilt @ rm.rot_z(0.5 * rank), [0.05 * rank, 0.04 * rank, 0.10]
            )
        else:
            rank = topo.children(parent).index(node)
            tilt = rm.rot_y(0.4 + 0.11 * rank + 0.07 * j_idx) @ rm.rot_x(0.3 - 0.05 * j_idx)
            offset = rm.make_transform(
                tilt @ rm.rot_z(0.25 * rank), [0.26 - 0.03 * rank, 0.06 * rank, 0.04]
            )
        joints[edge] = Joint(axis, offset)

    mounts = {
        node: tuple(
            _mount(k, sensors_per_link, i) for k in range(sensors_per_link)
        )
        for i, node in enumerate(topo.nodes)
    }
    return RobotSpec(topo, joints, mounts, np.asarray(gravity, dtype=float))
