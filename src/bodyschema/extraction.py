"""From pose maps to a dependency matrix.

The pose Jacobian of a sensor is squashed to a 4xN matrix of column norms
(one row each for the three rotation axes and the translation).  That matrix
is invariant to any constant change of reference frame, so its zero columns
identify joints the sensor does not depend on regardless of where the pose
map anchors itself.  Aggregating the squashed Jacobian over many sampled
configurations, max-filtering, normalizing and thresholding yields one
binary dependency row per sensor; sensors with identical rows form one group,
and a separation objective helps pick the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSensorError
from .topology import DependencyMatrix


def tij(jac_fn, theta) -> np.ndarray:
    """Transform-invariant squash of a 12xN pose Jacobian: entry (r, j) is
    the Euclidean norm of the j-th column of the r-th 3-row block.

    A (T, N) stack of configurations is handed to ``jac_fn`` in one call,
    which must return the (T, 12, N) stack of their Jacobians; the result is
    then the (T, 4, N) stack of squashes."""
    theta = np.asarray(theta, dtype=float)
    jac = np.asarray(jac_fn(theta), dtype=float)
    if jac.shape[:-2] != theta.shape[:-1] or jac.shape[-2:-1] != (12,):
        raise ValueError(f"expected a 12xN Jacobian, got shape {jac.shape}")
    blocks = jac.reshape(jac.shape[:-2] + (4, 3, -1))
    return np.linalg.norm(blocks, axis=-2)


def tij_aggregate(jac_fn, thetas) -> np.ndarray:
    """Root mean square of the squashed Jacobian over sampled configurations.

    ``jac_fn`` is called once, with all configurations as a (T, N) stack
    (see ``tij``).

    The RMS is zero precisely when a column is identically zero.  The
    variance would miss a column whose norm is nonzero but constant in
    theta -- which is exactly what an ideal pose map produces for a sensor's
    own terminal joint, since that column's norm reduces to
    |hat(axis) @ mount| regardless of configuration.
    """
    thetas = np.asarray(list(thetas), dtype=float)
    if len(thetas) < 2:
        raise ValueError("need at least two configurations")
    stack = tij(jac_fn, thetas)
    return np.sqrt((stack**2).mean(axis=0))


def feature_raw(jbar: np.ndarray) -> np.ndarray:
    """Column-wise max of the aggregated 4xN matrix, normalized to unit
    Euclidean length.  All-zero input means the sensor never moved."""
    jbar = np.asarray(jbar, dtype=float)
    m = jbar.max(axis=0)
    norm = float(np.linalg.norm(m))
    if norm == 0.0:
        raise DegenerateSensorError("sensor shows no joint dependence at all")
    return m / norm


def threshold(dprime: np.ndarray, delta: float) -> np.ndarray:
    """Binarize a normalized feature: 1 where the entry exceeds delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    return (np.asarray(dprime, dtype=float) > delta).astype(np.int8)


# ---------------------------------------------------------------------------
# Row grouping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterResult:
    assignments: np.ndarray  # (n,) group index per row
    means: np.ndarray  # (k, d) the row each group shares
    counts: np.ndarray  # (k,)

    @property
    def n_clusters(self) -> int:
        return len(self.counts)


def cluster_rows(features) -> ClusterResult:
    """Group identical dependency rows, numbering the groups in order of
    first appearance; returns each group's row and size.

    This is what DP-means returns on 0/1 rows for any concentration: its
    spawn penalty is below 1 and distinct 0/1 rows are at squared distance
    1 or more (``notes/decisions.md``, "Row grouping")."""
    x = np.asarray([np.asarray(f, dtype=float) for f in features])
    if x.ndim != 2 or len(x) < 1:
        raise ValueError("need at least one feature row")
    rows, first, inverse, counts = np.unique(
        x, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # NumPy 2.0.0 shapes the inverse (n, 1) when an axis is given
    return ClusterResult(rank[inverse.reshape(-1)], rows[order], counts[order])


def reduce_rows(groups: ClusterResult, max_rows: int) -> list[int]:
    """Indices of at most ``max_rows`` groups, largest first; groups of
    equal size go in the order of their rows."""
    if max_rows < 1:
        raise ValueError("max_rows must be positive")
    order = sorted(
        range(groups.n_clusters),
        key=lambda k: (-int(groups.counts[k]), groups.means[k].tolist()),
    )
    return order[:max_rows]


def separation_score(groups: ClusterResult, lam: float) -> float:
    """Separation objective for one candidate threshold: |det| of the
    pairwise group-row distance matrix over the within-group squared
    dispersion, plus lam times the group-size entropy.  Exact groups have
    no dispersion, so its floor 1e-12 is the divisor.  The distance matrix
    is not sign-definite, so the absolute determinant is used."""
    mu = groups.means
    s = np.linalg.norm(mu[:, None, :] - mu[None, :, :], axis=2)
    p = groups.counts / groups.counts.sum()
    return abs(float(np.linalg.det(s))) / 1e-12 - lam * float(np.sum(p * np.log(p)))


def build_matrix(features, labels, col_labels) -> DependencyMatrix:
    """Stack binary rows into a labelled matrix, merging duplicate rows and
    dropping all-zero ones (a sensor rigidly attached to the root).  The
    merged groups record which input labels collapsed into each kept row."""
    feats = [np.asarray(f, dtype=np.int8) for f in features]
    if len(feats) != len(labels):
        raise ValueError("one label per feature required")
    kept_rows: list[np.ndarray] = []
    kept_labels: list[str] = []
    groups: dict[str, list[str]] = {}
    index_of: dict[bytes, int] = {}
    for row, label in zip(feats, labels):
        if row.sum() == 0:
            continue
        key = row.tobytes()
        if key in index_of:
            groups[kept_labels[index_of[key]]].append(label)
        else:
            index_of[key] = len(kept_rows)
            kept_rows.append(row)
            kept_labels.append(label)
            groups[label] = [label]
    if not kept_rows:
        raise DegenerateSensorError("every row was all-zero")
    return DependencyMatrix(
        tuple(kept_labels),
        tuple(col_labels),
        np.stack(kept_rows),
        {k: tuple(v) for k, v in groups.items()},
    )
