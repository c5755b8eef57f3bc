"""Filling a partially observed dependency matrix.

Links carrying no sensor contribute no row, leaving a K-by-N matrix.  When
the observed rows satisfy the partial condition set (no all-zero rows, no
duplicate rows, laminar column sets), the matrix can always be filled to a
full valid N-by-N matrix: pick one column per distinct unique-element set,
then repeatedly give each leftover column a fresh row marking that column
and every column whose current set of rows properly contains its own.  The
filling is unique exactly when a single row is missing and one column's
unique-element set is empty.
"""

from __future__ import annotations

import numpy as np

from .errors import NotCompletableError
from .topology import (
    DependencyMatrix,
    check_conditions,
    column_sets,
    unique_element_sets,
)


def _require_pminus(d: DependencyMatrix):
    report = check_conditions(d)
    if not report.satisfies_Pminus:
        raise NotCompletableError(
            f"partial matrix violates conditions {report.failed()}", report
        )
    return report


def is_unique_completion(dminus: DependencyMatrix) -> bool:
    """True when the filling is forced: exactly one row is missing and
    exactly one column has an empty unique-element set, that column itself
    still being used by some observed row.

    A column nobody uses (the missing node was a leaf) admits several valid
    placements -- the orphaned edge can re-attach anywhere -- so it never
    certifies uniqueness, brute-force enumeration confirms.
    """
    _require_pminus(dminus)
    k, n = dminus.shape
    if n - k != 1:
        return False
    sets = column_sets(dminus)
    empties = [c for c, j in unique_element_sets(dminus).items() if not j]
    return len(empties) == 1 and bool(sets[empties[0]])


def fresh_labels(existing, count: int) -> list[str]:
    """The first ``count`` of the labels ``u1, u2, ...`` not in ``existing``."""
    taken = set(existing)
    labels: list[str] = []
    n = 0
    while len(labels) < count:
        n += 1
        if f"u{n}" not in taken:
            labels.append(f"u{n}")
    return labels


def complete(
    dminus: DependencyMatrix, unobserved_labels, seed: int = 0
) -> DependencyMatrix:
    """Fill a K-by-N partial matrix to a valid N-by-N matrix whose first K
    rows are the input.

    ``unobserved_labels`` supplies the N-K fresh row labels.  Among columns
    sharing a unique-element set the kept representative is a seeded random
    choice; leftover columns are processed by decreasing column-set size.
    """
    report = _require_pminus(dminus)
    k, n = dminus.shape
    unobserved = list(unobserved_labels)
    if len(unobserved) != n - k:
        raise ValueError(f"need exactly {n - k} fresh row labels, got {len(unobserved)}")
    if set(unobserved) & set(dminus.row_labels):
        raise ValueError("fresh row labels collide with observed rows")
    if n == k:
        if not report.satisfies_P:
            raise NotCompletableError(
                f"square input violates conditions {report.failed()}", report
            )
        return dminus

    rng = np.random.default_rng(seed)
    jsets = unique_element_sets(dminus)
    by_value: dict[frozenset, list[str]] = {}
    for col in dminus.col_labels:
        if jsets[col]:
            by_value.setdefault(jsets[col], []).append(col)
    if len(by_value) != k:
        raise NotCompletableError(
            f"expected {k} distinct non-empty unique-element sets, found {len(by_value)}"
        )
    picked = set()
    for value in sorted(by_value, key=sorted):
        candidates = sorted(by_value[value])
        picked.add(candidates[int(rng.integers(len(candidates)))])

    sets_now = column_sets(dminus)
    leftovers = sorted(
        (c for c in dminus.col_labels if c not in picked),
        key=lambda c: (-len(sets_now[c]), c),
    )

    rows = list(dminus.row_labels)
    vals = dminus.values.copy()
    col_index = {c: j for j, c in enumerate(dminus.col_labels)}
    for col, fresh in zip(leftovers, sorted(unobserved)):
        current = DependencyMatrix(tuple(rows), dminus.col_labels, vals)
        sets_cur = column_sets(current)
        new_row = np.zeros(n, dtype=np.int8)
        new_row[col_index[col]] = 1
        # A column nobody uses gets its node attached at the root: marking
        # "every proper superset of the empty set" would mark every column
        # and break laminarity.
        if sets_cur[col]:
            for other in dminus.col_labels:
                if other != col and sets_cur[other] > sets_cur[col]:
                    new_row[col_index[other]] = 1
        rows.append(fresh)
        vals = np.vstack([vals, new_row])

    out = DependencyMatrix(tuple(rows), dminus.col_labels, vals)
    final = check_conditions(out)
    if not final.satisfies_P:
        raise RuntimeError(
            f"completion produced an invalid matrix (conditions {final.failed()}); "
            "cannot happen for a valid partial input"
        )
    return out
