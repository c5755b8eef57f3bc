"""Correctness checks for benchmark items, written apart from the program.

Nothing here calls the program's condition checks or its matrix equality:
validity, Hamming distance and label-aligned comparison are recomputed from
plain rows and labels, so a fault in ``bodyschema.topology`` cannot make a
wrong output look right.
"""

from __future__ import annotations

import numpy as np


def tree_matches(report_tree: dict, truth_parents: dict) -> bool:
    """True when a report's tree document names, for every link, the parent
    and joint given by the input robot table ``{node: (parent, edge)}``."""
    got = {
        rec["node"]: (rec["parent"], rec["edge"]) for rec in report_tree["parents"]
    }
    return got == {node: tuple(pe) for node, pe in truth_parents.items()}


def is_tree_matrix(values) -> bool:
    """A square 0/1 matrix encodes a rooted tree exactly when its N rows are
    distinct and non-zero and any two of its column sets are nested or
    disjoint.  (A laminar family of columns has at most as many distinct
    non-empty atoms as distinct columns, so these rules also force N distinct
    non-empty columns.)"""
    v = np.asarray(values)
    if v.ndim != 2 or v.shape[0] != v.shape[1] or not np.isin(v, (0, 1)).all():
        return False
    rows = [tuple(int(x) for x in r) for r in v]
    if any(sum(r) == 0 for r in rows) or len(set(rows)) != len(rows):
        return False
    cols = [frozenset(np.flatnonzero(v[:, j]).tolist()) for j in range(v.shape[1])]
    for a in range(len(cols)):
        for b in range(a + 1, len(cols)):
            x, y = cols[a], cols[b]
            if x & y and not (x <= y or y <= x):
                return False
    return True


def as_entries(row_labels, col_labels, values) -> dict[str, dict[str, int]]:
    """Label-keyed view ``{row: {col: 0/1}}`` of a labelled matrix."""
    v = np.asarray(values)
    return {
        r: {c: int(v[i, j]) for j, c in enumerate(col_labels)}
        for i, r in enumerate(row_labels)
    }


def hamming_padded(out: dict, ref: dict) -> int:
    """Entries where ``out`` differs from ``ref``, aligned by labels; a row of
    ``out`` that ``ref`` lacks is compared with a zero row."""
    total = 0
    for r, row in out.items():
        ref_row = ref.get(r, {})
        total += sum(1 for c, x in row.items() if x != ref_row.get(c, 0))
    return total


def keeps_rows(out: dict, observed: dict) -> bool:
    """True when every observed row appears unchanged in ``out``."""
    return all(out.get(r) == row for r, row in observed.items())
