"""Edge-labelled rooted out-trees, labelled binary dependency matrices, and
the machinery tying the two together.

A tree on N non-root nodes carries N uniquely labelled nodes and N uniquely
labelled edges (one incoming edge per node).  Its dependency matrix has one
row per node and one column per edge, with a 1 wherever the edge lies on the
node's path to the root.  Row/column order never matters: two labelled
matrices are equal when they agree after sorting both label sets.

The dilation/absorption edit moves are defined on both representations.  A
move is guarded; a call whose guard fails returns the input unchanged, so
the tree-side and matrix-side versions commute for every argument pair.
Both guards require the moved node to be a leaf -- on the matrix side this
is the extra requirement that nobody else's path uses the moved row's own
edge, without which the matrix move can leave the set of valid matrices
while the tree move cannot follow it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotATreeError, SchemaError

# Enumerating all trees is factorially explosive; n=5 already yields 155520.
MAX_ENUMERATION_NODES = 5


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OutTree:
    """Rooted tree with uniquely labelled nodes and edges.

    ``parents`` maps each node label to ``(parent, edge)`` where ``parent``
    is another node label or ``None`` for children of the root, and ``edge``
    is the label of the node's incoming edge.  The root itself carries no
    label and no row anywhere.
    """

    parents: dict[str, tuple[str | None, str]]

    def __post_init__(self):
        parents = dict(self.parents)
        object.__setattr__(self, "parents", parents)
        edges = [e for (_, e) in parents.values()]
        if len(set(edges)) != len(edges):
            raise ValueError("edge labels must be distinct")
        for node, (parent, _) in parents.items():
            if parent is not None and parent not in parents:
                raise ValueError(f"unknown parent {parent!r} of {node!r}")
        # every node must reach the root without revisiting anything
        for node in parents:
            seen = set()
            cur: str | None = node
            while cur is not None:
                if cur in seen:
                    raise ValueError(f"cycle through {node!r}")
                seen.add(cur)
                cur = parents[cur][0]

    # -- structure queries --------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.parents))

    @property
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(e for (_, e) in self.parents.values()))

    def parent(self, node: str) -> str | None:
        return self.parents[node][0]

    def edge_to(self, node: str) -> str:
        return self.parents[node][1]

    def children(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(n for n, (p, _) in self.parents.items() if p == node))

    def leaves(self) -> tuple[str, ...]:
        with_children = {p for (p, _) in self.parents.values() if p is not None}
        return tuple(sorted(set(self.parents) - with_children))

    def root_path_edges(self, node: str) -> tuple[str, ...]:
        """Edges on the path from the root down to ``node``."""
        path = []
        cur: str | None = node
        while cur is not None:
            parent, edge = self.parents[cur]
            path.append(edge)
            cur = parent
        return tuple(reversed(path))

    def depth(self, node: str) -> int:
        return len(self.root_path_edges(node))

    def key(self):
        return tuple(sorted(self.parents.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutTree):
            return NotImplemented
        return self.parents == other.parents

    def __hash__(self) -> int:
        return hash(self.key())

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": list(self.edges),
            "parents": [
                {"node": n, "parent": p, "edge": e}
                for n, (p, e) in sorted(self.parents.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "OutTree":
        try:
            parents = {
                rec["node"]: (rec["parent"], rec["edge"]) for rec in doc["parents"]
            }
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed tree document: missing {exc}") from exc
        return cls(parents)

    def to_dot(self, name: str = "body") -> str:
        lines = [f"digraph {name} {{", '  "__root__" [label="root", shape=box];']
        for node in self.nodes:
            lines.append(f'  "{node}" [shape=ellipse];')
        for node, (parent, edge) in sorted(self.parents.items()):
            src = f'"{parent}"' if parent is not None else '"__root__"'
            lines.append(f'  {src} -> "{node}" [label="{edge}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def semi_equivalent(a: OutTree, b: OutTree) -> bool:
    """True when both trees place every shared node label under the same
    parent, ignoring which edge label joins them."""
    if set(a.parents) != set(b.parents):
        return False
    return all(a.parent(n) == b.parent(n) for n in a.parents)


# ---------------------------------------------------------------------------
# Labelled binary matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DependencyMatrix:
    """Binary matrix with labelled rows (nodes/sensors) and columns (edges/
    joints).  Equality is label-canonical: simultaneous row and column
    permutations carrying their labels along do not change the matrix."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray
    merged_groups: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        vals = np.asarray(self.values, dtype=np.int8).copy()
        if vals.ndim != 2 or vals.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("matrix shape does not match label counts")
        if not np.isin(vals, (0, 1)).all():
            raise ValueError("entries must be 0 or 1")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("row labels must be distinct")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("column labels must be distinct")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "merged_groups", dict(self.merged_groups))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def row(self, label: str) -> np.ndarray:
        return self.values[self.row_labels.index(label)]

    def canonical(self) -> "DependencyMatrix":
        ri = np.argsort(self.row_labels)
        ci = np.argsort(self.col_labels)
        return DependencyMatrix(
            tuple(self.row_labels[i] for i in ri),
            tuple(self.col_labels[j] for j in ci),
            self.values[np.ix_(ri, ci)],
        )

    def canonical_key(self):
        c = self.canonical()
        return (c.row_labels, c.col_labels, c.values.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, DependencyMatrix):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def with_values(self, values: np.ndarray) -> "DependencyMatrix":
        return DependencyMatrix(self.row_labels, self.col_labels, values)

    def restrict_rows(self, labels) -> "DependencyMatrix":
        idx = [self.row_labels.index(l) for l in labels]
        return DependencyMatrix(
            tuple(labels), self.col_labels, self.values[idx, :]
        )

    def to_json_dict(self) -> dict:
        doc = {
            "row_labels": list(self.row_labels),
            "col_labels": list(self.col_labels),
            "rows": self.values.astype(int).tolist(),
        }
        if self.merged_groups:
            doc["merged_groups"] = {k: list(v) for k, v in self.merged_groups.items()}
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DependencyMatrix":
        try:
            merged = {
                k: tuple(v) for k, v in doc.get("merged_groups", {}).items()
            }
            return cls(
                tuple(doc["row_labels"]),
                tuple(doc["col_labels"]),
                np.asarray(doc["rows"], dtype=np.int8),
                merged,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed matrix document: {exc}") from exc


def is_permutation_matrix(d: DependencyMatrix) -> bool:
    v = d.values
    return (
        v.shape[0] == v.shape[1]
        and (v.sum(axis=0) == 1).all()
        and (v.sum(axis=1) == 1).all()
    )


# ---------------------------------------------------------------------------
# Column sets and validity conditions
# ---------------------------------------------------------------------------


def column_sets(d: DependencyMatrix) -> dict[str, frozenset[str]]:
    """For each column, the set of row labels intersecting it."""
    out = {}
    for j, col in enumerate(d.col_labels):
        rows = np.nonzero(d.values[:, j])[0]
        out[col] = frozenset(d.row_labels[i] for i in rows)
    return out


def unique_element_sets(d: DependencyMatrix) -> dict[str, frozenset[str]]:
    """Rows exclusive to a column among its proper-subset columns: the column
    set minus the union of every strictly smaller column set it contains."""
    sets = column_sets(d)
    out = {}
    for col, s in sets.items():
        covered: set[str] = set()
        for other, s2 in sets.items():
            if other != col and s2 < s:
                covered |= s2
        out[col] = s - covered
    return out


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the six structural conditions on a labelled binary matrix."""

    no_zero_rows: bool  # 1
    no_zero_cols: bool  # 2
    no_duplicate_rows: bool  # 3
    no_duplicate_cols: bool  # 4
    laminar_columns: bool  # 5
    unique_element_singletons: bool  # 6

    @property
    def satisfies_P(self) -> bool:
        return (
            self.no_zero_rows
            and self.no_zero_cols
            and self.no_duplicate_rows
            and self.no_duplicate_cols
            and self.laminar_columns
        )

    @property
    def satisfies_P0(self) -> bool:
        return (
            self.no_zero_rows
            and self.no_zero_cols
            and self.laminar_columns
            and self.unique_element_singletons
        )

    @property
    def satisfies_Pminus(self) -> bool:
        return self.no_zero_rows and self.no_duplicate_rows and self.laminar_columns

    def failed(self) -> tuple[int, ...]:
        flags = (
            self.no_zero_rows,
            self.no_zero_cols,
            self.no_duplicate_rows,
            self.no_duplicate_cols,
            self.laminar_columns,
            self.unique_element_singletons,
        )
        return tuple(i + 1 for i, ok in enumerate(flags) if not ok)


def check_conditions(d: DependencyMatrix) -> ConditionReport:
    v = d.values
    k, n = v.shape
    no_zero_rows = bool((v.sum(axis=1) > 0).all()) if k else True
    no_zero_cols = bool((v.sum(axis=0) > 0).all()) if n else True
    no_dup_rows = len({r.tobytes() for r in v}) == k
    no_dup_cols = len({c.tobytes() for c in v.T}) == n
    laminar = True
    cols = [frozenset(np.nonzero(v[:, j])[0]) for j in range(n)]
    for a, b in itertools.combinations(cols, 2):
        if not (a <= b or a >= b or not (a & b)):
            laminar = False
            break
    singletons = all(len(s) == 1 for s in unique_element_sets(d).values())
    return ConditionReport(
        no_zero_rows, no_zero_cols, no_dup_rows, no_dup_cols, laminar, singletons
    )


# ---------------------------------------------------------------------------
# Tree <-> matrix translation
# ---------------------------------------------------------------------------


def tree_to_matrix(t: OutTree) -> DependencyMatrix:
    """Dependency matrix of a tree: entry (node, edge) is 1 iff the edge lies
    on the node's path to the root.  Row sums equal node depths."""
    rows = t.nodes
    cols = t.edges
    col_index = {c: j for j, c in enumerate(cols)}
    vals = np.zeros((len(rows), len(cols)), dtype=np.int8)
    for i, node in enumerate(rows):
        for edge in t.root_path_edges(node):
            vals[i, col_index[edge]] = 1
    return DependencyMatrix(rows, cols, vals)


def matrix_to_tree(d: DependencyMatrix) -> OutTree:
    """Grow the out-tree encoded by a valid square matrix.

    Rows are attached in order of increasing depth (row sum), ties broken by
    row label.  A depth-1 row hangs off the root via its single 1-column; a
    deeper row hangs off the already-explored row whose 1-set is smaller by
    exactly its own parental edge.
    """
    k, n = d.shape
    report = check_conditions(d)
    if k != n:
        raise NotATreeError(f"matrix is {k}x{n}, needs to be square", report)
    if not report.satisfies_P:
        raise NotATreeError(f"conditions {report.failed()} violated", report)

    order = sorted(d.row_labels, key=lambda r: (int(d.row(r).sum()), r))
    explored: list[tuple[str, frozenset[int]]] = []
    parents: dict[str, tuple[str | None, str]] = {}
    for label in order:
        ones = frozenset(np.nonzero(d.row(label))[0])
        if len(ones) == 1:
            (j,) = ones
            parents[label] = (None, d.col_labels[j])
        else:
            for prev_label, prev_ones in explored:
                diff = ones - prev_ones
                if prev_ones < ones and len(diff) == 1:
                    (j,) = diff
                    parents[label] = (prev_label, d.col_labels[j])
                    break
            else:
                raise RuntimeError(
                    "no parent row found; cannot happen for a valid matrix"
                )
        explored.append((label, ones))
    return OutTree(parents)


# ---------------------------------------------------------------------------
# Dilation and absorption
# ---------------------------------------------------------------------------


def dilation_tree(t: OutTree, i: str, j: str) -> OutTree:
    """Move leaf node ``i`` (currently hanging off the root) together with its
    edge to become a direct child of node ``j``.  Guard failure is a no-op."""
    if i == j or i not in t.parents or j not in t.parents:
        return t
    parent, edge = t.parents[i]
    if parent is not None or t.children(i):
        return t
    new = dict(t.parents)
    new[i] = (j, edge)
    return OutTree(new)


def absorption_tree(t: OutTree, j: str, i: str) -> OutTree:
    """Move leaf node ``i`` together with its edge from under node ``j`` to
    under the root.  Guard failure is a no-op."""
    if i == j or i not in t.parents or j not in t.parents:
        return t
    parent, edge = t.parents[i]
    if parent != j or t.children(i):
        return t
    new = dict(t.parents)
    new[i] = (None, edge)
    return OutTree(new)


def _row_indices(d: DependencyMatrix, i: str, j: str) -> tuple[int, int] | None:
    if i == j or i not in d.row_labels or j not in d.row_labels:
        return None
    return d.row_labels.index(i), d.row_labels.index(j)


def dilation_matrix(d: DependencyMatrix, i: str, j: str) -> DependencyMatrix:
    """Matrix counterpart of tree dilation: row ``i`` (a single 1, nobody
    else using its column) XOR-inherits row ``j``.  Guard failure is a no-op."""
    idx = _row_indices(d, i, j)
    if idx is None:
        return d
    ri, rj = d.values[idx[0]], d.values[idx[1]]
    if ri.sum() != 1:
        return d
    c = int(np.argmax(ri))
    # no other path uses i's edge, else i is no leaf; so row j (j != i)
    # has a 0 there and the XOR below is a disjoint union
    if d.values[:, c].sum() != 1:
        return d
    vals = d.values.copy()
    vals[idx[0]] = ri ^ rj
    return d.with_values(vals)


def absorption_matrix(d: DependencyMatrix, j: str, i: str) -> DependencyMatrix:
    """Matrix counterpart of tree absorption: leaf row ``i``, one 1 deeper
    than row ``j``, drops everything it shares with ``j``.  Guard failure is
    a no-op."""
    idx = _row_indices(d, i, j)
    if idx is None:
        return d
    ri, rj = d.values[idx[0]], d.values[idx[1]]
    x = ri ^ rj
    if x.sum() != 1 or ri.sum() <= rj.sum():
        return d
    c = int(np.argmax(x))
    if d.values[:, c].sum() != 1:  # i's own edge must be used by i alone
        return d
    vals = d.values.copy()
    vals[idx[0]] = x
    return d.with_values(vals)


def apply_operations(d: DependencyMatrix, ops) -> DependencyMatrix:
    """Replay a list of ("ab", j, i) / ("di", i, j) moves."""
    for op in ops:
        kind = op[0]
        if kind == "ab":
            d = absorption_matrix(d, op[1], op[2])
        elif kind == "di":
            d = dilation_matrix(d, op[1], op[2])
        else:
            raise ValueError(f"unknown operation {kind!r}")
    return d


def invert_operations(ops):
    """Inverse move list: reversed order, each absorption becomes the
    dilation that undoes it and vice versa."""
    out = []
    for op in reversed(ops):
        kind, a, b = op
        if kind == "ab":  # ab(j -> i) undone by di(i -> j)
            out.append(("di", b, a))
        else:
            out.append(("ab", b, a))
    return out


def reduce_to_permutation(d: DependencyMatrix):
    """Flatten a valid matrix to a permutation matrix by absorbing leaves,
    deepest first.  Returns the permutation matrix and the replayable move
    log; inverting the log grows the original matrix back."""
    tree = matrix_to_tree(d)  # validates; raises NotATreeError otherwise
    log: list[tuple[str, str, str]] = []
    current = d
    while True:
        deep_leaves = [n for n in tree.leaves() if tree.depth(n) > 1]
        if not deep_leaves:
            break
        i = max(deep_leaves, key=lambda n: (tree.depth(n), n))
        j = tree.parent(i)
        assert j is not None
        current = absorption_matrix(current, j, i)
        tree = absorption_tree(tree, j, i)
        log.append(("ab", j, i))
    return current, log


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def default_node_labels(n: int) -> tuple[str, ...]:
    return tuple(f"n{i}" for i in range(1, n + 1))


def default_edge_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, n + 1))


def enumerate_trees(n: int, node_labels=None, edge_labels=None):
    """Yield every labelled out-tree on n nodes exactly once.

    There are (n+1)^(n-1) rooted node structures (each node picks a parent
    among the root and the other nodes, acyclic) times n! edge labellings.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > MAX_ENUMERATION_NODES:
        raise ValueError(
            f"enumeration of {n} nodes exceeds the n <= {MAX_ENUMERATION_NODES} guard"
        )
    nodes = tuple(node_labels) if node_labels else default_node_labels(n)
    edges = tuple(edge_labels) if edge_labels else default_edge_labels(n)
    if len(nodes) != n or len(edges) != n:
        raise ValueError("label counts must equal n")

    choices = (None,) + nodes
    for assignment in itertools.product(choices, repeat=n):
        parent_of = dict(zip(nodes, assignment))
        ok = True
        for node in nodes:
            seen = set()
            cur = node
            while cur is not None:
                if cur in seen or parent_of[cur] == cur:
                    ok = False
                    break
                seen.add(cur)
                cur = parent_of[cur]
            if not ok:
                break
        if not ok:
            continue
        for perm in itertools.permutations(edges):
            yield OutTree(
                {node: (parent_of[node], perm[k]) for k, node in enumerate(nodes)}
            )


def tree_count_formula(n: int) -> int:
    """(n+1)^(n-1) * n! -- Cayley's count of rooted structures times the
    number of node-edge pairings."""
    import math

    return (n + 1) ** (n - 1) * math.factorial(n)
