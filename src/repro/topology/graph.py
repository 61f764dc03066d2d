"""A small, deterministic, multiplicity-aware undirected graph.

The paper reasons about three graph-like objects:

* simple graphs (butterflies, hypercubes),
* multigraphs obtained by merging rows/clusters into supernodes ("complete
  multigraphs" with quadruple links, Section 3.2), and
* explicit isomorphisms ("automorphisms of butterfly networks").

``Graph`` supports all three: parallel edges are tracked by multiplicity,
iteration order is deterministic (insertion order for nodes, sorted
within adjacency when asked), and there are first-class operations for
quotienting by a node mapping and checking that an explicit node bijection
is an isomorphism.  We deliberately avoid networkx here: the graphs are
the core data structure of the reproduction and we want exact,
multiplicity-preserving semantics plus cheap hashing of edge multisets.

Construction has two speeds.  The per-edge path (:meth:`Graph.add_edge`)
accepts arbitrary hashable nodes and updates the adjacency dict eagerly.
The bulk path (:meth:`Graph.add_edges_from` with an int64 ndarray,
assembled with :func:`edge_array`) is columnar: chunks are validated
vectorized and *staged*; whole-graph operations — ``num_edges``,
:meth:`Graph.to_edge_array`, :meth:`Graph.same_as`,
:meth:`Graph.quotient`, :meth:`Graph.subgraph` — run directly on the
staged arrays, and the dict-of-Counter adjacency is folded in lazily the
first time a per-node query (neighbors, degrees, edge iteration, ...)
needs it.  This is what lets the topology generators materialise graphs
with hundreds of thousands of edges in milliseconds and is the substrate
for the sharding/batching work on the roadmap.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

Node = Hashable
Edge = Tuple[Node, Node]

__all__ = ["Graph", "edge_array"]


def edge_array(
    u: Union[np.ndarray, Sequence],
    v: Union[np.ndarray, Sequence],
) -> np.ndarray:
    """Assemble an int64 edge array for :meth:`Graph.add_edges_from`.

    ``u`` and ``v`` describe the two endpoint columns of ``E`` edges:

    * 1-D arrays (or scalars broadcast against the other side) give scalar
      int nodes and a ``(E, 2)`` result;
    * tuples/lists of per-component columns give tuple nodes — e.g.
      ``edge_array((rows, stage), (rows2, stage + 1))`` for the
      ``(row, stage)`` nodes of multistage networks — and a ``(E, 2, k)``
      result.

    Scalar entries (like a constant stage index) broadcast to the common
    length.
    """
    tuple_nodes = isinstance(u, (tuple, list))
    if tuple_nodes != isinstance(v, (tuple, list)):
        raise ValueError("endpoint descriptions must have the same shape")
    ucols = tuple(u) if tuple_nodes else (u,)
    vcols = tuple(v) if tuple_nodes else (v,)
    if len(ucols) != len(vcols):
        raise ValueError(
            f"endpoint arity mismatch: {len(ucols)} vs {len(vcols)}"
        )
    m = max(np.size(c) for c in ucols + vcols)
    if tuple_nodes:
        out = np.empty((m, 2, len(ucols)), dtype=np.int64)
        for j, col in enumerate(ucols):
            out[:, 0, j] = col
        for j, col in enumerate(vcols):
            out[:, 1, j] = col
    else:
        out = np.empty((m, 2), dtype=np.int64)
        out[:, 0] = ucols[0]
        out[:, 1] = vcols[0]
    return out


def _canon_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """Int64 edge rows ``[u..., v...]`` (``k`` columns an endpoint) with
    each row's endpoints put in lexicographic order, as a new array."""
    a, b = rows[:, :k], rows[:, k:]
    flip = np.zeros(len(rows), dtype=bool)
    decided = np.zeros(len(rows), dtype=bool)
    for j in range(k):
        less = b[:, j] < a[:, j]
        flip |= less & ~decided
        decided |= less | (b[:, j] > a[:, j])
    out = rows.copy()
    np.copyto(out[:, :k], b, where=flip[:, None])
    np.copyto(out[:, k:], a, where=flip[:, None])
    return out


def _canon(u: Node, v: Node) -> Edge:
    """Canonical (sorted) form of an undirected edge key."""
    # Nodes in this project are ints or tuples of ints; both sort fine.
    return (u, v) if _key(u) <= _key(v) else (v, u)


def _key(n: Node):
    # Allow mixing of ints and tuples in exceptional cases by sorting on
    # (type-rank, value).
    if isinstance(n, tuple):
        return (1, n)
    return (0, (n,))


class Graph:
    """Undirected multigraph with integer edge multiplicities.

    Self-loops are rejected: none of the paper's networks contain them
    (a level-``i`` swap link whose endpoints coincide is simply absent in
    the *direct* network; in the *indirect* network the corresponding link
    joins distinct stages, so it is never a loop).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._adj: Dict[Node, Counter] = {}
        self._num_edges = 0  # counts multiplicity
        # Staged bulk chunks [(edges, counts), ...] not yet folded into
        # ``_adj``; see ``_materialize``.
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        #: Edges dropped as supernode-internal by the :meth:`quotient` that
        #: produced this graph (0 for graphs built any other way).
        self.internal_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, u: Node) -> None:
        if u not in self._adj:
            self._adj[u] = Counter()

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        adj = self._adj
        for u in nodes:
            if u not in adj:
                adj[u] = Counter()

    def add_edge(self, u: Node, v: Node, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"edge multiplicity must be >= 1, got {count}")
        if u == v:
            raise ValueError(f"self-loop at {u!r} not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] += count
        self._adj[v][u] += count
        self._num_edges += count

    def add_edges_from(
        self,
        edges: Union[np.ndarray, Iterable[Tuple[Node, Node]]],
        count: Union[int, np.ndarray] = 1,
    ) -> None:
        """Bulk-insert edges; the ndarray form is the vectorized fast path.

        ``edges`` is either

        * an int64 ndarray of shape ``(E, 2)`` (scalar int nodes) or
          ``(E, 2, k)`` (arity-``k`` int-tuple nodes) — see
          :func:`edge_array` — inserted via one ``np.unique`` aggregation
          pass, or
        * any iterable of ``(u, v)`` pairs, inserted per-edge.

        ``count`` is the multiplicity of every edge (scalar) or, with an
        ndarray ``edges``, optionally a per-edge ``(E,)`` array — the form
        :meth:`to_edge_array` returns, making
        ``h.add_edges_from(*g.to_edge_array())`` a round trip.
        Duplicate rows accumulate multiplicity exactly like repeated
        :meth:`add_edge` calls.

        Array chunks are validated vectorized and *staged*: the
        dict-of-Counter adjacency is only built when a per-node query first
        needs it, so construct-then-export/compare/quotient pipelines never
        pay for it at all.
        """
        if isinstance(edges, np.ndarray):
            self._stage_edge_array(edges, count)
            return
        if not isinstance(count, int):
            raise TypeError("per-edge count arrays require ndarray edges")
        for u, v in edges:
            self.add_edge(u, v, count)

    def _stage_edge_array(self, arr: np.ndarray, count: Union[int, np.ndarray]) -> None:
        """Validate an int64 edge chunk and stage it for lazy folding."""
        if arr.ndim not in (2, 3) or arr.shape[1] != 2:
            raise ValueError(
                f"edge array must have shape (E, 2) or (E, 2, k), got {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"edge array must be integer-typed, got {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        num = arr.shape[0]
        counts = np.broadcast_to(np.asarray(count, dtype=np.int64), (num,))
        if num == 0:
            return
        if counts.min() < 1:
            raise ValueError(
                f"edge multiplicity must be >= 1, got {int(counts.min())}"
            )
        arity = arr.shape[2] if arr.ndim == 3 else 0
        loops = (
            (arr[:, 0] == arr[:, 1]).all(axis=1) if arity else arr[:, 0] == arr[:, 1]
        )
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            u = tuple(arr[i, 0]) if arity else int(arr[i, 0])
            raise ValueError(f"self-loop at {u!r} not allowed")
        self._pending.append((arr, counts))
        self._num_edges += int(counts.sum())

    def _materialize(self) -> None:
        """Fold staged bulk chunks into the adjacency dict."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for arr, counts in pending:
            self._insert_edge_array(arr, counts)

    def _staged_arrays(self) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """``(edges, counts, arity)`` when this graph is *purely* staged —
        every edge and node lives in pending chunks of one arity — else
        ``None``.  The arrays cover the whole graph, so array-native
        operations can skip materialisation entirely."""
        if not self._pending or self._adj:
            return None
        arities = {a.shape[2] if a.ndim == 3 else 0 for a, _ in self._pending}
        if len(arities) != 1:
            return None
        arity = arities.pop()
        k = arity if arity else 1
        arr = np.concatenate(
            [a.reshape(a.shape[0], 2, k) for a, _ in self._pending]
        )
        counts = np.concatenate([c for _, c in self._pending])
        return arr, counts, arity

    def _staged_edge_rows(self) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        """``(rows, counts, arity)`` of a purely staged graph: one int64
        row ``[u..., v...]`` per staged edge with its endpoints in
        canonical order (:func:`_canon_rows`), and the edges'
        multiplicities; ``None`` for any other graph."""
        staged = self._staged_arrays()
        if staged is None:
            return None
        arr, counts, arity = staged
        k = arity if arity else 1
        return _canon_rows(arr.reshape(len(counts), 2 * k), k), counts, arity

    @staticmethod
    def _pack_rows(
        rows: np.ndarray,
        mins: Optional[np.ndarray] = None,
        ranges: Optional[List[int]] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, List[int]]]:
        """Pack int64 ``(m, w)`` rows into scalar codes *monotone in the
        lexicographic row order*, or ``None`` when the column ranges would
        overflow an int64.  Returns ``(codes, mins, ranges)``; decode with
        :meth:`_unpack_codes`.  Given an earlier call's ``mins`` and
        ``ranges``, packs in that frame instead (so codes compare across
        calls), or returns ``None`` when a row falls outside it."""
        if mins is None:
            mins = rows.min(axis=0)
            ranges = (rows.max(axis=0) - mins + 1).tolist()
            span = 1
            for r in ranges:
                span *= int(r)
                if span >= (1 << 62):
                    return None
        # compare before shifting: a far-off row could wrap into the frame
        elif ((rows < mins) | (rows > mins + (np.asarray(ranges) - 1))).any():
            return None
        code = rows[:, 0] - mins[0]
        for j in range(1, rows.shape[1]):
            code *= ranges[j]
            code += rows[:, j] - mins[j]
        return code, mins, ranges

    @staticmethod
    def _unpack_codes(
        codes: np.ndarray, mins: np.ndarray, ranges: List[int]
    ) -> np.ndarray:
        w = len(ranges)
        out = np.empty((len(codes), w), dtype=np.int64)
        rem = codes
        for j in range(w - 1, -1, -1):
            out[:, j] = rem % ranges[j] + mins[j]
            rem = rem // ranges[j]
        return out

    @staticmethod
    def _aggregate_codes(
        codes: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted unique :meth:`_pack_rows` codes plus summed weights."""
        keys, inv = np.unique(codes, return_inverse=True)
        return keys, np.bincount(inv, weights=weights).astype(np.int64)

    @staticmethod
    def _aggregate_rows(
        rows: np.ndarray, weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted unique rows of an int64 ``(m, w)`` array plus summed
        weights.  Rows are packed into scalar int64 keys whenever the
        column ranges fit (1-D ``np.unique`` is an order of magnitude
        faster than the axis=0 row sort); the row sort is the fallback."""
        packed = Graph._pack_rows(rows)
        if packed is not None:
            codes, mins, ranges = packed
            keys, agg = Graph._aggregate_codes(codes, weights)
            return Graph._unpack_codes(keys, mins, ranges), agg
        uniq, inv = np.unique(rows, axis=0, return_inverse=True)
        agg = np.bincount(inv.ravel(), weights=weights).astype(np.int64)
        return uniq, agg

    def _insert_edge_array(self, arr: np.ndarray, counts: np.ndarray) -> None:
        """Fold one validated chunk into ``_adj`` (both directions at once:
        each distinct ordered pair becomes one adjacency update)."""
        arity = arr.shape[2] if arr.ndim == 3 else 0
        k = arity if arity else 1
        num = arr.shape[0]
        directed = np.concatenate([arr, arr[:, ::-1]], axis=0).reshape(2 * num, -1)
        uniq, agg = self._aggregate_rows(
            directed, np.concatenate([counts, counts])
        )
        m = len(agg)
        # Insert grouped by source node; fresh adjacency rows are filled via
        # C-level dict.update (rows are unique, so no merge is needed).
        new_group = np.empty(m, dtype=bool)
        new_group[0] = True
        new_group[1:] = (uniq[1:, :k] != uniq[:-1, :k]).any(axis=1)
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], m)
        if arity:
            vs = list(map(tuple, uniq[:, k:].tolist()))
            us = list(map(tuple, uniq[starts, :k].tolist()))
        else:
            vs = uniq[:, 1].tolist()
            us = uniq[starts, 0].tolist()
        counts_list = agg.tolist()
        adj = self._adj
        for u, s, e in zip(us, starts.tolist(), ends.tolist()):
            ctr = adj.get(u)
            if ctr is None:
                ctr = adj[u] = Counter()
            if ctr:
                for i in range(s, e):
                    ctr[vs[i]] += counts_list[i]
            else:
                dict.update(ctr, zip(vs[s:e], counts_list[s:e]))

    def to_edge_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Export ``(edges, counts)``: the canonical int64 edge array.

        ``edges`` has shape ``(m, 2)`` (all-int nodes) or ``(m, 2, k)``
        (uniform arity-``k`` int-tuple nodes) with one row per distinct
        unordered edge, endpoints in canonical order and rows sorted;
        ``counts`` holds the multiplicities.  Raises ``ValueError`` when the
        node set is not representable (mixed or non-int node types).
        Isolated nodes do not appear in the export.
        """
        staged = self._staged_edge_rows()
        if staged is not None:
            rows, counts, arity = staged
            uniq, agg = self._aggregate_rows(rows, counts)
            edges = uniq.reshape(-1, 2, arity) if arity else uniq
            return edges, agg
        self._materialize()
        arity = self._export_arity()
        us: List[Node] = []
        vs: List[Node] = []
        cs: List[int] = []
        for u, ctr in self._adj.items():
            for v, c in ctr.items():
                us.append(u)
                vs.append(v)
                cs.append(c)
        if not us:
            shape = (0, 2, arity) if arity else (0, 2)
            return np.empty(shape, dtype=np.int64), np.empty(0, dtype=np.int64)
        a = np.asarray(us, dtype=np.int64)
        b = np.asarray(vs, dtype=np.int64)
        counts = np.asarray(cs, dtype=np.int64)
        # keep each unordered edge once: rows with u < v lexicographically
        if arity:
            keep = np.zeros(len(counts), dtype=bool)
            decided = np.zeros(len(counts), dtype=bool)
            for j in range(arity):
                less = a[:, j] < b[:, j]
                keep |= less & ~decided
                decided |= less | (a[:, j] > b[:, j])
        else:
            keep = a < b
        a, b, counts = a[keep], b[keep], counts[keep]
        edges = np.stack([a, b], axis=1)
        flat = edges.reshape(len(counts), -1)
        order = np.lexsort(tuple(flat[:, j] for j in range(flat.shape[1] - 1, -1, -1)))
        return edges[order], counts[order]

    def _export_arity(self) -> int:
        """0 for all-int nodes, k for uniform int-tuple nodes; else raise."""
        arity: Optional[int] = None
        for u in self._adj:
            if isinstance(u, (int, np.integer)) and not isinstance(u, bool):
                this = 0
            elif isinstance(u, tuple) and all(
                isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                for x in u
            ):
                this = len(u)
            else:
                raise ValueError(
                    f"node {u!r} is not an int or int-tuple; no array form"
                )
            if arity is None:
                arity = this
            elif arity != this:
                raise ValueError(
                    "mixed node shapes cannot be exported as one edge array"
                )
        if arity == 0 or arity is None:
            return 0
        return arity

    def remove_node(self, u: Node) -> None:
        self._materialize()
        if u not in self._adj:
            raise KeyError(u)
        for v, c in self._adj[u].items():
            del self._adj[v][u]
            self._num_edges -= c
        del self._adj[u]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        self._materialize()
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Total number of edges, counting multiplicity.

        Tracked incrementally, so this never forces materialisation."""
        return self._num_edges

    @property
    def num_simple_edges(self) -> int:
        """Number of distinct adjacent pairs (multiplicity ignored)."""
        self._materialize()
        return sum(len(c) for c in self._adj.values()) // 2

    def nodes(self) -> List[Node]:
        self._materialize()
        return list(self._adj)

    def has_node(self, u: Node) -> bool:
        self._materialize()
        return u in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        self._materialize()
        return v in self._adj.get(u, ())

    def multiplicity(self, u: Node, v: Node) -> int:
        self._materialize()
        return self._adj.get(u, Counter())[v]

    def neighbors(self, u: Node) -> List[Node]:
        """Distinct neighbors of ``u``, sorted for determinism."""
        self._materialize()
        return sorted(self._adj[u], key=_key)

    def degree(self, u: Node) -> int:
        """Degree counting multiplicity."""
        self._materialize()
        return sum(self._adj[u].values())

    def simple_degree(self, u: Node) -> int:
        """Number of distinct neighbors."""
        self._materialize()
        return len(self._adj[u])

    def max_degree(self) -> int:
        self._materialize()
        return max((self.degree(u) for u in self._adj), default=0)

    def edges(self) -> Iterator[Tuple[Node, Node, int]]:
        """Yield ``(u, v, multiplicity)`` once per unordered pair, sorted."""
        self._materialize()
        for u in sorted(self._adj, key=_key):
            for v in sorted(self._adj[u], key=_key):
                if _key(u) <= _key(v):
                    yield (u, v, self._adj[u][v])

    def edge_multiset(self) -> Counter:
        """Multiset of canonical edges; the graph's identity up to naming."""
        out: Counter = Counter()
        for u, v, c in self.edges():
            out[_canon(u, v)] = c
        return out

    def degree_histogram(self) -> Counter:
        self._materialize()
        return Counter(self.degree(u) for u in self._adj)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``nodes`` (unknown nodes silently ignored).

        Runs in ``O(sum(deg(u) for kept u))``: only the adjacency rows of
        kept nodes are scanned, never the full (sorted) edge list.
        """
        self._materialize()
        keep = set(nodes)
        g = Graph(name=f"{self.name}|sub")
        for u in self._adj:
            if u in keep:
                g.add_node(u)
        total = 0
        for u in g._adj:
            row = g._adj[u]
            for v, c in self._adj[u].items():
                if v in keep:
                    row[v] = c
                    total += c
        g._num_edges = total // 2
        return g

    def quotient(self, mapping: Callable[[Node], Node], keep_internal: bool = False) -> "Graph":
        """Merge nodes by ``mapping``; parallel edges accumulate multiplicity.

        Edges whose endpoints map to the same supernode are dropped —
        matching the paper's supernode arguments (e.g. merging each ISN row
        yields the HSN it was derived from, with each inter-cluster link
        duplicated).  The number of dropped edges is always recorded on the
        result as :attr:`internal_edges`; ``keep_internal`` is retained for
        backward compatibility and no longer changes behaviour.

        ``mapping`` is called once per node; the per-edge remap/accumulate
        work is vectorized whenever the supernode labels are plain ints, and
        a purely staged graph is quotiented array-to-array without ever
        building its adjacency dict.
        """
        g = Graph(name=f"{self.name}|quotient")
        staged = self._staged_arrays()
        if staged is not None:
            arr, counts, arity = staged
            k = arity if arity else 1
            packed = self._pack_rows(arr.reshape(-1, k))
            if packed is not None:
                codes, mins, ranges = packed
                keys, inv = np.unique(codes, return_inverse=True)
                rows = self._unpack_codes(keys, mins, ranges)
                node_list: List[Node] = (
                    list(map(tuple, rows.tolist())) if arity
                    else rows[:, 0].tolist()
                )
                mapped = [mapping(u) for u in node_list]
                for m in mapped:
                    g.add_node(m)
                if all(
                    isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                    for m in mapped
                ):
                    ends = np.asarray(mapped, dtype=np.int64)[inv].reshape(-1, 2)
                    ext = ends[:, 0] != ends[:, 1]
                    g.internal_edges = int(counts[~ext].sum())
                    if ext.any():
                        g._stage_edge_array(ends[ext], counts[ext])
                else:
                    internal = 0
                    for (iu, iv), c in zip(
                        inv.reshape(-1, 2).tolist(), counts.tolist()
                    ):
                        mu, mv = mapped[iu], mapped[iv]
                        if mu == mv:
                            internal += c
                            continue
                        g.add_edge(mu, mv, c)
                    g.internal_edges = internal
                return g
        self._materialize()
        nodes = list(self._adj)
        mapped = [mapping(u) for u in nodes]
        for m in mapped:
            g.add_node(m)
        idx = {u: i for i, u in enumerate(nodes)}
        ui: List[int] = []
        vi: List[int] = []
        cs: List[int] = []
        for u, ctr in self._adj.items():
            iu = idx[u]
            for v, c in ctr.items():
                iv = idx[v]
                if iu < iv:
                    ui.append(iu)
                    vi.append(iv)
                    cs.append(c)
        if cs and all(
            isinstance(m, (int, np.integer)) and not isinstance(m, bool)
            for m in mapped
        ):
            mapped_arr = np.asarray(mapped, dtype=np.int64)
            mu = mapped_arr[np.asarray(ui)]
            mv = mapped_arr[np.asarray(vi)]
            counts = np.asarray(cs, dtype=np.int64)
            ext = mu != mv
            g.internal_edges = int(counts[~ext].sum())
            if ext.any():
                g._stage_edge_array(
                    np.stack([mu[ext], mv[ext]], axis=1), counts[ext]
                )
        else:
            internal = 0
            for iu, iv, c in zip(ui, vi, cs):
                mu, mv = mapped[iu], mapped[iv]
                if mu == mv:
                    internal += c
                    continue
                g.add_edge(mu, mv, c)
            g.internal_edges = internal
        return g

    def relabel(self, mapping: Mapping[Node, Node]) -> "Graph":
        """Apply a node bijection; multiplicities preserved."""
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("relabel mapping is not injective")
        self._materialize()
        g = Graph(name=self.name)
        for u in self._adj:
            g.add_node(mapping[u])
        for u, v, c in self.edges():
            g.add_edge(mapping[u], mapping[v], c)
        return g

    def connected_components(self) -> List[List[Node]]:
        self._materialize()
        seen: set = set()
        comps: List[List[Node]] = []
        for start in self._adj:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        stack.append(v)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return self.num_nodes <= 1 or len(self.connected_components()) == 1

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def same_as(self, other: "Graph") -> bool:
        """Exact equality: same node set and same edge multiset."""
        if self._num_edges != other._num_edges:
            return False
        # Two purely staged graphs compare array-to-array: their node sets
        # are exactly their edge endpoints, so canonical edge arrays decide.
        if (
            self._staged_arrays() is not None
            and other._staged_arrays() is not None
        ):
            e1, c1 = self.to_edge_array()
            e2, c2 = other.to_edge_array()
            return (
                e1.shape == e2.shape
                and bool((e1 == e2).all())
                and bool((c1 == c2).all())
            )
        self._materialize()
        other._materialize()
        return (
            set(self._adj) == set(other._adj)
            and self.edge_multiset() == other.edge_multiset()
        )

    def is_isomorphic_by(self, other: "Graph", mapping: Mapping[Node, Node]) -> bool:
        """Check that the explicit bijection ``mapping`` (self -> other) is an
        isomorphism preserving edge multiplicities."""
        self._materialize()
        other._materialize()
        if set(mapping) != set(self._adj):
            return False
        if set(mapping.values()) != set(other._adj):
            return False
        if len(set(mapping.values())) != len(mapping):
            return False
        return self.relabel(mapping).edge_multiset() == other.edge_multiset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
