"""Join graphs and selectivity lookup.

The paper evaluates chain, cycle and star shaped join graphs (Section 6.1).
A :class:`JoinGraph` stores, for every pair of tables connected by a join
predicate, the selectivity of that predicate.  Pairs of tables that are not
connected correspond to Cartesian products and have selectivity one.

Selectivities between table *sets* (needed when joining intermediate results)
are the product of the selectivities of all predicates crossing the two sets,
which is the standard independence assumption used by textbook optimizers and
by the cost models in the paper's lineage (Steinbrunn et al.).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple


class GraphShape(str, Enum):
    """Join-graph topologies used in the paper's evaluation."""

    CHAIN = "chain"
    CYCLE = "cycle"
    STAR = "star"
    CLIQUE = "clique"
    #: Star hub with chain arms (a star schema whose dimensions are
    #: themselves normalized into chains) — the workload-zoo extension
    #: beyond the paper's chain/cycle/star grid.
    SNOWFLAKE = "snowflake"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def snowflake_arm_lengths(num_tables: int) -> List[int]:
    """Chain-arm lengths of a snowflake over ``num_tables`` tables.

    Table 0 is the hub; the remaining ``num_tables - 1`` tables are split
    into ``ceil(sqrt(num_tables - 1))`` chain arms of near-equal length
    (earlier arms get the extra tables).  The layout is a pure function of
    the table count, so every consumer — graph builder, query generator,
    tests — derives the identical topology.

    >>> snowflake_arm_lengths(4)
    [2, 1]
    >>> snowflake_arm_lengths(10)
    [3, 3, 3]
    """
    spokes = num_tables - 1
    if spokes <= 0:
        return []
    num_arms = math.isqrt(spokes)
    if num_arms * num_arms < spokes:
        num_arms += 1
    base, extra = divmod(spokes, num_arms)
    return [base + (1 if arm < extra else 0) for arm in range(num_arms)]


def snowflake_edges(num_tables: int) -> List[Tuple[int, int]]:
    """Edge endpoints of a snowflake graph, in canonical builder order.

    Arms own contiguous table-index ranges; per arm the hub edge comes
    first, then the chain edges outward.
    """
    edges: List[Tuple[int, int]] = []
    first = 1
    for length in snowflake_arm_lengths(num_tables):
        edges.append((0, first))
        for table in range(first, first + length - 1):
            edges.append((table, table + 1))
        first += length
    return edges


def _bits_of(tables: Iterable[int]) -> int:
    """Int bitset of a table-index collection (bit t ⇔ table t)."""
    bits = 0
    for table in tables:
        bits |= 1 << table
    return bits


def _normalize_edge(a: int, b: int) -> Tuple[int, int]:
    """Return the canonical (sorted) representation of an undirected edge."""
    if a == b:
        raise ValueError(f"self joins are not supported (table {a})")
    return (a, b) if a < b else (b, a)


class JoinGraph:
    """Undirected join graph with per-edge selectivities.

    Parameters
    ----------
    num_tables:
        Number of tables in the query this graph belongs to.  Table indices
        range over ``0 .. num_tables - 1``.
    edges:
        Mapping from table-index pairs to the selectivity of the join
        predicate connecting them.  Selectivities must lie in ``(0, 1]``.
    """

    def __init__(
        self,
        num_tables: int,
        edges: Dict[Tuple[int, int], float] | None = None,
    ) -> None:
        if num_tables < 1:
            raise ValueError(f"a query needs at least one table, got {num_tables}")
        self._num_tables = num_tables
        # Each edge's insertion position (an overwrite keeps it), the
        # selectivities by position, and per table the (position, other
        # end) of every incident predicate: a selectivity lookup walks the
        # smaller side's members instead of scanning every edge.
        self._positions: Dict[Tuple[int, int], int] = {}
        self._selectivities: List[float] = []
        self._incident: List[List[Tuple[int, int]]] = [[] for _ in range(num_tables)]
        for (a, b), selectivity in (edges or {}).items():
            self.add_edge(a, b, selectivity)

    # ------------------------------------------------------------------ edges
    def add_edge(self, a: int, b: int, selectivity: float) -> None:
        """Add (or overwrite) a join predicate between tables ``a`` and ``b``."""
        edge = _normalize_edge(a, b)
        for endpoint in edge:
            if not 0 <= endpoint < self._num_tables:
                raise ValueError(
                    f"table index {endpoint} out of range for {self._num_tables} tables"
                )
        if not 0 < selectivity <= 1:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        position = self._positions.get(edge)
        if position is not None:
            self._selectivities[position] = selectivity
            return
        a, b = edge
        position = len(self._selectivities)
        self._positions[edge] = position
        self._selectivities.append(selectivity)
        self._incident[a].append((position, b))
        self._incident[b].append((position, a))

    def has_edge(self, a: int, b: int) -> bool:
        """Return whether a join predicate connects tables ``a`` and ``b``."""
        return _normalize_edge(a, b) in self._positions

    def edge_selectivity(self, a: int, b: int) -> float:
        """Selectivity of the predicate between ``a`` and ``b`` (1.0 if absent)."""
        position = self._positions.get(_normalize_edge(a, b))
        return 1.0 if position is None else self._selectivities[position]

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over ``(a, b, selectivity)`` triples."""
        for (a, b), position in sorted(self._positions.items()):
            yield a, b, self._selectivities[position]

    @property
    def num_tables(self) -> int:
        """Number of tables covered by this graph."""
        return self._num_tables

    @property
    def num_edges(self) -> int:
        """Number of join predicates."""
        return len(self._positions)

    # ----------------------------------------------------------- selectivity
    def selectivity_between(
        self, left: Iterable[int] | FrozenSet[int], right: Iterable[int] | FrozenSet[int]
    ) -> float:
        """Combined selectivity of all predicates crossing ``left`` and ``right``.

        Uses the standard independence assumption: the combined selectivity is
        the product of the individual predicate selectivities.  Returns 1.0
        (a Cartesian product) when no predicate crosses the two sets.
        """
        return self.selectivity_between_bits(_bits_of(left), _bits_of(right))

    def selectivity_between_bits(self, left_bits: int, right_bits: int) -> float:
        """:meth:`selectivity_between` for table sets given as int bitsets.

        Bit ``t`` stands for table ``t``.  Walks the incident predicates of
        the smaller side's members and keeps those whose other end lies in
        the other side; their selectivities are multiplied in edge-insertion
        order, so the result is the same float as a product over a scan of
        every edge.
        """
        if left_bits & right_bits:
            raise ValueError("table sets must be disjoint to compute a join selectivity")
        if left_bits.bit_count() > right_bits.bit_count():
            left_bits, right_bits = right_bits, left_bits
        # Members beyond the graph's tables have no predicates.
        walk = left_bits & ((1 << self._num_tables) - 1)
        incident = self._incident
        crossing: List[int] = []
        while walk:
            lowest = walk & -walk
            for position, other in incident[lowest.bit_length() - 1]:
                if right_bits >> other & 1:
                    crossing.append(position)
            walk ^= lowest
        selectivity = 1.0
        if crossing:
            crossing.sort()
            values = self._selectivities
            for position in crossing:
                selectivity *= values[position]
        return selectivity

    def neighbors(self, table: int) -> FrozenSet[int]:
        """Return the set of tables connected to ``table`` by a predicate."""
        result = set()
        for a, b in self._positions:
            if a == table:
                result.add(b)
            elif b == table:
                result.add(a)
        return frozenset(result)

    def is_connected_subset(self, tables: Iterable[int]) -> bool:
        """Return whether the induced subgraph on ``tables`` is connected.

        Single-table subsets are connected by definition.  Used by the DP
        baseline when restricting enumeration to connected subsets.
        """
        table_set = set(tables)
        if not table_set:
            return False
        if len(table_set) == 1:
            return True
        start = next(iter(table_set))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor in table_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == table_set

    # -------------------------------------------------------------- builders
    @classmethod
    def chain(cls, num_tables: int, selectivities: Iterable[float]) -> "JoinGraph":
        """Chain graph: table ``i`` joins table ``i + 1``."""
        graph = cls(num_tables)
        values = list(selectivities)
        expected = max(0, num_tables - 1)
        if len(values) != expected:
            raise ValueError(f"chain of {num_tables} tables needs {expected} selectivities")
        for i, selectivity in enumerate(values):
            graph.add_edge(i, i + 1, selectivity)
        return graph

    @classmethod
    def cycle(cls, num_tables: int, selectivities: Iterable[float]) -> "JoinGraph":
        """Cycle graph: a chain plus an edge closing the loop."""
        graph = cls(num_tables)
        values = list(selectivities)
        expected = num_tables if num_tables >= 3 else max(0, num_tables - 1)
        if len(values) != expected:
            raise ValueError(f"cycle of {num_tables} tables needs {expected} selectivities")
        for i in range(num_tables - 1):
            graph.add_edge(i, i + 1, values[i])
        if num_tables >= 3:
            graph.add_edge(num_tables - 1, 0, values[num_tables - 1])
        return graph

    @classmethod
    def star(cls, num_tables: int, selectivities: Iterable[float]) -> "JoinGraph":
        """Star graph: table 0 is the hub joined with every other table."""
        graph = cls(num_tables)
        values = list(selectivities)
        expected = max(0, num_tables - 1)
        if len(values) != expected:
            raise ValueError(f"star of {num_tables} tables needs {expected} selectivities")
        for i, selectivity in enumerate(values, start=1):
            graph.add_edge(0, i, selectivity)
        return graph

    @classmethod
    def clique(cls, num_tables: int, selectivities: Iterable[float]) -> "JoinGraph":
        """Clique graph: every pair of tables is connected."""
        graph = cls(num_tables)
        values = list(selectivities)
        expected = num_tables * (num_tables - 1) // 2
        if len(values) != expected:
            raise ValueError(f"clique of {num_tables} tables needs {expected} selectivities")
        position = 0
        for a in range(num_tables):
            for b in range(a + 1, num_tables):
                graph.add_edge(a, b, values[position])
                position += 1
        return graph

    @classmethod
    def snowflake(cls, num_tables: int, selectivities: Iterable[float]) -> "JoinGraph":
        """Snowflake graph: star hub (table 0) with chain arms.

        The arm layout is :func:`snowflake_arm_lengths`; edges are expected
        in :func:`snowflake_edges` order (per arm: hub edge, then chain
        edges outward).
        """
        graph = cls(num_tables)
        values = list(selectivities)
        expected = max(0, num_tables - 1)
        if len(values) != expected:
            raise ValueError(
                f"snowflake of {num_tables} tables needs {expected} selectivities"
            )
        for (a, b), selectivity in zip(snowflake_edges(num_tables), values):
            graph.add_edge(a, b, selectivity)
        return graph

    @classmethod
    def from_shape(
        cls, shape: GraphShape, num_tables: int, selectivities: Iterable[float]
    ) -> "JoinGraph":
        """Dispatch to the named builder for ``shape``."""
        builders = {
            GraphShape.CHAIN: cls.chain,
            GraphShape.CYCLE: cls.cycle,
            GraphShape.STAR: cls.star,
            GraphShape.CLIQUE: cls.clique,
            GraphShape.SNOWFLAKE: cls.snowflake,
        }
        return builders[shape](num_tables, selectivities)

    @staticmethod
    def edge_count_for_shape(shape: GraphShape, num_tables: int) -> int:
        """Number of predicates a graph of ``shape`` over ``num_tables`` has."""
        if shape in (GraphShape.CHAIN, GraphShape.STAR, GraphShape.SNOWFLAKE):
            return max(0, num_tables - 1)
        if shape is GraphShape.CYCLE:
            return num_tables if num_tables >= 3 else max(0, num_tables - 1)
        if shape is GraphShape.CLIQUE:
            return num_tables * (num_tables - 1) // 2
        raise ValueError(f"unknown graph shape: {shape}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JoinGraph(num_tables={self._num_tables}, num_edges={self.num_edges})"
