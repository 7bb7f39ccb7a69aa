"""Routing: per-node next-hop tables and topology-aware route builders.

The paper's test-bed is a static single-hop ad hoc network, so the
default route to any destination is the destination itself.  Two
extensions open real multihop (DESIGN.md §8):

* explicit next-hop entries — intermediate nodes forward datagrams hop
  by hop, and a node can be pinned off the direct default;
* :func:`build_shortest_path_tables` — hop-count BFS over the
  connectivity graph at build time, producing one next-hop table per
  node so chains and grids forward end to end without hand-wiring.

A strict table (``default_direct=False``) answers ``None`` for unknown
destinations; the IP layer surfaces that as a typed ``no-route`` ledger
drop instead of handing the MAC a frame for an unreachable neighbour.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Mapping, Sequence

from repro.channel.shadowing import Position
from repro.errors import ConfigurationError

#: Routing policies a scenario spec can pin (``None`` means the default,
#: single-hop ``direct``).
ROUTING_POLICIES = ("direct", "shortest-path")


class StaticRouting:
    """A per-node next-hop table.

    With ``default_direct`` (the paper's single-hop default) a missing
    entry routes straight to the destination; without it a miss returns
    ``None`` — the caller's signal that the destination is unreachable.
    """

    def __init__(self, own_address: int, default_direct: bool = True):
        self._own = own_address
        #: Fall back to direct delivery on a table miss.  Topology-built
        #: tables clear this: they enumerate everything reachable, so a
        #: miss *means* unreachable.
        self.default_direct = default_direct
        self._next_hop: dict[int, int] = {}

    def add_route(self, dst: int, next_hop: int) -> None:
        """Route traffic for ``dst`` via ``next_hop``."""
        if dst == self._own:
            raise ConfigurationError("cannot add a route to the node itself")
        self._next_hop[dst] = next_hop

    def install(self, table: Mapping[int, int], strict: bool = True) -> None:
        """Replace the table wholesale (and, by default, go strict)."""
        if self._own in table:
            raise ConfigurationError("cannot install a route to the node itself")
        self._next_hop = dict(table)
        if strict:
            self.default_direct = False

    def next_hop(self, dst: int) -> int | None:
        """The neighbour to hand a datagram for ``dst`` to, or ``None``."""
        hop = self._next_hop.get(dst)
        if hop is None and self.default_direct:
            return dst
        return hop

    def routes(self) -> dict[int, int]:
        """A copy of the explicit entries."""
        return dict(self._next_hop)


def connectivity_graph(
    positions_m: Sequence[Position], max_range_m: float
) -> dict[int, tuple[int, ...]]:
    """Adjacency over addresses 1..N: an edge iff within ``max_range_m``.

    Each unordered pair is measured once and the edge appended to both
    rows.  Station k receives its lower addresses first (as the ``j`` of
    an earlier ``i``) and then its higher ones, so neighbour tuples come
    out ascending by address without a sort, which makes every traversal
    over the graph deterministic by construction.
    """
    if max_range_m <= 0:
        raise ConfigurationError(f"max range must be > 0 m, got {max_range_m}")
    n = len(positions_m)
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = positions_m[i]
        for j in range(i + 1, n):
            xj, yj = positions_m[j]
            if math.hypot(xi - xj, yi - yj) <= max_range_m:
                rows[i].append(j + 1)
                rows[j].append(i + 1)
    return {i + 1: tuple(row) for i, row in enumerate(rows)}


def build_shortest_path_tables(
    positions_m: Sequence[Position], max_range_m: float
) -> dict[int, dict[int, int]]:
    """Hop-count shortest-path next-hop tables for every node.

    One BFS per destination root: the parent a node is discovered from
    is its next hop toward the root.  Ties (equal hop count through
    several parents) break toward the lowest-address parent because
    neighbour lists are ascending — same topology, same tables, always.
    Unreachable destinations are simply absent, so strict tables answer
    ``None`` and the IP layer records a ``no-route`` drop.
    """
    graph = connectivity_graph(positions_m, max_range_m)
    tables: dict[int, dict[int, int]] = {address: {} for address in graph}
    for root in sorted(graph):
        # parent[v] = the neighbour of v one hop closer to root.
        parent: dict[int, int] = {root: root}
        frontier = deque([root])
        while frontier:
            v = frontier.popleft()
            for w in graph[v]:
                if w not in parent:
                    parent[w] = v
                    frontier.append(w)
        for v, via in parent.items():
            if v != root:
                tables[v][root] = via
    return tables
