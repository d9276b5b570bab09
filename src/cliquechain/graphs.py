"""Construction of clique-chain graphs and their Laplacian matrices.

Vertex conventions: a clique K_p joined to a chain "C_q" carries p + (q-1)
vertices (the chain parameter q counts one more than its vertex count, so
that q=2 is a single pendant vertex).  Internally vertices are numbered
0..n-1; the original signed labels (clique sites <= 0, chain sites >= 1)
are kept in ``GraphSpec.labels`` for reporting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "Role",
    "GraphSpec",
    "CliqueDef",
    "LinkDef",
    "CliqueNetworkSpec",
    "build_single_chain",
    "build_two_chain",
    "build_network",
    "network_from_json",
    "laplacian",
    "pendant_laplacian_times",
]


@dataclass(frozen=True)
class Role:
    """Vertex role: 'clique' member, 'chain' interior, or 'junction'."""

    kind: str  # 'clique' | 'chain' | 'junction'
    clique: Optional[str] = None
    chain: Optional[str] = None
    links: tuple[str, ...] = ()  # link ids meeting at a junction


@dataclass(frozen=True)
class GraphSpec:
    """Immutable vertex/edge description of a clique-chain graph."""

    n: int
    edges: frozenset[tuple[int, int]]
    roles: tuple[Role, ...]
    params: dict
    labels: tuple[Union[int, str], ...] = ()

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            d[i] += 1
            d[j] += 1
        return d

    def clique_vertices(self, clique_id: Optional[str] = None) -> list[int]:
        """All vertices of a clique, junctions included."""
        out = []
        for i, r in enumerate(self.roles):
            if r.kind in ("clique", "junction") and (
                clique_id is None or r.clique == clique_id
            ):
                out.append(i)
        return out

    def junction_vertices(self, clique_id: Optional[str] = None) -> list[int]:
        return [
            i
            for i, r in enumerate(self.roles)
            if r.kind == "junction" and (clique_id is None or r.clique == clique_id)
        ]

    def clique_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.roles:
            if r.clique is not None:
                seen.setdefault(r.clique)
        return list(seen)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation.

        Every check reads one adjacency list, built once from the edges.
        """
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not stored as ordered pair")
            adj[i].add(j)
            adj[j].add(i)
        if len(self.roles) != self.n:
            raise ValueError("one role per vertex required")
        _check_connected(adj)
        # each clique block induces a complete subgraph
        for cid in self.clique_ids():
            verts = self.clique_vertices(cid)
            for a, v in enumerate(verts):
                for w in verts[a + 1 :]:
                    if w not in adj[v]:
                        raise ValueError(f"clique {cid!r} missing edge {(v, w)}")
        # chain interiors form paths: 2 chain-neighbors inside, 1 at ends
        chains: dict[str, list[int]] = {}
        for i, r in enumerate(self.roles):
            if r.kind == "chain":
                chains.setdefault(r.chain, []).append(i)
        for ch, verts in chains.items():
            vset = set(verts)
            ends = 0
            for v in verts:
                nb = len(adj[v] & vset)
                if nb > 2:
                    raise ValueError(f"chain {ch!r} vertex {v} has {nb} chain neighbors")
                if nb <= 1:
                    ends += 1
            if len(verts) > 1 and ends != 2:
                raise ValueError(f"chain {ch!r} does not form a path")


def _check_connected(adj: list[set[int]]) -> None:
    n = len(adj)
    if n == 1:
        return
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    if count != n:
        raise ValueError(f"graph is disconnected ({count} of {n} vertices reachable)")


def _edge(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def build_single_chain(p: int, q: int) -> GraphSpec:
    """Clique on p vertices with a pendant chain of q-1 vertices.

    Vertices 0..p-1 form the clique, with the junction at index p-1;
    vertices p..p+q-2 form the chain.  Signed labels run -p+1..0 on the
    clique (0 = junction) and 1..q-1 on the chain.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    n = p + q - 1
    edges = set()
    for i in range(p):
        for j in range(i + 1, p):
            edges.add((i, j))
    prev = p - 1
    for k in range(p, n):
        edges.add(_edge(prev, k))
        prev = k
    roles = tuple(
        Role("junction", clique="K", links=("C",)) if i == p - 1
        else Role("clique", clique="K") if i < p
        else Role("chain", chain="C")
        for i in range(n)
    )
    labels = tuple(range(-p + 1, 0)) + (0,) + tuple(range(1, q))
    g = GraphSpec(
        n=n,
        edges=frozenset(edges),
        roles=roles,
        params={"family": "single_chain", "p": p, "q": q},
        labels=labels,
    )
    g.validate()
    return g


def build_two_chain(q1: int, p: int, q2: int) -> GraphSpec:
    """Clique on p vertices with pendant chains of q1-1 and q2-1 vertices.

    Vertex order follows the signed labels ascending: left chain (free end
    first), then the clique (left junction first, right junction last),
    then the right chain.  For q1 == q2 the reflection symmetry is plain
    index reversal j <-> n-1-j.
    """
    if p < 3:
        raise ValueError(f"p must be >= 3, got {p}")
    if q1 < 2:
        raise ValueError(f"q1 must be >= 2, got {q1}")
    if q2 < 2:
        raise ValueError(f"q2 must be >= 2, got {q2}")
    n = p + q1 + q2 - 2
    left = list(range(q1 - 1))                 # labels -q1-p+2 .. -p
    clique = list(range(q1 - 1, q1 - 1 + p))   # labels -p+1 .. 0
    right = list(range(q1 - 1 + p, n))         # labels 1 .. q2-1
    edges = set()
    for a, b in zip(left, left[1:]):
        edges.add((a, b))
    if left:
        edges.add(_edge(left[-1], clique[0]))
    for i in range(len(clique)):
        for j in range(i + 1, len(clique)):
            edges.add((clique[i], clique[j]))
    if right:
        edges.add(_edge(clique[-1], right[0]))
    for a, b in zip(right, right[1:]):
        edges.add((a, b))
    roles_list: list[Role] = []
    for i in range(n):
        if i in (clique[0], clique[-1]):
            link = "C1" if i == clique[0] else "C2"
            roles_list.append(Role("junction", clique="K", links=(link,)))
        elif i in clique:
            roles_list.append(Role("clique", clique="K"))
        elif i in left:
            roles_list.append(Role("chain", chain="C1"))
        else:
            roles_list.append(Role("chain", chain="C2"))
    labels = tuple(range(-q1 - p + 2, -p + 1)) + tuple(range(-p + 1, 1)) + tuple(
        range(1, q2)
    )
    g = GraphSpec(
        n=n,
        edges=frozenset(edges),
        roles=tuple(roles_list),
        params={"family": "two_chain", "p": p, "q1": q1, "q2": q2},
        labels=labels,
    )
    g.validate()
    return g


@dataclass(frozen=True)
class CliqueDef:
    id: str
    p: int


@dataclass(frozen=True)
class LinkDef:
    """Chain link: from one clique vertex to another clique or an open end."""

    from_clique: str
    from_vertex: int
    length: int  # interior vertices, >= 1
    to_clique: Optional[str] = None  # None = open (pendant) chain
    to_vertex: Optional[int] = None

    @property
    def open(self) -> bool:
        return self.to_clique is None


@dataclass(frozen=True)
class CliqueNetworkSpec:
    """Network of cliques connected by chains."""

    cliques: tuple[CliqueDef, ...]
    links: tuple[LinkDef, ...]

    def validate(self) -> None:
        ids = [c.id for c in self.cliques]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate clique ids")
        if not self.cliques:
            raise ValueError("at least one clique required")
        sizes = {c.id: c.p for c in self.cliques}
        for c in self.cliques:
            if c.p < 3:
                raise ValueError(f"clique {c.id!r}: p must be >= 3, got {c.p}")
        for k, ln in enumerate(self.links):
            if ln.length < 1:
                raise ValueError(f"link {k}: length must be >= 1, got {ln.length}")
            if ln.from_clique not in sizes:
                raise ValueError(f"link {k}: unknown clique {ln.from_clique!r}")
            if not 0 <= ln.from_vertex < sizes[ln.from_clique]:
                raise ValueError(
                    f"link {k}: vertex {ln.from_vertex} outside clique "
                    f"{ln.from_clique!r} of size {sizes[ln.from_clique]}"
                )
            if not ln.open:
                if ln.to_clique not in sizes:
                    raise ValueError(f"link {k}: unknown clique {ln.to_clique!r}")
                if not 0 <= ln.to_vertex < sizes[ln.to_clique]:
                    raise ValueError(
                        f"link {k}: vertex {ln.to_vertex} outside clique "
                        f"{ln.to_clique!r} of size {sizes[ln.to_clique]}"
                    )

    def degree(self, clique_id: str) -> int:
        """Number of link endpoints touching the clique."""
        d = 0
        for ln in self.links:
            if ln.from_clique == clique_id:
                d += 1
            if ln.to_clique == clique_id:
                d += 1
        return d

    def distinct_attachments(self, clique_id: str) -> bool:
        used = []
        for ln in self.links:
            if ln.from_clique == clique_id:
                used.append(ln.from_vertex)
            if ln.to_clique == clique_id:
                used.append(ln.to_vertex)
        return len(set(used)) == len(used)


def network_from_json(doc: Union[str, bytes, dict]) -> CliqueNetworkSpec:
    """Parse a network description.

    Expected document shape::

        {"cliques": [{"id": str, "p": int}],
         "links": [{"from": {"clique": str, "vertex": int},
                    "to": {"clique": str, "vertex": int} | "open",
                    "length": int}]}

    Unknown fields are rejected.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("network document must be a JSON object")
    extra = set(doc) - {"cliques", "links"}
    if extra:
        raise ValueError(f"unknown fields in network document: {sorted(extra)}")
    cliques = []
    for c in doc.get("cliques", []):
        extra = set(c) - {"id", "p"}
        if extra:
            raise ValueError(f"unknown fields in clique entry: {sorted(extra)}")
        cliques.append(CliqueDef(id=str(c["id"]), p=int(c["p"])))
    links = []
    for ln in doc.get("links", []):
        extra = set(ln) - {"from", "to", "length"}
        if extra:
            raise ValueError(f"unknown fields in link entry: {sorted(extra)}")
        src = ln["from"]
        extra = set(src) - {"clique", "vertex"}
        if extra:
            raise ValueError(f"unknown fields in link endpoint: {sorted(extra)}")
        dst = ln.get("to", "open")
        if dst == "open":
            links.append(
                LinkDef(
                    from_clique=str(src["clique"]),
                    from_vertex=int(src["vertex"]),
                    length=int(ln["length"]),
                )
            )
        else:
            extra = set(dst) - {"clique", "vertex"}
            if extra:
                raise ValueError(f"unknown fields in link endpoint: {sorted(extra)}")
            links.append(
                LinkDef(
                    from_clique=str(src["clique"]),
                    from_vertex=int(src["vertex"]),
                    length=int(ln["length"]),
                    to_clique=str(dst["clique"]),
                    to_vertex=int(dst["vertex"]),
                )
            )
    spec = CliqueNetworkSpec(cliques=tuple(cliques), links=tuple(links))
    spec.validate()
    return spec


def build_network(spec: CliqueNetworkSpec) -> GraphSpec:
    """Assemble a clique network: clique blocks in declaration order, then
    one contiguous vertex run per link in declaration order."""
    spec.validate()
    offsets = {}
    pos = 0
    for c in spec.cliques:
        offsets[c.id] = pos
        pos += c.p
    link_ids = [f"L{k}" for k in range(len(spec.links))]
    link_start = {}
    for k, ln in enumerate(spec.links):
        link_start[k] = pos
        pos += ln.length
    n = pos

    edges = set()
    junctions: dict[int, list[str]] = {}
    for c in spec.cliques:
        off = offsets[c.id]
        for i in range(c.p):
            for j in range(i + 1, c.p):
                edges.add((off + i, off + j))
    for k, ln in enumerate(spec.links):
        start = link_start[k]
        interior = list(range(start, start + ln.length))
        a = offsets[ln.from_clique] + ln.from_vertex
        junctions.setdefault(a, []).append(link_ids[k])
        edges.add(_edge(a, interior[0]))
        for u, v in zip(interior, interior[1:]):
            edges.add((u, v))
        if not ln.open:
            b = offsets[ln.to_clique] + ln.to_vertex
            junctions.setdefault(b, []).append(link_ids[k])
            edges.add(_edge(interior[-1], b))

    roles_list = []
    labels: list[Union[int, str]] = []
    for c in spec.cliques:
        for i in range(c.p):
            v = offsets[c.id] + i
            if v in junctions:
                roles_list.append(
                    Role("junction", clique=c.id, links=tuple(junctions[v]))
                )
            else:
                roles_list.append(Role("clique", clique=c.id))
            labels.append(f"{c.id}.{i}")
    for k, ln in enumerate(spec.links):
        for i in range(ln.length):
            roles_list.append(Role("chain", chain=link_ids[k]))
            labels.append(f"{link_ids[k]}.{i}")

    g = GraphSpec(
        n=n,
        edges=frozenset(edges),
        roles=tuple(roles_list),
        params={
            "family": "network",
            "cliques": [(c.id, c.p) for c in spec.cliques],
            "links": [
                (
                    ln.from_clique,
                    ln.from_vertex,
                    "open" if ln.open else (ln.to_clique, ln.to_vertex),
                    ln.length,
                )
                for ln in spec.links
            ],
            "degrees": {c.id: spec.degree(c.id) for c in spec.cliques},
            "distinct_attachments": {
                c.id: spec.distinct_attachments(c.id) for c in spec.cliques
            },
        },
        labels=tuple(labels),
    )
    g.validate()
    return g


def laplacian(g: GraphSpec) -> np.ndarray:
    """Dense graph Laplacian: degree on the diagonal, -1 on edges.

    Every entry is a small integer held exactly in float64, so row sums are
    exactly zero.
    """
    L = np.zeros((g.n, g.n))
    if g.edges:
        i, j = np.array(tuple(g.edges)).T
        L[i, j] = L[j, i] = -1.0
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def pendant_laplacian_times(v: np.ndarray, q1: int, p: int, q2: int) -> np.ndarray:
    """L @ v for ``build_two_chain(q1, p, q2)`` in O(n), without building L.

    ``q1 = 1`` (no left chain) gives ``build_single_chain(p, q2)``, whose
    vertices come in the same order: left chain, clique, right chain.  The
    clique block contributes ``p * v_i - sum(clique)``; each chain, with the
    junction it hangs off, is a path.
    """
    v = np.asarray(v, dtype=float)
    a = q1 - 1  # left-chain vertices, before the clique
    out = np.zeros_like(v)
    clique = v[a : a + p]
    out[a : a + p] = p * clique - clique.sum()
    for lo, hi in ((0, a), (a + p - 1, v.size - 1)):  # paths lo..hi
        d = np.diff(v[lo : hi + 1])
        out[lo:hi] -= d
        out[lo + 1 : hi + 1] += d
    return out
