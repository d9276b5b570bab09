"""Seeded operation generators for the benchmark workloads.

A workload is a fixed cycle of slots.  Each slot fixes the command and the
size of its input; the seed only picks the parameters inside the slot
(the p/q split of a chain graph, the layout of a network, the offsets of a
sweep range).  Every cycle therefore has the same size mix, which keeps the
per-operation timing quantiles steady from seed to seed while the inputs
themselves differ.  The benchmark runs whole cycles, so the mix is exact.

The draws that set most of a slot's cost (the p/q split, the size of a
sweep range) come from a low-discrepancy sequence with a seeded offset:
over a run's cycles they cover the slot's range evenly whatever the seed.

Each list has 25 or 15 slots.  With 5 (mod 10) equally likely slots sorted
by cost, the median and the 90th percentile fall in the middle of a slot;
each of them falls in a run of three to five slots of like cost, marked
below, which keeps the quantile from jumping between slots of unlike cost.

Every workload also holds one or two small "probe" slots of the commands
it is not about, so that every layer the traced run measures is called in
every workload and no per-layer time is zero by construction.

No timed operation should fail.  The package flags three known defects
itself (exit 2), so the slots stay clear of them: single chains keep the
chain parameter q within ``_max_q`` of the clique size, and networks have
clique sizes at least 2 apart and distinct junction vertices.  The
defects are not hidden: ``known_defects`` holds one fixed operation for
each, which the worker runs untimed in every run and reports apart from
the timed loop.

An operation is the argv of one ``cliquechain`` command plus the plain
description the yardstick needs to check its report.  Network operations
also carry the JSON document the program reads from a file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# steps of the R_d low-discrepancy sequences in two dimensions
_STEPS = (0.7548776662466927, 0.5698402909980532)


@dataclass(frozen=True)
class Op:
    """One command: its argv, what the checker needs, files to write first."""

    argv: tuple[str, ...]
    spec: dict
    files: dict = field(default_factory=dict)  # relative path -> text


# Slots:
#   (spectrum | bounds, shape, n)   shape: single | two | (net, cliques, sizes, shared)
#   (one-finite | two-finite-equal, p width, q width, least n, largest n)
#   (modes, p range, q range)
#   (one-infinite, first-p range, width range)
#   (reproduce, table, None)


def _net(k: int, sizes: str = "distinct", shared: bool = False) -> tuple:
    return ("net", k, sizes, shared)


# (least p, largest q): for K_p with a chain of q - 1 vertices and p at
# least the first entry, the package's band-root scan finds every chain
# eigenvalue when q is at most the second.  Measured over p = 5..80 (and
# q = 2 up to p = 199) on the package this benchmark was introduced with;
# larger q hits the band-root misses next to poles, which the program
# flags with exit 2.
_MAX_Q_STEPS = ((5, 11), (9, 8), (12, 7), (13, 5), (18, 4), (22, 3), (27, 2))


def _max_q(p: int) -> int:
    return [q for least, q in _MAX_Q_STEPS if p >= least][-1]


_SLOTS = {
    # spectrum and bounds on chains and networks, n = 9..150
    "spectrum-ladder": (
        ("spectrum", "single", 9),
        ("modes", (5, 8), (2, 6)),  # probe
        ("one-infinite", (5, 60), (3, 6)),  # probe
        ("spectrum", _net(1), 12),
        ("spectrum", "single", 15),
        ("bounds", "two", 15),
        ("spectrum", "two", 20),
        ("spectrum", _net(2), 20),
        ("bounds", "single", 25),
        ("spectrum", _net(1), 30),
        # median
        ("spectrum", _net(2), 39),
        ("spectrum", _net(2), 39),
        ("spectrum", _net(3), 39),
        ("spectrum", "two", 39),
        ("bounds", "single", 39),
        ("spectrum", "two", 50),
        ("spectrum", "single", 60),
        ("bounds", "two", 60),
        ("bounds", "single", 79),
        # 90th percentile
        ("spectrum", _net(2), 119),
        ("spectrum", _net(3), 119),
        ("spectrum", _net(1), 119),
        ("spectrum", "single", 119),
        ("spectrum", "two", 119),
        ("spectrum", "single", 150),
    ),
    # small one-finite / two-finite-equal sweeps, n <= 40, p >= 5
    "sweep-grid": (
        ("spectrum", "single", 12),  # probe
        ("modes", (5, 8), (2, 6)),  # probe
        ("two-finite-equal", 2, 2, 12, 15),
        ("one-finite", 2, 3, 16, 20),
        ("two-finite-equal", 2, 2, 18, 22),
        ("one-finite", 3, 2, 20, 24),
        # median
        ("one-finite", 3, 3, 27, 27),
        ("one-finite", 3, 3, 27, 27),
        ("one-finite", 3, 3, 27, 27),
        ("two-finite-equal", 2, 2, 30, 32),
        ("one-finite", 2, 3, 32, 34),
        ("two-finite-equal", 2, 3, 34, 36),
        # 90th percentile
        ("one-finite", 3, 3, 40, 40),
        ("one-finite", 3, 3, 40, 40),
        ("one-finite", 3, 3, 40, 40),
    ),
    # modes, one-infinite sweeps and table reproduction; modes keep q
    # within _max_q(p), so the large ones are cliques with a short tail
    "analytic-modes": (
        ("reproduce", 1, None),
        ("reproduce", 2, None),
        ("reproduce", 3, None),
        ("spectrum", "single", 9),  # probe
        ("modes", (5, 8), (2, 11)),
        ("modes", (5, 8), (2, 11)),
        ("modes", (9, 12), (2, 8)),
        ("modes", (13, 21), (2, 5)),
        ("modes", (22, 45), (2, 3)),
        ("one-infinite", (5, 30), (3, 3)),
        # median
        ("modes", (60, 68), (2, 2)),
        ("modes", (60, 68), (2, 2)),
        ("modes", (60, 68), (2, 2)),
        ("modes", (60, 68), (2, 2)),
        ("modes", (60, 68), (2, 2)),
        ("modes", (70, 80), (2, 2)),
        ("modes", (70, 80), (2, 2)),
        ("modes", (70, 80), (2, 2)),
        ("one-infinite", (100, 110), (5, 5)),
        ("one-infinite", (100, 110), (5, 5)),
        # 90th percentile
        ("one-infinite", (150, 195), (6, 6)),
        ("one-infinite", (150, 195), (6, 6)),
        ("one-infinite", (150, 195), (6, 6)),
        ("one-infinite", (150, 195), (6, 6)),
        ("one-infinite", (150, 195), (6, 6)),
    ),
}
WORKLOADS = tuple(_SLOTS)


def _pick(lo: int, hi: int, u: float) -> int:
    """The integer in [lo, hi] at position u in [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _clique_sizes(k: int, style: str, cap: int, rng: random.Random) -> list[int]:
    """k clique sizes of at least 5 and at most ``cap`` in total.

    'distinct' sizes differ by at least 2, so the edge windows (p, p+2) of
    different cliques are disjoint; 'equal' makes the first two equal and
    'adjacent' makes them differ by exactly 1 (overlapping windows).  All
    other pairs differ by at least 2.
    """
    hi = cap - 5 * (k - 1)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if style != "distinct":
        pairs.remove((0, 1))
    while True:
        sizes = [rng.randint(5, hi) for _ in range(k)]
        if style == "equal":
            sizes[1] = sizes[0]
        elif style == "adjacent":
            sizes[1] = sizes[0] + 1
        if sum(sizes) <= cap and all(abs(sizes[i] - sizes[j]) >= 2 for i, j in pairs):
            return sizes


def _network(n: int, k: int, style: str, shared: bool, rng: random.Random) -> dict:
    """A connected network document with n vertices and k cliques.

    Consecutive cliques are joined by a chain and one or two open chains
    hang off random cliques; every chain has at least 2 vertices and the
    cliques hold at most 60% of the vertices.  Junction vertices are
    distinct unless ``shared``: then the open chains hang off the first
    clique and one of them starts at a vertex another chain already uses.
    """
    n_open = 2 if (shared and k == 1) else rng.randint(1, 2)
    n_links = k - 1 + n_open
    sizes = _clique_sizes(k, style, min(n - 2 * n_links, (6 * n) // 10), rng)
    ids = [chr(ord("A") + i) for i in range(k)]
    extra = n - sum(sizes) - 2 * n_links
    cuts = sorted(rng.randint(0, extra) for _ in range(n_links - 1))
    lengths = [b - a + 2 for a, b in zip([0] + cuts, cuts + [extra])]
    free = {cid: rng.sample(range(p), p) for cid, p in zip(ids, sizes)}
    ends = [(ids[i], ids[i + 1]) for i in range(k - 1)]
    ends += [(ids[0] if shared else rng.choice(ids), None) for _ in range(n_open)]
    links = []
    for (src, dst), length in zip(ends, lengths):
        to = "open" if dst is None else {"clique": dst, "vertex": free[dst].pop()}
        links.append({"from": {"clique": src, "vertex": free[src].pop()}, "to": to, "length": length})
    if shared:
        opens = [j for j, ln in enumerate(links) if ln["to"] == "open"]
        target = opens[-1] if k == 1 else opens[0]
        links[target]["from"]["vertex"] = links[0]["from"]["vertex"]
    return {"cliques": [{"id": c, "p": p} for c, p in zip(ids, sizes)], "links": links}


def _graph_op(slot: tuple, u: list[float], rng: random.Random, tag: str) -> Op:
    cmd, shape, n = slot
    if shape == "single":  # n = p + q - 1
        if cmd == "bounds":  # no band-root scan: any split
            p = _pick(max(5, n // 4), max(5, 3 * n // 4), u[0])
        else:
            ps = [p for p in range(5, n) if n + 1 - p <= _max_q(p)]
            p = ps[_pick(0, len(ps) - 1, u[0])]
        g = ("single", p, n - p + 1)
        return Op((cmd, "--p", str(g[1]), "--q", str(g[2])), {"cmd": cmd, "graph": g})
    # the clique holds a quarter to three quarters of the vertices
    p = _pick(max(5, n // 4), max(5, 3 * n // 4), u[0])
    if shape == "two":  # n = p + q1 + q2 - 2
        q1 = rng.randint(2, n - p)
        g = ("two", q1, p, n - p + 2 - q1)
        args = ("--q1", str(g[1]), "--p", str(g[2]), "--q2", str(g[3]))
        return Op((cmd,) + args, {"cmd": cmd, "graph": g})
    _, k, style, shared = shape
    doc = _network(n, k, style, shared, rng)
    path = f"net-{tag}.json"
    return Op(
        (cmd, "--network", path),
        {"cmd": cmd, "graph": ("network", doc)},
        {path: json.dumps(doc, sort_keys=True)},
    )


def _sweep_op(slot: tuple, u: list[float]) -> Op:
    """The last row (p1, q1) has n_max vertices; ranges start at p0 >= 5, q0 >= 2."""
    family, wp, wq, n_lo, n_hi = slot
    n_max = _pick(n_lo, n_hi, u[0])
    if family == "one-finite":  # n = p + q - 1
        p1 = _pick(wp + 4, n_max - wq, u[1])
        q1 = n_max + 1 - p1
    else:  # n = p + 2q - 2
        q1 = _pick(wq + 1, (n_max - wp - 2) // 2, u[1])
        p1 = n_max + 2 - 2 * q1
    p0, q0 = p1 - wp + 1, q1 - wq + 1
    argv = ("sweep", "--family", family, "--p", f"{p0}..{p1}", "--q", f"{q0}..{q1}")
    return Op(argv, {"cmd": "sweep", "family": family, "p": (p0, p1), "q": (q0, q1)})


def _op(slot: tuple, u: list[float], rng: random.Random, tag: str) -> Op:
    kind, a, b = slot[:3]
    if kind in ("spectrum", "bounds"):
        return _graph_op(slot, u, rng, tag)
    if kind in ("one-finite", "two-finite-equal"):
        return _sweep_op(slot, u)
    if kind == "modes":
        p = _pick(*a, u[0])
        q = _pick(b[0], min(b[1], _max_q(p)), u[1])
        return Op(("modes", "--p", str(p), "--q", str(q)), {"cmd": "modes", "p": p, "q": q})
    if kind == "one-infinite":
        p0 = _pick(*a, u[0])
        p1 = p0 + rng.randint(*b) - 1
        argv = ("sweep", "--family", "one-infinite", "--p", f"{p0}..{p1}")
        return Op(argv, {"cmd": "sweep", "family": "one-infinite", "p": (p0, p1), "q": None})
    return Op(("reproduce", "--table", str(a)), {"cmd": "reproduce", "table": a})


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The operations of cycle ``index``; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = []
    for k, slot in enumerate(_SLOTS[workload]):
        offset = random.Random(f"{workload}/{seed}/slot{k}")
        u = [(offset.random() + index * step) % 1.0 for step in _STEPS]
        ops.append(_op(slot, u, rng, f"{index}-{k}"))
    return ops


def known_defects() -> dict[str, Op]:
    """One fixed operation for each defect the package flags itself.

    The workloads stay clear of these; the worker runs them untimed and
    reports their failure reasons apart from the timed operations, so a
    fix (or a new way of failing) shows in every run.
    """
    ops = {
        "band_root_miss.spectrum": Op(
            ("spectrum", "--p", "12", "--q", "8"), {"cmd": "spectrum", "graph": ("single", 12, 8)}
        ),
        "band_root_miss.modes": Op(("modes", "--p", "13", "--q", "10"), {"cmd": "modes", "p": 13, "q": 10}),
    }
    for name, shape, n in (
        ("equal_cliques", _net(2, "equal"), 20),
        ("adjacent_cliques", _net(2, "adjacent"), 30),
        ("shared_junction", _net(1, "distinct", shared=True), 30),
    ):
        rng = random.Random(f"known-defects/{name}")
        ops[name] = _graph_op(("spectrum", shape, n), [0.0], rng, name)
    return ops


def warmup(workload: str) -> list[Op]:
    """A few small operations of the workload, run once before timing."""
    return cycle(workload, seed=-1, index=0)[:4]


def write_files(ops: list[Op], workdir: Path) -> list[Op]:
    """Write each op's input files under ``workdir``; return ops whose argv
    point there."""
    out = []
    for op in ops:
        argv = op.argv
        for rel, text in op.files.items():
            path = workdir / rel
            path.write_text(text)
            argv = tuple(str(path) if a == rel else a for a in argv)
        out.append(Op(argv, op.spec, op.files))
    return out
