"""Spans around the calls into each cliquechain layer, recorded from outside.

``cliquechain.cli`` and ``cliquechain.modes`` bind their callees with
``from .x import f``, so a span has to wrap the name where it is looked
up, not where it is defined.  ``Tracer.install`` replaces those names in
the modules listed in ``_SITES`` and ``uninstall`` puts the originals back;
nothing under ``src/`` changes.

Each span is ``(name, start, end, parent, op)``: the layer name, two
``perf_counter`` readings, the index of the enclosing span (-1 for the
operation's root) and the operation id.  Spans stay in memory; ``dump``
writes them out at the end.  A span's self time is its duration minus the
time its child spans cover; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# name looked up in a module -> layer span name
LAYERS = {
    "build_single_chain": "graphs.build",
    "build_two_chain": "graphs.build",
    "build_network": "graphs.build",
    "network_from_json": "graphs.build",
    "laplacian": "graphs.laplacian",
    "eig_sym": "jacobi.eig_sym",
    "residual": "jacobi.residual",
    "find_edge_roots": "characteristic.find_edge_roots",
    "find_chain_roots": "characteristic.find_chain_roots",
    "count_sign_changes_below_band": "characteristic.count_sign_changes",
    "sigma_pair": "transfer.sigma_pair",
    "classify_spectrum": "modes.classify_spectrum",
    "edge_mode": "modes.edge_mode",
    "chain_mode": "modes.chain_mode",
    "weyl_one": "bounds.weyl",
    "weyl_two": "bounds.weyl",
    "render_json": "cli.render",
}
# modules whose globals the calls go through; modes reaches the bounds
# functions as attributes of the bounds module
_SITES = ("cliquechain.cli", "cliquechain.modes", "cliquechain.bounds")
# spans whose arguments and results the per-layer counters need
_OBSERVED = {"jacobi.eig_sym", "characteristic.find_edge_roots", "characteristic.find_chain_roots"}
ROOT = "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.observed: list[tuple] = []  # (span name, args, result)
        self._stack = [-1]
        self._op = -1
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, observed = self.spans, self._stack, self.observed
        keep = name in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self._op)
            if keep:
                observed.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        for site in _SITES:
            mod = importlib.import_module(site)
            for attr, name in LAYERS.items():
                if attr in vars(mod):
                    self._saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._wrap(name, getattr(mod, attr)))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def run(self, op: int, fn):
        """Call ``fn()`` as the root span of operation ``op``."""
        self._op = op
        return self._wrap(ROOT, fn)()

    def dump(self, path: Path, meta: dict) -> None:
        fields = ["name", "start", "end", "parent", "op"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


def layer_totals(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    child = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, (name, t0, t1, _, _) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += t1 - t0 - child[sid]
    return out
