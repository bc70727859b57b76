"""Spans around the public functions of each emduality module, installed
from outside the package (nothing under ``src/`` is edited).

A span has a name, a start, an end and a parent.  Spans are aggregated in
memory per name (calls, self time) and per (parent, name) edge (calls, total
time); ``Tracer.dump`` writes them out when the run ends.

Rules:

* a name is wrapped wherever a caller looks it up: the defining module, every
  ``emduality`` module that bound it with ``from ... import``, and the class
  for methods;
* a span whose name is already open further up the stack is not recorded,
  so a recursive function, or a group name such as ``grids.curvature`` whose
  members call each other, counts only its outermost call;
* self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # open spans: [name, start, child_s]
        self.open: set[str] = set()          # names of the open spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], list] = {}   # (parent, name) -> [calls, total_s]
        self.counters: dict[str, int] = {}

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording a span called ``name`` around ``fn``; ``count``
        maps the call arguments to (counter, amount) for work counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self.open:
                return fn(*args, **kwargs)
            if count is not None:
                key, amount = count(*args, **kwargs)
                self.counters[key] = self.counters.get(key, 0) + amount
            span = [name, self.clock(), 0.0]
            self.stack.append(span)
            self.open.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.stack.pop()
                self.open.discard(name)
                duration = end - span[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - span[2]
                parent = self.stack[-1][0] if self.stack else ""
                if self.stack:
                    self.stack[-1][2] += duration
                edge = self.edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration

        return wrapper

    def dump(self, path: str, extra: dict | None = None):
        data = {
            "spans": {n: {"calls": self.calls[n], "self_s": self.self_s[n]}
                      for n in sorted(self.calls)},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
        }
        data.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)


def delta(after: dict, before: dict) -> dict:
    """Per-table difference of two snapshots: the work between them."""
    return {table: {k: v - before[table].get(k, 0) for k, v in after[table].items()}
            for table in after}


def _nodes(cfg):
    return "grids.nodes", int(np.prod(cfg.grid.shape))


def targets():
    """(span name, owner, attribute, work counter) for every traced entry
    point.  Owners are modules or classes of the emduality package."""
    from emduality import (cli, duality, expressions, fields, grids, holonomy,
                           models, spinors, symplectic)

    out = [("cli", cli, "run", None),
           ("expressions.evaluate", expressions, "evaluate", None),
           ("expressions.derivative", expressions, "derivative", None)]
    for cls in (models.Model, models.TransformedModel):
        out += [("models.period_matrix", cls, "period_matrix", None),
                ("models.period_directional", cls, "period_directional", None)]
    for cls in (models.MobiusIsometry, models.FlatIsometry):
        out += [("models.isometry", cls, "apply", None),
                ("models.isometry", cls, "jacobian", None)]
    for fn in ("fractional_action", "mobius_differential",
               "infinitesimal_fractional_action", "omega"):
        out.append((f"symplectic.{fn}", symplectic, fn, None))
    out.append(("fields.hodge2", fields, "hodge2", None))
    out += [("grids.configuration", grids.FieldConfiguration, "__post_init__", _nodes),
            ("grids.configuration", grids, "assemble_field_block", None)]
    for fn in ("christoffel", "ricci", "einstein"):
        out.append(("grids.curvature", grids, fn, None))
    for fn in ("einstein_residual", "scalar_residual", "maxwell_residual",
               "transport_config", "residual_report", "partials"):
        out.append((f"grids.{fn}", grids, fn, None))
    for fn in ("integrate_killing", "killing_residual", "spin_connection",
               "killing_bilinears"):
        out.append((f"spinors.{fn}", spinors, fn, None))
    for fn in ("extract_kappa", "verify_thm53"):
        out.append(("spinors.first_order", spinors, fn, None))
    for fn in ("stab_sp_algebra", "uduality_algebra", "lift_killing_field"):
        out.append((f"duality.{fn}", duality, fn, None))
    for fn in ("centralizer_algebra", "conjugacy_invariants"):
        out.append((f"holonomy.{fn}", holonomy, fn, None))
    out.append(("holonomy.word_matrix", holonomy.BundlePresentation, "word_matrix", None))
    return out


@contextmanager
def installed(tracer: Tracer, entries):
    """Replace every binding of each target by its traced wrapper; restore
    the originals on exit."""
    saved = []
    modules = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "emduality" or k.startswith("emduality."))]
    try:
        for name, owner, attr, count in entries:
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(name, original, count)
            owners = [owner] if isinstance(owner, type) else modules
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)
