"""One node-block path.  ``fields.blockwise`` is the only reader of
``fields.node_blocks`` apart from ``spinors.integrate_killing``, whose slabs
are sequential sweeps of rows that hold several nodes each, and
``fields.NODE_BLOCK`` is read only by ``node_blocks``.  A pointwise kernel
with a block loop of its own fails here: route it through
``fields.blockwise``.  The node-blocked kernels are listed by the
top-level function or class that calls ``blockwise``.  Index raising of
two-forms, ``fields.raise2``, is read only by the Hodge dual ``star`` and
the two-form pairing ``pairings``: every other pairing or dual goes through
those two.  The RK4 edge loop is written once, in ``spinors._sweep``: it
alone reads ``spinors._edge_propagators`` and returns no propagators, and
both sweeps, ``integrate_killing`` and the corner path of ``path_defect``,
run through it.  ``spinors`` builds a ``GridPatch`` or a ``FramePatch``
only in ``builtin_frame``: the Killing residual of a node box slices the
checked frame on its own grid, with no sub-grid and no second frame."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "emduality"

BLOCKED = {("fields", "star_fibers"), ("fields", "_q_contraction"), ("fields", "pairings"),
           ("grids", "metric_geometry"), ("grids", "FieldConfiguration"),
           ("grids", "scalar_residual"), ("spinors", "spin_connection"),
           ("spinors", "killing_residual_max"), ("spinors", "FramePatch"),
           ("spinors", "extract_kappa")}


def loads(names):
    """(name, module, top-level owner) of every read of one of names in the
    package; the owner is None at module level."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name in names:
                    found.add((name, path.stem, owner))
    return found


def test_node_blocks_read_only_by_blockwise_and_the_sweep():
    assert loads({"node_blocks", "NODE_BLOCK"}) == {
        ("node_blocks", "fields", "blockwise"),
        ("node_blocks", "spinors", "integrate_killing"),
        ("NODE_BLOCK", "fields", "node_blocks")}


def test_every_node_blocked_kernel_calls_blockwise():
    callers = {(module, owner) for _, module, owner in loads({"blockwise"})}
    assert callers == BLOCKED


def test_two_forms_raised_only_by_star_and_pairings():
    assert loads({"raise2"}) == {("raise2", "fields", "star"),
                                 ("raise2", "fields", "pairings")}


def test_one_edge_loop():
    assert loads({"_edge_propagators"}) == {("_edge_propagators", "spinors", "_sweep")}
    assert loads({"_sweep"}) == {("_sweep", "spinors", "integrate_killing"),
                                 ("_sweep", "spinors", "path_defect")}
    tree = ast.parse((SRC / "spinors.py").read_text(encoding="utf-8"))
    sweep = next(top for top in tree.body if getattr(top, "name", None) == "_sweep")
    assert not any(isinstance(node, ast.Return) and node.value is not None
                   for node in ast.walk(sweep))


def test_spinors_builds_grids_and_frames_only_in_builtin_frame():
    tree = ast.parse((SRC / "spinors.py").read_text(encoding="utf-8"))
    built = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("GridPatch", "FramePatch"):
                    built.add((name, getattr(top, "name", None)))
    assert built == {("FramePatch", "builtin_frame")}
