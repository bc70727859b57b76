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
checked frame on its own grid, with no sub-grid and no second frame.  A node
box is widened into its stencil window by ``grids.box_window`` alone, and the
whole grid is the box ``grids.WHOLE``, not a path of its own.  The residual
fields of a configuration are evaluated by one pass,
``grids.residual_report``, on a node box view, a ``grids.BoxFields``: every
grid report reads them from its box arrays, and only ``cli.cmd_residuals``
runs the global scalar assembly of its own, on the same view, to compare it
with the local one.  *V of a configuration, its self-duality defect and its
taming J are formed by that view alone.  A configuration holds its metric
once, as its checked geometry, which nothing assigns after construction."""

import ast
import dataclasses
from pathlib import Path

from emduality import grids as gr

SRC = Path(__file__).resolve().parent.parent / "src" / "emduality"

BLOCKED = {("fields", "star_fibers"), ("fields", "_q_contraction"), ("fields", "pairings"),
           ("fields", "invert_metric"),
           ("grids", "_christoffel"), ("grids", "FieldConfiguration"),
           ("grids", "scalar_residual"), ("spinors", "spin_connection"),
           ("spinors", "FramePatch"), ("spinors", "extract_kappa")}


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


def test_one_residual_pass():
    assert loads({"einstein_residual", "maxwell_residual", "scalar_residual"}) == {
        ("einstein_residual", "grids", "residual_report"),
        ("maxwell_residual", "grids", "residual_report"),
        ("scalar_residual", "grids", "residual_report"),
        ("scalar_residual", "cli", "cmd_residuals")}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "scalar_residual"]
    assert [[arg.value for arg in call.args[1:]] for call in calls] == [["global"]]


def test_one_window_helper():
    """A node box is widened into its stencil window by ``grids.box_window``
    alone: the grid residuals, the box geometry and its Ricci traces (on the
    box plus one node), the spin connection, the Killing residual and kappa,
    whose whole grid is the box ``WHOLE``, the first-order system, on the
    interior's window, and the spinor check's sweep, through its residual
    box's window.  The Killing residual reads its connection from
    ``spin_connection`` on its box."""
    assert loads({"box_window"}) == {("box_window", "grids", "partial_at"),
                                     ("box_window", "grids", "Geometry"),
                                     ("box_window", "grids", "_gamma_traces"),
                                     ("box_window", "grids", "BoxFields"),
                                     ("box_window", "spinors", "spin_connection"),
                                     ("box_window", "spinors", "killing_residual"),
                                     ("box_window", "spinors", "extract_kappa"),
                                     ("box_window", "spinors", "verify_thm53"),
                                     ("box_window", "cli", "_killing_residual_max")}
    assert loads({"WHOLE"}) >= {("WHOLE", "spinors", "spin_connection"),
                                ("WHOLE", "spinors", "killing_residual"),
                                ("WHOLE", "spinors", "extract_kappa")}
    assert loads({"_connection"}) == {("_connection", "spinors", "spin_connection")}
    assert ("spin_connection", "spinors", "killing_residual") in loads({"spin_connection"})


def test_star_v_formed_only_by_a_box_view():
    """*V of a configuration and its self-duality defect are formed by
    ``grids.BoxFields`` alone: a configuration keeps no *V of its own, and
    every reader goes through a node box, the whole grid being ``WHOLE``."""
    outside = {found for found in loads({"star_fibers", "selfduality_defect", "star_v"})
               if found[1] != "fields"}
    assert outside == {("star_fibers", "grids", "BoxFields"),
                       ("selfduality_defect", "grids", "BoxFields"),
                       ("star_v", "grids", "BoxFields"),
                       ("star_v", "grids", "local_gauge_source"),
                       ("star_v", "grids", "psi_form_source")}


def test_configuration_holds_its_checked_inputs_once():
    """The fields of a configuration are its checked inputs and the output of
    its one model walk: the metric is the geometry (``g`` and ``grid`` are
    read from it), and no hook rewrites a field when another is assigned."""
    assert [f.name for f in dataclasses.fields(gr.FieldConfiguration)] == [
        "model", "geometry", "phi", "V", "R", "I", "dtau", "inv"]
    assert "__setattr__" not in vars(gr.FieldConfiguration)
    assigned = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and node.attr == "geometry"):
                assigned.add((path.stem, node.lineno))
    assert assigned == set()


def test_taming_formed_only_by_a_box_view():
    """Outside ``symplectic``, the taming formula is read by ``grids.BoxFields``
    alone: a configuration keeps no J, I^-1 or Q = Omega J of its own."""
    assert {found for found in loads({"taming_matrix"}) if found[1] != "symplectic"} == {
        ("taming_matrix", "grids", "BoxFields")}
