"""Batch command-line front end: model inspection, duality-algebra
computations, bundle centralizers, grid residual evaluation and the spinor
verification suites, each emitting a deterministic structured-text report.

Exit codes: 0 all checks passed; 1 a failed check, a tolerance failure or
an unstable sample count (the report is still emitted); 2 a bad command-line
value; 3 unreadable, malformed or out-of-domain input data.  ``run`` alone
maps library errors to codes: ``UsageError`` to 2, ``InputError`` to 3 and
any other ``EmdualityError`` to 1.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import re
import sys
import time

import numpy as np

from . import duality as du
from . import expressions as ex
from . import grids as gr
from . import holonomy as ho
from . import models as md
from . import spinors as sn
from . import symplectic as sp
from .errors import EmdualityError, InputError, UsageError
from .textio import numbers

SCHEMA = "emduality-report/1"


class Report:
    """Accumulates named checks; renders to a deterministic text block."""

    def __init__(self, command: str, meta: dict | None = None):
        self.command = command
        self.meta = dict(meta or {})
        self.checks: list[tuple[str, str, str, bool]] = []

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".12g")
        if isinstance(value, np.ndarray):
            return " ".join(format(v, ".12g") for v in value.ravel())
        return str(value)

    def add(self, name: str, value, tol: float | None = None,
            passed: bool | None = None):
        if passed is None:
            passed = True if tol is None else bool(abs(float(value)) <= tol)
        tol_s = "-" if tol is None else format(float(tol), ".6g")
        self.checks.append((name, self._fmt(value), tol_s, passed))

    def info(self, key: str, value):
        self.meta[key] = self._fmt(value)

    @property
    def all_passed(self) -> bool:
        return all(p for _, _, _, p in self.checks)

    def text(self) -> str:
        # nothing is random, so the seed row is the constant 0
        lines = [f"schema = {SCHEMA}", f"command = {self.command}", "seed = 0"]
        for key in self.meta:
            lines.append(f"{key} = {self.meta[key]}")
        for name, value, tol, passed in self.checks:
            status = "pass" if passed else "FAIL"
            lines.append(f"check {name} = {value} tol {tol} {status}")
        ok = self.all_passed and "error" not in self.meta
        lines.append(f"result = {'pass' if ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path!r}: {err}") from err


def _read_matrix(path: str, dim: int | None = None) -> np.ndarray:
    vals = np.array(numbers(_read_text(path), InputError, repr(path)))
    n = int(round(np.sqrt(vals.size)))
    if n * n != vals.size:
        raise InputError(f"{path!r} does not contain a square matrix")
    if dim is not None and n != dim:
        raise InputError(f"{path!r}: expected {dim}x{dim}, got {n}x{n}")
    return vals.reshape(n, n)


def _symplectic_matrix(rep: Report, path: str, n_v: int) -> np.ndarray:
    """The 2n_v x 2n_v matrix of path, with the row that checks it is in Sp(2n_v, R)."""
    a = sp.in_range(_read_matrix(path, 2 * n_v), f"A in {path!r}")
    ok, viol = sp.sp_check(a, 1e-8)
    rep.add("A_symplectic_violation", viol, tol=1e-8, passed=ok)
    return a


def _isometry(spec: str, chart: md.ScalarChart):
    """The isometry of an --f value; a bad spec is a bad command-line value."""
    try:
        return md.parse_isometry(spec, chart)
    except md.ModelError as err:
        raise UsageError(str(err)) from err


def _interior_extents(grid: gr.GridPatch) -> tuple[tuple[float, float], ...]:
    """The coordinate box of a grid's margin-2 interior nodes."""
    return tuple((ax[s][0], ax[s][-1]) for ax, s in zip(grid.axes, grid.interior()))


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
    return h.hexdigest()[:12]


# ------------------------------------------------------------- subcommands

def cmd_models(args) -> Report:
    rep = Report("models")
    if args.action == "list":
        for name in md.BUILTIN_NAMES:
            m = md.builtin(name)
            rep.info(f"model {name}", f"nv={m.n_v} chart={m.chart.kind}")
        rep.add("builtins", len(md.BUILTIN_NAMES))
        return rep
    try:
        m = md.builtin(args.name)
    except md.ModelError as err:
        cause = str(err) if md.is_builtin_spec(args.name) else f"unknown model {args.name!r}"
        raise UsageError(cause) from err
    rep.info("model", m.name)
    rep.info("input_digest", _digest(md.print_model(m)))
    rep.info("nv", m.n_v)
    rep.info("chart", m.chart.kind)
    for (i, j) in sorted(m.entries):
        rep.info(f"N[{i + 1},{j + 1}]", ex.to_text(m.entries[(i, j)]))
    # sample value serialised as (re, im) row-major pairs
    p0 = np.array([0.0, 1.0]) if m.chart.kind == "poincare" else \
        np.zeros(m.chart.dim)
    tau = m.period(p0).tau
    rep.info("N(sample) re", tau.real)
    rep.info("N(sample) im", tau.imag)
    min_eig = md.check_siegel_on_grid(m, per_axis=8)
    rep.add("siegel_min_eig", min_eig, tol=None, passed=min_eig > 0)
    return rep


# Most entries of the stabilizer system, k n(n+1) rows by n(2n+1) columns for
# k samples (32 MB as floats); 16 samples at n = 12 make 7.5e5.
MAX_SYSTEM_ENTRIES = 1 << 22


def cmd_stabilizer(args) -> Report:
    model = md.load_model(args.model)
    n = model.n_v
    if args.samples * n * (n + 1) * n * (2 * n + 1) > MAX_SYSTEM_ENTRIES:
        raise UsageError(f"--samples {args.samples} makes a stabilizer system of more "
                         f"than {MAX_SYSTEM_ENTRIES} entries at nv = {n}")
    rep = Report("stabilizer", {"model": model.name,
                                "input_digest": _digest(md.print_model(model))})
    samples = model.chart.sample_points(args.samples)
    out = du.stab_sp_algebra(model, samples)
    rep.add("dim_stab_sp", out.dim_stab_sp)
    rep.add("residual", out.residual, tol=1e-8)
    rep.add("minus_id_fixes_period", out.minus_id_fixes_period,
            passed=out.minus_id_fixes_period)
    rep.info("samples", out.samples_used)
    rep.info("notes", out.notes)
    for k, x in enumerate(out.basis):
        rep.info(f"basis[{k}]", x)
    return rep


def cmd_uduality(args) -> Report:
    model = md.load_model(args.model)
    rep = Report("uduality", {"model": model.name})
    out = du.uduality_algebra(model)
    rep.add("dim_u", out.dim_u)
    rep.add("dim_stab_sp", out.dim_stab_sp)
    rep.add("dim_iso_pr", out.dim_iso_pr)
    rep.add("exactness_gap", out.exactness_gap, tol=0.5)
    rep.info("notes", out.notes)
    # a field outside the image of the isometry projection has no lift: its
    # residual is information; the dimensions above are the checks
    for name, x, res in out.lift_table:
        if x is None:
            rep.info(f"no_lift[{name}] residual", res)
        else:
            rep.add(f"lift[{name}] residual", res, tol=du.TOL_LIFT)
    return rep


# the three Killing fields of the half plane (a flat chart takes an index)
KILLING_ALIASES = {"dx": 0, "scale": 1, "special": 2}


def cmd_lift(args) -> Report:
    model = md.load_model(args.model)
    rep = Report("lift", {"model": model.name})
    fields = du.killing_basis(model.chart)
    key = args.killing
    idx = KILLING_ALIASES.get(key)
    if idx is not None and model.chart.kind != "poincare":
        raise UsageError(f"killing alias {key!r} names a half-plane field; "
                         f"give an index on the {model.chart.kind} chart")
    if idx is None:
        try:
            idx = int(key)
        except ValueError:
            raise UsageError(f"unknown killing spec {key!r}") from None
    if not 0 <= idx < len(fields):
        raise UsageError(f"killing index {idx} out of range")
    xi = fields[idx]
    rep.info("killing", xi.names[0])
    x, res = du.lift_killing_field(model, xi)
    rep.add("lift_residual", res, tol=du.TOL_LIFT, passed=x is not None)
    rep.info("lift", "no lift" if x is None else x)
    return rep


def cmd_pair_check(args) -> Report:
    model = md.load_model(args.model)
    f = _isometry(args.f, model.chart)
    rep = Report("pair-check", {"model": model.name, "f": args.f})
    a = _symplectic_matrix(rep, args.A, model.n_v)
    if not rep.all_passed:   # the pair is tested for A in Sp(2n, R) only
        return rep
    res = du.check_uduality_pair(f, a, model)
    rep.add("pair_residual", res, tol=1e-10)
    return rep


def cmd_centralizer(args) -> Report:
    text = _read_text(args.bundle)
    pres = ho.parse_bundle(text)
    rep = Report("centralizer", {"bundle": args.bundle,
                                 "input_digest": _digest(text),
                                 "nv": pres.n_v})
    diag = ho.presentation_check(pres)
    rep.add("presentation_ok", diag.ok, passed=diag.ok)
    for k, v in enumerate(diag.generator_violations):
        rep.add(f"generator[{k}] sp_violation", v, tol=ho.RELATION_TOL)
    for k, v in enumerate(diag.relation_violations):
        rep.add(f"relation[{k}] violation", v, tol=ho.RELATION_TOL)
    mats, dim = ho.centralizer_algebra(pres)
    rep.add("dim_centralizer", dim)
    if args.taming:
        j0 = sp.Taming(_read_matrix(args.taming, 2 * pres.n_v))
        _, tdim = ho.autb_theta_algebra(pres, j0)
        rep.add("dim_autb_theta", tdim, passed=tdim <= dim)
    return rep


def cmd_invariants(args) -> Report:
    text = _read_text(args.bundle)
    pres = ho.parse_bundle(text)
    rep = Report("invariants", {"bundle": args.bundle,
                                "input_digest": _digest(text)})
    vec = ho.conjugacy_invariants(pres, args.maxlen)
    rep.info("count", len(vec))
    rep.info("traces", vec)
    rep.add("computed", True, passed=True)
    return rep


def cmd_selfdual(args) -> Report:
    text = _read_text(args.config)
    cfg = gr.parse_grid_config(text)
    rep = Report("selfdual", {"config": args.config,
                              "input_digest": _digest(text),
                              "model": cfg.model.name})
    rep.add("selfdual_violation", cfg.on(cfg.grid.interior()).selfduality_violation(), tol=1e-10)
    return rep


def cmd_residuals(args) -> Report:
    text = _read_text(args.config)
    cfg = gr.parse_grid_config(text)
    rep = Report("residuals", {"config": args.config,
                               "input_digest": _digest(text),
                               "model": cfg.model.name,
                               "grid": "x".join(map(str, cfg.grid.shape))})
    grids = [cfg.grid]   # the refined grids, refused before any residual is computed
    try:
        for _ in range(args.refine):
            grids.append(grids[-1].refine())
    except gr.GridError as err:
        raise UsageError(f"--refine {args.refine}: {err}") from None
    interior = cfg.on(cfg.grid.interior())   # every row reads this one view
    out = gr.residual_report(interior)
    for name, value in out.rows():
        rep.info(name, value)
    # consistency of the two scalar assemblies is the pass/fail content
    glo = gr.scalar_residual(interior, "global")
    rep.add("scalar_assembly_gap", float(np.max(np.abs(out.scalar - glo))), tol=1e-9)
    rep.add("selfdual_violation", out.selfdual_violation, tol=1e-8)
    # convergence table: residual maxima on successive spacing halvings, each
    # on the nodes of the coarse interior, so every row reads the same region
    region = _interior_extents(cfg.grid)
    for k, grid in enumerate(grids[1:], 1):
        fine = gr.residual_report(gr.parse_grid_config(text, grid.resolution)
                                  .on(grid.node_box(region)))
        rep.info(f"refine[{k}] grid", "x".join(map(str, grid.shape)))
        for name, value in zip(("einstein_max", "scalar_max", "maxwell_max"), fine.maxima()):
            rep.info(f"refine[{k}] {name}", value)
    return rep


def cmd_transport(args) -> Report:
    text = _read_text(args.config)
    cfg = gr.parse_grid_config(text)
    f = _isometry(args.f, cfg.model.chart)
    rep = Report("transport", {"config": args.config,
                               "input_digest": _digest(text),
                               "f": args.f})
    a = _symplectic_matrix(rep, args.A, cfg.model.n_v)
    if not rep.all_passed:   # the transported couplings need A in Sp(2n, R)
        return rep
    out = gr.equivariance_harness(cfg, f, a)
    rep.add("einstein_discrepancy", out.einstein_discrepancy, tol=1e-9)
    rep.add("scalar_discrepancy", out.scalar_discrepancy, tol=1e-9)
    rep.add("maxwell_discrepancy", out.maxwell_discrepancy, tol=1e-9)
    rep.info("einstein_max_before", out.before.einstein_max)
    rep.info("einstein_max_after", out.after.einstein_max)
    return rep


EPS0 = np.array([0.9, -0.4, 0.3, 1.1])


def _ads_grid(n: int) -> gr.GridPatch:
    """The n^4 grid of the z in [0.8, 1.6] patch."""
    return gr.GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (n,) * 4)


def _ads_frame(lam: float, n: int) -> sn.FramePatch:
    """AdS4 frame on the n^4 grid.  The Einstein constant -3 lam^2 fixes lam
    up to sign, so the frame is built at |lam| and both signs have Killing
    spinors."""
    if lam == 0:
        raise UsageError("the ads4-poincare frame needs lambda != 0")
    return sn.builtin_frame("ads4-poincare", _ads_grid(n), lam=abs(lam))


# The AdS checks compare a 9^4 and a 13^4 grid.  Each grid's frame and fields
# are built and dropped inside one call, so the two never coexist.  The
# spinor check sweeps the spinor only through the stencil window of the region
# it reads, runs the connection formula only on that region's node box (5^4
# and 7^4 nodes), and its path defect only along the two corner paths.
ADS_SIZES = (9, 13)


def _killing_residual_max(fr: sn.FramePatch, lam: float, box) -> float:
    """Max Killing residual over a node box of the spinor swept from EPS0,
    swept only through the box's stencil window: the nodes the residual reads."""
    window = gr.box_window(fr.grid.shape, box, 1)[0]
    eps = sn.integrate_killing(fr, lam, EPS0, box=window)
    return float(np.max(np.abs(sn.killing_residual(fr, eps, lam, box))))


def _ads_killing(lam: float, n: int, region) -> tuple[float, float, float]:
    """(max Killing residual over the nodes of the coordinate box region,
    path defect, spacing) of the swept spinor on the n^4 AdS grid."""
    fr = _ads_frame(lam, n)
    res = _killing_residual_max(fr, lam, fr.grid.node_box(region))
    return res, sn.path_defect(fr, lam, EPS0), float(fr.grid.h[0])


def cmd_spinor_check(args) -> Report:
    rep = Report("spinor-check", {"frame": args.frame,
                                  "lambda": args.lam})
    if args.frame == "minkowski":
        if args.lam != 0.0:
            rep.info("note", "minkowski check runs the parallel case lambda=0")
        fr = sn.builtin_frame("minkowski", gr.GridPatch(((-0.4, 0.4),) * 4, (9,) * 4))
        rep.add("parallel_residual", _killing_residual_max(fr, 0.0, fr.grid.interior()),
                tol=1e-14)
        rep.add("path_defect", sn.path_defect(fr, 0.0, EPS0), tol=1e-14)
        return rep
    if args.frame != "ads4-poincare":
        raise UsageError(f"unknown frame {args.frame!r}")
    # both residual maxima are taken over one region, the coarse grid's
    # margin-2 interior, so their ratio measures convergence at fixed points
    region = _interior_extents(_ads_grid(ADS_SIZES[0]))
    (res0, defect0, h0), (res1, defect1, h1) = (
        _ads_killing(args.lam, n, region) for n in ADS_SIZES)
    order = float(np.log(res0 / res1) / np.log(h0 / h1))
    rep.add("residual_coarse", res0, tol=None, passed=res0 < 1.0)
    rep.add("residual_order", order, tol=None, passed=1.5 <= order <= 2.5)
    rep.add("path_defect_shrinks", defect1 / defect0, tol=None,
            passed=defect1 < defect0)
    return rep


def _ads_first_order(lam: float, n: int) -> sn.FirstOrderReport:
    """The first-order system of the swept spinor's bilinears on the n^4 AdS grid."""
    fr = _ads_frame(lam, n)
    eps = sn.integrate_killing(fr, lam, EPS0)
    u, l = sn.killing_bilinears(fr, eps)
    return sn.verify_thm53(u, l, lam, fr.geometry, fr.grid)


def cmd_thm53(args) -> Report:
    if args.frame != "ads4-poincare":
        raise UsageError("thm53 verification runs on the ads4-poincare frame")
    rep = Report("thm53", {"frame": args.frame, "lambda": args.lam})
    coarse, fine = (_ads_first_order(args.lam, n) for n in ADS_SIZES)
    rep.add("nontrivial", fine.nontrivial, passed=fine.nontrivial)
    rep.add("u_norm_violation", fine.u_norm_violation, tol=1e-8)
    rep.add("l_norm_violation", fine.l_norm_violation, tol=1e-8)
    rep.add("orthogonality_violation", fine.orthogonality_violation, tol=1e-8)
    rep.add("du_residual_shrinks", fine.du_residual / coarse.du_residual,
            tol=None, passed=fine.du_residual < coarse.du_residual)
    rep.add("dl_residual_shrinks", fine.dl_residual / coarse.dl_residual,
            tol=None, passed=fine.dl_residual < coarse.dl_residual)
    rep.info("u_killing_residual", fine.u_killing_residual)
    rep.info("dkappa_max", fine.dkappa_max)
    return rep


# ------------------------------------------------------------------ parser

def _count(low: int, high: int | None = None):
    """argparse type: an integer in low..high (no upper bound if high is None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"in {low}..{high}" if high is not None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


def _finite(text: str) -> float:
    """argparse type: one finite float."""
    vals = numbers(text, argparse.ArgumentTypeError, None)  # argparse names the option
    if len(vals) != 1:
        raise argparse.ArgumentTypeError(f"needs one number, got {text!r}")
    return vals[0]


@functools.cache   # built on the first call, shared by every run
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="emduality",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    mp = sub.add_parser("models", help="list or show built-in models")
    mp.add_argument("action", choices=["list", "show"])
    mp.add_argument("name", nargs="?", default="")
    mp.set_defaults(func=cmd_models)

    stp = sub.add_parser("stabilizer", help="stabilizer algebra of a model")
    stp.add_argument("--model", required=True)
    stp.add_argument("--samples", type=_count(1), default=16)
    stp.set_defaults(func=cmd_stabilizer)

    up = sub.add_parser("uduality", help="duality algebra dimensions")
    up.add_argument("--model", required=True)
    up.set_defaults(func=cmd_uduality)

    lp = sub.add_parser("lift", help="lift a Killing field to sp(2n, R)")
    lp.add_argument("--model", required=True)
    lp.add_argument("--killing", required=True,
                    help="index, or on the half plane an alias dx|scale|special")
    lp.set_defaults(func=cmd_lift)

    pp = sub.add_parser("pair-check", help="test a finite duality pair (f, A)")
    pp.add_argument("--model", required=True)
    pp.add_argument("--f", required=True)
    pp.add_argument("--A", required=True)
    pp.set_defaults(func=cmd_pair_check)

    cp = sub.add_parser("centralizer", help="holonomy centralizer algebra")
    cp.add_argument("--bundle", required=True)
    cp.add_argument("--taming", default="")
    cp.set_defaults(func=cmd_centralizer)

    ip = sub.add_parser("invariants", help="conjugacy trace invariants")
    ip.add_argument("--bundle", required=True)
    ip.add_argument("--maxlen", type=_count(1, ho.MAX_WORD_LEN), required=True)
    ip.set_defaults(func=cmd_invariants)

    sdp = sub.add_parser("selfdual", help="twisted self-duality of a configuration")
    sdp.add_argument("--config", required=True)
    sdp.set_defaults(func=cmd_selfdual)

    rp = sub.add_parser("residuals", help="equation-of-motion residual report")
    rp.add_argument("--config", required=True)
    rp.add_argument("--refine", type=_count(0), default=0,
                    help="emit a convergence table over this many halvings")
    rp.set_defaults(func=cmd_residuals)

    tp = sub.add_parser("transport", help="duality transport equivariance")
    tp.add_argument("--config", required=True)
    tp.add_argument("--f", required=True)
    tp.add_argument("--A", required=True)
    tp.set_defaults(func=cmd_transport)

    scp = sub.add_parser("spinor-check", help="Killing spinor transport checks")
    scp.add_argument("--frame", required=True)
    scp.add_argument("--lambda", dest="lam", type=_finite, default=1.0)
    scp.set_defaults(func=cmd_spinor_check)

    t53 = sub.add_parser("thm53", help="first-order one-form system checks")
    t53.add_argument("--frame", required=True)
    t53.add_argument("--lambda", dest="lam", type=_finite, default=1.0)
    t53.set_defaults(func=cmd_thm53)
    for lam in (scp, t53):   # argparse's own pattern takes "--lambda -1e-80" for an option
        lam._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return p


def run(argv: list[str]) -> tuple[int, str]:
    """Entry point used by tests: returns (exit code, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0), ""
    t0 = time.time()
    try:
        rep = args.func(args)
    except EmdualityError as err:
        rep = Report(args.command)
        rep.info("error", str(err))
        return (2 if isinstance(err, UsageError) else
                3 if isinstance(err, InputError) else 1), rep.text()
    print(f"[emduality] {args.command} finished in {time.time() - t0:.2f}s",
          file=sys.stderr)
    return 0 if rep.all_passed else 1, rep.text()


def main() -> int:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
