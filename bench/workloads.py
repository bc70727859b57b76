"""Seeded inputs, command lists and output checks of the four workloads.

``build(name, seed, directory)`` writes the workload's grid configs, matrix
files and bundle files into ``directory`` and returns a ``Workload``: the
fixed list of CLI commands one round runs, and the checks its reports must
pass.  The same seed gives the same files.  Every round runs the same
commands, so the work per round does not depend on the seed: seeds choose
coefficients, never sizes.

The checks test properties the computation must have or compare against
values computed here independently; none of them is a copy of an earlier
output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from oracle import einstein_max
from report import Report

EXTENTS = ((-0.4, 0.4),) * 4
ROUNDOFF = 1e-12


@dataclass
class Op:
    key: str
    argv: list[str]


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    # (keys of the reports a check reads, check returning a list of problems)
    checks: list[tuple[tuple[str, ...], object]] = field(default_factory=list)

    def add(self, key: str, argv: list[str]):
        self.ops.append(Op(key, argv))

    def check(self, *keys: str):
        def register(fn):
            self.checks.append((keys, fn))
            return fn
        return register

    def problems(self, reports: dict[str, Report]) -> list[str]:
        """Problems found by every check whose reports are all present (an
        operation that failed has no report to check)."""
        out = []
        for keys, fn in self.checks:
            if all(k in reports for k in keys):
                out += [f"{'/'.join(keys)}: {p}" for p in fn(*(reports[k] for k in keys))]
        return out


def _at_most(rep: Report, row: str, bound: float) -> list[str]:
    value = rep.number(row)
    return [] if abs(value) <= bound else [f"{row} = {value:.3e} exceeds {bound:g}"]


def _close(name: str, got: float, want: float, rel: float = 1e-9,
           abs_: float = 1e-12) -> list[str]:
    if abs(got - want) <= abs_ + rel * max(abs(got), abs(want)):
        return []
    return [f"{name} = {got!r}, expected {want!r}"]


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _matrix_text(m: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in m) + "\n"


def _omega(n: int) -> np.ndarray:
    z, i = np.zeros((n, n)), np.eye(n)
    return np.block([[z, -i], [i, z]])


def random_sp(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    """exp(Omega S) for a random symmetric S: Omega S lies in sp(2n, R)."""
    s = rng.standard_normal((2 * n, 2 * n)) * scale
    return scipy.linalg.expm(_omega(n) @ (s + s.T) / 2)


def _metric_terms(rng: np.random.Generator, count: int) -> list[tuple]:
    """Small quadratic metric bumps (mu, nu, a, b, c): the metric stays
    Lorentzian on the +-0.4 box."""
    terms = []
    for _ in range(count):
        mu, nu = sorted(int(v) for v in rng.integers(0, 4, size=2))
        a, b = (int(v) for v in rng.integers(0, 4, size=2))
        terms.append((mu, nu, a, b, float(rng.uniform(-0.03, 0.03))))
    return terms


def grid_config(model: str, terms, phi: str, fieldspec: str) -> str:
    """A 9^4 config on EXTENTS with a quadratic metric."""
    lines = [f"model = {model}",
             "extents = " + " ".join(f"{lo!r}:{hi!r}" for lo, hi in EXTENTS),
             "resolution = 9 9 9 9",
             "metric = quadratic"]
    lines += [f"metric_coeff = {mu} {nu} {a} {b} {c!r}" for mu, nu, a, b, c in terms]
    lines += [f"phi = {phi}", f"field = {fieldspec}"]
    return "\n".join(lines) + "\n"


def _linear_phi(rng: np.random.Generator) -> str:
    """Linear map into the half plane: y stays within 1.2 +- 0.36 on the box."""
    base = [rng.uniform(-0.2, 0.2), rng.uniform(1.0, 1.4)]
    slopes = rng.uniform(-0.1, 0.1, size=(4, 2))
    return ("linear " + " ".join(repr(float(v)) for v in base) + " | "
            + " ".join(repr(float(v)) for v in slopes.ravel()))


def _random_field(rng: np.random.Generator) -> str:
    return f"random 0.1 {int(rng.integers(0, 2**31))}"


# ------------------------------------------------------------------ transport

def transport(seed: int, directory: str) -> Workload:
    """9^4 grids on three models, each transported by one affine isometry
    and a random Sp(2n_v) matrix; one residual report (t3, the costliest
    couplings), one self-duality report (identity-tau), and the residuals of
    a vacuum whose Einstein tensor is known in closed form."""
    rng = np.random.default_rng([seed, 1])
    w = Workload()
    isometries = {"identity-tau": f"scale:{rng.uniform(0.8, 1.25)!r}",
                  "axio-dilaton": f"translate:{rng.uniform(-0.5, 0.5)!r}",
                  "t3": "id"}
    configs = {}
    for model, iso in isometries.items():
        n_v = 1 if model == "identity-tau" else 2
        configs[model] = cfg = _write(
            directory, f"{model}.cfg",
            grid_config(model, _metric_terms(rng, 3), _linear_phi(rng), _random_field(rng)))
        a = _write(directory, f"{model}.A", _matrix_text(random_sp(n_v, rng, 0.3)))
        w.add(f"transport {model}", ["transport", "--config", cfg, "--f", iso, "--A", a])

        @w.check(f"transport {model}")
        def equivariant(rep):
            # transport by an affine isometry commutes with the difference
            # stencils, so the three discrepancies vanish to roundoff, and the
            # metric is untouched while the gauge stress is Sp(2n)-invariant
            out = []
            for row in ("einstein_discrepancy", "scalar_discrepancy",
                        "maxwell_discrepancy"):
                out += _at_most(rep, row, 1e-9)
            out += _close("einstein_max_after", rep.number("einstein_max_after"),
                          rep.number("einstein_max_before"))
            return out

    w.add("residuals t3", ["residuals", "--config", configs["t3"]])
    w.add("selfdual identity-tau", ["selfdual", "--config", configs["identity-tau"]])

    @w.check("residuals t3")
    def consistent(rep):
        # the two scalar assemblies are one identity; the doubled field block
        # is twisted self-dual by construction
        return (_at_most(rep, "scalar_assembly_gap", 1e-9)
                + _at_most(rep, "selfdual_violation", 1e-8))

    @w.check("selfdual identity-tau")
    def selfdual(rep):
        return _at_most(rep, "selfdual_violation", 1e-8)

    terms = _metric_terms(rng, 4)
    phi = f"constant {rng.uniform(-0.5, 0.5)!r} {rng.uniform(0.8, 1.5)!r}"
    cfg = _write(directory, "vacuum.cfg", grid_config("constant-i", terms, phi, "zero"))
    w.add("residuals vacuum", ["residuals", "--config", cfg])
    # independent of the program: the closed-form Einstein tensor
    expected = einstein_max(EXTENTS, (9,) * 4, terms)

    @w.check("residuals vacuum")
    def vacuum(rep):
        # no field and a constant scalar map: the residual is G itself, and
        # the scalar and closure residuals vanish
        return (_close("einstein_max", rep.number("einstein_max"), expected,
                       rel=1e-9, abs_=1e-13)
                + _at_most(rep, "scalar_max", ROUNDOFF)
                + _at_most(rep, "maxwell_max", ROUNDOFF))

    return w


# -------------------------------------------------------------------- spinors

# The AdS spinor-check fails on every lambda tried (its convergence order is
# taken over a region where the residual converges at order ~1.2, and
# divided by log(13/9) where the spacing ratio is 12/8).  It is kept at a
# fixed lambda so that it fails identically in every round and every run.
ADS_CHECK_LAMBDA = "1.0"


def spinors(seed: int, directory: str) -> Workload:
    """Killing spinor transport on AdS4 and Minkowski, and the first-order
    one-form system at a seeded lambda."""
    rng = np.random.default_rng([seed, 3])
    w = Workload()
    w.add("spinor-check ads4", ["spinor-check", "--frame", "ads4-poincare",
                                "--lambda", ADS_CHECK_LAMBDA])
    w.add("spinor-check minkowski", ["spinor-check", "--frame", "minkowski",
                                     "--lambda", "0.0"])
    lam = float(rng.uniform(0.7, 1.3))
    w.add("thm53", ["thm53", "--frame", "ads4-poincare", "--lambda", repr(lam)])

    @w.check("thm53")
    def first_order(rep):
        # Killing spinor bilinears: u null, l unit, u and l orthogonal; the
        # first-order residuals are discretisation errors and shrink
        out = [] if rep.checks["nontrivial"].value == "true" else ["bilinears vanish"]
        for row in ("u_norm_violation", "l_norm_violation", "orthogonality_violation"):
            out += _at_most(rep, row, 1e-8)
        for row in ("du_residual_shrinks", "dl_residual_shrinks"):
            if not rep.number(row) < 1.0:
                out.append(f"{row} = {rep.number(row)!r} is not below 1")
        return out

    @w.check("spinor-check minkowski")
    def parallel(rep):
        # a constant spinor is parallel on flat space
        return (_at_most(rep, "parallel_residual", 1e-14)
                + _at_most(rep, "path_defect", 1e-14))

    return w


# -------------------------------------------------------------------- algebra

ALGEBRA_MODELS = ("constant-i", "identity-tau", "axio-dilaton", "t3",
                  "constant-i:2", "constant-i:3")


def expected_dims(model: str) -> tuple[int, int, int]:
    """(dim_u, dim_stab_sp, dim_iso_pr): constant couplings i Id_k are fixed
    by u(k) and every isometry lifts trivially; the other built-ins have
    three lifting isometries and a stabilizer of dimension 0, 0, 1."""
    if model.startswith("constant-i"):
        k = int(model.split(":")[1]) if ":" in model else 1
        return k * k + 3, k * k, 3
    return {"identity-tau": (3, 0, 3), "t3": (3, 0, 3), "axio-dilaton": (4, 1, 3)}[model]


def _pair(model: str, rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """A finite duality pair (f, A) of the model: A . N(p) = N(f(p))."""
    if model.startswith("constant-i"):
        # U(k) = Sp(2k) cap O(2k) fixes i Id; any isometry is compatible
        k = int(model.split(":")[1]) if ":" in model else 1
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        u, _ = np.linalg.qr(z)
        a, b = u.real, u.imag
        return f"translate:{rng.uniform(-1, 1)!r}", np.block([[a, b], [-b, a]])
    if model == "identity-tau":
        scale = rng.uniform(0.5, 2.0)
        return f"scale:{scale!r}", np.diag([scale ** -0.5, scale ** 0.5])
    if model == "axio-dilaton":
        # slot-wise: tau -> tau + s and -1/tau -> -1/(tau + s)
        s = rng.uniform(-1, 1)
        return f"translate:{s!r}", np.array([[1.0, 0, 0, 0], [0, 1, 0, -s],
                                              [s, 0, 1, 0], [0, 0, 0, 1]])
    return "id", -np.eye(4)


def _bundle_text(n_v: int, generators) -> str:
    lines = [f"nv = {n_v}"]
    lines += ["generator = " + " ".join(repr(float(v)) for v in g.ravel())
              for g in generators]
    return "\n".join(lines) + "\n"


def algebra(seed: int, directory: str) -> Workload:
    """Duality algebras, lifts and finite pairs of every built-in, and
    centralizers and trace invariants of random Sp(2n) bundles."""
    rng = np.random.default_rng([seed, 4])
    w = Workload()
    for model in ALGEBRA_MODELS:
        killing = ("dx", "scale", "special")[int(rng.integers(0, 3))]
        f, a = _pair(model, rng)
        a_path = _write(directory, f"pair-{model}.A", _matrix_text(a))
        w.add(f"uduality {model}", ["uduality", "--model", model])
        w.add(f"stabilizer {model}", ["stabilizer", "--model", model])
        w.add(f"lift {model}", ["lift", "--model", model, "--killing", killing])
        w.add(f"pair-check {model}", ["pair-check", "--model", model, "--f", f,
                                      "--A", a_path])
        dims = expected_dims(model)

        @w.check(f"uduality {model}", f"stabilizer {model}")
        def dimensions(ud, st, dims=dims):
            got = tuple(int(ud.number(r)) for r in ("dim_u", "dim_stab_sp", "dim_iso_pr"))
            out = [] if got == dims else [f"(dim_u, dim_stab_sp, dim_iso_pr) = {got}, expected {dims}"]
            if int(st.number("dim_stab_sp")) != dims[1]:
                out.append(f"stabilizer dim {st.number('dim_stab_sp')}, expected {dims[1]}")
            return out

        @w.check(f"lift {model}")
        def lifts(rep):
            return _at_most(rep, "lift_residual", 1e-8)

        @w.check(f"pair-check {model}")
        def pair(rep):
            return _at_most(rep, "pair_residual", ROUNDOFF)

    unit = _write(directory, "unit-translation.A", "1 0\n1 1\n")
    w.add("pair-check translate:1.0", ["pair-check", "--model", "identity-tau",
                                       "--f", "translate:1.0", "--A", unit])

    @w.check("pair-check translate:1.0")
    def unit_translation(rep):
        # A . tau = tau + 1 exactly
        return _at_most(rep, "pair_residual", ROUNDOFF)

    for n_v in (1, 2):
        gens = [random_sp(n_v, rng, 0.5) for _ in range(2)]
        p = random_sp(n_v, rng, 0.3)
        conj = [p @ g @ np.linalg.inv(p) for g in gens]
        paths = {}
        for tag, mats in (("bundle", gens), ("conjugate", conj), ("empty", [])):
            paths[tag] = _write(directory, f"{tag}-{n_v}.txt", _bundle_text(n_v, mats))
            w.add(f"centralizer {tag} {n_v}", ["centralizer", "--bundle", paths[tag]])
        for tag in ("bundle", "conjugate"):
            w.add(f"invariants {tag} {n_v}", ["invariants", "--bundle", paths[tag],
                                              "--maxlen", "6"])

        @w.check(f"centralizer empty {n_v}")
        def everything(rep, n_v=n_v):
            # no holonomy: the centralizer is all of sp(2n, R)
            got = int(rep.number("dim_centralizer"))
            want = n_v * (2 * n_v + 1)
            return [] if got == want else [f"dim_centralizer = {got}, expected {want}"]

        @w.check(f"centralizer bundle {n_v}", f"centralizer conjugate {n_v}")
        def conjugate_dims(b, c):
            db, dc = int(b.number("dim_centralizer")), int(c.number("dim_centralizer"))
            return [] if db == dc else [f"dim_centralizer {db} != {dc} after conjugation"]

        @w.check(f"invariants bundle {n_v}", f"invariants conjugate {n_v}")
        def conjugate_traces(b, c):
            tb, tc = np.array(b.numbers("traces")), np.array(c.numbers("traces"))
            if tb.shape != tc.shape:
                return [f"{tb.size} traces != {tc.size} after conjugation"]
            gap = float(np.max(np.abs(tb - tc)))
            scale = max(1.0, float(np.max(np.abs(tb))))
            return [] if gap <= 1e-9 * scale else [f"traces move by {gap:.3e} under conjugation"]

    return w


BY_NAME = {"transport": transport, "spinors": spinors, "algebra": algebra}


def build(name: str, seed: int, directory: str) -> Workload:
    return BY_NAME[name](seed, directory)
