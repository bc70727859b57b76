"""Equation-of-motion residuals on a 4d grid, and duality transport.

Residuals of the Einstein, scalar and closure equations are evaluated (never
solved) with second-order central differences on manufactured configurations.
The scalar equation is assembled twice -- coupling-derivative form and
fundamental-form (taming-derivative) source -- and the two agree pointwise.
Transporting a configuration by a duality pair maps residuals onto residuals.
"""

import numpy as np

from emduality import (builtin, equivariance_harness, make_configuration,
                       parse_isometry, residual_report, scalar_residual)
from emduality.grids import (GridPatch, metric_minkowski, metric_quadratic,
                             phi_constant, phi_linear,
                             random_polynomial_fieldstrength)
from emduality.models import identity_isometry
from emduality.symplectic import random_sp

rng = np.random.default_rng(11)
grid = GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
model = builtin("t3")

print("== vacuum flat space: everything vanishes at stencil exactness ==")
vac = make_configuration(grid, builtin("identity-tau"), metric_minkowski(grid),
                         phi_constant(grid, [0.0, 1.0]),
                         np.zeros(grid.shape + (1, 4, 4)))
inner = grid.interior()   # the reports read the margin-2 interior, as a node box
rep = residual_report(vac.on(inner))
print(f"einstein {rep.einstein_max:.1e}  scalar {rep.scalar_max:.1e}  "
      f"closure {rep.maxwell_max:.1e}")

print("\n== a manufactured curved configuration ==")
cfg = make_configuration(
    grid, model,
    metric_quadratic(grid, [(0, 1, 1, 1, 0.02), (2, 2, 0, 0, 0.03)]),
    phi_linear(grid, [0.05, 1.1], 0.06 * rng.standard_normal((4, 2))),
    random_polynomial_fieldstrength(grid, 2, rng, amp=0.2))
box = cfg.on(inner)
rep = residual_report(box)
print(f"einstein {rep.einstein_max:.3e}  scalar {rep.scalar_max:.3e}  "
      f"closure {rep.maxwell_max:.3e}")
print(f"twisted self-duality holds by construction: {rep.selfdual_violation:.1e}")

gap = np.max(np.abs(rep.scalar - scalar_residual(box, "global")))
print(f"coupling-form vs fundamental-form scalar assembly gap: {gap:.2e}")

print("\n== duality transport ==")
a = random_sp(2, rng)
out = equivariance_harness(cfg, identity_isometry(model.chart), a)
print("random symplectic rotation (same chart point):")
print(f"  einstein discrepancy {out.einstein_discrepancy:.2e}")
print(f"  scalar discrepancy   {out.scalar_discrepancy:.2e}")
print(f"  closure discrepancy  {out.maxwell_discrepancy:.2e}")

model1 = builtin("identity-tau")
cfg1 = make_configuration(grid, model1, metric_minkowski(grid),
                          phi_linear(grid, [0.0, 1.2],
                                     0.05 * rng.standard_normal((4, 2))),
                          random_polynomial_fieldstrength(grid, 1, rng, amp=0.2))
f = parse_isometry("translate:1.0", model1.chart)
a = np.array([[1.0, 0.0], [1.0, 1.0]])
out = equivariance_harness(cfg1, f, a)
print("the duality pair (tau -> tau+1, unipotent A) of the identity model:")
print(f"  max discrepancy {out.max_discrepancy:.2e}  "
      "(a genuine symmetry: it maps the theory to itself)")
