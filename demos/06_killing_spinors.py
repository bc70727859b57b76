"""Real Killing spinors on the constant-curvature z > 0 patch.

The Killing transport D_mu - (lam/2) gamma_mu is a flat connection exactly
when the metric has the right Einstein constant -3 lam^2: integrating a spinor
along two different paths then agrees to integrator accuracy.  The spinor's
bilinears produce a lightlike one-form u and a unit spacelike l satisfying a
first-order system whose residuals converge at second order.
"""

import numpy as np

from emduality import (GAMMA, builtin_frame, integrate_killing, killing_bilinears,
                       killing_residual, path_defect, ricci, verify_thm53)
from emduality.fields import ETA
from emduality.grids import GridPatch

print("== the representation ==")
worst = max(np.max(np.abs(GAMMA[a] @ GAMMA[b] + GAMMA[b] @ GAMMA[a]
                          - 2 * ETA[a, b] * np.eye(4)))
            for a in range(4) for b in range(4))
print(f"anticommutation relations hold to {worst:.1e}; all generators real")

eps0 = np.array([0.9, -0.4, 0.3, 1.1])
lam = 1.0

print("\n== flat space: parallel spinors ==")
gridm = GridPatch(((-0.4, 0.4),) * 4, (7,) * 4)
frm = builtin_frame("minkowski", gridm)
eps = integrate_killing(frm, 0.0, eps0)
print(f"transported spinor stays constant; residual "
      f"{np.max(np.abs(killing_residual(frm, eps, 0.0, gridm.interior()))):.1e}, path defect "
      f"{path_defect(frm, 0.0, eps):.1e}")

print("\n== the curved patch ==")
for n in (9, 17):
    grid = GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (n,) * 4)
    fr = builtin_frame("ads4-poincare", grid, lam=lam)
    g = fr.metric()
    ric = ricci(g, grid)
    inner = grid.interior()
    einstein_gap = np.max(np.abs((ric + 3 * lam ** 2 * g)[inner]))
    eps = integrate_killing(fr, lam, eps0)
    res = np.max(np.abs(killing_residual(fr, eps, lam, inner)))
    pd = path_defect(fr, lam, eps)
    print(f"n = {n:2d}: Ric + 3 lam^2 g = {einstein_gap:.2e}   "
          f"Killing residual {res:.2e}   path defect {pd:.2e}")
print("(residual and Einstein gap shrink ~4x per refinement; the path defect,")
print(" a pure integrability measure, shrinks ~16x: the connection is flat)")

print("\n== wrong Killing constant: the connection curves ==")
grid = GridPatch(((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4), (0.8, 1.6)), (9,) * 4)
fr = builtin_frame("ads4-poincare", grid, lam=lam)
print(f"path defect with lam' = 1.3: "
      f"{path_defect(fr, 1.3, integrate_killing(fr, 1.3, eps0)):.3f}")

print("\n== the lightlike/spacelike pair from bilinears ==")
eps = integrate_killing(fr, lam, eps0)
u, l = killing_bilinears(fr, eps)
out = verify_thm53(u, l, lam, fr.geometry, grid)
print(f"g(u,u) = {out.u_norm_violation:.1e}   g(l,l)-1 = {out.l_norm_violation:.1e}"
      f"   g(u,l) = {out.orthogonality_violation:.1e}")
print(f"grad-u equation residual {out.du_residual:.2e}, grad-l equation "
      f"residual {out.dl_residual:.2e}")
print(f"u-dual vector is Killing to {out.u_killing_residual:.2e}")
print(f"d kappa max {out.dkappa_max:.2f} (reported, not asserted: whether kappa")
print(" must be closed is an open question)")
