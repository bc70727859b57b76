"""Closed-form Einstein tensor of a quadratic metric, as an oracle for the
vacuum residual rows of ``emduality residuals``.

The metric is g = eta + sum of c x^a x^b on the symmetric slots (mu, nu), the
``metric = quadratic`` form of a grid config.  Its first and second
derivatives are exact polynomials, so Christoffel symbols, their derivatives,
Ricci and Einstein follow algebraically at each node with no differencing.
The program's nested central differences are exact for degree <= 2, so on
the margin-2 interior the two must agree to roundoff.

Only numpy is used; nodes are processed in chunks so the oracle's memory
stays far below the program's.
"""

from __future__ import annotations

import numpy as np

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
MARGIN = 2


def _axes(extents, resolution):
    return [np.linspace(lo, hi, n) for (lo, hi), n in zip(extents, resolution)]


def _slots(terms):
    """Each term (mu, nu, a, b, c) as its symmetric slot pairs."""
    out = []
    for mu, nu, a, b, c in terms:
        out.append((mu, nu, a, b, c))
        if mu != nu:
            out.append((nu, mu, a, b, c))
    return out


def metric_and_derivatives(x: np.ndarray, terms):
    """g (n,4,4), dg[n, r, m, k] = d_r g_mk and the constant
    d2g[r, s, m, k] = d_r d_s g_mk at the points x (n, 4)."""
    n = x.shape[0]
    g = np.broadcast_to(ETA, (n, 4, 4)).copy()
    dg = np.zeros((n, 4, 4, 4))
    d2g = np.zeros((4, 4, 4, 4))
    for mu, nu, a, b, c in _slots(terms):
        g[:, mu, nu] += c * x[:, a] * x[:, b]
        dg[:, a, mu, nu] += c * x[:, b]
        dg[:, b, mu, nu] += c * x[:, a]
        d2g[a, b, mu, nu] += c
        d2g[b, a, mu, nu] += c
    return g, dg, d2g


def einstein_closed_form(x: np.ndarray, terms) -> np.ndarray:
    """G_mk at the points x (n, 4), shape (n, 4, 4)."""
    g, dg, d2g = metric_and_derivatives(x, terms)
    gi = np.linalg.inv(g)
    # lowered Christoffel symbols L[s, m, k] = (d_m g_sk + d_k g_sm - d_s g_mk) / 2
    low = 0.5 * (dg.transpose(0, 2, 1, 3) + dg.transpose(0, 2, 3, 1) - dg)
    # derivative dL[l, s, m, k] = d_l of L[s, m, k] (constant in x)
    dlow = 0.5 * (d2g.transpose(0, 2, 1, 3) + d2g.transpose(0, 2, 3, 1) - d2g)
    gam = np.einsum("nrs,nsmk->nrmk", gi, low)
    # d_l g^{rs} = -g^{ra} d_l g_ab g^{bs}
    dgi = -np.einsum("nra,nlab,nbs->nlrs", gi, dg, gi)
    dgam = (np.einsum("nlrs,nsmk->nlrmk", dgi, low)
            + np.einsum("nrs,lsmk->nlrmk", gi, dlow))
    # R_mk = d_r Gam^r_mk - d_k Gam^r_rm + Gam^r_rl Gam^l_mk - Gam^r_kl Gam^l_rm
    ric = (np.einsum("nrrmk->nmk", dgam)
           - np.einsum("nkrrm->nmk", dgam)
           + np.einsum("nrrl,nlmk->nmk", gam, gam)
           - np.einsum("nrkl,nlrm->nmk", gam, gam))
    scal = np.einsum("nmk,nmk->n", gi, ric)
    return ric - 0.5 * g * scal[:, None, None]


def einstein_max(extents, resolution, terms, chunk: int = 4096) -> float:
    """Largest |G_mk| over the margin-2 interior nodes of the grid."""
    axes = [ax[MARGIN:len(ax) - MARGIN] for ax in _axes(extents, resolution)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    worst = 0.0
    for start in range(0, len(pts), chunk):
        block = einstein_closed_form(pts[start:start + chunk], terms)
        worst = max(worst, float(np.max(np.abs(block))))
    return worst
