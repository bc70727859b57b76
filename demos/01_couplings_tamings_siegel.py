"""Couplings, tamings and Siegel points: the three equivalent faces of a
gauge-kinetic structure, and the symplectic action tying them together.

A coupling pair (R, I) -- R the generalized theta angles, I the positive
inverse squared couplings -- corresponds one-to-one to a compatible complex
structure J on (R^{2n}, omega) and to a point tau = R + iI of Siegel upper
space.  Sp(2n, R) acts on all three pictures compatibly.
"""

import numpy as np

from emduality import (ElectromagneticPair, conjugate_taming, fractional_action,
                       gamma, gamma_inv, mu, mu_inv, random_couplings,
                       random_sp, random_taming)

rng = np.random.default_rng(1)

print("== the standard point ==")
em = ElectromagneticPair(np.zeros((1, 1)), np.eye(1))
j = gamma(em)
print("couplings (R, I) = (0, 1) give the standard complex structure:")
print(j.J)
print("its Siegel point is tau =", mu(j).tau[0, 0], "(the U(1) fixed point)")

print("\n== round trips ==")
worst = 0.0
for n in (1, 2, 3):
    for _ in range(200):
        em = random_couplings(n, rng)
        em2 = gamma_inv(gamma(em))
        worst = max(worst, np.max(np.abs(em.R - em2.R)), np.max(np.abs(em.I - em2.I)))
        t = random_taming(n, rng)
        worst = max(worst, np.max(np.abs(mu_inv(mu(t)).J - t.J)))
print(f"coupling <-> taming <-> Siegel round trips agree to {worst:.2e}")

print("\n== the fractional action ==")
a = np.array([[1.0, 0.0], [0.7, 1.0]])   # blocks a=1, b=0, c=0.7, d=1
t = mu(random_taming(1, rng))
print("tau           =", t.tau[0, 0])
print("A . tau       =", fractional_action(a, t.tau)[0, 0], " (a translation by 0.7)")

print("\n== equivariance: conjugating the taming = acting on the Siegel point ==")
worst = 0.0
for _ in range(200):
    n = int(rng.integers(1, 4))
    j = random_taming(n, rng)
    a = random_sp(n, rng)
    lhs = mu(conjugate_taming(a, j)).tau
    rhs = fractional_action(a, mu(j).tau)
    worst = max(worst, np.max(np.abs(lhs - rhs)))
print(f"mu(A J A^-1) = A . mu(J) to {worst:.2e}")
print("(the alternate sign convention -R + iI fails this identity, which is")
print(" why tau = R + iI is the convention used throughout this package)")
