"""A tour of the Macdonald-function profile psi_s.

The building block of everything in fracext is

    psi_s(y) = 2^{1-s}/Gamma(s) |y|^s K_s(|y|),

an even, positive, strictly decreasing profile with psi_s(0) = 1 and
exponential decay.  Half-integer orders collapse to elementary functions,
which makes them perfect sanity anchors:

    psi_{1/2}(y) = e^{-|y|},   psi_{3/2}(y) = (1+|y|) e^{-|y|}.
"""

import math

import numpy as np

from fracext import (
    FracParams,
    ModalVector,
    explicit_spectrum,
    psi,
    psi_deriv,
    taylor_expand,
)

ys = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])

print("profile values psi_s(y)")
print(f"{'y':>6} " + " ".join(f"s={s:<10}" for s in (0.3, 0.5, 1.5, 2.5)))
for y in ys:
    row = " ".join(f"{psi(s, y):<12.8f}" for s in (0.3, 0.5, 1.5, 2.5))
    print(f"{y:6.2f} {row}")

print("\nhalf-integer anchors (difference from the elementary form):")
y = np.linspace(0.1, 6.0, 5)
print("  s=0.5 :", np.max(np.abs(psi(0.5, y) - np.exp(-y))))
print("  s=1.5 :", np.max(np.abs(psi(1.5, y) - (1 + y) * np.exp(-y))))

# The underlying Bessel kernel: Temme's series for y <= 1, trapezoid rules
# on the integral representation up to y = 50, the Hankel expansion above,
# and the order recurrence on top.  Compare that recurrence (DLMF 10.29.1)
# psi_{v+1}(y) = psi_v(y) + y^2/(4v(v-1)) psi_{v-1}(y) at a fractional order.
v, y = 2.5, 1.3
lhs = psi(v + 1, y)
rhs = psi(v, y) + y ** 2 / (4 * v * (v - 1)) * psi(v - 1, y)
print(f"\npsi recurrence residual at (v={v}, y={y}): {abs(lhs - rhs):.2e}")

# Each non-integer order carries a parameter bundle: the weight exponent
# b in (-1,1) of the degenerate operator and the trace constant d_s.
for s in (0.3, 0.5, 1.5, 2.5, 3.7):
    p = FracParams.from_order(s)
    print(f"s={s}: floor={p.floor_s} b={p.b:+.3f} c_s={p.c_s:.6f} "
          f"d_s={p.d_s:.6f}")

# Closed-form first derivative (two branches around s = 1) against the
# elementary derivative of the s = 3/2 anchor: d/dy (1+y)e^{-y} = -y e^{-y}.
y = 1.0
print(f"\npsi'_1.5(1) = {psi_deriv(1.5, y, 1):.12f}  "
      f"(elementary: {-y * np.exp(-y):.12f})")

# The constants attached to an order: the best trace constant m_b of its
# weight, from the bundle, and the boundary curvature coefficients kappa_m,
# which taylor_expand returns as T_m = kappa_m / (2m)! L^m u; on one mode
# lam = 1 with u = 1 that is kappa_m / (2m)! itself.
p = FracParams.from_order(2.5)
one = ModalVector(np.ones(1), explicit_spectrum([1.0]))
terms = taylor_expand(one, p.s, p.floor_s)
kappa = [math.factorial(2 * m) * float(t.coeffs[0])
         for m, t in enumerate(terms)][1:]
print(f"\norder 2.5 constants: m_b={p.m_b:.6f} kappa={tuple(kappa)}")
