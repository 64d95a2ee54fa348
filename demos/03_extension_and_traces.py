"""The extension curve and the two boundary traces.

For data u on a positive spectrum, the curve

    P_s[u](y)_j = psi_s(sqrt(lambda_j) |y|) u_j

interpolates u at y = 0 (Dirichlet trace) while its weighted conormal
derivative recovers the fractional power:

    lim_{y->0} y^b d/dy [reduced curve]  =  -d_s L^s u.

In between, the curve solves a degenerate ODE of order 2 ceil(s) whose
residual can be measured by finite differences.
"""

import numpy as np

from fracext import (
    ModalVector,
    apply_power,
    conormal_trace,
    explicit_spectrum,
    extend,
    ode_residual,
    taylor_expand,
    trace0,
    trace_constant,
)

spec = explicit_spectrum([1.0, 4.0])
u = ModalVector(np.array([1.0, -0.5]), spec)
s = 1.5

curve = extend(u, s)
print(f"curve sampled on {curve.grid.size} geometric points "
      f"[{curve.grid[0]:.2e}, {curve.grid[-1]:.1f}]")

# Dirichlet trace: extrapolating the smallest abscissae returns the data
tr = trace0(curve)
print("trace0 error:", np.max(np.abs(tr.coeffs - u.coeffs)))

# Dirichlet-to-Neumann: the conormal limit equals -d_s L^s u per mode
for order in (0.3, 0.5, 1.5, 2.5):
    got = conormal_trace(u, order).coeffs
    want = -trace_constant(order) * apply_power(u, order).coeffs
    print(f"conormal s={order}: max rel deviation "
          f"{np.max(np.abs(got - want) / np.abs(want)):.2e}")

# ODE residual: the curve is annihilated by the ceil(s)-th operator power.
# For half-integer orders the profile is elementary and the residual is
# pure floating-point noise.
for order in (0.5, 1.5, 2.5):
    worst = np.max(ode_residual(u, order, np.array([0.2, 1.0, 5.0])))
    print(f"ODE residual s={order}: {worst:.2e}")

# Boundary Taylor expansion: even powers only, coefficients proportional
# to operator powers of the data.
one = ModalVector(np.array([1.0]), explicit_spectrum([1.0]))
terms = taylor_expand(one, 2.5, 2)
print("\nTaylor coefficients at s=2.5 (single unit mode):",
      [float(t.coeffs[0]) for t in terms])
y = 0.05
partial = sum(t.coeffs[0] * y ** (2 * m) for m, t in enumerate(terms))
curve_val = extend(one, 2.5, np.array([y])).values[0, 0]
print(f"P[1](0.05) = {curve_val:.12f}, 2-term expansion {partial:.12f}, "
      f"gap {abs(curve_val - partial):.2e} (order y^5)")
