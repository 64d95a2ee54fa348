"""fracext: fractional operator powers as traces of Bessel-kernel curves.

The library models a positive self-adjoint operator through its discrete
eigendata, computes non-integer powers spectrally, builds the even extension
curve whose boundary behaviour encodes those powers, and numerically
certifies the identities the construction satisfies: energy isometries,
Dirichlet-to-Neumann traces, ODE residuals, virial splits, Taylor
expansions, Fourier isometries, and variational minimality.
"""

from .special import (
    FracParams,
    psi,
    psi_deriv,
    psi_fourier,
    psi_lambda,
    seminorm_sq,
    trace_constant,
    weight_exponent,
)
from .spectral import (
    EigenBasis,
    ModalVector,
    Spectrum,
    apply_power,
    build_operator,
    dirichlet_laplacian_1d,
    duality_pairing,
    explicit_spectrum,
    kernel_split,
    neumann_laplacian_1d,
    sobolev_norm,
    tridiag_eigh,
    tridiagonal_spectrum,
)
from .weighted import (
    CheckReport,
    CompactBump,
    GaussianBump,
    PsiProfile,
    QuadraticBump,
    curve_energy,
    energy_identity,
    fourier_isometry,
    mode_energy,
    parts_check,
    psi_fourier_numeric,
    trace_inequality,
    virial_check,
)
from .extension import (
    CurveSamples,
    ExtensionCurve,
    conormal_trace,
    curve_to_csv,
    curve_to_json,
    default_grid,
    derivative_curve,
    extend,
    extend_negative,
    ode_residual,
    taylor_expand,
    trace0,
)
from .variational import (
    ProfileFE,
    minimize_curve,
    minimize_negative,
    minimize_profile,
    orthogonality_check,
)
from .suite import CHECK_NAMES, RunConfig, run_checks

__version__ = "0.1.0"
