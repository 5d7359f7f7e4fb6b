"""zetakit: spectral zeta functions of the integer lattice and discrete
circles, their special values and identities, sphere-volume factorizations,
and the asymptotic pipeline recovering the classical zeta values -- every
closed form cross-validated against an independent numerical or exact oracle.
"""

from .core import (
    DomainError,
    EvalResult,
    HPComplex,
    IllConditioned,
    NeedsLimitInterpretation,
    NoConvergence,
    PoleError,
    PrecisionContext,
    ReconstructionError,
    ZetaKitError,
    DEFAULT_CONTEXT,
)
from .numerics import (
    bernoulli,
    digamma,
    gamma,
    riemann_zeta_numeric,
)
from .zeta_z import (
    big_z,
    zeta_z_closed,
    zeta_z_deriv,
    zeta_z_deriv_at_positive_integer,
    zeta_z_mellin,
    zeta_z_product,
)
from .zeta_zn import (
    RationalPolynomial,
    sine_odd_power_sum,
    sine_power_sum,
    zeta_zn_closed_poly,
    zeta_zn_direct,
    zeta_zn_negative_int,
)
from .asymptotics import (
    ExpansionTerm,
    ZetaExtraction,
    csc_power_polynomial,
    euler_zeta_negative,
    evaluate_expansion,
    expansion_terms,
    extract_zeta,
    zeta_even_from_functional_eq,
)
from .spheres import (
    SphereRatio,
    catalan,
    sphere_ratio,
    sphere_volume_gamma,
    sphere_volume_zproduct,
)
from .verify import CheckResult, SUITE_NAMES, run_suite

__version__ = "0.1.0"
