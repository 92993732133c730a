"""Numerical toolkit for classical and spherical Radon transforms:
harmonic analysis on S^2, Fourier multipliers of homogeneous extensions,
positive-definiteness and intersection-function certification, norm
comparison under transform domination, and counterexample construction.
"""

import importlib

__version__ = "0.1.0"  # before the submodules: reports reads it
from .errors import (
    ArityError,
    BandwidthExceeded,
    CertificateRequired,
    ConstructionFailed,
    DecayTooSlow,
    DegenerateInput,
    DominationFails,
    ExprError,
    ExprSyntaxError,
    GridMismatch,
    GridTooCoarse,
    InputInvalid,
    InvalidGrid,
    NotApplicable,
    NotPositive,
    OutOfRange,
    RadoncompError,
    TailTooHeavy,
    UnknownIdentifier,
)
from .sphere import (
    HarmonicSpectrum,
    SphereGrid,
    SphericalFunction,
    analyze,
    build_grid,
    constant_function,
    evaluate_spectrum,
    grid_function,
    lp_norm_sphere,
    synthesize,
)
from .multipliers import (
    PDCertificate,
    certify_pd_r1,
    fourier_homogeneous,
    funk_eigenvalue,
    multiplier,
    multiplier_table,
    spherical_parseval_check,
)
from .funk import (
    ComparisonReport,
    StarBody,
    construct_counterexample_spherical,
    intersection_body_of,
    slicing_check,
    sradon_direct,
    sradon_map,
    sradon_spectral,
    verify_comparison_spherical,
)
from .exprlang import (
    angular_context,
    check_angular_even,
    evaluate,
    parse_expr,
    radial_context,
)
from .config import ScenarioConfig, load_config
from .reports import emit_report, report_schema, validate_report

# The R^3 names resolve from their module on first use (PEP 562), so S^2
# runs never import radon3d or compare3d.  Nothing is stored here: every
# lookup returns the module's current binding.
_LAZY = {
    "radon3d": (
        "CATALOG_NAMES", "PAIRING_CONSTANT", "RELATION_CONSTANT",
        "IntersectionCertificate", "RadialProfile", "SeparableFunction",
        "Sinogram", "catalog_entry",
        "certify_intersection_function", "classification_witness",
        "fourier_1d", "mollified_ball", "radon_direct_point",
        "radon_transform", "separable_power", "separable_radial",
        "symmetric_nodes",
    ),
    "compare3d": (
        "RnComparisonReport", "construct_counterexample_radon", "lp_norm_rn",
        "sinogram_dominates", "verify_comparison_radon",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
