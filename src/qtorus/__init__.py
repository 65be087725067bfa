"""qtorus: growth diagnostics for sparse Fourier series on the n-torus.

Coefficient-driven throughout: sparse multi-index series, L2 derivative-norm
profiles, log-domain associated functions with divergence witnesses and
integral-trend verdicts, and folded roots-of-unity interpolation with
growth-bound audits.
"""

from .series import (
    DEFAULT_GRID_CAP,
    PRUNE_THRESHOLD,
    FourierSeries,
    GridCapError,
    PolyPoint,
    eval_batch,
    eval_grid,
    eval_laurent,
    grid_array,
    read_coefficients,
    write_coefficients,
)
from .norms import (
    CoefficientBoundReport,
    DerivativeNormProfile,
    build_profile,
    coefficient_bound_audit,
    m_j,
    shift_profile,
)
from .associated import (
    AssociatedTable,
    CarlemanReport,
    DegenerateProfileError,
    LemmaReport,
    WitnessSeries,
    build_table,
    carleman_diagnostic,
    lemma_check,
    log_tau,
    log_tau_shifted,
    t_m,
    t_m_sequence,
    theta,
    witness,
)
from .interpolate import (
    AugmentedInterpolant,
    BoundAuditReport,
    InterpolationAudit,
    alias_fold,
    augmented_interpolant,
    bound_audit,
    diagonal_fold,
    interpolation_audit,
)
from .families import (
    FamilySpec,
    RescaleResult,
    gen_profile,
    gen_series,
    parse_family_spec,
    rescale_to_class,
)

__version__ = "0.1.0"
