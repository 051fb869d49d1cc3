"""Numerical certification of annulus contractions and their 2x2 block completions."""

__version__ = "0.1.0"

from .errors import (
    AnnulusCertError,
    ContractViolationError,
    DiagnosticError,
    DomainError,
    NumericalFailureError,
    SingularityError,
    TruncationError,
)
from .numerics import (
    EQ_TOL,
    MAX_DIM,
    PSD_TOL,
    RANK_TOL,
    as_matrix,
    eigenvalues,
    hermitian_min_eig,
    inverse,
    operator_norm,
    re_part,
    sqrt_psd,
)
from .pencil import (
    AnnulusParams,
    PencilGrid,
    gamma_scalar_batch,
)
from .rational import (
    RationalFunction,
    eval_matrix,
    poles_off_annulus,
    sup_on_annulus,
)
from .blocks import BlockSpec, assemble, fcalc
from .factorization import (
    DiskBlockResult,
    FactorResult,
    block_psd_check,
    defects,
    disk_block_check,
    douglas_factor,
    halmos_unitary,
)
from .certifier import (
    Certificate,
    DEFAULT_GRID,
    VnReport,
    certify_ar,
    check_thm_block1,
    check_thm_block2,
    vn_sample,
)
from .misra import (
    MISRA_GRID,
    jordan_block,
    kernel_diag,
    misra_threshold,
    threshold_via_pencil,
)
from .generators import (
    random_contraction,
    random_normal_annulus,
    random_psd,
)
