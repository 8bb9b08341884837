"""The CG solver family -- the paper's primary subject.

Sequential references (:mod:`~repro.core.reference`), distributed HPF
solvers (:func:`hpf_cg`, :func:`hpf_pcg`, :func:`hpf_bicg`,
:func:`hpf_cgs`, :func:`hpf_bicgstab`) parameterised by mat-vec strategy
(:mod:`~repro.core.matvec`), preconditioners, and stopping criteria.
"""

from .bicg import hpf_bicg
from .bicgstab import hpf_bicgstab
from .cg import hpf_cg
from .checkerboard import DenseCheckerboard
from .cgs import hpf_cgs
from .figure2 import figure2_cg
from .gmres import gmres_reference, hpf_gmres
from .halo import CsrHalo
from .kernels import saxpy, saypx, scopy, sdot, sscal
from .matvec import (
    ColBlockDenseSerial,
    ColBlockDenseTwoDimTemp,
    CscPrivateMerge,
    CscSerial,
    CsrForall,
    MatvecStrategy,
    RowBlockDense,
    make_strategy,
)
from .pcg import hpf_pcg
from .preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    NeumannPreconditioner,
    Preconditioner,
    SSORPreconditioner,
)
from .resilience import RecoveryExhaustedError, ResilienceConfig
from .reference import (
    bicg_reference,
    bicgstab_reference,
    cg_reference,
    cgs_reference,
    gaussian_elimination,
    pcg_reference,
)
from .result import ConvergenceHistory, SolveResult
from .stopping import StoppingCriterion

__all__ = [
    "hpf_cg",
    "figure2_cg",
    "hpf_pcg",
    "hpf_bicg",
    "hpf_cgs",
    "hpf_gmres",
    "gmres_reference",
    "hpf_bicgstab",
    "MatvecStrategy",
    "RowBlockDense",
    "DenseCheckerboard",
    "ColBlockDenseSerial",
    "ColBlockDenseTwoDimTemp",
    "CsrForall",
    "CsrHalo",
    "CscSerial",
    "CscPrivateMerge",
    "make_strategy",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "SSORPreconditioner",
    "NeumannPreconditioner",
    "cg_reference",
    "pcg_reference",
    "bicg_reference",
    "cgs_reference",
    "bicgstab_reference",
    "gaussian_elimination",
    "SolveResult",
    "ConvergenceHistory",
    "StoppingCriterion",
    "ResilienceConfig",
    "RecoveryExhaustedError",
    "saxpy",
    "saypx",
    "sdot",
    "scopy",
    "sscal",
]
