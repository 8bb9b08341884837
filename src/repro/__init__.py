"""repro: HPF and proposed extensions for Conjugate Gradient algorithms.

A full Python reproduction of Dincer, Hawick, Choudhary & Fox, *High
Performance Fortran and Possible Extensions to support Conjugate Gradient
Algorithms* (NPAC SCCS-703 / HPDC 1996), built on a simulated
distributed-memory multicomputer.

Quick start::

    from repro import Machine, make_strategy, hpf_cg, poisson2d, rhs_for_solution
    import numpy as np

    A = poisson2d(16)                       # a CFD-style SPD system
    b = rhs_for_solution(A, np.ones(A.nrows))
    machine = Machine(nprocs=8, topology="hypercube")
    strategy = make_strategy("csr_forall", machine, A)   # the Figure-2 code
    result = hpf_cg(strategy, b)
    print(result.iterations, result.machine_elapsed, result.comm)

Subpackages
-----------
``repro.machine``     simulated multicomputer (topologies, cost model, SPMD)
``repro.hpf``         HPF-1 runtime (distributions, ALIGN, FORALL, directives)
``repro.extensions``  the paper's proposed HPF-2 extensions
``repro.sparse``      CSR/CSC/COO/dense formats and matrix generators
``repro.core``        CG / PCG / BiCG / CGS / BiCGSTAB, sequential + distributed
``repro.backend``     execution backends: simulated machine vs real OS processes
``repro.baselines``   message-passing CG and dense Gaussian elimination
``repro.analysis``    the paper's cost formulas, load metrics, report tables
"""

from .analysis import Table, load_report
from .backend import (
    ProcessBackend,
    SimulatedBackend,
    backend_solve,
    calibrate_host,
    cross_validate,
    process_backend_support,
)
from .baselines import direct_solve, direct_vs_cg_flops, spmd_cg
from .hpcg import MultigridPreconditioner, hpcg_solve
from .core import (
    ConvergenceHistory,
    IdentityPreconditioner,
    JacobiPreconditioner,
    NeumannPreconditioner,
    SolveResult,
    SSORPreconditioner,
    StoppingCriterion,
    bicg_reference,
    bicgstab_reference,
    cg_reference,
    cgs_reference,
    gaussian_elimination,
    gmres_reference,
    hpf_bicg,
    hpf_bicgstab,
    hpf_cg,
    hpf_cgs,
    hpf_gmres,
    hpf_pcg,
    make_strategy,
    pcg_reference,
)
from .extensions import (
    IndivisableSpec,
    InspectorExecutor,
    OnProcessor,
    PrivateRegion,
    SparseMatrixBinding,
    cg_balanced_partitioner_1,
)
from .hpf import (
    Block,
    Cyclic,
    DistributedArray,
    HpfNamespace,
    IrregularBlock,
    forall,
    forall_indexed,
)
from .machine import CostModel, Machine
from .sparse import (
    CSCMatrix,
    COOMatrix,
    CSRMatrix,
    DenseMatrix,
    circuit_nodal,
    convection_diffusion_1d,
    figure1_matrix,
    irregular_powerlaw,
    matrix_with_eigenvalues,
    nas_cg_style,
    nonsymmetric_diag_dominant,
    poisson1d,
    poisson2d,
    stencil27,
    rhs_for_solution,
    structural_truss,
)

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "CostModel",
    "SimulatedBackend",
    "ProcessBackend",
    "backend_solve",
    "hpcg_solve",
    "MultigridPreconditioner",
    "cross_validate",
    "calibrate_host",
    "process_backend_support",
    "DistributedArray",
    "HpfNamespace",
    "Block",
    "Cyclic",
    "IrregularBlock",
    "forall",
    "forall_indexed",
    "PrivateRegion",
    "OnProcessor",
    "InspectorExecutor",
    "IndivisableSpec",
    "SparseMatrixBinding",
    "cg_balanced_partitioner_1",
    "CSRMatrix",
    "CSCMatrix",
    "COOMatrix",
    "DenseMatrix",
    "figure1_matrix",
    "poisson1d",
    "poisson2d",
    "stencil27",
    "structural_truss",
    "circuit_nodal",
    "nas_cg_style",
    "irregular_powerlaw",
    "matrix_with_eigenvalues",
    "convection_diffusion_1d",
    "nonsymmetric_diag_dominant",
    "rhs_for_solution",
    "hpf_cg",
    "hpf_pcg",
    "hpf_bicg",
    "hpf_cgs",
    "hpf_bicgstab",
    "hpf_gmres",
    "gmres_reference",
    "make_strategy",
    "cg_reference",
    "pcg_reference",
    "bicg_reference",
    "cgs_reference",
    "bicgstab_reference",
    "gaussian_elimination",
    "StoppingCriterion",
    "SolveResult",
    "ConvergenceHistory",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "SSORPreconditioner",
    "NeumannPreconditioner",
    "spmd_cg",
    "direct_solve",
    "direct_vs_cg_flops",
    "Table",
    "load_report",
    "__version__",
]
