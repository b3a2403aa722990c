"""specpot: eigenvalues of -Laplacian + q on model compact domains.

Discretizes Schrodinger-type operators on the circle, the interval and the
flat 2-torus, computes one-sided directional derivatives of (possibly
degenerate) eigenvalues under mean-zero potential perturbations, decides
criticality through convex-cone feasibility certificates, and optimizes
eigenvalues and gaps under a fixed-mean constraint.
"""

__version__ = "0.1.0"

from . import blas

# numpy maps its OpenBLAS when first imported: here, on one thread
blas.import_on_one_thread("numpy")

from .domain import (
    BoundaryCondition,
    Circle,
    DomainGrid,
    Interval,
    Potential,
    Torus2D,
    build_grid,
    mean_value,
    project_mean_zero,
)
from .spectral import (
    Cluster,
    SpectralData,
    assemble,
    detect_cluster,
    eigensolve,
    recover_potential,
    solve_spectra,
    solve_spectrum,
)
from .perturbation import (
    DirectionalDerivative,
    ProbeDirection,
    cluster_matrix,
    gap_one_sided_derivatives,
    make_direction,
    one_sided_derivatives,
    sample_probes,
)
from .certificates import (
    Certificate,
    CertificateStatus,
    criticality_certificate,
    extract_frame,
    full_criticality_report,
    gap_certificate,
)
from .optimize import (
    ConstraintSpec,
    ObjectiveSpec,
    Schedule,
    project_feasible,
    refute_local_min,
    run_optimizer,
    subgradient_direction,
)

__all__ = [
    "__version__",
    "BoundaryCondition",
    "Circle",
    "Interval",
    "Torus2D",
    "DomainGrid",
    "Potential",
    "build_grid",
    "mean_value",
    "project_mean_zero",
    "SpectralData",
    "Cluster",
    "assemble",
    "eigensolve",
    "solve_spectrum",
    "solve_spectra",
    "detect_cluster",
    "recover_potential",
    "ProbeDirection",
    "DirectionalDerivative",
    "make_direction",
    "cluster_matrix",
    "one_sided_derivatives",
    "gap_one_sided_derivatives",
    "sample_probes",
    "Certificate",
    "CertificateStatus",
    "criticality_certificate",
    "extract_frame",
    "gap_certificate",
    "full_criticality_report",
    "ObjectiveSpec",
    "ConstraintSpec",
    "Schedule",
    "project_feasible",
    "run_optimizer",
    "subgradient_direction",
    "refute_local_min",
]
