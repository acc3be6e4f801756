"""Frobenius sign separation toolkit: trace tables, Sato-Tate character
multiplicities, Bach-kernel prime sums, and separating-prime scans."""

from .curves import (CurveSpec, count_points, count_points_Fp2,
                     count_points_many, euler_factor, unitarized_eigenangles)
from .kernels import (KernelParams, KernelSumReport, bach_kernel,
                      bach_kernel_contour, chebyshev_sum, prime_power_tail,
                      weighted_sum)
from .separation import (SeparationRecord, least_separating_prime, psi_value,
                         separation_scan, windowed_search)
from .store import TraceTable, compute_range, export_csv, import_csv
from .symplectic import (AnalyticMetadata, DominantWeight, TorusPoint,
                         VirtualCharacter, adams2, char_value, dimension,
                         fs_indicator, inner_product, psi_character,
                         trivial_multiplicity)

__version__ = "0.1.0"

__all__ = [
    "AnalyticMetadata", "CurveSpec", "DominantWeight", "KernelParams",
    "KernelSumReport", "SeparationRecord", "TorusPoint", "TraceTable",
    "VirtualCharacter", "adams2", "bach_kernel", "bach_kernel_contour",
    "char_value", "chebyshev_sum", "compute_range", "count_points",
    "count_points_Fp2", "count_points_many", "dimension", "euler_factor",
    "export_csv", "fs_indicator", "import_csv", "inner_product",
    "least_separating_prime", "prime_power_tail", "psi_character",
    "psi_value", "separation_scan", "trivial_multiplicity",
    "unitarized_eigenangles", "weighted_sum", "windowed_search",
]
