"""Frobenius sign separation toolkit: trace tables, Sato-Tate character
multiplicities, Bach-kernel prime sums, and separating-prime scans."""

import importlib

_MODULE_OF = {name: module for module, names in {
    "curves": "CurveSpec count_points count_points_Fp2 count_points_many "
              "euler_factor unitarized_eigenangles",
    "kernels": "KernelParams KernelSumReport bach_kernel bach_kernel_contour "
               "chebyshev_sum prime_power_tail weighted_sum",
    "separation": "SeparationRecord least_separating_prime psi_value "
                  "separation_scan windowed_search",
    "store": "TraceTable compute_range compute_ranges export_csv import_csv",
    "symplectic": "DominantWeight TorusPoint VirtualCharacter adams2 char_value "
                  "dimension fs_indicator inner_product psi_character trivial_multiplicity",
}.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
