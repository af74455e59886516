"""Exact counting of Motzkin meanders and excursions, plain and skew,
refined by end level and by the numbers of UD and DU factors.

The package offers three independent routes to the same numbers: a
brute-force enumeration oracle, dynamic programming over explicit layered
automata, and closed-form generating functions obtained by the kernel
method, plus the bargraph bijection for cornerless excursions.
"""

from .paths import (
    Bargraph,
    PathClass,
    PathWord,
    PatternStats,
    Step,
    Variant,
    classify,
    elevate,
    from_bargraph,
    is_cornerless,
    is_peakless,
    is_valleyless,
    pattern_stats,
    to_bargraph,
)
from .oracle import (
    CountTable,
    count_table,
    enumerate_bargraphs,
    enumerate_columns,
    enumerate_letters,
    enumerate_paths,
)
from .automata import (
    Layer,
    dp_count,
    dp_series,
)
from .series import (
    ClosedForm,
    Poly,
    Series,
    boundary_values,
    closed_form,
    default_order,
    kernel_r2,
    kernel_sum,
    kernel_zr1,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "Bargraph",
    "ClosedForm",
    "CountTable",
    "Layer",
    "PathClass",
    "PathWord",
    "PatternStats",
    "Poly",
    "Series",
    "Step",
    "Variant",
    "boundary_values",
    "classify",
    "closed_form",
    "count_table",
    "default_order",
    "dp_count",
    "dp_series",
    "elevate",
    "enumerate_bargraphs",
    "enumerate_columns",
    "enumerate_letters",
    "enumerate_paths",
    "from_bargraph",
    "is_cornerless",
    "is_peakless",
    "is_valleyless",
    "kernel_r2",
    "kernel_sum",
    "kernel_zr1",
    "pattern_stats",
    "specialize",
    "to_bargraph",
    "__version__",
]
