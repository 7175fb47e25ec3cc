"""Evaluation harness: metrics, tables, congestion maps, suite runner."""

from .maps import ascii_heatmap, side_by_side, utilization_maps, write_pgm
from .metrics import PASS_THRESHOLD, PlacerAverages, PlacerMetrics, aggregate
from .paper import (
    FLOW_TO_PAPER,
    PAPER_AVERAGES,
    PAPER_PASS_COUNTS,
    PAPER_TABLE2,
    ShapeCheck,
    shape_checks,
)
from .runner import SuiteRunConfig, run_benchmark, run_suite
from .svg import placement_svg, save_placement_svg
from .tables import format_table1, format_table2
from .trend import convergence_chart, sparkline

__all__ = [
    "FLOW_TO_PAPER",
    "PAPER_AVERAGES",
    "PAPER_PASS_COUNTS",
    "PAPER_TABLE2",
    "PASS_THRESHOLD",
    "PlacerAverages",
    "PlacerMetrics",
    "ShapeCheck",
    "SuiteRunConfig",
    "aggregate",
    "ascii_heatmap",
    "convergence_chart",
    "format_table1",
    "format_table2",
    "placement_svg",
    "run_benchmark",
    "run_suite",
    "save_placement_svg",
    "shape_checks",
    "side_by_side",
    "sparkline",
    "utilization_maps",
    "write_pgm",
]
