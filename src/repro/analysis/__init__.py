"""Analysis and reporting helpers for the benchmark harness."""

from .heatmap import (
    fill_summary,
    occupancy_bar,
    occupancy_history,
    occupancy_legend,
)
from .report import render_comparison, render_series, render_table
from .treeview import render_calibrator, render_figure_1b
from .stats import (
    SUMMARY_HEADERS,
    Summary,
    growth_exponent,
    percentile,
    summarize,
    tail_profile,
)

__all__ = [
    "SUMMARY_HEADERS",
    "Summary",
    "fill_summary",
    "growth_exponent",
    "occupancy_bar",
    "occupancy_history",
    "occupancy_legend",
    "percentile",
    "render_calibrator",
    "render_comparison",
    "render_figure_1b",
    "render_series",
    "render_table",
    "summarize",
    "tail_profile",
]
