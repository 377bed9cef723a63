"""ASCII rendering of the calibrator tree (the paper's Figures 1b / 3).

One row per depth; each node prints its page range and, optionally, its
density and warning state — the same information the paper annotates
its calibrator figures with.
"""

from __future__ import annotations

from typing import List, Optional


def render_calibrator(
    calibrator,
    engine=None,
    show_density: bool = True,
    width: int = 0,
) -> str:
    """Render the calibrator, one depth level per line.

    Parameters
    ----------
    calibrator:
        A :class:`~repro.core.calibrator.CalibratorTree`.
    engine:
        Optional CONTROL 2 engine; when given, warning nodes are marked
        ``!`` and their DEST pointer is shown.
    show_density:
        Include ``p(v)`` (as a float with two decimals) per node.
    width:
        Total line width; 0 sizes each level to its content.
    """
    by_depth: List[List[int]] = []
    for node in calibrator.iter_nodes():
        depth = calibrator.depth[node]
        while len(by_depth) <= depth:
            by_depth.append([])
        by_depth[depth].append(node)
    for level in by_depth:
        level.sort(key=lambda node: calibrator.lo[node])

    lines = []
    for depth, level in enumerate(by_depth):
        cells = []
        for node in level:
            lo, hi = calibrator.lo[node], calibrator.hi[node]
            label = f"[{lo},{hi}]" if lo != hi else f"[{lo}]"
            if show_density:
                pages = calibrator.pages_in(node)
                density = calibrator.count[node] / pages
                label += f" p={density:.2f}"
            if engine is not None and calibrator.flag[node]:
                dest = engine.destinations.get(node)
                label += f" !DEST={dest}"
            cells.append(label)
        row = "   ".join(cells)
        if width:
            row = row.center(width)
        lines.append(f"d{depth}: {row}")
    return "\n".join(lines)


def render_figure_1b(occupancies, num_pages: Optional[int] = None) -> str:
    """Convenience: build a calibrator over ``occupancies`` and render it.

    Reproduces the paper's Figure 1b style ("the number inside the node
    v is its density p(v)") for any occupancy vector.
    """
    from ..core.calibrator import CalibratorTree

    total = num_pages if num_pages is not None else len(occupancies)
    tree = CalibratorTree(total)
    tree.recount(tree.root, list(occupancies) + [0] * (total - len(occupancies)))
    return render_calibrator(tree)
