"""Deterministic figure emission: function graphs, line strips, Cayley balls.

All geometry is computed on an integer pixel lattice, so identical inputs
produce byte-identical output; floats never reach the emitters.
"""

from __future__ import annotations

from itertools import chain

from .freegroup import PLUS, WordClass
from .labeling import CayleyBall
from .rigid import Piece

#: Fill colors by class position (pair 1 plus, pair 1 minus, pair 2 plus, ...),
#: cycling for higher pairs.  The first four are the fixed A, B, C, D colors.
PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)

OVERFLOW_COLOR = "#999999"

_UNIT = 40
_MARGIN = 20


def class_color(cls: WordClass) -> str:
    return PALETTE[(2 * (cls.pair - 1) + (0 if cls.side == PLUS else 1)) % len(PALETTE)]


def _image_range(pieces: list[Piece]) -> tuple[int, int]:
    if not pieces:
        return 0, 1
    images = [p.start + p.offset for p in pieces]
    return min(images), max(images) + 1


def function_graph_grid_lines(pieces: list[Piece], lo: int, hi: int) -> int:
    """How many grid lines :func:`function_graph_svg` draws for these pieces."""
    ylo, yhi = _image_range(pieces)
    return (hi - lo + 1) + (yhi - ylo + 1)


def function_graph_svg(pieces: list[Piece], lo: int, hi: int) -> str:
    """Plot one segment per piece, open circle at each right endpoint."""
    ylo, yhi = _image_range(pieces)
    width = (hi - lo) * _UNIT + 2 * _MARGIN
    height = (yhi - ylo) * _UNIT + 2 * _MARGIN

    def px(v: int) -> int:
        return _MARGIN + (v - lo) * _UNIT

    def py(v: int) -> int:
        return _MARGIN + (yhi - v) * _UNIT

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for gx in range(lo, hi + 1):
        out.append(
            f'<line x1="{px(gx)}" y1="{py(ylo)}" x2="{px(gx)}" y2="{py(yhi)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(ylo, yhi + 1):
        out.append(
            f'<line x1="{px(lo)}" y1="{py(gy)}" x2="{px(hi)}" y2="{py(gy)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    if lo <= 0 <= hi:
        out.append(
            f'<line x1="{px(0)}" y1="{py(ylo)}" x2="{px(0)}" y2="{py(yhi)}" '
            f'stroke="#555555" stroke-width="2"/>'
        )
    if ylo <= 0 <= yhi:
        out.append(
            f'<line x1="{px(lo)}" y1="{py(0)}" x2="{px(hi)}" y2="{py(0)}" '
            f'stroke="#555555" stroke-width="2"/>'
        )
    for p in pieces:
        x1, y1 = px(p.start), py(p.start + p.offset)
        x2, y2 = px(p.start + 1), py(p.start + p.offset + 1)
        out.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#1f77b4" stroke-width="2"/>'
        )
        out.append(
            f'<circle cx="{x2}" cy="{y2}" r="3" fill="#ffffff" stroke="#1f77b4" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def line_strip_svg(cells: list[tuple[int, WordClass | None]], rank) -> str:
    """One colored cell per unit interval; ``None`` marks an overflow class.

    The legend lists every class that occurs in the class layout's order:
    by pair, plus before minus, with overflow last.
    """
    cell_w = 24
    strip_h = 40
    legend_h = 22
    width = 2 * _MARGIN + cell_w * len(cells)
    height = 2 * _MARGIN + strip_h + legend_h
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    seen: dict[WordClass | None, str] = {}
    for i, (_, cls) in enumerate(cells):
        color = OVERFLOW_COLOR if cls is None else class_color(cls)
        seen.setdefault(cls, color)
        x = _MARGIN + i * cell_w
        out.append(
            f'<rect x="{x}" y="{_MARGIN}" width="{cell_w}" height="{strip_h}" '
            f'fill="{color}" stroke="#ffffff" stroke-width="1"/>'
        )
    order = sorted(seen, key=lambda c: (1, 0, 0) if c is None else (0, c.pair, c.side != PLUS))
    ly = _MARGIN + strip_h + 16
    lx = _MARGIN
    for cls in order:
        name = "other" if cls is None else cls.label(rank)
        out.append(
            f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{seen[cls]}"/>'
        )
        out.append(
            f'<text x="{lx + 16}" y="{ly}" font-family="monospace" font-size="12">{name}</text>'
        )
        lx += 16 + 10 * max(1, len(name)) + 14
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cayley_ball_dot(ball: CayleyBall) -> str:
    """DOT digraph of a ball: integer-labeled nodes, generator-labeled edges."""
    # The columns are indexed by label and the labels are lo..-lo, so index
    # order is label order and the nodes need no sort.  Each generator's
    # column gives one edge text per tail ("" where the head lies outside),
    # and zipping the columns writes each tail's edges x1, x2, ... in turn.
    labels = range(ball.lo, 1 - ball.lo)
    columns = [
        [f'  "{tail}" -> "{head}" [label="x{j}"];\n' if head is not None else ""
         for tail, head in zip(labels, ball.columns[j])]
        for j in range(1, ball.rank + 1)
    ]
    nodes = "".join([f'  "{n}";\n' for n in labels])
    edges = "".join(chain.from_iterable(zip(*columns)))
    return f"digraph cayley_ball {{\n  node [shape=circle];\n{nodes}{edges}}}\n"
