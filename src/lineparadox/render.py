"""Deterministic figure emission: function graphs, line strips, Cayley balls.

All geometry is computed on an integer pixel lattice, so identical inputs
produce byte-identical output; floats never reach the emitters.  Each
figure has one emitter.  The SVG lines come one at a time as they are read,
so a figure of any width can be written in chunks at flat memory; the DOT
formats each label once.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

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
    """How many grid lines :func:`function_graph_lines` draws for these pieces."""
    ylo, yhi = _image_range(pieces)
    return (hi - lo + 1) + (yhi - ylo + 1)


def function_graph_lines(pieces: list[Piece], lo: int, hi: int) -> Iterator[str]:
    """SVG lines: one segment per piece, an open circle at each right end."""
    ylo, yhi = _image_range(pieces)
    width = (hi - lo) * _UNIT + 2 * _MARGIN
    height = (yhi - ylo) * _UNIT + 2 * _MARGIN

    def px(v: int) -> int:
        return _MARGIN + (v - lo) * _UNIT

    def py(v: int) -> int:
        return _MARGIN + (yhi - v) * _UNIT

    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    yield f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>'
    # One grid line per integer: x rises with it and y falls.
    left, right, bottom, top = px(lo), px(hi), py(ylo), py(yhi)
    grid, axis = 'stroke="#dddddd" stroke-width="1"', 'stroke="#555555" stroke-width="2"'
    pen = 'stroke="#1f77b4" stroke-width="2"'
    for x in range(left, right + 1, _UNIT):
        yield f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{top}" {grid}/>'
    for y in range(bottom, top - 1, -_UNIT):
        yield f'<line x1="{left}" y1="{y}" x2="{right}" y2="{y}" {grid}/>'
    if lo <= 0 <= hi:
        yield f'<line x1="{px(0)}" y1="{bottom}" x2="{px(0)}" y2="{top}" {axis}/>'
    if ylo <= 0 <= yhi:
        yield f'<line x1="{left}" y1="{py(0)}" x2="{right}" y2="{py(0)}" {axis}/>'
    for p in pieces:
        x1, y1 = px(p.start), py(p.start + p.offset)
        x2, y2 = x1 + _UNIT, y1 - _UNIT
        yield f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {pen}/>'
        yield f'<circle cx="{x2}" cy="{y2}" r="3" fill="#ffffff" {pen}/>'
    yield "</svg>"


def line_strip_lines(cells: Iterable[tuple], count: int, rank) -> Iterator[str]:
    """SVG lines: one colored cell per unit interval for ``count`` cells, read
    as drawn; ``None`` marks an overflow class.  The legend lists each class
    that occurs by pair, plus before minus, with overflow last."""
    cell_w = 24
    strip_h = 40
    legend_h = 22
    width = 2 * _MARGIN + cell_w * count
    height = 2 * _MARGIN + strip_h + legend_h
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    yield f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>'
    seen: dict[WordClass | None, str] = {}
    for x, (_, cls) in zip(itertools.count(_MARGIN, cell_w), cells):
        if (color := seen.get(cls)) is None:
            color = seen[cls] = OVERFLOW_COLOR if cls is None else class_color(cls)
        yield (
            f'<rect x="{x}" y="{_MARGIN}" width="{cell_w}" height="{strip_h}" '
            f'fill="{color}" stroke="#ffffff" stroke-width="1"/>'
        )
    order = sorted(seen, key=lambda c: (1, 0, 0) if c is None else (0, c.pair, c.side != PLUS))
    ly = _MARGIN + strip_h + 16
    lx = _MARGIN
    for cls in order:
        name = "other" if cls is None else cls.label(rank)
        yield f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{seen[cls]}"/>'
        yield f'<text x="{lx + 16}" y="{ly}" font-family="monospace" font-size="12">{name}</text>'
        lx += 16 + 10 * max(1, len(name)) + 14
    yield "</svg>"


def cayley_ball_dot(ball: CayleyBall) -> str:
    """DOT digraph of a ball: integer-labeled nodes, generator-labeled edges."""
    # The columns are indexed by label and the labels are lo..-lo, so index
    # order is label order and the nodes need no sort.  Each label is
    # formatted once; ``by_label`` is indexed by label, negative from the
    # end.  Column j gives each tail's x_j edge ("" where the head lies
    # outside) to every k-th slot of one list, so each tail's edges come
    # x1, x2, ... in turn.
    lo, k = ball.lo, ball.rank
    names = [f"{n}" for n in range(lo, 1 - lo)]
    by_label = names[-lo:] + names[:-lo]
    edges = [""] * (k * len(names))
    for j in range(1, k + 1):
        end = f'" [label="x{j}"];\n'
        edges[j - 1 :: k] = [
            f'  "{tail}" -> "{by_label[head]}{end}' if head is not None else ""
            for tail, head in zip(names, ball.columns[j])
        ]
    nodes = '";\n  "'.join(names)
    del names, by_label  # freed before the joins, which lowers the peak
    edges = "".join(edges)
    return f'digraph cayley_ball {{\n  node [shape=circle];\n  "{nodes}";\n{edges}}}\n'
