"""Command-line surface.

Subcommands: classify, verify, plot-fn, plot-cayley, connect, enumerate,
line-strip.  Windows are written ``lo..hi`` and are inclusive of both interval
indices, except that plot-fn draws the pieces for n in [lo, hi).  Outputs go
to stdout, or atomically (write-temp-then-rename) to --out.  Identical flags
produce byte-identical output.  Exit status: 0 success (and verification
passed), 1 verification failed, 2 usage or input error, 3 word, word-letter,
window-label, pair-limit, grid-line, Cayley-ball vertex, line-strip cell or
rank-omega weight budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import re
import sys
import tempfile
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .freegroup import (
    OMEGA,
    RankError,
    Word,
    WordSyntaxError,
    check_rank,
    format_word,
    iter_words,
    parse_word,
)
from .labeling import (
    UnsupportedRankError,
    VertexLabeling,
    bounded_ball_vertex_count,
    label_from_position,
)
from .paradox import WORD_BUDGET, BudgetExceededError, ParadoxInstance, verification_summary
from .permutation import CycleError, TreePermutation, parse_cycles
from .render import (
    cayley_ball_dot,
    function_graph_grid_lines,
    function_graph_svg,
    line_strip_svg,
)
from .rigid import PiecewiseRigidMap

_WINDOW_RE = re.compile(r"^(-?\d+)\.\.(-?\d+)$")

#: Most grid lines a plot-fn figure may draw, one per integer of the window
#: and of the image span; wider figures exit 3 before any line is built.
MAX_GRID_LINES = 100_000

#: Most vertices a plot-cayley ball may hold; larger balls exit 3 before any
#: vertex is built.
MAX_BALL_VERTICES = 100_000

#: Most labels a verify or classify window may hold: the ±10⁶ window.  It
#: bounds the rows classify writes and the labels a failing verify lists;
#: wider windows exit 3 before the walk starts.
MAX_WINDOW_LABELS = 2_000_001

#: Most generator pairs --J may name at rank omega, each with its classes,
#: counts and report lines; larger limits exit 3 before any class is listed.
MAX_PAIR_LIMIT = 10_000

#: Most cells a line-strip may draw, one per label of the window; wider
#: windows exit 3 before the walk starts.
MAX_STRIP_CELLS = 100_000


def _rank(text: str):
    try:
        rank = OMEGA if text == "omega" else int(text)
        check_rank(rank)
    except ValueError as exc:  # RankError is a ValueError
        raise argparse.ArgumentTypeError(
            f"rank must be an integer >= 2 or 'omega', got {text!r}"
        ) from exc
    return rank


def _window(text: str) -> tuple[int, int]:
    m = _WINDOW_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(f"window must look like lo..hi, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"window needs lo <= hi, got {text!r}")
    return lo, hi


def _add_common(p: argparse.ArgumentParser, window: bool = False) -> None:
    p.add_argument("--k", type=_rank, default=2, metavar="K",
                   help="rank: an integer >= 2, or 'omega' (default 2)")
    p.add_argument("--J", type=int, default=10, metavar="J",
                   help="pair limit for rank omega sweeps (default 10)")
    if window:
        p.add_argument("--window", type=_window, required=True, metavar="LO..HI")
    p.add_argument("--out", metavar="PATH", help="write output atomically to PATH instead of stdout")


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Stdout, or a temporary file that replaces ``out`` once all is written.

    An ``out`` that cannot be written is an input error (ValueError).
    """
    if out is None:
        yield sys.stdout
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".lineparadox-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, out)
        tmp = None
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_csv(header: list[str], rows: Iterable[list], out: str | None) -> None:
    """Write the header, then stream ``rows`` into the output one at a time."""
    with _output(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_json_array(items: Iterable, out: str | None) -> None:
    """Write ``_json_text(list(items))``, holding at most 100 items at once.

    Each batch is dumped as an array whose brackets are cut off, which
    leaves its items indented as they are in the whole array.
    """
    items = iter(items)
    with _output(out) as fh:
        fh.write("[")
        sep = "\n"
        while batch := list(islice(items, 100)):
            fh.write(sep + json.dumps(batch, indent=2, sort_keys=True)[2:-2])
            sep = ",\n"
        fh.write("\n]\n" if sep == ",\n" else "]\n")


def _cmd_classify(args) -> int:
    _check_window(*args.window)
    rows = (
        [n, format_word(Word._from_reduced(letters)), cls.label(args.k)]
        for n, letters, cls in ParadoxInstance(args.k).classify_window(*args.window)
    )
    if args.format == "json":
        _emit_json_array(({"n": n, "word": w, "class": c} for n, w, c in rows), args.out)
    else:
        _emit_csv(["n", "word", "class"], rows, args.out)
    return 0


def _cmd_verify(args) -> int:
    inst = ParadoxInstance(args.k)
    lo, hi = args.window
    _check_window(lo, hi)
    summary = verification_summary(
        inst, lo, hi,
        pair_limit=args.J if args.k == OMEGA else None,
        free_check=args.free_check,
        word_budget=args.budget,
    )
    if args.format == "csv":
        _emit_csv(["class", "count"], summary["counts"].items(), args.out)
    else:
        _emit(_json_text(summary), args.out)
    return 0 if summary["pass"] else 1


def _cmd_plot_fn(args) -> int:
    lo, hi = args.window
    if args.perm is not None:
        perm = parse_cycles(args.perm)
    else:
        labeling = VertexLabeling(args.k)
        perm = TreePermutation(parse_word(args.word, args.k), labeling)
    # The window alone fixes the vertical grid lines, so a window too wide
    # is refused before any piece is computed; the image span adds the rest.
    _check_budget("plot", hi - lo + 1, "grid lines", MAX_GRID_LINES)
    pieces = PiecewiseRigidMap(perm).pieces_in_window(lo, hi)
    _check_budget("plot", function_graph_grid_lines(pieces, lo, hi), "grid lines", MAX_GRID_LINES)
    _emit(function_graph_svg(pieces, lo, hi), args.out)
    return 0


def _check_budget(what: str, need: int, unit: str, limit: int) -> None:
    if need > limit:
        # A count past 64 bits may have more digits than Python prints.
        if need.bit_length() > 64:
            raise BudgetExceededError(f"the {what} needs more {unit} than the limit of {limit}")
        raise BudgetExceededError(f"the {what} needs {need} {unit}, more than the limit of {limit}")


def _check_window(lo: int, hi: int) -> None:
    _check_budget("window", hi - lo + 1, "labels", MAX_WINDOW_LABELS)


def _cmd_plot_cayley(args) -> int:
    if args.k != OMEGA:
        # Counted in closed form, so an oversized ball builds no vertex, and
        # a radius far past the limit is refused before its count is formed.
        need = bounded_ball_vertex_count(args.k, args.radius, MAX_BALL_VERTICES)
        if need is None:
            raise BudgetExceededError(
                f"the Cayley ball of radius {args.radius} needs more vertices "
                f"than the limit of {MAX_BALL_VERTICES}"
            )
        _check_budget("Cayley ball", need, "vertices", MAX_BALL_VERTICES)
    ball = VertexLabeling(args.k).ball(args.radius)
    _emit(cayley_ball_dot(ball), args.out)
    return 0


def _cmd_connect(args) -> int:
    labeling = VertexLabeling(args.k)
    u = labeling.connecting_word(args.m, args.n)
    lines = [format_word(u)]
    status = 0
    if args.check:
        image = TreePermutation(u, labeling).apply(args.m)
        if image == args.n:
            lines.append(f"check: {args.m} -> {image} ok")
        else:
            lines.append(f"check: {args.m} -> {image} MISMATCH (expected {args.n})")
            status = 1
    _emit("\n".join(lines) + "\n", args.out)
    return status


def _cmd_enumerate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    # Rows stream from the enumeration into the writer, so memory stays flat
    # in --count.
    rows = (
        [label_from_position(pos), pos, format_word(w), len(w)]
        for pos, w in enumerate(islice(iter_words(args.k), args.count))
    )
    _emit_csv(["label", "position", "word", "length"], rows, args.out)
    return 0


def _cmd_line_strip(args) -> int:
    lo, hi = args.window
    _check_budget("line strip", hi - lo + 1, "cells", MAX_STRIP_CELLS)
    inst = ParadoxInstance(args.k)
    pairs = inst.pairs(args.J if args.k == OMEGA else None)
    cells = [(n, cls if cls.pair in pairs else None) for n, _, cls in inst.classify_window(lo, hi)]
    _emit(line_strip_svg(cells, args.k), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    Parsing leaves it unchanged, and the handlers read their limits at call
    time, so every ``main`` call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="lineparadox",
        description="Partition the line into free-group classes and verify its rigid reassembly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="class of each unit interval in the window")
    _add_common(p, window=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="partition + reassembly verification report")
    _add_common(p, window=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--free-check", type=int, metavar="L", dest="free_check",
                   help="also certify fixed-point freeness for words of length <= L")
    p.add_argument("--budget", type=int, default=WORD_BUDGET,
                   help=f"word budget for --free-check (default {WORD_BUDGET})")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot-fn", help="SVG graph of a piecewise rigid map on [lo, hi)")
    _add_common(p, window=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--perm", metavar="CYCLES", help="cycle notation, e.g. \"(012534)\"")
    group.add_argument("--word", metavar="WORD", help="reduced word, e.g. \"x1 X2\"")
    p.add_argument("--format", choices=["svg"], default="svg")
    p.set_defaults(func=_cmd_plot_fn)

    p = sub.add_parser("plot-cayley", help="DOT graph of the Cayley ball of a given radius")
    _add_common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--format", choices=["dot"], default="dot")
    p.set_defaults(func=_cmd_plot_cayley)

    p = sub.add_parser("connect", help="the unique word moving label M to label N")
    _add_common(p)
    p.add_argument("m", type=int, metavar="M")
    p.add_argument("n", type=int, metavar="N")
    p.add_argument("--check", action="store_true", help="re-apply the word and confirm")
    p.set_defaults(func=_cmd_connect)

    p = sub.add_parser("enumerate", help="first COUNT words of the canonical enumeration")
    _add_common(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--format", choices=["csv"], default="csv")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("line-strip", help="SVG strip coloring each interval by class")
    _add_common(p, window=True)
    p.add_argument("--format", choices=["svg"], default="svg")
    p.set_defaults(func=_cmd_line_strip)

    return parser


def _absorb_window_values(argv: list[str]) -> list[str]:
    # argparse reads a space-separated "-2..8" as an option, not a value;
    # folding it into --window=-2..8 keeps the documented syntax working.
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--window":
            val = next(it, None)
            out.append(tok if val is None else f"--window={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_absorb_window_values(list(argv)))
    try:
        if args.k == OMEGA:
            _check_budget("rank omega pair list", args.J, "generator pairs", MAX_PAIR_LIMIT)
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (WordSyntaxError, CycleError, UnsupportedRankError, RankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
