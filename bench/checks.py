"""Output checks, independent of the package under test.

Each ``check_<op>`` takes the request, the exit code and the output text and
returns ``None`` when the output is right, else a one-line reason.  Word
classes and enumerations are compared with the brute-force tables of
``tests/oracle.py``, which is imported read-only and never modified.
"""

from __future__ import annotations

import csv
import io
import json
import re

import oracle

_TOKEN = re.compile(r"^([xX])(\d+)(?:\^(\d+))?$")
_CLASS_LETTERS = "ABCD"

#: Brute-force tables, built on first use: (rank-2 words up to length 6,
#: rank-omega words up to weight 8), both in canonical order.
_TABLES: dict[str, list[tuple[int, ...]]] = {}


def table(kind: str) -> list[tuple[int, ...]]:
    if kind not in _TABLES:
        _TABLES[kind] = oracle.all_words(2, 6) if kind == "2" else oracle.omega_words(8)
    return _TABLES[kind]


def parse_word(text: str) -> tuple[int, ...]:
    """Letters of a word printed in the canonical ``x1^3 X2`` form."""
    if text == "e":
        return ()
    letters: list[int] = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad word token {tok!r}")
        a = int(m.group(2)) * (1 if m.group(1) == "x" else -1)
        letters.extend([a] * int(m.group(3) or 1))
    return tuple(letters)


def class_name(word: tuple[int, ...]) -> str:
    pair, side = oracle.classify(word, 2)
    return _CLASS_LETTERS[2 * (pair - 1) + (0 if side == 1 else 1)]


def free_word_count(k: int, max_length: int) -> int:
    """Nonempty reduced words of length <= max_length over rank k."""
    return sum(2 * k * (2 * k - 1) ** (n - 1) for n in range(1, max_length + 1))


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_verify(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rep = json.loads(text)
    size = req["hi"] - req["lo"] + 1
    if rep.get("pass") is not True:
        return "pass is not true"
    if rep["violations"]:
        return f"{len(rep['violations'])} violations"
    if rep["window"] != [req["lo"], req["hi"]]:
        return f"window {rep['window']}"
    if sum(rep["counts"].values()) != size:
        return f"class counts sum to {sum(rep['counts'].values())}, window has {size}"
    if rep["coverage"] != {str(j): size for j in req["pairs"]}:
        return f"coverage {rep['coverage']}"
    if "free_len" in req:
        fa = rep["free_action"]
        words = free_word_count(2, req["free_len"])
        if not (fa["pass"] is True and fa["distinct_actions"] is True
                and fa["words_checked"] == words):
            return f"free action {fa}, expected {words} words"
    return None


def check_classify(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = _csv_rows(text)
    if rows[0] != ["n", "word", "class"]:
        return f"header {rows[0]}"
    expected_n = list(range(req["lo"], req["hi"] + 1))
    if [int(r[0]) for r in rows[1:]] != expected_n:
        return "labels do not cover the window"
    for n, word, cls in rows[1:]:
        if class_name(parse_word(word)) != cls:
            return f"label {n}: {word} is in {class_name(parse_word(word))}, printed {cls}"
    return None


def check_connect(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    lines = text.splitlines()
    if len(lines) != 2 or lines[1] != f"check: {req['m']} -> {req['n']} ok":
        return f"connect output {lines[-1:]}"
    parse_word(lines[0])
    return None


def check_plot_fn(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    if not (text.startswith("<svg") and text.endswith("</svg>\n")):
        return "not an svg document"
    if text.count("<circle") != req["hi"] - req["lo"]:
        return f"{text.count('<circle')} pieces drawn, window has {req['hi'] - req['lo']}"
    return None


def check_plot_cayley(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    vertices = 1 + free_word_count(2, req["radius"])
    lines = text.splitlines()
    nodes = [ln.strip()[1:-2] for ln in lines if ln.endswith('";') and "->" not in ln]
    edges = [[end.strip(' "') for end in ln.split("[")[0].split("->")]
             for ln in lines if "->" in ln]
    # The ball holds the first `vertices` words of the enumeration, and as a
    # ball in a tree it has one edge fewer than vertices.
    if sorted(map(int, nodes)) != sorted(oracle.zigzag_label(p) for p in range(vertices)):
        return f"{len(nodes)} nodes, not the labels of the first {vertices} words"
    declared = set(nodes)
    if len(edges) != vertices - 1 or any(e[0] not in declared or e[1] not in declared
                                         for e in edges):
        return f"{len(edges)} edges, expected {vertices - 1} between declared nodes"
    return None


def check_line_strip(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    cells = text.count('stroke="#ffffff" stroke-width="1"/>')
    if cells != req["hi"] - req["lo"] + 1:
        return f"{cells} cells, window has {req['hi'] - req['lo'] + 1}"
    return None


def check_enumerate(req: dict, code, text: str) -> str | None:
    if code != 0:
        return f"exit {code}"
    rows = _csv_rows(text)
    if rows[0] != ["label", "position", "word", "length"]:
        return f"header {rows[0]}"
    rows = rows[1:]
    if len(rows) != req["count"]:
        return f"{len(rows)} rows, asked for {req['count']}"
    reference = table(req["k"])
    for pos, (label, position, word, length) in enumerate(rows):
        letters = parse_word(word)
        if (int(position) != pos or int(label) != oracle.zigzag_label(pos)
                or int(length) != len(letters) or not oracle.is_reduced(letters)):
            return f"row {pos} is {label},{position},{word},{length}"
        if pos < len(reference) and letters != reference[pos]:
            return f"row {pos}: {word}, oracle has {reference[pos]}"
    return None


def check_audit(req: dict, code, text: str) -> str | None:
    rep = json.loads(text)
    if rep["pass"] is not True or rep["samples"] != req["samples"]:
        return f"rigidity audit {rep['pass']} on {rep['samples']} samples"
    return None


CHECKS = {
    "verify": check_verify,
    "classify": check_classify,
    "connect": check_connect,
    "plot-fn": check_plot_fn,
    "plot-cayley": check_plot_cayley,
    "line-strip": check_line_strip,
    "enumerate": check_enumerate,
    "audit": check_audit,
}


def oracle_sample(rng, labelings: dict, make_word, per_rank: int) -> tuple[int, list[str]]:
    """Decode and re-encode a seeded sample of small labels against the oracle.

    ``labelings`` maps "2" and "omega" to a labeling of that rank, and
    ``make_word`` builds the package's word from a letter tuple.  Returns
    the number of labels compared and one reason per mismatch.
    """
    failures = []
    checked = 0
    for kind, labeling in labelings.items():
        ref = oracle.LabelTable(table(kind))
        for label in rng.sample(sorted(ref.word_of), per_rank):
            checked += 1
            word = ref.word_of[label]
            got = labeling.word_of_label(label).letters
            back = labeling.label_of_word(make_word(word))
            if got != word or back != label:
                failures.append(f"rank {kind} label {label}: decoded {got}, encoded back {back}, "
                                f"oracle word {word}")
    return checked, failures
