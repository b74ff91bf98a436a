"""Permutations of the integers in two evaluable forms.

A :class:`CyclePermutation` has finite support given by explicit disjoint
cycles.  A :class:`TreePermutation` is the permutation induced on integer
labels by left multiplication with a fixed reduced word: label n maps to the
label of ``word * word_of_label(n)``.  Because the labeling is a bijection,
word multiplication turns into permutation composition, which is what makes
tree permutations a faithful copy of the free group.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from .freegroup import OMEGA, Word, invert, multiply
from .labeling import VertexLabeling


class CycleError(ValueError):
    """Malformed cycle notation or overlapping cycles."""


class LabelingMismatchError(ValueError):
    """Tree permutations over different labelings cannot be combined."""


class IntegerPermutation(ABC):
    @abstractmethod
    def apply(self, n: int) -> int: ...

    @abstractmethod
    def inverse(self) -> "IntegerPermutation": ...

    def __call__(self, n: int) -> int:
        return self.apply(n)


class CyclePermutation(IntegerPermutation):
    """A finite-support permutation given by disjoint cycles.

    Length-1 cycles are fixed points and are dropped.  Cycles are stored in a
    canonical form: each rotated to start at its smallest element, sorted by
    that element.
    """

    def __init__(self, cycles):
        mapping: dict[int, int] = {}
        kept = []
        for cyc in cycles:
            cyc = tuple(int(v) for v in cyc)
            if len(set(cyc)) != len(cyc):
                raise CycleError(f"repeated element within cycle {cyc}")
            if len(cyc) < 2:
                continue
            for v in cyc:
                if v in mapping:
                    raise CycleError(f"element {v} appears in two cycles")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                mapping[a] = b
            kept.append(cyc)
        canon = []
        for cyc in kept:
            i = cyc.index(min(cyc))
            canon.append(cyc[i:] + cyc[:i])
        canon.sort(key=lambda c: c[0])
        self.cycles: tuple[tuple[int, ...], ...] = tuple(canon)
        self._map = mapping

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def apply(self, n: int) -> int:
        return self._map.get(n, n)

    def inverse(self) -> "CyclePermutation":
        return CyclePermutation([tuple(reversed(c)) for c in self.cycles])

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclePermutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self.cycles)

    def __repr__(self) -> str:
        if not self.cycles:
            return "CyclePermutation(())"
        text = "".join("(" + " ".join(str(v) for v in c) + ")" for c in self.cycles)
        return f"CyclePermutation({text!r})"


class TreePermutation(IntegerPermutation):
    """Left multiplication by a reduced word, acting on integer labels."""

    def __init__(self, word: Word, labeling: VertexLabeling):
        if labeling.rank != OMEGA:
            for a in word.letters:
                if abs(a) > labeling.rank:
                    raise LabelingMismatchError(
                        f"word {word} uses generators beyond rank {labeling.rank}"
                    )
        self.word = word
        self.labeling = labeling

    def apply(self, n: int) -> int:
        lab = self.labeling
        return lab.label_of_word(multiply(self.word, lab.word_of_label(n)))

    def inverse(self) -> "TreePermutation":
        return TreePermutation(invert(self.word), self.labeling)

    @property
    def is_identity(self) -> bool:
        return not self.word.letters

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TreePermutation)
            and self.word == other.word
            and self.labeling == other.labeling
        )

    def __hash__(self) -> int:
        return hash((self.word, self.labeling))

    def __repr__(self) -> str:
        return f"TreePermutation({self.word!r}, {self.labeling!r})"


def compose(p: IntegerPermutation, q: IntegerPermutation) -> IntegerPermutation:
    """The permutation n -> p(q(n)), staying within one backing form.

    Tree with tree multiplies the words; cycle with cycle recomputes cycles
    on the union of supports.  Mixed forms have no common backing here; build
    a composite rigid map instead.
    """
    if isinstance(p, TreePermutation) and isinstance(q, TreePermutation):
        if p.labeling != q.labeling:
            raise LabelingMismatchError("cannot compose tree permutations over different labelings")
        return TreePermutation(multiply(p.word, q.word), p.labeling)
    if isinstance(p, CyclePermutation) and isinstance(q, CyclePermutation):
        mapping = {n: p.apply(q.apply(n)) for n in p.support | q.support}
        return CyclePermutation(_cycles_from_mapping(mapping))
    raise TypeError(
        "cycle- and tree-backed permutations compose only as piecewise rigid maps"
    )


def _cycles_from_mapping(mapping: dict[int, int]) -> list[tuple[int, ...]]:
    seen: set[int] = set()
    cycles = []
    for start in sorted(mapping):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        n = mapping[start]
        while n != start:
            cyc.append(n)
            seen.add(n)
            n = mapping[n]
        if len(cyc) >= 2:
            cycles.append(tuple(cyc))
    return cycles


def fixed_points_in_window(p: IntegerPermutation, lo: int, hi: int) -> list[int]:
    """All n in [lo, hi] (inclusive) with p(n) = n, ascending.

    A tree permutation is read off its word: the free group acts freely on
    its Cayley tree, so u * w = w forces u = e.  The identity fixes every
    label and any other word fixes none.
    """
    if isinstance(p, TreePermutation):
        return list(range(lo, hi + 1)) if p.is_identity else []
    return [n for n in range(lo, hi + 1) if p.apply(n) == n]


_CYCLE_GROUP_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[\s,]+")


def parse_cycles(text: str) -> CyclePermutation:
    """Parse cycle notation.

    A group with no separators is read one digit per element, so "(012534)"
    is the 6-cycle 0 -> 1 -> 2 -> 5 -> 3 -> 4 -> 0.  Groups containing
    whitespace or commas are read as whole integers: "(10, -3, 4)".
    """
    s = text.strip()
    if not s:
        raise CycleError("empty cycle text")
    groups = _CYCLE_GROUP_RE.findall(s)
    leftover = _CYCLE_GROUP_RE.sub("", s).strip()
    if leftover or not groups:
        raise CycleError(f"cycle text must be parenthesized groups, got {text!r}")
    cycles = []
    for g in groups:
        g = g.strip()
        if not g:
            continue
        if _SEP_RE.search(g):
            try:
                cycles.append([int(part) for part in _SEP_RE.split(g)])
            except ValueError as exc:
                raise CycleError(f"bad cycle entry in {g!r}") from exc
        else:
            if not g.isdigit():
                raise CycleError(
                    f"compact cycle {g!r} must be single digits; separate multi-digit or negative entries"
                )
            cycles.append([int(ch) for ch in g])
    return CyclePermutation(cycles)
