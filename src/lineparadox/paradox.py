"""The paradoxical decomposition of the line, verified mechanically.

Each unit interval [n, n+1) inherits the class of the word labeling n, giving
2k classes for rank k.  For every generator pair j the plus class and the
rigid image of the minus class tile the line exactly once, so the single
partition reassembles into k full copies (countably many at rank OMEGA).
The verifiers below check this on finite windows by exhaustive sweep: the
partition check evaluates every class predicate independently on every
integer, and the reassembly check decides membership in the translated class
by pulling each integer back through the inverse generator.  Both run in one
pass over the window's words, which the labeling walks without caching.

Pulled-back membership is computed on the word itself, classifying
``x_j^-1 * w_n`` directly.  That equals classifying the integer image of the
inverse tree permutation, because label-of-word and word-of-label invert
each other; at rank OMEGA the word route also avoids materializing the
astronomically large integer labels of heavy words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .freegroup import (
    MINUS,
    OMEGA,
    PLUS,
    Word,
    WordClass,
    _classify_letters,
    _words_from,
    check_rank,
    classify_word,
    format_word,
    special_index,
)
from .labeling import (
    BudgetExceededError,
    VertexLabeling,
    _position_finite,
    _window_letters,
    _window_words,
    ball_vertex_count,
)
from .permutation import TreePermutation, _prefix_fixed
from .rigid import PiecewiseRigidMap, as_rational, floor_part


def rank_token(rank):
    """JSON-friendly rank value: the integer, or the string "omega"."""
    return "omega" if rank == OMEGA else rank


def _is_member(letters: tuple[int, ...], j: int, side: int, s: int) -> bool:
    """Class membership by the first-letter rules, evaluated standalone."""
    if j != s:
        return bool(letters) and letters[0] == (j if side == PLUS else -j)
    # letters.count(s) == len(letters): every letter is x_s.
    if side == PLUS:
        return bool(letters) and letters[0] == s and letters.count(s) != len(letters)
    return not letters or letters[0] == -s or letters.count(s) == len(letters)


def _classes(pairs: range) -> list[WordClass]:
    """The plus and minus class of each pair, in report order."""
    return [WordClass(j, side) for j in pairs for side in (PLUS, MINUS)]


@dataclass
class PartitionReport:
    window: tuple[int, int]
    rank: object
    counts: dict[str, int]
    violations: list[tuple[int, str]] = field(default_factory=list)

    @property
    def checked(self) -> int:
        return sum(self.counts.values())

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class ReassemblyReport:
    window: tuple[int, int]
    rank: object
    pairs: tuple[int, ...]
    covered: dict[int, int]
    violations: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class MeasureAuditReport:
    """Interval-count bookkeeping: classes sum to the window, each pair covers it."""

    window: tuple[int, int]
    rank: object
    interval_count: int
    counts: dict[str, int]
    coverage: dict[int, int]
    components_passed: bool

    @property
    def passed(self) -> bool:
        return (
            self.components_passed
            and sum(self.counts.values()) == self.interval_count
            and all(c == self.interval_count for c in self.coverage.values())
        )


@dataclass
class FreeActionReport:
    window: tuple[int, int]
    max_length: int
    words_checked: int
    fixed_point_violations: list[tuple[str, int]] = field(default_factory=list)
    distinct_actions: bool = True

    @property
    def passed(self) -> bool:
        return not self.fixed_point_violations and self.distinct_actions


class ParadoxInstance:
    """One rank's decomposition: labeling, generators, and verifiers."""

    def __init__(self, rank, labeling: VertexLabeling | None = None):
        check_rank(rank)
        if labeling is None:
            labeling = VertexLabeling(rank)
        elif labeling.rank != rank:
            raise ValueError("labeling rank does not match instance rank")
        self.rank = rank
        self.labeling = labeling

    @property
    def special(self) -> int:
        return special_index(self.rank)

    def generator(self, j: int) -> TreePermutation:
        self._check_pair(j)
        return TreePermutation(Word((j,)), self.labeling)

    def rigid_generator(self, j: int) -> PiecewiseRigidMap:
        return PiecewiseRigidMap(self.generator(j))

    def _check_pair(self, j: int) -> None:
        if j < 1 or (self.rank != OMEGA and j > self.rank):
            raise ValueError(f"generator index {j} out of range for rank {rank_token(self.rank)}")

    def pairs(self, pair_limit: int | None = None) -> range:
        """The generator pairs a finite sweep covers; OMEGA needs a limit."""
        if self.rank != OMEGA:
            return range(1, self.rank + 1)
        if pair_limit is None:
            raise ValueError("rank OMEGA sweeps need an explicit pair limit")
        if pair_limit < 1:
            raise ValueError(f"pair limit must be >= 1, got {pair_limit}")
        return range(1, pair_limit + 1)

    def class_names(self, pair_limit: int | None = None) -> list[str]:
        names = [c.label(self.rank) for c in _classes(self.pairs(pair_limit))]
        if self.rank == OMEGA:
            names.append("overflow")
        return names

    def classify_interval(self, n: int) -> WordClass:
        return classify_word(self.labeling.word_of_label(n), self.rank)

    def classify_point(self, x) -> WordClass:
        return self.classify_interval(floor_part(as_rational(x)))

    def classify_window(self, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...], WordClass]]:
        """``(n, letters, class)`` for n = lo, ..., hi, walked without the memo."""
        s = self.special
        for n, letters in enumerate(_window_letters(self.rank, lo, hi), lo):
            yield n, letters, WordClass(*_classify_letters(letters, s))

    def verify_partition(self, lo: int, hi: int, pair_limit: int | None = None) -> PartitionReport:
        """Every label in [lo, hi] must satisfy exactly one class predicate.

        All predicates are evaluated independently per integer, then
        cross-checked against the direct classifier.  At rank OMEGA, classes
        with pair index beyond the limit are tallied as "overflow"; the
        classification itself stays total.
        """
        return self._sweep(lo, hi, self.pairs(pair_limit), ())[0]

    def verify_reassembly(
        self, lo: int, hi: int, pairs: Iterable[int] | None = None
    ) -> ReassemblyReport:
        """For each pair j, each label lies in the plus class or in the rigid
        image of the minus class, never both and never neither."""
        pair_list = tuple(pairs) if pairs is not None else tuple(self.pairs())
        for j in pair_list:
            self._check_pair(j)
        return self._sweep(lo, hi, range(0), pair_list)[1]

    def measure_audit(self, lo: int, hi: int, pair_limit: int | None = None) -> MeasureAuditReport:
        pairs = self.pairs(pair_limit)
        part, reas = self._sweep(lo, hi, pairs, tuple(pairs))
        size = hi - lo + 1 if hi >= lo else 0
        return MeasureAuditReport(
            window=(lo, hi),
            rank=self.rank,
            interval_count=size,
            counts=part.counts,
            coverage=reas.covered,
            components_passed=part.passed and reas.passed,
        )

    def _sweep(
        self, lo: int, hi: int, classes: range, pulls: tuple[int, ...]
    ) -> tuple[PartitionReport, ReassemblyReport]:
        """One pass over the labels of [lo, hi] for both verifiers.

        The partition is checked over the pairs in ``classes`` (not at all
        when it is empty) and the reassembly over the pairs in ``pulls``.
        Labels arrive in the walker's order, so violations are sorted by n
        at the end: the lists read as an ascending sweep would emit them.
        """
        s = self.special
        omega = self.rank == OMEGA
        checks = _classes(classes)
        tally = dict.fromkeys(checks, 0)
        overflows = 0
        top = classes[-1] if checks else 0
        part_violations: list[tuple[int, str]] = []
        covered = {j: 0 for j in pulls}
        reas_violations: list[tuple[int, int, str]] = []
        for n, letters in _window_words(self.rank, lo, hi):
            if checks:
                hits = [c for c in checks if _is_member(letters, c[0], c[1], s)]
                overflow = omega and bool(letters) and abs(letters[0]) > top
                matched = len(hits) + overflow
                if matched != 1:
                    part_violations.append((n, f"matched {matched} classes"))
                else:
                    # Decoder-made letters are valid, so skip re-validation.
                    # The plain (pair, side) tuple equals its WordClass.
                    direct = _classify_letters(letters, s)
                    if overflow:
                        if direct[0] <= top:
                            part_violations.append((n, "overflow disagrees with classifier"))
                        else:
                            overflows += 1
                    elif direct != hits[0]:
                        direct = WordClass(*direct)
                        part_violations.append(
                            (n, f"predicate {hits[0]} disagrees with classifier {direct}")
                        )
                    else:
                        tally[direct] += 1
            for j in pulls:
                in_plus = _is_member(letters, j, PLUS, s)
                # Pull n back through the inverse generator at the word level.
                if letters and letters[0] == j:
                    pulled = letters[1:]
                else:
                    pulled = (-j,) + letters
                in_image = _is_member(pulled, j, MINUS, s)
                if in_plus and in_image:
                    reas_violations.append((j, n, "double-covered"))
                elif not in_plus and not in_image:
                    reas_violations.append((j, n, "uncovered"))
                else:
                    covered[j] += 1
        counts = {c.label(self.rank): tally[c] for c in checks}
        if omega and checks:
            counts["overflow"] = overflows
        # Stable sorts keep each label's reassembly violations in pair order.
        part_violations.sort(key=lambda v: v[0])
        reas_violations.sort(key=lambda v: v[1])
        return (
            PartitionReport((lo, hi), self.rank, counts, part_violations),
            ReassemblyReport((lo, hi), self.rank, pulls, covered, reas_violations),
        )

    def certify_free_action(
        self,
        max_length: int,
        lo: int,
        hi: int,
        word_budget: int = 1_000_000,
        pair_limit: int | None = None,
    ) -> FreeActionReport:
        """Check that every nonempty word up to the given length acts with no
        fixed point in the window, and that all those actions are distinct.

        The fixed-point certificate is exhaustive and exact on integers: a
        word fixes a window word only if it is ``p + inverse(p)`` for a prefix
        p of it, so each window word yields one candidate per prefix length,
        which is a violation if it is one of the checked words.  Violations
        come in enumeration order, then by ascending n.  Distinctness is
        witnessed on label 0: the action sends 0 to the label of the word
        itself, and the labeling is injective.
        """
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        k = self.rank if self.rank != OMEGA else self.pairs(pair_limit)[-1]
        total = ball_vertex_count(k, max_length) - 1
        if total > word_budget:
            raise BudgetExceededError(
                f"{total} words of length <= {max_length} exceed the budget of {word_budget}"
            )
        # The nonempty words up to max_length are the first total from x1 on.
        words = islice(_words_from(k, (1,)), total)
        images_of_zero = {self.labeling.label_of_word(Word._from_reduced(u)) for u in words}

        def rank_of(u: tuple[int, ...]) -> int | None:
            # Exactly the checked words: nonempty, reduced, short enough, within k.
            if 0 < len(u) <= max_length and max(map(abs, u)) <= k:
                if all(b != -a for a, b in zip(u, u[1:])):
                    return _position_finite(k, u)
            return None

        window = _window_letters(self.rank, lo, hi)
        return FreeActionReport(
            window=(lo, hi),
            max_length=max_length,
            words_checked=total,
            fixed_point_violations=[
                (format_word(Word._from_reduced(u)), lo + i)
                for u, i in _prefix_fixed(window, max_length // 2, rank_of)
            ],
            distinct_actions=len(images_of_zero) == total,
        )


def verification_summary(
    instance: ParadoxInstance,
    lo: int,
    hi: int,
    pair_limit: int | None = None,
    free_check: int | None = None,
    word_budget: int = 1_000_000,
) -> dict:
    """The combined verification record serialized by the command line."""
    pairs = instance.pairs(pair_limit)
    part, reas = instance._sweep(lo, hi, pairs, tuple(pairs))
    violations: list[dict] = []
    for n, reason in part.violations:
        violations.append({"kind": "partition", "pair": None, "n": n, "reason": reason})
    for j, n, reason in reas.violations:
        violations.append({"kind": "reassembly", "pair": j, "n": n, "reason": reason})
    summary = {
        "window": [lo, hi],
        "rank": rank_token(instance.rank),
        "counts": dict(part.counts),
        "coverage": {str(j): c for j, c in reas.covered.items()},
        "violations": violations,
        "pass": part.passed and reas.passed,
    }
    if free_check is not None:
        free = instance.certify_free_action(
            free_check, lo, hi, word_budget=word_budget, pair_limit=pair_limit
        )
        for word_text, n in free.fixed_point_violations:
            violations.append(
                {"kind": "free_action", "pair": None, "n": n, "reason": f"fixed by {word_text}"}
            )
        summary["free_action"] = {
            "max_length": free.max_length,
            "words_checked": free.words_checked,
            "distinct_actions": free.distinct_actions,
            "pass": free.passed,
        }
        summary["pass"] = summary["pass"] and free.passed
    return summary
