"""The paradoxical decomposition of the line, verified mechanically.

Each unit interval [n, n+1) inherits the class of the word labeling n, giving
2k classes for rank k.  For every generator pair j the plus class and the
rigid image of the minus class tile the line exactly once, so the single
partition reassembles into k full copies (countably many at rank OMEGA).
The verifiers below check this on finite windows by exhaustive sweep: the
partition check asks every class predicate about each label's word and
cross-checks the one class that admits it against the direct classifier,
and the reassembly check decides membership in the translated class by
pulling each word back through the inverse generator.

Every one of those questions reads only the type of the word w,

    tau(w) = (w[0], w[1] or none, all of w is x_s, all of w[1:] is x_s),

the first-letter structure of the classical free-group paradox (Tomkowicz
and Wagon, *The Banach-Tarski Paradox*, 2nd ed., 2016).  A class predicate,
the overflow test and the classifier read w[0] and whether w is a power of
x_s.  The pull-back of w through pair j is w[1:] when w starts with x_j and
x_j^-1 w otherwise; the minus-class predicate reads its first letter (w[1],
or x_j^-1) and whether it is a power of x_s, which for w[1:] is the last
entry of tau(w) and for x_j^-1 w is never so.  The third entry follows from
the others (w is a power of x_s when w[1:] is one and w[0] is x_s or
none), so the code writes tau(w) as (w[:2], all of w[1:] is x_s).

The sweep therefore reads the window only through its type runs: the runs
of consecutive positions whose words share tau, with the window's labels in
each, from one walk at every rank (``labeling._type_runs``).  In one pass
over the runs it judges one word per type, the first time a run of that
type arrives, and adds each run's labels to the partition tally its type's
verdict names; a failing run's labels are read off its positions in the
same pass.  So no word is decoded and memory stays flat in the window size
whether the sweep passes or fails.

Pulled-back membership is computed on the word itself, classifying
``x_j^-1 * w_n`` directly.  That equals classifying the integer image of the
inverse tree permutation, because label-of-word and word-of-label invert
each other; at rank OMEGA the word route also avoids materializing the
astronomically large integer labels of heavy words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
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
    special_index,
)
from .labeling import (
    BudgetExceededError,
    VertexLabeling,
    _labels_in,
    _position_finite,
    _position_omega,
    _type_runs,
    _window_words,
    bounded_ball_vertex_count,
)
from .permutation import TreePermutation
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


def _type_word(tau: tuple[tuple[int, ...], bool], s: int) -> tuple[int, ...]:
    """The shortest word of type tau.  Only a word that starts with a, x_s
    and has a later letter other than x_s needs a third letter: x_1, or x_2
    when x_s is x_1."""
    head, tail_power = tau
    if len(head) < 2 or (head[1] == s) == tail_power:
        return head
    return head + (2 if s == 1 else 1,)


#: The partition tally of words past the pair limit at rank OMEGA.
OVERFLOW = "overflow"

#: Most words ``certify_free_action`` (verify --free-check) may check by
#: default; more raise BudgetExceededError before any word is built.
WORD_BUDGET = 1_000_000


def _verdict(
    letters: tuple[int, ...],
    s: int,
    checks: list[WordClass],
    top: int | None,
    pulls: tuple[int, ...],
) -> tuple[WordClass | str | None, str | None, tuple[str | None, ...]]:
    """Everything the sweep concludes about one word.

    ``checks`` are the partition classes asked about the word (none: no
    partition check), ``top`` is the pair limit past which a word counts as
    overflow (None below rank OMEGA) and ``pulls`` the pairs the reassembly
    check pulls it back through.  Returns the partition tally the word
    lands in (a class, OVERFLOW, or None when it is a violation or nothing
    is checked), the partition violation's reason or None, and for each
    pull pair in order the reassembly violation's reason or None.
    """
    counted = reason = None
    if checks:
        hits = [c for c in checks if _is_member(letters, c[0], c[1], s)]
        overflow = top is not None and bool(letters) and abs(letters[0]) > top
        matched = len(hits) + overflow
        if matched != 1:
            reason = f"matched {matched} classes"
        else:
            # Decoder-made letters are valid, so skip re-validation.
            # The plain (pair, side) tuple equals its WordClass.
            direct = _classify_letters(letters, s)
            if overflow:
                if direct[0] <= top:
                    reason = "overflow disagrees with classifier"
                else:
                    counted = OVERFLOW
            elif direct != hits[0]:
                reason = f"predicate {hits[0]} disagrees with classifier {WordClass(*direct)}"
            else:
                counted = hits[0]
    pull_reasons = []
    for j in pulls:
        in_plus = _is_member(letters, j, PLUS, s)
        # Pull the word back through the inverse generator.
        if letters and letters[0] == j:
            pulled = letters[1:]
        else:
            pulled = (-j,) + letters
        in_image = _is_member(pulled, j, MINUS, s)
        if in_plus and in_image:
            pull_reasons.append("double-covered")
        elif not in_plus and not in_image:
            pull_reasons.append("uncovered")
        else:
            pull_reasons.append(None)
    return counted, reason, tuple(pull_reasons)


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
        """The generator pairs a sweep covers: all k at finite rank k, which
        ignores ``pair_limit``, and 1..pair_limit at OMEGA, which needs one."""
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
            names.append(OVERFLOW)
        return names

    def classify_interval(self, n: int) -> WordClass:
        return classify_word(self.labeling.word_of_label(n), self.rank)

    def classify_point(self, x) -> WordClass:
        return self.classify_interval(floor_part(as_rational(x)))

    def classify_window(self, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...], WordClass]]:
        """``(n, letters, class)`` for n = lo, ..., hi, in label order.

        The words come from ``labeling._window_words`` at flat memory; at
        rank OMEGA a window reaching past the weight limit raises before
        this returns, so before any row is yielded.
        """
        s = self.special
        return ((n, w, WordClass(*_classify_letters(w, s))) for n, w in _window_words(self.rank, lo, hi))

    def verify_partition(self, lo: int, hi: int, pair_limit: int | None = None) -> PartitionReport:
        """Every label in [lo, hi] must satisfy exactly one class predicate.

        All predicates are asked about each type of word in the window, then
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
        """Both verifiers over the labels of [lo, hi], judged once per type.

        The partition is checked over the pairs in ``classes`` (not at all
        when it is empty) and the reassembly over the pairs in ``pulls``.
        The runs of positions each type tau fills come from ``_type_runs``
        in one pass at any rank.  The first run of a type judges the
        ``_verdict`` of its shortest word (the module docstring says why one
        word speaks for its type), memoised for the type's later runs, and
        each run adds its labels to the partition tally that verdict names.
        A failing run's labels are listed from its positions in the same
        pass, with no word decoded, and each pair covers the labels it does
        not list.  Runs come in position order, so violations are sorted by
        n at the end and the lists read as an ascending sweep would emit
        them.
        """
        s = self.special
        checks = _classes(classes)
        top = classes[-1] if self.rank == OMEGA and checks else None
        verdicts: dict[tuple[tuple[int, ...], bool], tuple] = {}
        tally = dict.fromkeys(checks, 0)
        tally[OVERFLOW] = 0
        # Each pair covers every label but those it lists as violations.
        covered = dict.fromkeys(pulls, max(0, hi - lo + 1))
        part_violations: list[tuple[int, str]] = []
        reas_violations: list[tuple[int, int, str]] = []
        for t, p, q, n in _type_runs(self.rank, lo, hi):
            if t not in verdicts:
                verdicts[t] = _verdict(_type_word(t, s), s, checks, top, pulls)
            counted, reason, pull_reasons = verdicts[t]
            if counted is not None:
                tally[counted] += n
            if reason is None and not any(pull_reasons):
                continue
            for m in chain(*_labels_in(lo, hi, p, q)):
                if reason is not None:
                    part_violations.append((m, reason))
                for j, pull_reason in zip(pulls, pull_reasons):
                    if pull_reason is not None:
                        covered[j] -= 1
                        reas_violations.append((j, m, pull_reason))
        counts = {c.label(self.rank): tally[c] for c in checks}
        if top is not None:
            counts[OVERFLOW] = tally[OVERFLOW]
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
        word_budget: int = WORD_BUDGET,
        pair_limit: int | None = None,
    ) -> FreeActionReport:
        """Check that every nonempty word up to the given length acts with no
        fixed point in the window, and that all those actions are distinct.

        Fixed-point freeness follows from the words, with no window to scan:
        in a free group u * w = w forces u = e, and the checked words are the
        walk's words after the identity, so no checked word fixes any label
        and ``fixed_point_violations`` stays empty.  Distinctness is checked
        exhaustively, witnessed on label 0: the action sends 0 to the label
        of the word itself, and the labeling is injective.  At finite rank
        the i-th word must encode to position i; at rank OMEGA the positions
        go in a set.
        """
        if max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {max_length}")
        k = self.pairs(pair_limit)[-1]
        # The nonempty words fit the budget when the ball fits one more.
        count = bounded_ball_vertex_count(k, max_length, word_budget + 1)
        if count is None:
            raise BudgetExceededError(
                f"the words of length <= {max_length} exceed the budget of {word_budget}"
            )
        total = count - 1
        if total > word_budget:
            raise BudgetExceededError(
                f"{total} words of length <= {max_length} exceed the budget of {word_budget}"
            )
        # The nonempty words up to max_length are the first total from x1 on.
        words = islice(_words_from(k, (1,)), total)
        if self.rank == OMEGA:
            distinct = len({_position_omega(u) for u in words}) == total
        else:
            distinct = all(_position_finite(k, u) == i for i, u in enumerate(words, 1))
        return FreeActionReport(
            window=(lo, hi),
            max_length=max_length,
            words_checked=total,
            distinct_actions=distinct,
        )


def verification_summary(
    instance: ParadoxInstance,
    lo: int,
    hi: int,
    pair_limit: int | None = None,
    free_check: int | None = None,
    word_budget: int = WORD_BUDGET,
) -> dict:
    """The combined verification record serialized by the command line."""
    pairs = instance.pairs(pair_limit)
    if free_check is not None:
        # Certified first, so a free_check past the word budget skips the sweep.
        free = instance.certify_free_action(
            free_check, lo, hi, word_budget=word_budget, pair_limit=pair_limit
        )
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
        summary["free_action"] = {
            "max_length": free.max_length,
            "words_checked": free.words_checked,
            "distinct_actions": free.distinct_actions,
            "pass": free.passed,
        }
        summary["pass"] = summary["pass"] and free.passed
    return summary
