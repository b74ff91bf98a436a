"""Bijective integer labeling of the vertices of a free group's Cayley tree.

Vertices are reduced words.  The canonical enumeration from
:mod:`.freegroup` assigns each word a position 0, 1, 2, ...; the zigzag

    position 0 -> label 0,   position 2n-1 -> label n (n >= 1),
    position 2n -> label -n (n >= 1)

then turns positions into labels covering all of the integers.  Both
directions are computed in closed form.  For finite rank a word's letters
are the base-(2k-1) digits of its offset among the words of its length, each
the letter's rank among those that may follow the one before; shorter words
are counted in closed form, and over :data:`SPLIT_DIGITS` digits are joined
and split by halves, one multiply or divmod per cut, so the cost is
near-linear in the length.  For rank OMEGA it is computed by one
ordered-successor step (:func:`_omega_next`), shared by encode, decode
and the type runs, over counts of reduced words by length and index sum,
one column per length grown only as far as a request reads it, up to
:data:`MAX_OMEGA_WEIGHT`.  The univariate growth series places the weight
buckets and gives the weight of a position before any column grows, so
heavier positions are refused at once.  A labeling holds nothing but its
rank: ``word_of_label`` and ``label_of_word`` compute every call afresh, so
random access keeps no state between calls and its memory stays flat
however many labels it visits.  A window is read in one of two ways.  Its
type runs need no word decoded: the words that share a length and their
first two letters, and at rank OMEGA also a weight, fill one run of
consecutive positions, and the window's labels in a run are two ranges; one
walk serves both ranks and steps over the blocks that hold no such label
(:func:`_type_runs`, :func:`_labels_in`).
Its words come from :func:`_window_words` in label order: a walk decodes one
word and steps a successor through the rest, and the negative labels, which
fall as their positions rise, are walked in chunks that are reversed.  A
Cayley ball's labels are a contiguous range, so it is held as one neighbour
column per signed letter, indexed by label.  It is built one sphere at a
time from the identity, keeping only each sphere's labels: each new word
a * w is linked to w both ways in the columns as it is made, so no label is
encoded, decoded or looked up and no word is built.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Mapping

from .freegroup import (
    OMEGA,
    BudgetExceededError,
    Word,
    _words_from,
    check_rank,
    invert,
    multiply,
    ordered_letters,
    word_weight,
)


class UnsupportedRankError(ValueError):
    """Operation requires a finite rank."""


def label_from_position(pos: int) -> int:
    if pos < 0:
        raise ValueError(f"position must be nonnegative, got {pos}")
    if pos == 0:
        return 0
    return (pos + 1) // 2 if pos % 2 else -(pos // 2)


def position_from_label(n: int) -> int:
    if n == 0:
        return 0
    return 2 * n - 1 if n > 0 else -2 * n


# --- finite rank: digits in base 2k - 1 -------------------------------------
#
# x_i has rank 2i - 2 and X_i rank 2i - 1, so d ^ 1 is the rank of the
# inverse of the letter of rank d.  A letter's digit is its rank, less one
# when it comes after the inverse of the letter before it.

#: Digits joined or split one at a time; longer runs are cut in half.
SPLIT_DIGITS = 128


def _power(base: int, e: int, powers: dict[int, int]) -> int:
    """base**e, kept in ``powers`` for one encode or decode."""
    if e not in powers:
        powers[e] = base**e
    return powers[e]


def _join(digits: list[int], base: int, powers: dict[int, int]) -> int:
    """The number with these base-``base`` digits, most significant first."""
    n = len(digits)
    if n <= SPLIT_DIGITS:
        r = 0
        for d in digits:
            r = r * base + d
        return r
    h = n // 2
    high = _join(digits[:h], base, powers)
    return high * _power(base, n - h, powers) + _join(digits[h:], base, powers)


def _split(r: int, n: int, base: int, powers: dict[int, int]) -> list[int]:
    """The n base-``base`` digits of r, most significant first; the first
    takes all that lies above base**(n - 1)."""
    if n <= SPLIT_DIGITS:
        digits = []
        for _ in range(n - 1):
            r, d = divmod(r, base)
            digits.append(d)
        digits.append(r)
        digits.reverse()
        return digits
    h = n // 2
    high, low = divmod(r, _power(base, n - h, powers))
    return _split(high, h, base, powers) + _split(low, n - h, base, powers)


def _position_finite(k: int, letters: tuple[int, ...]) -> int:
    """The position of a reduced word at rank k.  The words shorter than L
    number b**(L-1) + 2 * (b**(L-2) + ... + 1) with b = 2k - 1, so the
    digits, plus 1 for the first and 2 for the rest, read in base b are the
    position."""
    skip = 2 * k  # no rank is ruled out before the first letter
    digits = []
    for a in letters:
        d = 2 * a - 2 if a > 0 else -2 * a - 1
        digits.append(d - (d > skip) + 2)
        skip = d ^ 1
    if digits:
        digits[0] -= 1
    return _join(digits, 2 * k - 1, {})


def _letters_finite(k: int, pos: int) -> tuple[int, ...]:
    """The reduced word at position ``pos`` at rank k.  Its length L has
    first = 1 + 2k(b**(L-1) - 1)/(b - 1) <= pos, with b = 2k - 1, that is
    b**(L-1) <= q < b**L for q = (pos - 1)(b - 1)/(2k) + 1 rounded down."""
    if pos == 0:
        return ()
    base = 2 * k - 1
    q = (pos - 1) * (base - 1) // (2 * k) + 1
    e = int(math.log(q, base))  # rounding can miss by one either way
    top = base**e
    while top > q:
        top //= base
        e -= 1
    while top * base <= q:
        top *= base
        e += 1
    first = 1 + 2 * k * (top - 1) // (base - 1)
    letters = []
    skip = 2 * k
    for d in _split(pos - first, e + 1, base, {}):
        d += d >= skip
        letters.append(~(d >> 1) if d & 1 else (d >> 1) + 1)
        skip = d ^ 1
    return tuple(letters)


def _labels_in(lo: int, hi: int, p: int, q: int) -> tuple[range, range]:
    """The labels of [lo, hi] at the positions p..q as two ranges, n > 0 at
    2n - 1 and n <= 0 at -2n.  Count one by ``stop - start`` clipped at 0:
    ``len`` raises OverflowError past ``sys.maxsize``."""
    return (
        range(max(lo, (p + 2) // 2), min(hi, (q + 1) // 2) + 1),
        range(max(lo, -(q // 2)), min(hi, -((p + 1) // 2)) + 1),
    )


def _count_in(lo: int, hi: int, p: int, q: int) -> int:
    """The number of labels of [lo, hi] at the positions p..q."""
    pos, neg = _labels_in(lo, hi, p, q)
    return max(0, pos.stop - pos.start) + max(0, neg.stop - neg.start)


# --- rank OMEGA: counting over weight buckets -------------------------------
#
# A reduced word of r letters and index sum s has weight r + s, so each
# weight bucket is finite.  N(r, s) counts the reduced words of r letters and
# index sum s; T(r, s, p) counts the reduced r-letter continuations with
# index sum s after a letter of index p.  Ruling out the inverse of that
# letter removes exactly the words that start with it, so
#     T(r, s, p) = N(r, s) - T(r - 1, s - p, p),
# and N(r, s) = 2 * sum over i of T(r - 1, s - i, i).

#: Heaviest rank-OMEGA word the count tables are grown for; encoding or
#: decoding anything heavier raises BudgetExceededError.  Filling every
#: column through weight w takes about w**3.5 steps, but a word of L letters
#: reads only the columns of at most L letters.
MAX_OMEGA_WEIGHT = 256

#: _cols[r][s] = N(r, s): the column of r-letter words, zero below s = r and
#: grown only as far as an encode or decode has read it.
_cols: list[list[int]] = [[1]]
#: _starts[w]: the position of the first word of weight w, read off the
#: growth series (:func:`_series_starts`).
_starts: list[int] = [0, 1]


def _check_weight(weight: int) -> None:
    if weight > MAX_OMEGA_WEIGHT:
        raise BudgetExceededError(
            f"rank omega weight {weight} exceeds the weight limit of {MAX_OMEGA_WEIGHT}"
        )


def _column(r: int, top: int) -> list[int]:
    """Column r of the count tables, grown through index sum ``top``.

    Unrolling T into N gives, with j >= 0 and i >= 1,

        N(r, t) = 2 * sum over j of (-1)**j * sum over i of
                  N(r - 1 - j, t - (j + 1) * i),

    and the sum over i is one strided slice of column r - 1 - j.  It reads
    column c no further than top - r + c, so a caller grows the columns of
    one weight w in order of length, column c through w - c.
    """
    if r == len(_cols):
        _cols.append([0] * r)
    col = _cols[r]
    for t in range(len(col), top + 1):
        total = 0
        for j in range(r):
            part = sum(_cols[r - 1 - j][t - j - 1 :: -j - 1])
            total += -part if j % 2 else part
        col.append(2 * total)
    return col


def _continuations(r: int, s: int, p: int) -> int:
    """T(r, s, p) for p >= 1, as the alternating sum of table reads."""
    total = 0
    sign = 1
    while s >= r >= 0:  # once s < r every later term is 0 too
        total += sign * _cols[r][s]
        r, s, sign = r - 1, s - p, -sign
    return total


def _omega_next(after: int, srem: int, prev: int, until: int = 0) -> Iterator[tuple[int, int]]:
    """``(a, count)`` for each letter a that may follow ``prev`` (0: none),
    in canonical order: by index, x_i before X_i, never the inverse of prev.
    ``count`` = T(after, srem - |a|, |a|) is the number of ways to finish a
    word from a on with ``after`` more letters and index sum srem in all.
    The letters stop before ``until`` (0: none), whose count is not read."""
    for i in range(1, srem - after + 1):
        count = None
        for a in (i, -i):
            if a == until:
                return
            if a != -prev:
                if count is None:
                    count = _continuations(after, srem - i, i)
                yield a, count


def _position_omega(letters: tuple[int, ...]) -> int:
    length = len(letters)
    weight = word_weight(letters)
    _check_weight(weight)
    _grow_starts(weight + 2)
    # The shorter words of the bucket come first.  Column 0 adds nothing
    # but grows first, since column 1 reads it.
    pos = _starts[weight] + sum(_column(r, weight - r)[weight - r] for r in range(length))
    srem = weight - length
    for t, (prev, a) in enumerate(zip((0,) + letters, letters)):
        for _, count in _omega_next(length - t - 1, srem, prev, a):
            pos += count
        srem -= abs(a)
    return pos


def _series_starts() -> Iterator[int]:
    """``_starts[0]``, ``_starts[1]``, ... read off the growth series alone.

    With x_i and its inverse weighing i + 1, the free product formula gives
    the growth series of the reduced words (de la Harpe, *Topics in
    Geometric Group Theory*, 2000)

        F(z) = 1 / (1 - 2 * sum over i >= 1 of z**(i+1) / (1 + z**(i+1))),

    so the number f[w] of words of weight w is the sum over t of
    g[t] * f[w - t], where g[t] = 2 * sum over the divisors d >= 2 of t of
    (-1)**(t/d - 1).  Term w costs O(w) integer steps, where the count
    columns of weight w cost about w**2.5.
    """
    f = [1]
    g = [0]
    start = 0
    while True:
        yield start
        start += f[-1]
        w = len(f)
        g.append(2 * sum((-1) ** (w // d - 1) for d in range(2, w + 1) if w % d == 0))
        f.append(sum(g[t] * f[w - t] for t in range(2, w + 1)))


def _grow_starts(count: int) -> None:
    """Extend ``_starts`` to ``count`` entries or more, at least doubling it
    so one weight at a time restarts the series O(log W) times, and never
    past weight MAX_OMEGA_WEIGHT + 1, whose first position is refused."""
    if len(_starts) < count:
        size = min(max(count, 2 * len(_starts)), MAX_OMEGA_WEIGHT + 2)
        _starts[:] = islice(_series_starts(), size)


def _starts_past(pos: int) -> None:
    """Extend ``_starts`` past ``pos`` from the series alone, so a position
    past the weight limit is refused before any column grows."""
    while _starts[-1] <= pos:
        if len(_starts) >= MAX_OMEGA_WEIGHT + 2:
            # Every word of weight up to the limit comes before pos.
            _check_weight(MAX_OMEGA_WEIGHT + 1)
        _grow_starts(len(_starts) + 1)


def _letters_omega(pos: int) -> tuple[int, ...]:
    _starts_past(pos)
    weight = bisect_right(_starts, pos) - 1
    r = pos - _starts[weight]
    length = 0
    while r >= (count := _column(length, weight - length)[weight - length]):
        r -= count
        length += 1
    letters: list[int] = []
    srem = weight - length
    prev = 0
    for t in range(length):
        for a, count in _omega_next(length - t - 1, srem, prev):
            if r < count:
                break
            r -= count
        letters.append(a)
        prev = a
        srem -= abs(a)
    return tuple(letters)


def _type_runs(rank, lo: int, hi: int) -> Iterator[tuple]:
    """The labels of [lo, hi] by the type of their words, with no word
    decoded: ``(tau, p, q, n)`` in position order for each run of positions
    p..q whose words share the type tau = (first two letters, whether every
    letter after the first is x_s) and hold n > 0 labels of the window, with
    s = k at finite rank k and s = 1 at rank OMEGA.

    The positions run through the lengths, at rank OMEGA within each weight
    bucket.  Within a length an ordered-successor step gives the first
    letters a in order with the size of each one's block of positions, and
    within a block the second letters c with the size of each one's run:
    at finite rank every letter that may follow starts (2k-1)**after words,
    and at rank OMEGA :func:`_omega_next` counts them.  Only a * x_s**(L-1)
    has every later letter x_s: it ends the (a, x_k) run at finite rank,
    and at rank OMEGA it is the whole (a, x_1) run when that run holds one
    word.  A bucket, length or first letter that holds no label of the
    window is stepped over by its size, so at rank OMEGA only the count
    columns the window's heaviest word needs grow.
    """
    if lo > hi:
        return
    top = max(position_from_label(lo), position_from_label(hi))
    if rank == OMEGA:
        _starts_past(top)
        s, follow = 1, _omega_next
    else:
        s, base = rank, 2 * rank - 1

        def follow(after: int, srem: int, prev: int) -> Iterator[tuple[int, int]]:
            count = base**after
            return ((a, count) for a in ordered_letters(rank) if a != -prev)

    def lengths() -> Iterator[tuple[int, int, int, int]]:
        # (first position, length, index sum, size) of each length's words
        # through the one holding top; finite rank reads no index sum.
        if rank != OMEGA:
            pos, length, size = 1, 1, 2 * rank
            while pos <= top:
                yield pos, length, 0, size
                pos, length, size = pos + size, length + 1, size * base
            return
        for weight in range(2, bisect_right(_starts, top)):
            pos = _starts[weight]
            if _count_in(lo, hi, pos, _starts[weight + 1] - 1):
                for length in range(weight // 2 + 1):  # column c reads c - 1
                    if pos > top:
                        return
                    size = _column(length, weight - length)[weight - length]
                    yield pos, length, weight - length, size
                    pos += size

    if lo <= 0 <= hi:
        yield ((), True), 0, 0, 1
    for pos, length, srem, size in lengths():
        if not _count_in(lo, hi, pos, pos + size - 1):
            continue
        for a, block in follow(length - 1, srem, 0):
            n = _count_in(lo, hi, pos, pos + block - 1)
            if n and length == 1:
                yield ((a,), True), pos, pos + block - 1, n
            elif n:
                p = pos
                for c, run in follow(length - 2, srem - abs(a), a):
                    # A block the window covers whole needs no intersections.
                    hit = run if n == block else _count_in(lo, hi, p, p + run - 1)
                    if hit:
                        q = p + run - 1
                        if c != s or rank == OMEGA and run > 1:
                            yield ((a, c), False), p, q, hit
                        else:  # a * x_s**(L-1) sits at q, inside the window or not
                            last = lo <= label_from_position(q) <= hi
                            if hit > last:
                                yield ((a, c), False), p, q - 1, hit - last
                            if last:
                                yield ((a, c), True), q, q, 1
                    p += run
            pos += block


# --- window walks: one decode, then successor steps ------------------------

#: Negative labels a window walk holds at once.
WINDOW_CHUNK = 4096


def _window_words(rank, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(label, letters)`` for n = lo, ..., hi, in label order.

    The labels of one sign fill every other position, so a walk decodes one
    word and steps the rank's successor two positions per label.  Positive
    labels rise with their positions and take one walk; negative labels
    fall, so they are walked WINDOW_CHUNK at a time and each chunk is
    reversed, and memory stays flat in the window size.  At rank OMEGA the
    window's heaviest end is weighed before this returns, so a window
    reaching past the weight limit raises before any word is yielded.
    """
    if rank == OMEGA and lo <= hi:
        _starts_past(max(position_from_label(lo), position_from_label(hi)))

    def every_other(first: int) -> Iterator[tuple[int, ...]]:
        letters = _letters_omega(first) if rank == OMEGA else _letters_finite(rank, first)
        yield from islice(_words_from(rank, letters), None, None, 2)

    top = min(hi, -1)
    below = (
        reversed(list(zip(range(b, a - 1, -1), every_other(-2 * b))))
        for a in range(lo, top + 1, WINDOW_CHUNK)
        for b in [min(top, a + WINDOW_CHUNK - 1)]
    )
    start = max(lo, 1)
    return chain(
        chain.from_iterable(below),
        [(0, ())] if lo <= 0 <= hi else [],
        zip(range(start, hi + 1), every_other(2 * start - 1)),
    )


class VertexLabeling:
    """The canonical label <-> word bijection for one rank.

    Two labelings of the same rank are the same function, so equality is by
    rank.  Both directions are closed forms, so an instance holds only its
    rank.
    """

    def __init__(self, rank):
        check_rank(rank)
        self.rank = rank

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexLabeling) and self.rank == other.rank

    def __hash__(self) -> int:
        return hash(("VertexLabeling", self.rank))

    def __repr__(self) -> str:
        r = "omega" if self.rank == OMEGA else self.rank
        return f"VertexLabeling(rank={r})"

    def word_of_label(self, n: int) -> Word:
        # Labels are integers: a float or Fraction raises TypeError here.
        pos = position_from_label(operator.index(n))
        if self.rank == OMEGA:
            return Word._from_reduced(_letters_omega(pos))
        return Word._from_reduced(_letters_finite(self.rank, pos))

    def label_of_word(self, w: Word) -> int:
        if self.rank == OMEGA:
            return label_from_position(_position_omega(w.letters))
        if any(abs(a) > self.rank for a in w.letters):
            raise ValueError(f"word {w} uses generators beyond rank {self.rank}")
        return label_from_position(_position_finite(self.rank, w.letters))

    def connecting_word(self, m: int, n: int) -> Word:
        """The unique reduced word whose tree action sends label m to label n."""
        return multiply(self.word_of_label(n), invert(self.word_of_label(m)))

    def ball(self, radius: int) -> "CayleyBall":
        if self.rank == OMEGA:
            raise UnsupportedRankError("Cayley balls are only materialized for finite rank")
        count = ball_vertex_count(self.rank, radius)
        lo = -(count // 2)
        signed = ordered_letters(self.rank)
        columns = {a: [None] * count for a in signed}
        # The ball is built one sphere at a time.  The words of length L + 1
        # are a * w for each letter a in order and each word w of length L
        # not starting with -a, in the (length, lex) order of w, which is
        # the enumeration's own order, so a counter gives every position.
        # Making a * w links it to w both ways: its -a neighbour is w, and
        # w's a neighbour is a * w; every other neighbour is one letter
        # longer, linked when its own sphere is built or None past the ball.
        # The sphere's labels, grouped by first letter (0 for the identity).
        sphere = {0: [0]}
        pos = 1
        for _ in range(radius):
            nxt = {}
            for a in signed:
                forth, back = columns[a], columns[-a]
                made = nxt[a] = []
                for first, labels in sphere.items():
                    if first == -a:
                        continue
                    kids = list(map(label_from_position, range(pos, pos + len(labels))))
                    pos += len(labels)
                    for label, child in zip(labels, kids):
                        forth[label - lo] = child
                        back[child - lo] = label
                    made += kids
            sphere = nxt
        return CayleyBall(rank=self.rank, radius=radius, columns=columns)


def ball_vertex_count(k: int, radius: int) -> int:
    """Number of reduced words of length <= radius over rank k."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if radius == 0:
        return 1
    return 1 + 2 * k * ((2 * k - 1) ** radius - 1) // (2 * k - 2)


def bounded_ball_vertex_count(k: int, radius: int, limit: int) -> int | None:
    """``ball_vertex_count(k, radius)``, or None when the radius alone shows
    that the ball holds more than ``limit`` vertices.

    With b the bit length of 2k - 1, (2k - 1)**radius is at least
    2**(radius * b / 2), so a radius whose radius * b is over twice the bits
    of ``limit`` (and over 512) needs more.  Its power, which could take
    minutes to form and have more digits than Python prints, is never formed.
    """
    if radius * (2 * k - 1).bit_length() > 2 * max(limit.bit_length(), 256):
        return None
    return ball_vertex_count(k, radius)


@dataclass(frozen=True)
class BallEntry:
    label: int
    word: Word
    #: Keyed by signed letter: a -> label of (letter a) * word, or None when
    #: that neighbor lies outside the ball.
    neighbors: Mapping[int, int | None]


@dataclass(frozen=True)
class CayleyBall:
    """The reduced words of length <= radius, with their neighbours.

    The ball's labels are exactly lo..-lo (``lo = -(vertices // 2)``), so
    each signed letter a has one column indexed by label: ``columns[a][n -
    lo]`` is the label of (letter a) * word(n), or None when that neighbour
    lies outside the ball.
    """

    rank: int
    radius: int
    columns: Mapping[int, list[int | None]]

    @property
    def lo(self) -> int:
        return -(len(self.columns[1]) // 2)

    def labels(self) -> list[int]:
        """Every label of the ball, in position order."""
        return list(map(label_from_position, range(len(self.columns[1]))))

    @property
    def entries(self) -> tuple[BallEntry, ...]:
        """One entry per vertex in position order, built afresh each call."""
        lo, columns = self.lo, self.columns
        return tuple(
            BallEntry(n, Word._from_reduced(letters), {a: col[n - lo] for a, col in columns.items()})
            for n, letters in zip(self.labels(), _words_from(self.rank, ()))
        )

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each tree edge once as (tail label, head label, generator).

        The head is the image of the tail under left multiplication by the
        generator, so every edge appears exactly once with a positive letter.
        Tails come in position order.
        """
        lo = self.lo
        gens = range(1, self.rank + 1)
        for n in self.labels():
            for j in gens:
                head = self.columns[j][n - lo]
                if head is not None:
                    yield (n, head, j)
