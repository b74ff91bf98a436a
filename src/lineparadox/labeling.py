"""Bijective integer labeling of the vertices of a free group's Cayley tree.

Vertices are reduced words.  The canonical enumeration from
:mod:`.freegroup` assigns each word a position 0, 1, 2, ...; the zigzag

    position 0 -> label 0,   position 2n-1 -> label n (n >= 1),
    position 2n -> label -n (n >= 1)

then turns positions into labels covering all of the integers.  Both
directions are computed in closed form: for finite rank by counting shorter
words and lexicographic offsets in base 2k-1, for rank OMEGA from tables of
the number of reduced words of each length and weight, grown up to
:data:`MAX_OMEGA_WEIGHT`; the univariate growth series gives the weight of a
position before they grow, so heavier positions are refused at once.  A
labeling holds nothing but its rank: ``word_of_label`` and ``label_of_word``
compute every call afresh, so random access keeps no state between calls
and its memory stays flat however many labels it visits.  Window sweeps walk
the window's labels with :func:`_window_words`, which decodes one word and
steps a successor through the rest.  Cayley balls are built one sphere at
a time from the identity: each new word a * w is linked to w both ways as
it is made, so no label is encoded, decoded or looked up.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, Mapping

from .freegroup import (
    OMEGA,
    BudgetExceededError,
    Word,
    _omega_words_from,
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


def _letter_rank(a: int) -> int:
    return (abs(a) - 1) * 2 + (1 if a < 0 else 0)


def _letter_from_rank(d: int) -> int:
    j = d // 2 + 1
    return j if d % 2 == 0 else -j


def _position_finite(k: int, letters: tuple[int, ...]) -> int:
    length = len(letters)
    if length == 0:
        return 0
    base = 2 * k - 1
    pos = 1
    block = 2 * k
    for _ in range(1, length):
        pos += block
        block *= base
    r = _letter_rank(letters[0])
    for prev, cur in zip(letters, letters[1:]):
        d = _letter_rank(cur)
        if d > _letter_rank(-prev):
            d -= 1
        r = r * base + d
    return pos + r


def _letters_finite(k: int, pos: int) -> tuple[int, ...]:
    if pos == 0:
        return ()
    base = 2 * k - 1
    length = 1
    start = 1
    block = 2 * k
    while pos >= start + block:
        start += block
        block *= base
        length += 1
    r = pos - start
    weight = base ** (length - 1)
    d, r = divmod(r, weight)
    letters = [_letter_from_rank(d)]
    for _ in range(length - 1):
        weight //= base
        d, r = divmod(r, weight)
        if d >= _letter_rank(-letters[-1]):
            d += 1
        letters.append(_letter_from_rank(d))
    return tuple(letters)


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
#: decoding anything heavier raises BudgetExceededError.  The tables cost
#: about weight**3 steps to fill.
MAX_OMEGA_WEIGHT = 256

#: _counts[w][r] = N(r, w - r) for r <= w // 2, grown one weight at a time.
_counts: list[list[int]] = [[1]]
#: _starts[w]: the position of the first word of weight w.
_starts: list[int] = [0, 1]


def _continuations(r: int, s: int, p: int) -> int:
    """T(r, s, p) for p >= 1, as the alternating sum of table reads."""
    total = 0
    sign = 1
    while s >= r >= 0:  # once s < r every later term is 0 too
        total += sign * _counts[r + s][r]
        r, s, sign = r - 1, s - p, -sign
    return total


def _grow_tables(weight: int) -> None:
    """Fill the count tables through ``weight``; the one place they grow."""
    if weight > MAX_OMEGA_WEIGHT:
        raise BudgetExceededError(
            f"rank omega weight {weight} exceeds the weight limit of {MAX_OMEGA_WEIGHT}"
        )
    while len(_counts) <= weight:
        w = len(_counts)
        row = [0] + [
            2 * sum(_continuations(r - 1, w - r - i, i) for i in range(1, w - 2 * r + 2))
            for r in range(1, w // 2 + 1)
        ]
        _counts.append(row)
        _starts.append(_starts[-1] + sum(row))


def _position_omega(letters: tuple[int, ...]) -> int:
    length = len(letters)
    weight = word_weight(letters)
    _grow_tables(weight)
    pos = _starts[weight] + sum(_counts[weight][1:length])
    srem = weight - length
    prev = 0
    for t, a in enumerate(letters):
        after = length - t - 1
        # Letters before a: both signs of each smaller index, then x_|a|
        # before X_|a|; the inverse of prev is never a candidate.
        for i in range(1, abs(a)):
            pos += (1 if i == abs(prev) else 2) * _continuations(after, srem - i, i)
        if a < 0 and prev != a:
            pos += _continuations(after, srem + a, -a)
        prev = a
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
    (-1)**(t/d - 1).  Term w costs O(w) integer steps, where a table row
    costs about w**3.
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


def _letters_omega(pos: int) -> tuple[int, ...]:
    if _starts[-1] <= pos:
        # The tables must grow.  The series finds the weight of pos first,
        # so a position past the weight limit is refused before any grows.
        starts = _series_starts()
        next(starts)
        weight = 0
        while weight <= MAX_OMEGA_WEIGHT and next(starts) <= pos:
            weight += 1
        _grow_tables(weight)
    weight = bisect_right(_starts, pos) - 1
    r = pos - _starts[weight]
    row = _counts[weight]
    length = 0
    while r >= row[length]:
        r -= row[length]
        length += 1
    letters: list[int] = []
    srem = weight - length
    prev = 0
    for t in range(length):
        after = length - t - 1
        i = 1
        while True:
            c = _continuations(after, srem - i, i)
            if i == abs(prev):
                # Only prev itself may follow prev with this index.
                if r < c:
                    a = prev
                    break
                r -= c
            elif r < c:
                a = i
                break
            elif r < 2 * c:
                a, r = -i, r - c
                break
            else:
                r -= 2 * c
            i += 1
        letters.append(a)
        prev = a
        srem -= i
    return tuple(letters)


# --- window sweeps: one decode, then successor steps -----------------------


def _window_words(rank, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield ``(label, letters)`` once for every label in [lo, hi].

    Only the walk's current word is held, so a sweep's memory stays flat in
    the window size.  The labels fill a run of positions: every position
    while the window holds both n and -n, then one parity.  The walk decodes
    the first position and steps the successor of its rank through the run,
    at most two steps per label, so labels come in position order.
    """
    if lo > hi:
        return iter(())
    m = min(-lo, hi)
    if m >= 0:
        # Positions 0..2m hold the labels 0, 1, -1, ..., m, -m.
        core = chain((0,), chain.from_iterable(zip(range(1, m + 1), range(-1, -m - 1, -1))))
        if hi > m:
            tail, skip = range(m + 1, hi + 1), 0  # odd positions from 2m + 1
        else:
            tail, skip = range(-m - 1, lo - 1, -1), 1  # even positions from 2m + 2
        first = 0
    else:
        core = ()
        tail, skip = (range(lo, hi + 1) if lo > 0 else range(hi, lo - 1, -1)), 0
        first = position_from_label(tail[0])
    if rank == OMEGA:
        words = _omega_words_from(_letters_omega(first))
    else:
        words = _words_from(rank, _letters_finite(rank, first))
    return chain(zip(core, words), zip(tail, islice(words, skip, None, 2)))


def _window_letters(rank, lo: int, hi: int) -> list[tuple[int, ...]]:
    """The letters of the labels lo, lo + 1, ..., hi, in label order."""
    out: list[tuple[int, ...]] = [()] * max(0, hi - lo + 1)
    for n, letters in _window_words(rank, lo, hi):
        out[n - lo] = letters
    return out


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
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        signed = ordered_letters(self.rank)
        # The ball is built one sphere at a time.  The words of length L + 1
        # are a * w for each letter a in order and each word w of length L
        # not starting with -a, in the (length, lex) order of w, which is
        # the enumeration's own order, so a counter gives every position.
        # Making a * w links it to w both ways: its -a neighbour is w, and
        # w's a neighbour is a * w; every other neighbour is one letter
        # longer, linked when its own sphere is built or None past the ball.
        blank = dict.fromkeys(signed)
        root = blank.copy()
        entries = [BallEntry(0, Word._from_reduced(()), root)]
        # The sphere's words, grouped by first letter (0 for the identity).
        sphere = {0: [((), 0, root)]}
        pos = 0
        for _ in range(radius):
            nxt = {}
            for a in signed:
                made = nxt[a] = []
                for first, words in sphere.items():
                    if first == -a:
                        continue
                    for w, label, neighbors in words:
                        pos += 1
                        child = (pos + 1) // 2 if pos % 2 else -(pos // 2)
                        letters = (a,) + w
                        around = blank.copy()
                        around[-a] = label
                        neighbors[a] = child
                        made.append((letters, child, around))
                        entries.append(BallEntry(child, Word._from_reduced(letters), around))
            sphere = nxt
        return CayleyBall(rank=self.rank, radius=radius, entries=tuple(entries))


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
    rank: int
    radius: int
    entries: tuple[BallEntry, ...]

    def labels(self) -> list[int]:
        return [e.label for e in self.entries]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each tree edge once as (tail label, head label, generator).

        The head is the image of the tail under left multiplication by the
        generator, so every edge appears exactly once with a positive letter.
        """
        for e in self.entries:
            for j in range(1, self.rank + 1):
                head = e.neighbors[j]
                if head is not None:
                    yield (e.label, head, j)
