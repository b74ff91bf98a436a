"""Reduced words in free groups with numbered generators.

A word is stored as a tuple of nonzero integers: letter ``+j`` stands for the
generator ``x_j`` and ``-j`` for its inverse.  A word is *reduced* when no
letter sits next to its own inverse, i.e. the tuple never contains the
adjacent pair ``(a, -a)``.  Words do not carry a rank; operations that depend
on the number of generators take ``rank`` as an argument, which is either an
integer ``k >= 2`` or :data:`OMEGA` for countably many generators.

The module also provides the canonical enumeration of all reduced words (the
basis for the integer labeling of the Cayley tree) and the classification of
words into the 2k "first letter" classes that drive the decomposition of the
line: for each generator index ``j`` there is a plus class and a minus class,
and one distinguished index (the *special* one) absorbs the identity and the
pure positive powers of its generator into the minus class.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator, NamedTuple

#: Rank marker for the free group on countably many generators.
OMEGA = float("inf")

PLUS = 1
MINUS = -1

_CLASS_LETTERS = ("A", "B", "C", "D")


class RankError(ValueError):
    """Rank is not an integer >= 2 or OMEGA."""


class InvalidLetterError(ValueError):
    """A letter is zero, not an integer, or outside the rank context."""


class UnreducedWordError(ValueError):
    """A word that must already be reduced contains an adjacent inverse pair."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed one of its configured size budgets."""


def check_rank(rank) -> None:
    if rank == OMEGA:
        return
    if isinstance(rank, int) and rank >= 2:
        return
    raise RankError(f"rank must be an integer >= 2 or OMEGA, got {rank!r}")


def special_index(rank) -> int:
    """The generator index whose minus class absorbs the identity.

    For finite rank k the special index is k; for rank OMEGA it is 1.
    """
    check_rank(rank)
    return 1 if rank == OMEGA else rank


def _check_letter(a, rank=None) -> None:
    if not isinstance(a, int) or a == 0:
        raise InvalidLetterError(f"letter must be a nonzero integer, got {a!r}")
    if rank is not None and rank != OMEGA and abs(a) > rank:
        raise InvalidLetterError(f"letter {a} exceeds rank {rank}")


class Word:
    """An immutable reduced word.

    Supports ``u * v`` (multiplication with free reduction) and ``~u``
    (inversion).  The constructor rejects unreduced input; use :func:`reduce`
    to reduce an arbitrary letter sequence.
    """

    __slots__ = ("letters",)

    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int] = ()):
        tup = tuple(letters)
        for a in tup:
            _check_letter(a)
        for x, y in zip(tup, tup[1:]):
            if x == -y:
                raise UnreducedWordError(
                    f"adjacent inverse pair ({x}, {y}); use reduce() for raw sequences"
                )
        self.letters = tup

    @classmethod
    def _from_reduced(cls, letters: tuple[int, ...]) -> "Word":
        # Internal fast path: caller guarantees the tuple is already reduced.
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def __invert__(self) -> "Word":
        return invert(self)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def __str__(self) -> str:
        return format_word(self)


#: The empty word.
IDENTITY = Word()


def reduce(letters: Iterable[int], rank=None) -> Word:
    """Freely reduce a letter sequence.

    Cancellation is confluent, so the single left-to-right stack pass used
    here gives the same result as cancelling in any other order.
    """
    out: list[int] = []
    for a in letters:
        _check_letter(a, rank)
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return Word._from_reduced(tuple(out))


def multiply(u: Word, v: Word) -> Word:
    """Concatenate two reduced words and cancel across the boundary."""
    a = u.letters
    b = v.letters
    i = len(a)
    j = 0
    nb = len(b)
    while i > 0 and j < nb and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return Word._from_reduced(a[:i] + b[j:])


def invert(u: Word) -> Word:
    return Word._from_reduced(tuple(-a for a in reversed(u.letters)))


class WordClass(NamedTuple):
    """A class in the 2k-way partition: a generator pair and a side."""

    pair: int
    side: int  # PLUS or MINUS

    def label(self, rank) -> str:
        """Display name: A/B/C/D for rank 2, A_j/B_j otherwise."""
        if rank == 2:
            return _CLASS_LETTERS[2 * (self.pair - 1) + (0 if self.side == PLUS else 1)]
        return f"{'A' if self.side == PLUS else 'B'}_{self.pair}"


def classify_word(w: Word, rank) -> WordClass:
    """Assign a reduced word to exactly one of the 2k classes.

    For a non-special index j, membership is decided by the first letter
    alone.  For the special index s, the plus class additionally excludes the
    pure positive powers of ``x_s``, which land in the minus class together
    with the identity.
    """
    s = special_index(rank)
    letters = w.letters
    for a in letters:
        _check_letter(a, rank)
    return WordClass(*_classify_letters(letters, s))


def _classify_letters(letters: tuple[int, ...], s: int) -> tuple[int, int]:
    # Core of classify_word as a plain (pair, side) tuple, equal to the
    # WordClass, for letters known to be valid, such as a labeling decoder's;
    # s is the special index.
    if not letters:
        return (s, MINUS)
    first = letters[0]
    j = abs(first)
    if j != s:
        return (j, PLUS if first > 0 else MINUS)
    if first < 0 or letters.count(first) == len(letters):
        return (s, MINUS)
    return (s, PLUS)


# ---------------------------------------------------------------------------
# Canonical enumeration.
#
# Letters are ordered x_1 < x_1^-1 < x_2 < x_2^-1 < ...  For finite rank the
# words are enumerated by (length, lexicographic).  For rank OMEGA that order
# has no first word of length 2, so words are grouped into finite buckets by
# weight(w) = len(w) + sum of generator indices, buckets in increasing weight,
# and (length, lexicographic) inside each bucket.  Both schemes are
# prefix-stable: enumerating more words never reorders earlier ones, and one
# odometer step per word walks both (_words_from).
# ---------------------------------------------------------------------------


def ordered_letters(k: int) -> list[int]:
    return [s for j in range(1, k + 1) for s in (j, -j)]


def word_weight(letters: Iterable[int]) -> int:
    total = 0
    n = 0
    for a in letters:
        total += abs(a)
        n += 1
    return total + n


def _words_from(rank, letters: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """``letters`` and every reduced word after it in the rank's order.

    Each word is the successor of the one before, stepped like a
    mixed-radix odometer whose digits run through the letters in canonical
    order and skip the inverse of the digit to their left (Knuth, TAOCP 4A,
    7.2.1.1).  A digit's index is capped by k at finite rank.  Rank OMEGA
    holds the weight fixed, so there the cap is the index sum the digits
    from it on must spend, less one for each later digit, and the last
    digit only steps from x_j to X_j.  The last digit runs through a range
    of indices between carries, so a step changes O(1) digits on average
    and the walk holds nothing that grows with the rank.
    """
    finite = rank != OMEGA
    word = list(letters)
    if not word:
        yield ()
        word = [1]
    while True:
        head = tuple(word[:-1])
        left = word[-2] if head else 0
        skip = abs(left)  # only the left letter itself may follow at its index
        a = word[-1]
        first = abs(a)
        if a < 0:
            yield head + (a,)
            first += 1
        for i in range(first, (rank if finite else abs(a)) + 1):
            if i == skip:
                yield head + (left,)
            else:
                yield head + (i,)
                yield head + (-i,)
        length = len(word)
        suffix = abs(a)  # index sum of word[i:]; at OMEGA the last run kept the index
        for i in range(length - 2, -1, -1):
            a = word[i]
            suffix += abs(a)
            b = -a if a > 0 else 1 - a
            if i and b == -word[i - 1]:
                b = -b if b > 0 else 1 - b
            # At OMEGA each of the length - 1 - i later digits spends one index.
            if abs(b) <= (rank if finite else suffix + i + 1 - length):
                # The smallest completion: x1 ... x1 x_j, or X1 ... after X1,
                # with j = 1 at finite rank and spending the index sum at OMEGA.
                tail = length - 1 - i
                word[i:] = [b] + [-1 if b == -1 else 1] * tail
                if not finite:
                    j = suffix - abs(b) - tail + 1
                    word[-1] = -j if word[-2] == -j else j
                break
        else:
            # Past the last word of its length: x1^(L+1) at finite rank; at
            # OMEGA the bucket's next length, x1 ... x1 x_j, or x_W, which
            # opens weight W + 1.
            weight = suffix + length
            if finite:
                word = [1] * (length + 1)
            elif 2 * (length + 1) <= weight:
                word = [1] * length + [weight - 2 * length - 1]
            else:
                word = [weight]


def iter_words(rank) -> Iterator[Word]:
    """Yield every reduced word exactly once, in canonical order."""
    check_rank(rank)
    for letters in _words_from(rank, ()):
        yield Word._from_reduced(letters)


def enumerate_words(rank, count: int) -> list[Word]:
    """The first ``count`` words of the canonical enumeration."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return list(itertools.islice(iter_words(rank), count))


# ---------------------------------------------------------------------------
# Text form.  Tokens are x<j> / X<j> with an optional ^<m> exponent; a
# negative exponent flips the letter.  g, G, h, H abbreviate x1, X1, x2, X2.
# The empty word prints as "e".  Canonical output collapses runs: "x1^3 X2".
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(?:([xX])([0-9]+)|([gGhH]))(?:\^(-?[0-9]+))?$")
_ALIAS = {"g": 1, "G": -1, "h": 2, "H": -2}


class WordSyntaxError(ValueError):
    """Unparseable word text."""


#: Most letters a word text may spell out before reduction, exponents
#: expanded; longer texts raise BudgetExceededError before any run is built.
MAX_WORD_LETTERS = 100_000


def parse_word(text: str, rank=None) -> Word:
    """Parse the textual word grammar; the result is reduced."""
    letters: list[int] = []
    for tok in text.split():
        if tok == "e":
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise WordSyntaxError(f"bad token {tok!r}")
        if m.group(3):
            a = _ALIAS[m.group(3)]
        else:
            a = int(m.group(2))
            if a == 0:
                raise WordSyntaxError(f"generator index must be >= 1: {tok!r}")
            if m.group(1) == "X":
                a = -a
        exp = int(m.group(4)) if m.group(4) is not None else 1
        if exp == 0:
            raise WordSyntaxError(f"exponent must be nonzero: {tok!r}")
        if exp < 0:
            a = -a
            exp = -exp
        if len(letters) + exp > MAX_WORD_LETTERS:
            raise BudgetExceededError(
                f"the word spells more letters than the limit of {MAX_WORD_LETTERS}"
            )
        letters.extend([a] * exp)
    return reduce(letters, rank)


def _token(a: int, m: int) -> str:
    """The text of a run of m letters a."""
    tok = f"x{a}" if a > 0 else f"X{-a}"
    return tok if m == 1 else f"{tok}^{m}"


def _runs(letters: tuple[int, ...]) -> tuple[list[str], int, int]:
    """The tokens of every run of ``letters`` but the last, then the last
    run's letter and length (0 and 0 if there is none)."""
    parts, run, m = [], 0, 0
    for a in letters:
        if a == run:
            m += 1
            continue
        if m:  # _token inlined: a call per run slows format_word by a fifth
            tok = f"x{run}" if run > 0 else f"X{-run}"
            parts.append(tok if m == 1 else f"{tok}^{m}")
        run, m = a, 1
    return parts, run, m


def format_word(w: Word) -> str:
    """Canonical text for a word; inverse of :func:`parse_word` on outputs."""
    parts, run, m = _runs(w.letters)
    parts.append(_token(run, m) if m else "e")
    return " ".join(parts)


def _format_words(words: Iterable[tuple[int, ...]]) -> Iterator[str]:
    """:func:`format_word` of each letter tuple.  A head, all letters but the
    last, is formatted once while the words that follow share it, as an
    odometer's words do while their last letter steps."""
    head = None
    for letters in words:
        if letters[:-1] != head:
            head = letters[:-1]
            parts, run, m = _runs(head)
            text = " ".join(parts + [""])  # the earlier runs, each with a space
            longer = text + _token(run, m + 1)  # a last letter that lengthens the run
            before = text + _token(run, m) + " " if m else ""
        a = letters[-1] if letters else None
        yield "e" if a is None else longer if a == run else before + _token(a, 1)
