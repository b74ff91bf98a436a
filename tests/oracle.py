"""Brute-force reference implementations, independent of the package.

Everything here is computed the slow, direct way: exhaustive generation with
itertools plus explicit sorting by the defining order, and cancellation by
repeatedly deleting one adjacent inverse pair.  Tests pin the package against
these.
"""

import functools
import itertools


def oracle_reduce(seq):
    """Cancel adjacent inverse pairs one at a time until none remain."""
    word = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i : i + 2]
                changed = True
                break
    return tuple(word)


def is_reduced(seq):
    return all(seq[i] != -seq[i + 1] for i in range(len(seq) - 1))


def letter_key(a):
    return (abs(a), 0 if a > 0 else 1)


def word_key(word):
    return (len(word), tuple(letter_key(a) for a in word))


def all_words(k, max_len):
    """All reduced words of length <= max_len over rank k, canonical order."""
    letters = [s for j in range(1, k + 1) for s in (j, -j)]
    found = [()]
    for length in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=length):
            if is_reduced(tup):
                found.append(tup)
    return sorted(found, key=word_key)


def omega_weight(word):
    return len(word) + sum(abs(a) for a in word)


def omega_words(max_weight):
    """All reduced words of weight <= max_weight, canonical bucket order."""
    found = [()]
    for length in range(1, max_weight // 2 + 1):
        # The other length - 1 letters have index >= 1 each, which caps this one.
        top = max_weight - 2 * length + 1
        letters = [s for j in range(1, top + 1) for s in (j, -j)]
        for tup in itertools.product(letters, repeat=length):
            if is_reduced(tup) and omega_weight(tup) <= max_weight:
                found.append(tup)
    return sorted(found, key=lambda w: (omega_weight(w), len(w), tuple(letter_key(a) for a in w)))


@functools.lru_cache(maxsize=None)
def tail_count(r, s, prev):
    """Reduced continuations of r letters with index sum s after a letter of
    index prev (0: no letter), counted by recursion on the next letter."""
    if r == 0:
        return 1 if s == 0 else 0
    return sum((1 if i == prev else 2) * tail_count(r - 1, s - i, i) for i in range(1, s - r + 2))


def zigzag_label(pos):
    if pos == 0:
        return 0
    return (pos + 1) // 2 if pos % 2 == 1 else -(pos // 2)


class LabelTable:
    """label <-> word lookup built from a brute-force enumeration."""

    def __init__(self, words):
        self.word_of = {}
        self.label_of = {}
        for pos, w in enumerate(words):
            lab = zigzag_label(pos)
            self.word_of[lab] = w
            self.label_of[w] = lab

    def apply(self, word, n):
        """Left-multiplication action on labels, all via brute-force pieces."""
        prod = oracle_reduce(tuple(word) + self.word_of[n])
        return self.label_of[prod]


def table(k, max_len):
    return LabelTable(all_words(k, max_len))


def classify(word, k):
    """First-letter classification; special pair is k (finite rank only)."""
    s = k
    if not word:
        return (s, -1)
    first = word[0]
    j = abs(first)
    if j != s:
        return (j, 1 if first > 0 else -1)
    if first < 0:
        return (s, -1)
    if set(word) == {s}:
        return (s, -1)
    return (s, 1)


def classify_omega(word):
    """Same rules with special pair 1."""
    if not word:
        return (1, -1)
    first = word[0]
    j = abs(first)
    if j != 1:
        return (j, 1 if first > 0 else -1)
    if first < 0:
        return (1, -1)
    if set(word) == {1}:
        return (1, -1)
    return (1, 1)
