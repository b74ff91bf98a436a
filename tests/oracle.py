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


def _letter_rank(a):
    return (abs(a) - 1) * 2 + (1 if a < 0 else 0)


def _letter_from_rank(d):
    j = d // 2 + 1
    return j if d % 2 == 0 else -j


def finite_position(k, letters):
    """Position of a reduced word at rank k, one letter at a time: the
    shorter words counted block by block, then the word's offset built in
    base 2k - 1 by one multiply-add per letter."""
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


def finite_letters(k, pos):
    """The reduced word at a position at rank k, one letter at a time: the
    length found block by block, then one divmod per letter."""
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


def cayley_dot(k, radius):
    """DOT text of the Cayley ball of this radius at rank k, from the
    definitions alone: every word of length <= radius under its zigzag
    label, the nodes sorted by label, then for each node in label order an
    edge x_j to the reduced x_j * w whenever that word lies in the ball."""
    words = all_words(k, radius)
    label_of = {w: zigzag_label(pos) for pos, w in enumerate(words)}
    nodes = sorted(words, key=label_of.get)
    lines = ["digraph cayley_ball {", "  node [shape=circle];"]
    lines += [f'  "{label_of[w]}";' for w in nodes]
    for w in nodes:
        for j in range(1, k + 1):
            head = oracle_reduce((j,) + w)
            if head in label_of:
                lines.append(f'  "{label_of[w]}" -> "{label_of[head]}" [label="x{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def member(word, j, side, s):
    """Membership in class (j, side) by the first-letter rules, written from
    their definition: the plus class of x_s leaves out the positive powers
    of x_s, which join the identity in its minus class."""
    power_of_s = bool(word) and set(word) == {s}
    if j != s:
        return bool(word) and word[0] == j * side
    if side == 1:
        return bool(word) and word[0] == s and not power_of_s
    return not word or word[0] == -s or power_of_s


def sweep(labeled_words, s, pairs, top=None):
    """Per-label reference for the partition and reassembly sweep.

    Every class predicate and every pull-back is evaluated on every label's
    word, in ascending label order.  ``labeled_words`` holds (n, word);
    ``pairs`` are checked by both verifiers; ``top`` is the pair limit at
    rank omega, past which a word counts as "overflow" (None at finite
    rank).  Returns the counts by (pair, side) and "overflow", the coverage
    by pair, and the partition and reassembly violations.
    """
    counts = {(j, side): 0 for j in pairs for side in (1, -1)}
    overflow = 0
    covered = dict.fromkeys(pairs, 0)
    part_violations, reas_violations = [], []
    for n, word in sorted(labeled_words):
        hits = [c for c in counts if member(word, c[0], c[1], s)]
        beyond = top is not None and bool(word) and abs(word[0]) > top
        if len(hits) + beyond != 1:
            part_violations.append((n, f"matched {len(hits) + beyond} classes"))
        elif beyond:
            overflow += 1
        elif hits[0] != classify(word, s):
            part_violations.append((n, "predicate disagrees with classifier"))
        else:
            counts[hits[0]] += 1
        for j in pairs:
            in_plus = member(word, j, 1, s)
            in_image = member(oracle_reduce((-j,) + word), j, -1, s)
            if in_plus == in_image:
                reas_violations.append((j, n, "double-covered" if in_plus else "uncovered"))
            else:
                covered[j] += 1
    if top is not None:
        counts["overflow"] = overflow
    return counts, covered, part_violations, reas_violations
