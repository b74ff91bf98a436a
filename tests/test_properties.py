"""Property tests of the integer-level certificates and of rank-omega labels.

The free-action certificate rests on the action being free (u fixes a label
only when u is the identity); the rigidity audit serves its evaluations from
integer image tables; rank-omega labels are counted from tables of
reduced-word counts and walked by a weight-bucket successor.  The first is
checked here on the tree action itself, the others on random inputs against
``tests/oracle.py``: the action of words on labels through a brute-force
label table, and reduced words counted by recursion.  The sweep judges one
word per type tau, which rests on every word of a type getting the same
verdict as the type's shortest word; that and the tree action being a
homomorphism are checked on random words too.  Cycle notation has one
canonical form, whatever rotation and order the cycles are written in.
"""

import functools
from itertools import islice

from hypothesis import given, settings, strategies as st

from lineparadox.freegroup import OMEGA, Word, _words_from, multiply
from lineparadox.labeling import (
    VertexLabeling,
    _column,
    _continuations,
    _letters_omega,
    _position_omega,
)
from lineparadox.paradox import _classes, _type_word, _verdict
from lineparadox.permutation import CyclePermutation, TreePermutation
from lineparadox.rigid import PiecewiseRigidMap, _image_tables, compose_maps, floor_part

import oracle

LAB2 = VertexLabeling(2)
LAB3 = VertexLabeling(3)


def reduced_words(k, max_size):
    letters = [s for j in range(1, k + 1) for s in (j, -j)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(oracle.oracle_reduce)


@given(u=reduced_words(3, 10), w=reduced_words(3, 10))
def test_tree_action_is_free(u, w):
    n = LAB3.label_of_word(Word(w))
    assert (TreePermutation(Word(u), LAB3).apply(n) == n) == (u == ())


@functools.lru_cache(maxsize=None)
def _table():
    # Every product below has at most 3 + 2 + 3 letters.
    return oracle.table(2, 8)


@settings(deadline=None)  # the first example builds the oracle table
@given(
    u=reduced_words(2, 3),
    v=reduced_words(2, 2),
    x=st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)
def test_table_served_evaluation_equals_eval(u, v, x):
    f = compose_maps(
        PiecewiseRigidMap(TreePermutation(Word(u), LAB2)),
        PiecewiseRigidMap(TreePermutation(Word(v), LAB2)),
    )
    image, preimage = _image_tables(f, -20, 21)
    n = floor_part(x)
    y = x + (image[n] - n)
    assert y == f.eval(x)
    assert y == _table().apply(oracle.oracle_reduce(u + v), n) + (x - n)
    m = floor_part(y)
    assert y + (preimage[m] - m) == f.eval_inverse(y) == x


# An example may grow the rank-omega count tables by many weights at once.
@settings(deadline=None)
@given(w=reduced_words(30, 8))
def test_omega_decode_inverts_encode(w):
    assert _letters_omega(_position_omega(w)) == w


@settings(deadline=None)
@given(pos=st.integers(0, 10**40))
def test_omega_successor_equals_next_decode(pos):
    walk = list(islice(_words_from(OMEGA, _letters_omega(pos)), 3))
    assert walk == [_letters_omega(pos + i) for i in range(3)]


@given(r=st.integers(0, 12), s=st.integers(0, 40), p=st.integers(1, 42))
def test_continuation_count_equals_recursive_count(r, s, p):
    for c in range(r + 1):
        _column(c, r + s - c)
    assert _continuations(r, s, p) == oracle.tail_count(r, s, p)


@st.composite
def same_key_words(draw, k, max_tail=6):
    """Two reduced words over k pairs with the same type tau, and the special
    index s the type is taken at (k for rank k, 1 for rank omega with pair
    limit k): the same first two letters and the same number of letters
    other than x_s, which fix tau."""
    s = k if draw(st.booleans()) else 1
    others = [a for j in range(1, k + 1) for a in (j, -j) if a != s]
    word = draw(reduced_words(k, 2))
    if len(word) < 2:
        return s, word, word  # no other word starts with all of it

    def tail(count):
        # count letters other than x_s after the first two, each after a
        # run of x_s that does not cancel the letter before it.
        letters = list(word)
        for i in range(count + 1):
            if letters[-1] != -s:
                letters += [s] * draw(st.integers(0, 3))
            if i < count:
                letters.append(draw(st.sampled_from([a for a in others if a != -letters[-1]])))
        return tuple(letters)

    count = draw(st.integers(0, max_tail))
    return s, tail(count), tail(count)


def _tau(letters, s):
    """tau(letters): the first two letters and whether every later one is x_s."""
    tail = letters[1:]
    return letters[:2], tail.count(s) == len(tail)


@settings(max_examples=300)
@given(k=st.integers(2, 4), words=st.data())
def test_verdict_depends_only_on_tau(k, words):
    s, u, w = words.draw(same_key_words(k))
    tau = _tau(u, s)
    assert _tau(w, s) == tau
    rep = _type_word(tau, s)
    assert _tau(rep, s) == tau
    # s == k is rank k; s == 1 is rank omega, with a pair limit that may
    # leave some letters of the words past it.
    top = None if s == k else words.draw(st.integers(1, k))
    pairs = tuple(range(1, (top or k) + 1))
    checks = _classes(pairs)
    verdict = _verdict(rep, s, checks, top, pairs)
    assert _verdict(u, s, checks, top, pairs) == verdict == _verdict(w, s, checks, top, pairs)


@given(
    k=st.sampled_from([2, 3, OMEGA]),
    data=st.data(),
    n=st.integers(-(10**12), 10**12),
)
def test_tree_map_of_product_is_product_of_maps(k, data, n):
    top = 4 if k == OMEGA else k
    u = Word(data.draw(reduced_words(top, 6)))
    v = Word(data.draw(reduced_words(top, 6)))
    lab = VertexLabeling(k)
    uv = TreePermutation(multiply(u, v), lab)
    assert uv.apply(n) == TreePermutation(u, lab).apply(TreePermutation(v, lab).apply(n))


@st.composite
def written_cycles(draw):
    """Disjoint cycles of 2 to 6 elements, each at a random rotation, in a
    random order, and the canonical form built from them by hand."""
    elements = draw(st.lists(st.integers(-50, 50), unique=True, max_size=30))
    cycles, rest = [], elements
    while len(rest) >= 2:
        size = draw(st.integers(2, min(6, len(rest))))
        cycles.append(tuple(rest[:size]))
        rest = rest[size:]
    canon, written = [], []
    for cyc in cycles:
        i, j = cyc.index(min(cyc)), draw(st.integers(0, len(cyc) - 1))
        canon.append(cyc[i:] + cyc[:i])
        written.append(cyc[j:] + cyc[:j])
    return draw(st.permutations(written)), tuple(sorted(canon))


@given(case=written_cycles())
def test_cycle_permutation_canonical_form(case):
    written, canon = case
    p = CyclePermutation(written)
    assert p.cycles == canon
    for cyc in written:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert p.apply(a) == b
