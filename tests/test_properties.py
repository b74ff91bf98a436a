"""Property tests of the integer-level certificates and of rank-omega labels.

The free-action certificate rests on a prefix criterion (u fixes w exactly
when u = p + inverse(p) for a prefix p of w); the rigidity audit serves its
evaluations from integer image tables; rank-omega labels are counted from
tables of reduced-word counts and walked by a weight-bucket successor.  All
are checked here on random inputs against ``tests/oracle.py``: cancellation
by deleting inverse pairs, the action of words on labels through a
brute-force label table, and reduced words counted by recursion.
"""

import functools
from itertools import islice

from hypothesis import given, settings, strategies as st

from lineparadox.freegroup import Word, _omega_words_from
from lineparadox.labeling import (
    VertexLabeling,
    _continuations,
    _grow_tables,
    _letters_omega,
    _position_omega,
)
from lineparadox.permutation import TreePermutation, _prefix_fixed
from lineparadox.rigid import PiecewiseRigidMap, _image_tables, compose_maps, floor_part

import oracle

LAB2 = VertexLabeling(2)


def reduced_words(k, max_size):
    letters = [s for j in range(1, k + 1) for s in (j, -j)]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(oracle.oracle_reduce)


def _fixes(u, w):
    return _prefix_fixed([w], len(u) // 2, {u: 0}.get) == [(u, 0)]


@given(u=reduced_words(3, 10), w=reduced_words(3, 10))
def test_prefix_criterion_agrees_with_reduce_and_compare(u, w):
    assert _fixes(u, w) == (oracle.oracle_reduce(u + w) == w)
    assert _fixes(u, w) == (u == ())  # the action is free


@given(w=reduced_words(3, 12), data=st.data())
def test_prefix_products_fix_their_word(w, data):
    # The unreduced words p + inverse(p) are the ones the criterion reports.
    t = data.draw(st.integers(0, len(w)))
    u = w[:t] + tuple(-a for a in reversed(w[:t]))
    assert oracle.oracle_reduce(u + w) == w
    assert _fixes(u, w)


@functools.lru_cache(maxsize=None)
def _table():
    # Every product below has at most 3 + 2 + 3 letters.
    return oracle.table(2, 8)


@settings(deadline=None)  # the first example builds the oracle table
@given(
    u=reduced_words(2, 3),
    v=reduced_words(2, 2),
    collapse=st.booleans(),
    x=st.fractions(min_value=-20, max_value=20, max_denominator=10**6),
)
def test_table_served_evaluation_equals_eval(u, v, collapse, x):
    f = compose_maps(
        PiecewiseRigidMap(TreePermutation(Word(u), LAB2)),
        PiecewiseRigidMap(TreePermutation(Word(v), LAB2)),
        collapse=collapse,
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
    walk = list(islice(_omega_words_from(_letters_omega(pos)), 3))
    assert walk == [_letters_omega(pos + i) for i in range(3)]


@given(r=st.integers(0, 12), s=st.integers(0, 40), p=st.integers(1, 42))
def test_continuation_count_equals_recursive_count(r, s, p):
    _grow_tables(r + s)
    assert _continuations(r, s, p) == oracle.tail_count(r, s, p)
