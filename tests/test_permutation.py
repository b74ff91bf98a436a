import random

import pytest

from lineparadox.freegroup import IDENTITY, OMEGA, Word, parse_word
from lineparadox.labeling import VertexLabeling
from lineparadox.permutation import (
    CycleError,
    CyclePermutation,
    LabelingMismatchError,
    TreePermutation,
    compose,
    fixed_points_in_window,
    parse_cycles,
)

import oracle


@pytest.fixture(scope="module")
def lab2():
    return VertexLabeling(2)


@pytest.fixture(scope="module")
def table2():
    return oracle.table(2, 8)


# --- cycle notation ----------------------------------------------------------


def test_parse_compact_digits():
    p = parse_cycles("(012534)")
    assert p.cycles == ((0, 1, 2, 5, 3, 4),)
    chain = {0: 1, 1: 2, 2: 5, 5: 3, 3: 4, 4: 0}
    for a, b in chain.items():
        assert p.apply(a) == b
    assert p.apply(7) == 7


def test_parse_separated_entries():
    p = parse_cycles("(10, -3, 4)")
    assert p.cycles == ((-3, 4, 10),)
    assert p.apply(10) == -3
    assert p.apply(-3) == 4
    assert p.apply(4) == 10


def test_parse_compact_is_digitwise():
    # without separators "(10)" means the transposition of 1 and 0
    p = parse_cycles("(10)")
    assert p.cycles == ((0, 1),)


def test_parse_multiple_groups():
    p = parse_cycles("(0 1)(4 5)")
    assert p.cycles == ((0, 1), (4, 5))
    assert p.apply(4) == 5


def test_parse_errors():
    for bad in ("", "0 1", "(1 2", "(1a)", "(-3)", "(1 2)(2 3)", "(1 1)"):
        with pytest.raises(CycleError):
            parse_cycles(bad)
    with pytest.raises(CycleError, match=r"^repeated element within cycle \(1, 1\)$"):
        parse_cycles("(1 1)")
    with pytest.raises(CycleError, match=r"^element 2 appears in two cycles$"):
        parse_cycles("(1 2)(2 3)")


def test_cycle_canonical_form():
    assert CyclePermutation([(2, 3, 1)]) == CyclePermutation([(1, 2, 3)])
    assert CyclePermutation([(2, 3, 1)]).cycles == ((1, 2, 3),)
    assert CyclePermutation([(5,)]).cycles == ()
    assert CyclePermutation([(5,)]) == CyclePermutation(())
    assert CyclePermutation([(5,)]).apply(5) == 5


def test_cycle_inverse():
    p = parse_cycles("(012534)")
    q = p.inverse()
    assert q.apply(3) == 5
    assert p.apply(5) == 3
    for n in range(-3, 9):
        assert q.apply(p.apply(n)) == n
    assert parse_cycles("(0 1 2)").inverse() == parse_cycles("(0 2 1)")


def test_cycle_compose():
    p = parse_cycles("(0 1)")
    q = parse_cycles("(1 2)")
    pq = compose(p, q)
    assert pq.cycles == ((0, 1, 2),)
    for n in range(-2, 5):
        assert pq.apply(n) == p.apply(q.apply(n))
    disjoint = compose(parse_cycles("(0 1)"), parse_cycles("(5 6)"))
    assert disjoint.cycles == ((0, 1), (5, 6))
    assert compose(p, p.inverse()) == CyclePermutation(())


def test_cycle_support():
    assert parse_cycles("(0 1)(4 5)").support == frozenset({0, 1, 4, 5})
    assert CyclePermutation(()).support == frozenset()


# --- tree permutations -------------------------------------------------------


def test_tree_generator_values(lab2):
    sigma = TreePermutation(parse_word("x1"), lab2)
    tau = TreePermutation(parse_word("x2"), lab2)
    assert sigma.apply(-1) == 0
    assert sigma.apply(0) == 1
    assert sigma.apply(1) == 3
    assert tau.apply(0) == 2
    assert tau.apply(2) == 7
    assert sigma(0) == 1  # __call__ alias


def test_tree_matches_oracle(lab2, table2):
    for letters in oracle.all_words(2, 2):
        perm = TreePermutation(Word(letters), lab2)
        for n in range(-50, 51):
            assert perm.apply(n) == table2.apply(letters, n)


def test_tree_compose_is_word_product(lab2):
    sigma = TreePermutation(parse_word("x1"), lab2)
    tau = TreePermutation(parse_word("x2"), lab2)
    st = compose(sigma, tau)
    assert isinstance(st, TreePermutation)
    assert st.word == parse_word("x1 x2")
    assert st.apply(0) == -3
    assert compose(sigma, sigma.inverse()).word == IDENTITY
    assert compose(sigma, sigma.inverse()).is_identity


def test_tree_inverse_round_trip(lab2):
    perm = TreePermutation(parse_word("x1 X2 x1"), lab2)
    inv = perm.inverse()
    assert inv.word == parse_word("X1 x2 X1")
    for n in range(-200, 201):
        assert inv.apply(perm.apply(n)) == n
        assert perm.apply(inv.apply(n)) == n


def test_tree_bijective_on_window(lab2):
    sigma = TreePermutation(parse_word("x1"), lab2)
    images = {sigma.apply(n) for n in range(-1000, 1001)}
    assert len(images) == 2001


def test_tree_single_letter_steps_length_by_one(lab2):
    for letter in (1, -1, 2, -2):
        perm = TreePermutation(Word((letter,)), lab2)
        for n in range(-300, 301):
            before = len(lab2.word_of_label(n))
            after = len(lab2.word_of_label(perm.apply(n)))
            assert abs(after - before) == 1


def test_homomorphism_on_samples(lab2, table2):
    rng = random.Random(11)
    words = oracle.all_words(2, 3)
    for _ in range(200):
        u = Word(rng.choice(words))
        v = Word(rng.choice(words))
        pu = TreePermutation(u, lab2)
        pv = TreePermutation(v, lab2)
        both = compose(pu, pv)
        for n in (-17, -2, 0, 1, 9, 40):
            assert both.apply(n) == pu.apply(pv.apply(n))


def test_tree_requires_matching_rank():
    with pytest.raises(LabelingMismatchError):
        TreePermutation(parse_word("x3"), VertexLabeling(2))
    a = TreePermutation(parse_word("x1"), VertexLabeling(2))
    b = TreePermutation(parse_word("x1"), VertexLabeling(3))
    with pytest.raises(LabelingMismatchError):
        compose(a, b)


def test_mixed_compose_rejected(lab2):
    tree = TreePermutation(parse_word("x1"), lab2)
    cyc = parse_cycles("(0 1)")
    with pytest.raises(TypeError):
        compose(tree, cyc)
    with pytest.raises(TypeError):
        compose(cyc, tree)


def test_tree_equality(lab2):
    a = TreePermutation(parse_word("x1 x2"), lab2)
    b = TreePermutation(parse_word("x1 x2"), VertexLabeling(2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != TreePermutation(parse_word("x2 x1"), lab2)


# --- fixed points ------------------------------------------------------------


def test_fixed_points_identity(lab2):
    ident = TreePermutation(IDENTITY, lab2)
    assert fixed_points_in_window(ident, -5, 5) == list(range(-5, 6))


def test_fixed_points_tree_actions_are_free(lab2):
    for text in ("x1", "X2", "x1 X2 x1", "x2^3", "x1 x2 X1 X2"):
        perm = TreePermutation(parse_word(text), lab2)
        assert fixed_points_in_window(perm, -500, 500) == []


@pytest.mark.parametrize("rank, k, length, lo, hi", [
    (2, 2, 2, -60, 60),
    (2, 2, 4, -40, 40),
    (3, 3, 3, -40, 40),
    (OMEGA, 3, 2, -30, 30),  # pair limit 3
])
def test_fixed_points_agree_with_apply(rank, k, length, lo, hi):
    # The word-level answer must match the honest definition on every window
    # entry; the identity is included, so there are fixed points to find.
    lab = VertexLabeling(rank)
    for letters in oracle.all_words(k, length):
        perm = TreePermutation(Word(letters), lab)
        direct = [n for n in range(lo, hi + 1) if perm.apply(n) == n]
        assert fixed_points_in_window(perm, lo, hi) == direct


def test_fixed_points_cycle():
    swap = parse_cycles("(0 1)")
    assert fixed_points_in_window(swap, -2, 2) == [-2, -1, 2]
    six = parse_cycles("(012534)")
    assert fixed_points_in_window(six, 0, 6) == [6]


def test_fixed_points_empty_window(lab2):
    assert fixed_points_in_window(parse_cycles("(0 1)"), 3, 1) == []
    assert fixed_points_in_window(TreePermutation(IDENTITY, lab2), 3, 1) == []
