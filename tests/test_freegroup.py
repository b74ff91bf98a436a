import itertools
import random

import pytest

from lineparadox.freegroup import (
    IDENTITY,
    MAX_WORD_LETTERS,
    MINUS,
    OMEGA,
    PLUS,
    BudgetExceededError,
    InvalidLetterError,
    RankError,
    UnreducedWordError,
    Word,
    WordClass,
    WordSyntaxError,
    _format_words,
    _words_from,
    check_rank,
    classify_word,
    enumerate_words,
    format_word,
    invert,
    iter_words,
    multiply,
    ordered_letters,
    parse_word,
    reduce,
    special_index,
    word_weight,
)

import oracle


def W(*letters):
    return Word(letters)


def random_word(rng, k, max_len):
    length = rng.randrange(0, max_len + 1)
    letters = []
    choices = ordered_letters(k)
    for _ in range(length):
        a = rng.choice(choices)
        while letters and a == -letters[-1]:
            a = rng.choice(choices)
        letters.append(a)
    return Word(letters)


# --- reduction ---------------------------------------------------------------


def test_reduce_examples():
    assert reduce([1, -1]) == IDENTITY
    assert reduce([1, 2, -2, 1]) == W(1, 1)
    assert reduce([2, -1, 1, 2]) == W(2, 2)
    assert reduce([]) == IDENTITY
    assert reduce([1, 2, -2, -1, 2]) == W(2)  # cascading cancellation


def test_reduce_rejects_bad_letters():
    with pytest.raises(InvalidLetterError):
        reduce([0])
    with pytest.raises(InvalidLetterError):
        reduce([1, 3], rank=2)
    reduce([1, 3], rank=3)
    reduce([1, 100], rank=OMEGA)


def test_word_constructor_requires_reduced():
    with pytest.raises(UnreducedWordError):
        Word((1, -1))
    with pytest.raises(InvalidLetterError):
        Word((0,))
    assert W(1, 1, -2).letters == (1, 1, -2)


def test_reduction_confluence_exhaustive():
    # Deleting any one adjacent inverse pair first never changes the result.
    letters = ordered_letters(2)
    for length in range(0, 9):
        for seq in itertools.product(letters, repeat=length):
            final = reduce(seq)
            for i in range(length - 1):
                if seq[i] == -seq[i + 1]:
                    assert reduce(seq[:i] + seq[i + 2 :]) == final
            assert final.letters == oracle.oracle_reduce(seq)


# --- group operations --------------------------------------------------------


def test_multiply_examples():
    assert multiply(W(1), W(-1)) == IDENTITY
    assert multiply(IDENTITY, W(2, 1)) == W(2, 1)
    assert multiply(W(2, 1), IDENTITY) == W(2, 1)
    assert multiply(W(1, 2), W(-2, -1, 2)) == W(2)
    assert W(1) * W(1) == W(1, 1)


def test_invert_examples():
    assert invert(IDENTITY) == IDENTITY
    assert invert(W(1, 2, -1)) == W(1, -2, -1)
    assert ~W(1, 1) == W(-1, -1)


def test_group_axioms_on_samples():
    rng = random.Random(7)
    for _ in range(1000):
        u = random_word(rng, 2, 10)
        v = random_word(rng, 2, 10)
        w = random_word(rng, 2, 10)
        assert (u * v) * w == u * (v * w)
        assert u * ~u == IDENTITY
        assert ~u * u == IDENTITY
        assert u * IDENTITY == u
        assert ~(u * v) == ~v * ~u


# --- rank and classification -------------------------------------------------


def test_rank_validation():
    check_rank(2)
    check_rank(17)
    check_rank(OMEGA)
    for bad in (1, 0, -3, 2.5, "2"):
        with pytest.raises(RankError):
            check_rank(bad)


def test_special_index():
    assert special_index(2) == 2
    assert special_index(5) == 5
    assert special_index(OMEGA) == 1


def test_classify_examples_rank2():
    assert classify_word(IDENTITY, 2) == WordClass(2, MINUS)  # D
    assert classify_word(W(2, 2), 2) == WordClass(2, MINUS)  # pure power: D
    assert classify_word(W(2), 2) == WordClass(2, MINUS)
    assert classify_word(W(2, 1), 2) == WordClass(2, PLUS)  # C
    assert classify_word(W(2, 2, 2, 1), 2) == WordClass(2, PLUS)
    assert classify_word(W(-2, 1), 2) == WordClass(2, MINUS)
    assert classify_word(W(-1, 2), 2) == WordClass(1, MINUS)  # B
    assert classify_word(W(1, -2), 2) == WordClass(1, PLUS)  # A


def test_classify_rank_context():
    with pytest.raises(InvalidLetterError):
        classify_word(W(3), 2)
    assert classify_word(W(3), OMEGA) == WordClass(3, PLUS)
    assert classify_word(W(-1), OMEGA) == WordClass(1, MINUS)
    assert classify_word(W(1, 1, 1), OMEGA) == WordClass(1, MINUS)  # special pair is 1
    assert classify_word(W(1, 2), OMEGA) == WordClass(1, PLUS)


def test_class_labels():
    assert WordClass(1, PLUS).label(2) == "A"
    assert WordClass(1, MINUS).label(2) == "B"
    assert WordClass(2, PLUS).label(2) == "C"
    assert WordClass(2, MINUS).label(2) == "D"
    assert WordClass(3, PLUS).label(5) == "A_3"
    assert WordClass(1, MINUS).label(OMEGA) == "B_1"


def test_classification_total_and_disjoint_exhaustive():
    words = oracle.all_words(2, 8)
    for letters in words:
        w = Word(letters)
        got = classify_word(w, 2)
        assert (got.pair, got.side) == oracle.classify(letters, 2)
        # the four defining predicates hold exactly once
        first = letters[0] if letters else 0
        in_a = first == 1
        in_b = first == -1
        in_c = first == 2 and any(a != 2 for a in letters)
        in_d = not letters or first == -2 or set(letters) == {2}
        assert [in_a, in_b, in_c, in_d].count(True) == 1
        assert [in_a, in_b, in_c, in_d].index(True) == 2 * (got.pair - 1) + (
            0 if got.side == PLUS else 1
        )


def test_left_translation_identities_exhaustive():
    # Every word is in the plus class or in the generator's image of the
    # minus class, never both: w in A xor x1^-1 w in B, same for the pair 2.
    for letters in oracle.all_words(2, 8):
        w = Word(letters)
        in_a = classify_word(w, 2) == WordClass(1, PLUS)
        shifted = classify_word(multiply(W(-1), w), 2) == WordClass(1, MINUS)
        assert in_a != shifted
        in_c = classify_word(w, 2) == WordClass(2, PLUS)
        shifted = classify_word(multiply(W(-2), w), 2) == WordClass(2, MINUS)
        assert in_c != shifted


# --- enumeration -------------------------------------------------------------


def test_enumerate_first_words_rank2():
    got = enumerate_words(2, 6)
    assert got == [IDENTITY, W(1), W(-1), W(2), W(-2), W(1, 1)]
    assert [w.letters for w in enumerate_words(2, 53)] == oracle.all_words(2, 3)


def test_enumerate_first_words_omega():
    got = enumerate_words(OMEGA, 9)
    assert got == [IDENTITY, W(1), W(-1), W(2), W(-2), W(3), W(-3), W(1, 1), W(-1, -1)]


def test_enumeration_matches_oracle_order():
    assert [w.letters for w in enumerate_words(2, 485)] == oracle.all_words(2, 5)
    assert [w.letters for w in enumerate_words(3, 187)] == oracle.all_words(3, 3)
    om = oracle.omega_words(9)
    assert [w.letters for w in enumerate_words(OMEGA, len(om))] == om


def test_enumeration_prefix_stable():
    for count in (1, 2, 10, 30):
        assert enumerate_words(2, count) == enumerate_words(2, count + 7)[:count]
        assert enumerate_words(OMEGA, count) == enumerate_words(OMEGA, count + 7)[:count]


def test_enumeration_injective_100k():
    for rank in (2, OMEGA):
        seen = set()
        for w in itertools.islice(iter_words(rank), 100_000):
            assert w.letters not in seen
            seen.add(w.letters)


def test_word_weight():
    assert word_weight(()) == 0
    assert word_weight((3,)) == 4
    assert word_weight((1, -1)) == 4  # weight ignores sign
    assert word_weight((1, 1)) == 4


# --- text grammar ------------------------------------------------------------


def test_parse_word_examples():
    assert parse_word("x1^3 X2") == W(1, 1, 1, -2)
    assert parse_word("e") == IDENTITY
    assert parse_word("") == IDENTITY
    assert parse_word("g h") == W(1, 2)
    assert parse_word("G H") == W(-1, -2)
    assert parse_word("x1^-2") == W(-1, -1)  # negative exponent flips
    assert parse_word("X2^-1") == W(2)
    assert parse_word("x1 X1 x2") == W(2)  # raw input reduces
    assert parse_word("x10^2") == W(10, 10)
    assert parse_word("G^-3") == W(1, 1, 1)  # aliases take exponents too
    assert parse_word("h^2") == W(2, 2)
    assert parse_word("H^-1") == W(2)


def test_parse_word_errors():
    for bad in ("x0", "q5", "x1^0", "x", "x1^", "1", "xx1"):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)
    with pytest.raises(InvalidLetterError):
        parse_word("x3", rank=2)
    # One grammar for x/X tokens and aliases: the index is checked before
    # the exponent, and anything else is a bad token.
    messages = {
        "x0": "generator index must be >= 1: 'x0'",
        "x0^0": "generator index must be >= 1: 'x0^0'",
        "x1^0": "exponent must be nonzero: 'x1^0'",
        "g^0": "exponent must be nonzero: 'g^0'",
    }
    for bad in ("g2", "gx1", "h^", "x", "x1^", "xx1"):
        messages[bad] = f"bad token {bad!r}"
    for bad, message in messages.items():
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(f"x1 {bad} x2")
        assert str(exc.value) == message


def test_parse_word_letter_budget():
    # The limit counts letters before reduction, exponents expanded.
    assert len(parse_word(f"x1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    assert parse_word(f"x1^{MAX_WORD_LETTERS // 2} X1^{MAX_WORD_LETTERS // 2}") == IDENTITY
    # Refused before the run is built: a list of 10**9 letters is never asked for.
    for text in (f"x1^{MAX_WORD_LETTERS + 1}", f"x2 g^-{MAX_WORD_LETTERS}", "x1^1000000000"):
        with pytest.raises(BudgetExceededError):
            parse_word(text)


def test_format_word_examples():
    assert format_word(IDENTITY) == "e"
    assert format_word(W(1, 1, 1, -2)) == "x1^3 X2"
    assert format_word(W(-2, -2)) == "X2^2"
    assert format_word(W(1, -2, 1)) == "x1 X2 x1"


@pytest.mark.parametrize("rank, count", [(2, 50_000), (3, 50_000), (7, 50_000), (OMEGA, 20_000)])
def test_format_words_matches_format_word(rank, count):
    words = list(itertools.islice(_words_from(rank, ()), count))
    assert list(_format_words(words)) == [format_word(Word._from_reduced(w)) for w in words]


def test_format_words_edge_cases():
    # The empty word, single letters, and last letters that extend the
    # head's final run, after a word with the same head and after none.
    words = [(), (1,), (-3,), (1, 1), (1, 1, 1), (1, 1, -2), (1, 1, 1),
             (2, -1, -1), (2, -1, -1, -1), (-2, -2, 3), ()]
    assert list(_format_words(words)) == [
        "e", "x1", "X3", "x1^2", "x1^3", "x1^2 X2", "x1^3",
        "x2 X1^2", "x2 X1^3", "X2^2 x3", "e",
    ]
    assert list(_format_words([])) == []


def test_format_parse_round_trip():
    for rank in (2, OMEGA):
        for w in enumerate_words(rank, 300):
            assert parse_word(format_word(w)) == w
