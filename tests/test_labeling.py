import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

from lineparadox import labeling
from lineparadox.freegroup import (
    IDENTITY,
    OMEGA,
    Word,
    _omega_words_from,
    _words_from,
    enumerate_words,
    multiply,
    ordered_letters,
    parse_word,
)
from lineparadox.labeling import (
    BallEntry,
    BudgetExceededError,
    CayleyBall,
    UnsupportedRankError,
    VertexLabeling,
    _continuations,
    _letters_finite,
    _letters_omega,
    _position_omega,
    _window_type_counts,
    _window_words,
    ball_vertex_count,
    bounded_ball_vertex_count,
    label_from_position,
    position_from_label,
)
from lineparadox.paradox import ParadoxInstance
from lineparadox.permutation import TreePermutation

import oracle


@pytest.fixture(scope="module")
def table2():
    return oracle.table(2, 8)


# --- zigzag ------------------------------------------------------------------


def test_zigzag_values():
    assert [label_from_position(p) for p in range(7)] == [0, 1, -1, 2, -2, 3, -3]
    assert position_from_label(0) == 0
    assert position_from_label(5) == 9
    assert position_from_label(-5) == 10


def test_zigzag_round_trip():
    for pos in range(5000):
        assert position_from_label(label_from_position(pos)) == pos
    for n in range(-2500, 2500):
        assert label_from_position(position_from_label(n)) == n


def test_zigzag_rejects_negative_position():
    with pytest.raises(ValueError):
        label_from_position(-1)


# --- the rank-2 table --------------------------------------------------------

_TABLE_RANK2 = {
    0: "e",
    1: "x1",
    -1: "X1",
    2: "x2",
    -2: "X2",
    3: "x1^2",
    -3: "x1 x2",
    4: "x1 X2",
    -4: "X1^2",
    5: "X1 x2",
    -5: "X1 X2",
    6: "x2 x1",
    -6: "x2 X1",
    7: "x2^2",
    -7: "X2 x1",
    8: "X2 X1",
    -8: "X2^2",
}


def test_rank2_table_frozen():
    decode = VertexLabeling(2)
    encode = VertexLabeling(2)  # separate instance so no cache echo
    for n, text in _TABLE_RANK2.items():
        w = parse_word(text)
        assert decode.word_of_label(n) == w
        assert encode.label_of_word(w) == n


def test_labels_match_oracle_rank2(table2):
    decode = VertexLabeling(2)
    encode = VertexLabeling(2)
    for n in range(-2000, 2001):
        letters = table2.word_of[n]
        assert decode.word_of_label(n).letters == letters
        assert encode.label_of_word(Word(letters)) == n


def test_labels_match_oracle_rank3():
    t = oracle.table(3, 4)
    decode = VertexLabeling(3)
    encode = VertexLabeling(3)
    for n in range(-450, 451):
        letters = t.word_of[n]
        assert decode.word_of_label(n).letters == letters
        assert encode.label_of_word(Word(letters)) == n


def test_labels_match_oracle_omega():
    words = oracle.omega_words(9)
    decode = VertexLabeling(OMEGA)
    encode = VertexLabeling(OMEGA)
    for pos, letters in enumerate(words):
        n = oracle.zigzag_label(pos)
        assert decode.word_of_label(n).letters == letters
        assert encode.label_of_word(Word(letters)) == n


def test_labeling_follows_enumeration():
    for rank in (2, 3, OMEGA):
        lab = VertexLabeling(rank)
        for pos, w in enumerate(enumerate_words(rank, 300)):
            assert lab.word_of_label(label_from_position(pos)) == w


def test_round_trip_large_windows():
    for rank, span in ((2, 2000), (3, 500), (5, 500), (OMEGA, 500)):
        decode = VertexLabeling(rank)
        encode = VertexLabeling(rank)
        for n in range(-span, span + 1):
            assert encode.label_of_word(decode.word_of_label(n)) == n


def test_round_trip_words_first():
    for rank in (2, OMEGA):
        decode = VertexLabeling(rank)
        encode = VertexLabeling(rank)
        for w in enumerate_words(rank, 2000):
            assert decode.word_of_label(encode.label_of_word(w)) == w


# --- window walker -----------------------------------------------------------


def _walk(k, pos, count):
    return list(islice(_words_from(k, _letters_finite(k, pos)), count))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_successor_walk_matches_decode(k):
    # From the identity, from offsets inside length blocks, and across every
    # block boundary up to length 6 (the last word of a length, then the
    # first of the next).
    starts = [(0, 3000), (123, 500), (4567, 500), (98765, 500)]
    for length in range(1, 7):
        starts.append((ball_vertex_count(k, length) - 3, 6))
    for pos, count in starts:
        expected = [_letters_finite(k, p) for p in range(pos, pos + count)]
        assert _walk(k, pos, count) == expected, (pos, count)


def test_successor_walk_matches_oracle_order():
    words = oracle.all_words(3, 5)
    assert _walk(3, 0, len(words)) == words


@pytest.mark.parametrize("lo, hi", [
    (-40, 40), (-5, 30), (-30, 5), (10**8, 10**8 + 50), (-60, -20), (7, 7), (0, 0), (5, 3),
])
def test_window_walk_visits_each_label_once(table2, lo, hi):
    lab = VertexLabeling(2)
    seen = list(_window_words(2, lo, hi))
    assert sorted(n for n, _ in seen) == list(range(lo, hi + 1))
    for n, letters in seen:
        expected = table2.word_of[n] if n in table2.word_of else lab.word_of_label(n).letters
        assert letters == expected


def _walked_type_counts(k, lo, hi):
    """The window's labels counted by (first two letters, every later letter
    is x_k) over the walk: the reference for the run tally."""
    return dict(Counter(
        (letters[:2], all(a == k for a in letters[1:])) for _, letters in _window_words(k, lo, hi)
    ))


def _run_boundary_labels(k, max_length):
    """Labels at the first and last position of every (a, c) run up to
    ``max_length`` letters, and at the positions next to them."""
    base = 2 * k - 1
    ends = {0, 1, 2 * k, 2 * k + 1}
    start, size = 2 * k + 1, 1
    for _ in range(2, max_length + 1):
        for _ in range(2 * k * base):
            ends.update((start, start + size - 1))
            start += size
        size *= base
    return sorted({label_from_position(p + d) for p in ends for d in (-1, 0, 1) if p + d >= 0})


_TYPE_COUNT_WINDOWS = [
    (-300, 300), (-5, 400), (-400, 5), (1, 500), (37, 1000), (-1000, -37), (-500, -1),
    (10**8, 10**8 + 300), (-(10**8) - 300, -(10**8)), (0, 0), (1, 1), (-1, -1), (7, 7),
    (-4, -4), (5, 3), (0, -1), (-1, 0), (0, 1),
]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_run_tally_equals_walked_type_counts(k):
    # The walk is the authority: fixed windows above, below and across 0,
    # single labels, empty windows, windows with ends on run and length
    # boundaries, and random windows.
    windows = list(_TYPE_COUNT_WINDOWS)
    ends = _run_boundary_labels(k, 4 if k < 4 else 3)
    windows += [(n, n) for n in ends]
    windows += list(zip(ends, ends[1:])) + list(zip(ends, ends[2:]))
    # Wide windows from every few ends keep the walks short.
    wide = ends[:: max(1, len(ends) // 40)]
    windows += [(-abs(n), abs(n)) for n in wide] + [(min(n, 0), max(n, 0)) for n in wide]
    rng = random.Random(4000 + k)
    for _ in range(75):
        reach = rng.choice([10, 100, 3000])
        lo = rng.randint(-reach, reach)
        windows.append((lo, lo + rng.randint(-2, reach)))
    for lo, hi in windows:
        assert _window_type_counts(k, lo, hi) == _walked_type_counts(k, lo, hi), (lo, hi)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_run_tally_sums_to_far_window(k):
    # No walk reaches this window: the tally must cover it exactly, and the
    # halves below and above 0 must add up to the whole.
    lo, hi = -(10**60), 10**60
    whole = _window_type_counts(k, lo, hi)
    assert sum(whole.values()) == hi - lo + 1
    below, above = _window_type_counts(k, lo, 0), _window_type_counts(k, 1, hi)
    assert whole == {t: below.get(t, 0) + above.get(t, 0) for t in below.keys() | above.keys()}


# --- rank omega counting and walking -----------------------------------------


def test_count_tables_match_recursive_count():
    labeling._grow_tables(40)
    for r in range(41):
        for s in range(41 - r):
            count = labeling._counts[r + s][r] if s >= r else 0
            assert count == oracle.tail_count(r, s, 0), (r, s)
            for prev in range(1, s + 2):
                assert _continuations(r, s, prev) == oracle.tail_count(r, s, prev), (r, s, prev)


def test_omega_successor_matches_oracle_order():
    words = oracle.omega_words(12)
    assert list(islice(_omega_words_from(()), len(words))) == words


def test_omega_successor_crosses_length_and_bucket_boundaries():
    # The last word of every length in every bucket up to weight 14, and the
    # words around it; the last word of a bucket steps to the next bucket.
    labeling._grow_tables(14)
    ends = []
    for weight in range(15):
        pos = labeling._starts[weight]
        for count in labeling._counts[weight]:
            pos += count
            ends.append(pos - 1)
    for end in ends:
        for pos in range(max(0, end - 2), end + 2):
            step = next(islice(_omega_words_from(_letters_omega(pos)), 1, None))
            assert step == _letters_omega(pos + 1), pos


@pytest.mark.parametrize("lo, hi", [
    (-300, 300), (-40, 250), (-250, 40), (-3000, -2800), (5000, 5100), (7, 7), (-4, -4), (0, 0),
    (5, 3),
])
def test_omega_window_walk_matches_decode(lo, hi):
    seen = sorted(_window_words(OMEGA, lo, hi))
    assert seen == [(n, _letters_omega(position_from_label(n))) for n in range(lo, hi + 1)]


def test_omega_weight_budget(monkeypatch):
    # Fresh tables, so the lowered limit is met while they grow.
    monkeypatch.setattr(labeling, "_counts", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 20)
    assert _position_omega((19,)) == labeling._starts[20]
    last = labeling._starts[21] - 1
    assert _letters_omega(last) == (-1,) * 10
    with pytest.raises(BudgetExceededError):
        _position_omega((20,))
    with pytest.raises(BudgetExceededError):
        _letters_omega(last + 1)
    with pytest.raises(BudgetExceededError):
        VertexLabeling(OMEGA).word_of_label(2**300)
    assert len(labeling._counts) == 21


def test_starts_bounded_by_powers_of_two():
    # Weight w holds (2**w + 2 * (-1)**w) / 3 signed letter sequences, reduced
    # or not, so fewer than 2**w words come before it.
    labeling._grow_tables(60)
    assert all(labeling._starts[w] <= 2**w for w in range(61))


def test_series_starts_equal_table_starts():
    labeling._grow_tables(60)
    assert list(islice(labeling._series_starts(), 62)) == labeling._starts[:62]


def test_position_past_weight_limit_refused_without_tables():
    # The first position past the weight limit has 237 bits, so 2**255 is
    # past it too; the series refuses both with no table grown, where a
    # bound of 2**257 grew the tables through weight 256 first.
    first = next(islice(labeling._series_starts(), labeling.MAX_OMEGA_WEIGHT + 1, None))
    assert first.bit_length() == 237
    grown = len(labeling._counts)
    for pos in (first, 2**255, 2**300):
        with pytest.raises(BudgetExceededError, match=f"weight {labeling.MAX_OMEGA_WEIGHT + 1}"):
            _letters_omega(pos)
    assert len(labeling._counts) == grown


def test_heavy_label_refused_before_tables_grow(monkeypatch):
    monkeypatch.setattr(labeling, "_counts", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 30)
    with pytest.raises(BudgetExceededError, match="weight 31"):
        _letters_omega(2**31)
    with pytest.raises(BudgetExceededError, match="weight 31"):
        VertexLabeling(OMEGA).word_of_label(2**300)
    assert len(labeling._counts) == 1


def test_label_of_word_checks_rank():
    lab = VertexLabeling(2)
    with pytest.raises(ValueError):
        lab.label_of_word(Word((3,)))


@pytest.mark.parametrize("rank", [2, OMEGA])
@pytest.mark.parametrize(
    "n", [2.5, float("inf"), float("nan"), Fraction(1, 2)], ids=["2.5", "inf", "nan", "1/2"]
)
def test_non_integer_labels_raise(rank, n):
    # Labels are integers: an infinite float used to loop forever at finite
    # rank, and 2.5 decoded to a word with a float letter.
    lab = VertexLabeling(rank)
    with pytest.raises(TypeError):
        lab.word_of_label(n)
    with pytest.raises(TypeError):
        TreePermutation(Word((1,)), lab).apply(n)
    with pytest.raises(TypeError):
        ParadoxInstance(rank).classify_interval(n)


def test_labeling_equality():
    assert VertexLabeling(2) == VertexLabeling(2)
    assert VertexLabeling(2) != VertexLabeling(3)
    assert hash(VertexLabeling(OMEGA)) == hash(VertexLabeling(OMEGA))


# --- connecting words --------------------------------------------------------


def test_connecting_word_examples():
    lab = VertexLabeling(2)
    assert lab.connecting_word(1, 3) == parse_word("x1")
    assert lab.connecting_word(2, 7) == parse_word("x2")
    assert lab.connecting_word(5, 5) == IDENTITY
    assert lab.connecting_word(0, -3) == parse_word("x1 x2")
    assert lab.connecting_word(-3, 0) == parse_word("X2 X1")


def test_connecting_word_moves_m_to_n():
    lab = VertexLabeling(2)
    for m in range(-200, 201):
        wm = lab.word_of_label(m)
        for n in range(-200, 201):
            u = lab.connecting_word(m, n)
            assert lab.label_of_word(multiply(u, wm)) == n


def test_connecting_word_is_unique_small(table2):
    # Among all words of moderate length, exactly one sends label m to
    # label n, and it is the one the labeling reports.
    lab = VertexLabeling(2)
    candidates = oracle.all_words(2, 6)
    for m in range(-8, 9):
        hits = {}
        for letters in candidates:
            target = table2.apply(letters, m)
            if -8 <= target <= 8:
                hits.setdefault(target, []).append(letters)
        for n in range(-8, 9):
            u = lab.connecting_word(m, n)
            close = [w for w in hits.get(n, []) if len(w) <= len(u) + 2]
            assert close == [u.letters]


# --- balls -------------------------------------------------------------------


def test_ball_vertex_count_matches_enumeration():
    for k in (2, 3):
        for r in range(5):
            assert ball_vertex_count(k, r) == len(oracle.all_words(k, r))


def test_ball_vertex_count_rejects_negative_radius():
    for k, radius in ((2, -1), (3, -1), (2, -7)):
        with pytest.raises(ValueError, match=f"radius must be nonnegative, got {radius}"):
            ball_vertex_count(k, radius)


def test_bounded_ball_vertex_count():
    # Exact wherever it answers; None only for balls above the limit.
    for k in (2, 3, 7):
        for limit in (-1, 0, 10, 10**5, 10**200):
            for radius in (0, 1, 2, 9, 20, 100, 300, 1000):
                bounded = bounded_ball_vertex_count(k, radius, limit)
                if bounded is None:
                    assert ball_vertex_count(k, radius) > limit
                else:
                    assert bounded == ball_vertex_count(k, radius)
    assert bounded_ball_vertex_count(2, 10**8, 10**6) is None
    assert bounded_ball_vertex_count(2, 20, 10**5) == ball_vertex_count(2, 20)
    with pytest.raises(ValueError):
        bounded_ball_vertex_count(2, -1, 10)


def test_ball_radius_zero_and_one():
    lab = VertexLabeling(2)
    b0 = lab.ball(0)
    assert isinstance(b0, CayleyBall)
    assert b0.labels() == [0]
    assert list(b0.edges()) == []

    b1 = lab.ball(1)
    assert b1.labels() == [0, 1, -1, 2, -2]
    assert len(list(b1.edges())) == 4


def test_ball_radius_two_structure():
    lab = VertexLabeling(2)
    ball = lab.ball(2)
    assert len(ball.entries) == 17
    edges = list(ball.edges())
    assert len(edges) == 16  # a tree: one fewer edge than vertices

    by_label = {e.label: e for e in ball.entries}
    for tail, head, j in edges:
        grown = multiply(Word((j,)), by_label[tail].word)
        assert by_label[head].word == grown

    for entry in ball.entries:
        assert isinstance(entry, BallEntry)
        for a, target in entry.neighbors.items():
            stepped = multiply(Word((a,)), entry.word)
            if target is None:
                assert len(stepped) > 2
            else:
                assert by_label[target].word == stepped


def _random_access_ball(k, radius):
    """The ball built by decoding each position and encoding each neighbour."""
    lab = VertexLabeling(k)
    entries = []
    for pos in range(ball_vertex_count(k, radius)):
        n = label_from_position(pos)
        w = lab.word_of_label(n)
        neighbors = {}
        for a in ordered_letters(k):
            v = multiply(Word((a,)), w)
            neighbors[a] = lab.label_of_word(v) if len(v) <= radius else None
        entries.append(BallEntry(n, w, neighbors))
    return CayleyBall(rank=k, radius=radius, entries=tuple(entries))


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("radius", range(5))
def test_ball_matches_random_access(k, radius):
    lab = VertexLabeling(k)
    ball = lab.ball(radius)
    expected = _random_access_ball(k, radius)
    assert ball.labels() == [label_from_position(p) for p in range(len(ball.entries))]
    assert ball == expected
    assert [list(e.neighbors) for e in ball.entries] == [ordered_letters(k)] * len(ball.entries)
    assert list(ball.edges()) == list(expected.edges())
    # The ball is built from its own table: its peak is the ball's own size,
    # and once the ball is dropped nothing of it stays, in the labeling or
    # anywhere else.
    del ball
    peak, retained = _traced_peak(lambda: lab.ball(radius))
    assert peak < 1_000 * len(expected.entries) + 50_000
    assert retained < 10_000
    assert vars(lab) == {"rank": k}


def _traced_peak(fn) -> tuple[int, int]:
    """Peak traced bytes while ``fn()`` runs, and the bytes still held once
    its result is dropped."""
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def test_random_access_memory_stays_flat():
    # A labeling holds only its rank, so 10**5 round trips on one instance
    # peak at the size of one word, not of every word visited.
    lab = VertexLabeling(2)

    def round_trips():
        for n in range(-50_000, 50_000):
            assert lab.label_of_word(lab.word_of_label(n)) == n

    peak, retained = _traced_peak(round_trips)
    assert peak < 100_000
    assert retained < 10_000
    assert vars(lab) == {"rank": 2}


def test_ball_rejects_omega_and_negative_radius():
    with pytest.raises(UnsupportedRankError):
        VertexLabeling(OMEGA).ball(1)
    with pytest.raises(ValueError):
        VertexLabeling(2).ball(-1)
