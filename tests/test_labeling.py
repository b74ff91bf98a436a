import gc
import random
import time
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
    _words_from,
    enumerate_words,
    multiply,
    ordered_letters,
    parse_word,
    word_weight,
)
from lineparadox.labeling import (
    BallEntry,
    BudgetExceededError,
    CayleyBall,
    UnsupportedRankError,
    VertexLabeling,
    _continuations,
    _labels_at,
    _labels_in,
    _letters_finite,
    _letters_omega,
    _position_finite,
    _position_omega,
    _type_runs,
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


def test_labels_at_matches_label_from_position():
    far = 10**30
    starts = [(p, range(13)) for p in range(41)]
    starts += [(p, (0, 1, 2, 5, 12)) for p in range(far - 3, far + 4)]
    for p, sizes in starts:
        for n in sizes:
            assert _labels_at(p, n) == [label_from_position(q) for q in range(p, p + n)], (p, n)


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


# --- finite-rank codec against the per-letter loops -------------------------


def _random_word(rng, k, length):
    word = []
    while len(word) < length:
        a = rng.choice([i for i in range(-k, k + 1) if i])
        if not word or a != -word[-1]:
            word.append(a)
    return tuple(word)


def _check_codec(k, word):
    pos = oracle.finite_position(k, word)
    assert _position_finite(k, word) == pos
    assert _letters_finite(k, pos) == word
    assert oracle.finite_letters(k, pos) == word


@pytest.mark.parametrize("k", [2, 3, 7])
def test_finite_codec_matches_per_letter_loops(k):
    rng = random.Random(k)
    for _ in range(400):
        _check_codec(k, _random_word(rng, k, rng.randrange(201)))


@pytest.mark.parametrize("k", [2, 3])
def test_finite_codec_matches_oracle_table(k):
    for pos, word in enumerate(oracle.all_words(k, 6)):
        assert _position_finite(k, word) == pos == oracle.finite_position(k, word)
        assert _letters_finite(k, pos) == word


@pytest.mark.parametrize("k", [2, 3, 7])
def test_finite_codec_at_the_split_threshold(k):
    rng = random.Random(100 + k)
    split = labeling.SPLIT_DIGITS
    for length in (split - 1, split, split + 1, 2 * split, 2 * split + 1, 5 * split + 3):
        for word in ((1,) * length, (-k,) * length, _random_word(rng, k, length)):
            _check_codec(k, word)
        # The first and last words of the length, and the last of the one before.
        first = ball_vertex_count(k, length - 1)
        for pos in (first - 1, first, ball_vertex_count(k, length) - 1):
            assert _position_finite(k, _letters_finite(k, pos)) == pos
            assert _letters_finite(k, pos) == oracle.finite_letters(k, pos)


def test_finite_codec_on_long_words():
    # x1**L is the first word of length L and X2**L the last, at rank 2.
    # The per-letter encode pins each position, so the decode is pinned too.
    cases = [
        ((1,) * 99_999, ball_vertex_count(2, 99_998)),
        ((-2,) * 50_000, ball_vertex_count(2, 50_000) - 1),
        (_random_word(random.Random(7), 2, 100_000), None),
    ]
    for word, closed_form in cases:
        pos = oracle.finite_position(2, word)
        assert closed_form in (None, pos)
        assert _position_finite(2, word) == pos
        assert _letters_finite(2, pos) == word


def test_finite_codec_is_near_linear_on_long_words():
    # The per-letter loops take seconds here; by halves it is a fraction of one.
    word = _random_word(random.Random(8), 2, 100_000)
    t0 = time.perf_counter()
    assert _letters_finite(2, _position_finite(2, word)) == word
    assert time.perf_counter() - t0 < 2.0


# --- window walker -----------------------------------------------------------


def _walk(k, pos, count):
    return list(islice(_words_from(k, _letters_finite(k, pos)), count))


@pytest.mark.parametrize("k", [2, 3, 5, 40])
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


def test_walk_holds_no_per_rank_table():
    # The letter steps are arithmetic, so the first words from x1 and from a
    # far position at rank 1000 hold nothing that grows with the rank.
    peak, _ = _traced_peak(lambda: (
        list(islice(_words_from(1000, (1,)), 3)),
        list(islice(_words_from(1000, _letters_finite(1000, 10**40)), 5)),
    ))
    assert peak < 1_000_000


def test_successor_walk_matches_oracle_order():
    words = oracle.all_words(3, 5)
    assert _walk(3, 0, len(words)) == words


@pytest.mark.parametrize("lo, hi", [
    (-40, 40), (-5, 30), (-30, 5), (10**8, 10**8 + 50), (-60, -20), (7, 7), (0, 0), (5, 3),
])
def test_window_walk_visits_each_label_once(table2, lo, hi):
    lab = VertexLabeling(2)
    seen = list(_window_words(2, lo, hi))
    assert [n for n, _ in seen] == list(range(lo, hi + 1))
    for n, letters in seen:
        expected = table2.word_of[n] if n in table2.word_of else lab.word_of_label(n).letters
        assert letters == expected


CHUNK = labeling.WINDOW_CHUNK


@pytest.mark.parametrize("rank", [2, 3, OMEGA])
@pytest.mark.parametrize("lo, hi", [
    (-2 * CHUNK - 7, 30),  # crosses 0 and two chunk boundaries below it
    (-3 * CHUNK, -1),  # ends exactly on chunk boundaries
    (-CHUNK - 100, -CHUNK - 1),  # wholly below -CHUNK
])
def test_window_walk_yields_label_order_across_chunks(rank, lo, hi):
    decode = _letters_omega if rank == OMEGA else (lambda pos: _letters_finite(rank, pos))
    seen = list(_window_words(rank, lo, hi))
    assert seen == [(n, decode(position_from_label(n))) for n in range(lo, hi + 1)]


def _walked_type_counts(rank, lo, hi):
    """The window's labels counted by (first two letters, every later letter
    is x_s) over the walk, with s = k at rank k and 1 at rank omega: the
    reference for the run tallies."""
    s = 1 if rank == OMEGA else rank
    return dict(Counter(
        (letters[:2], all(a == s for a in letters[1:])) for _, letters in _window_words(rank, lo, hi)
    ))


def _folded(runs):
    """The labels of a run generator counted by type."""
    counts = Counter()
    for tau, _, _, n in runs:
        counts[tau] += n
    return dict(counts)


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


def _wide_block_windows(k):
    """Windows whose ends fall inside first-letter blocks of words of length
    2 and 3, several blocks apart, on both sides of 0 and across it."""
    b = 2 * k - 1

    def mid(length, j):  # the middle position of block j of that length
        size = b ** (length - 1)
        return 1 + 2 * k * (size - 1) // (b - 1) + j * size + size // 2

    def up(p):  # the label > 0 at p or p - 1
        return (p + 1) // 2

    def down(p):  # the label <= 0 at p or p - 1
        return -(p // 2)

    far = mid(3, 2 * k - 3)
    return [
        (up(mid(2, 1)), up(mid(2, 2 * k - 2))), (down(mid(2, 2 * k - 1)), down(mid(2, 1))),
        (up(mid(2, k)), up(mid(3, 1))), (up(mid(3, 1)), up(mid(3, 3))),
        (down(mid(2, k)), up(mid(3, 0))), (down(mid(3, 2)), down(mid(2, 2 * k - 2))),
        (up(far), up(far) + 40), (down(far) - 40, down(far)),
    ]


_TYPE_COUNT_WINDOWS = [
    (-300, 300), (-5, 400), (-400, 5), (1, 500), (37, 1000), (-1000, -37), (-500, -1),
    (10**8, 10**8 + 300), (-(10**8) - 300, -(10**8)), (0, 0), (1, 1), (-1, -1), (7, 7),
    (-4, -4), (5, 3), (0, -1), (-1, 0), (0, 1),
]


@pytest.mark.parametrize(
    "k, max_length", [(2, 4), (3, 4), (4, 3), (5, 3), (40, 1)], ids=["2", "3", "4", "5", "40"]
)
def test_run_tally_equals_walked_type_counts(k, max_length):
    # The walk is the authority: fixed windows above, below and across 0,
    # single labels, empty windows, windows with ends on run and length
    # boundaries, windows with ends inside first-letter blocks (at k = 40
    # one of length 3 spans 6,241 positions), and random windows.
    windows = list(_TYPE_COUNT_WINDOWS) + _wide_block_windows(k)
    ends = _run_boundary_labels(k, max_length)
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
        assert _folded(_type_runs(k, lo, hi)) == _walked_type_counts(k, lo, hi), (lo, hi)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_run_tally_sums_to_far_window(k):
    # No walk reaches this window: the tally must cover it exactly, and the
    # halves below and above 0 must add up to the whole.
    lo, hi = -(10**60), 10**60
    whole = _folded(_type_runs(k, lo, hi))
    assert sum(whole.values()) == hi - lo + 1
    below, above = _folded(_type_runs(k, lo, 0)), _folded(_type_runs(k, 1, hi))
    assert whole == {t: below.get(t, 0) + above.get(t, 0) for t in below.keys() | above.keys()}


def test_runs_step_over_first_letter_blocks(monkeypatch):
    # Two labels at k = 1000: a first-letter block with no label of the
    # window is stepped over whole, not run by run through its 1,999 runs.
    calls = []
    count_in = labeling._count_in
    monkeypatch.setattr(labeling, "_count_in", lambda *args: calls.append(args) or count_in(*args))
    runs = list(_type_runs(1000, 1000, 1001))
    assert [(tau, n) for tau, _, _, n in runs] == [(((1000,), True), 1), (((1, 1), False), 1)]
    assert len(calls) <= 10**4


def _omega_run_boundary_labels(max_weight):
    """Labels at the first and last position of every run of words sharing
    weight, length and first two letters, through ``max_weight``, and at the
    positions next to them; the runs are read off the walk."""
    end = next(islice(labeling._series_starts(), max_weight + 1, None))
    keys = [(word_weight(w), len(w), w[:2]) for w in islice(_words_from(OMEGA, ()), end)]
    starts = [p for p in range(1, end) if keys[p] != keys[p - 1]] + [end]
    ends = {p + d for p in starts for d in (-2, -1, 0, 1)}
    return sorted({label_from_position(p) for p in ends if p >= 0})


def test_omega_run_tally_equals_walked_type_counts():
    # The walk is the authority: windows whose ends sit at and next to every
    # bucket, length and (a, c) run end through weight 12, single labels,
    # empty windows, far windows and random windows.
    windows = list(_TYPE_COUNT_WINDOWS)
    ends = _omega_run_boundary_labels(12)
    windows += [(n, n) for n in ends]
    windows += list(zip(ends, ends[1:])) + list(zip(ends, ends[2:]))
    wide = ends[:: max(1, len(ends) // 40)]
    windows += [(-abs(n), abs(n)) for n in wide] + [(min(n, 0), max(n, 0)) for n in wide]
    windows += [(10**12, 10**12 + 199), (-(10**12) - 199, -(10**12)), (-(10**40) - 199, -(10**40))]
    windows += [(10**40 - 3, 10**40 + 3), (-(10**40), -(10**40) + 1)]
    rng = random.Random(4100)
    for _ in range(50):
        reach = rng.choice([10, 100, 3000, 10**9])
        lo = rng.randint(-reach, reach)
        windows.append((lo, lo + rng.randint(-2, 3000)))
    for lo, hi in windows:
        assert _folded(_type_runs(OMEGA, lo, hi)) == _walked_type_counts(OMEGA, lo, hi), (lo, hi)


def _assert_runs_exact(rank, runs, lo, hi):
    # Each run's labels from _labels_in sit at its positions and have its
    # type on the walk, n counts them, and the runs, in position order and
    # disjoint, cover the window once: so a run's labels are exactly the
    # walked labels at its positions.
    s = 1 if rank == OMEGA else rank
    walked = {
        n: (letters[:2], all(a == s for a in letters[1:]))
        for n, letters in _window_words(rank, lo, hi)
    }
    seen = []
    last = -1
    for tau, p, q, n in runs:
        assert last < p <= q, (lo, hi, p, q)
        last = q
        labels = [m for part in _labels_in(lo, hi, p, q) for m in part]
        assert n == len(labels) > 0, (lo, hi, p, q)
        for m in labels:
            assert walked[m] == tau and p <= position_from_label(m) <= q, (lo, hi, m)
        seen += labels
    assert sorted(seen) == sorted(walked), (lo, hi)


@pytest.mark.parametrize(
    "k, max_length", [(2, 3), (3, 3), (4, 3), (5, 3), (40, 1)], ids=["2", "3", "4", "5", "40"]
)
def test_window_type_runs_are_exact(k, max_length):
    ends = _run_boundary_labels(k, max_length)
    windows = list(_TYPE_COUNT_WINDOWS) + [(n, n) for n in ends] + list(zip(ends, ends[1:]))
    windows += _wide_block_windows(k)
    for lo, hi in windows:
        _assert_runs_exact(k, _type_runs(k, lo, hi), lo, hi)


def test_omega_type_runs_are_exact():
    ends = _omega_run_boundary_labels(10)
    windows = list(_TYPE_COUNT_WINDOWS) + [(n, n) for n in ends] + list(zip(ends, ends[1:]))
    windows += [(10**12, 10**12 + 199), (-(10**40) - 199, -(10**40))]
    for lo, hi in windows:
        _assert_runs_exact(OMEGA, _type_runs(OMEGA, lo, hi), lo, hi)


def test_type_runs_stop_at_the_window_top():
    # Label 1 is x1, the first of 40,000 one-letter blocks at rank 20000;
    # the walk ends at the next block, with no list of the rank's letters.
    runs = []
    peak, _ = _traced_peak(lambda: runs.extend(_type_runs(20000, 1, 1)))
    assert runs == [(((1,), True), 1, 1, 1)]
    assert peak < 50_000


def test_omega_run_tally_refuses_past_weight_limit_before_growth():
    # The heaviest position of the window is weighed first: a window that
    # reaches past the last word of the weight limit is refused whole, with
    # no column grown, even when its lowest labels are within the limit.
    first = next(islice(labeling._series_starts(), labeling.MAX_OMEGA_WEIGHT + 1, None))
    n = (first + 1) // 2 + 1  # label n sits at position 2n - 1 >= first
    grown = [len(col) for col in labeling._cols]
    for lo, hi in [(2**255, 2**255), (n - 3, n), (-n, -n + 3)]:
        with pytest.raises(BudgetExceededError, match=f"weight {labeling.MAX_OMEGA_WEIGHT + 1}"):
            _folded(_type_runs(OMEGA, lo, hi))
    assert [len(col) for col in labeling._cols] == grown


# --- rank omega counting and walking -----------------------------------------


def _grow_columns(weight):
    """Every count column through ``weight``, grown the way a decode grows
    them: in order of length, column r through index sum weight - r."""
    for r in range(weight + 1):
        labeling._column(r, weight - r)


def test_count_tables_match_recursive_count():
    _grow_columns(40)
    for r in range(41):
        for s in range(41 - r):
            count = labeling._cols[r][s]
            assert count == oracle.tail_count(r, s, 0), (r, s)
            for prev in range(1, s + 2):
                assert _continuations(r, s, prev) == oracle.tail_count(r, s, prev), (r, s, prev)


def test_omega_next_orders_letters_and_counts_continuations():
    # One step of the canonical order: after prev, every letter but -prev,
    # by index with x_i before X_i, each with its continuation count, and
    # the counts add up to the words that follow prev.
    _grow_columns(25)
    for prev in (0, 1, -1, 2, -2, 3, -3):
        for after in range(6):
            for srem in range(after, after + 15):
                steps = list(labeling._next_letters(OMEGA, after, srem, prev))
                letters = [a for a, _ in steps]
                keys = [(abs(a), a < 0) for a in letters]
                assert keys == sorted(set(keys)), (prev, after, srem)
                assert -prev not in letters
                indices = range(1, srem - after + 1)
                assert set(letters) == {a for i in indices for a in (i, -i)} - {-prev}
                for a, count in steps:
                    assert count == _continuations(after, srem - abs(a), abs(a)), (a, after, srem)
                total = sum(count for _, count in steps)
                if prev:
                    assert total == _continuations(after + 1, srem, abs(prev)), (prev, after, srem)
                else:
                    assert total == labeling._cols[after + 1][srem], (after, srem)


def test_omega_next_stops_before_until_without_reading_its_count(monkeypatch):
    # Encoding a letter sums the counts of the letters before it: the step
    # stops there and reads each index's count once, none for until's index
    # unless x_i comes before until = X_i.
    _grow_columns(20)
    calls = []
    real = labeling._continuations
    monkeypatch.setattr(labeling, "_continuations", lambda r, s, p: calls.append(p) or real(r, s, p))
    for prev in (0, 1, -1, 2, -2, 3, -3):
        for after in range(4):
            for srem in range(after, after + 10):
                steps = list(labeling._next_letters(OMEGA, after, srem, prev))
                for t, (until, _) in enumerate(steps):
                    calls.clear()
                    assert list(labeling._next_letters(OMEGA, after, srem, prev, until)) == steps[:t]
                    assert calls == sorted({abs(a) for a, _ in steps[:t]}), (prev, after, srem, until)


def test_next_letters_at_finite_rank():
    # Every letter but -prev in canonical order, each starting
    # (2k-1)**after words: the step the finite type runs take.
    for k in (2, 3, 7):
        for after in range(4):
            for prev in [0] + ordered_letters(k):
                expected = [(a, (2 * k - 1) ** after) for a in ordered_letters(k) if a != -prev]
                assert list(labeling._next_letters(k, after, 0, prev)) == expected, (k, after, prev)


def test_omega_successor_matches_oracle_order():
    words = oracle.omega_words(12)
    assert list(islice(_words_from(OMEGA, ()), len(words))) == words


def test_omega_successor_crosses_length_and_bucket_boundaries():
    # The last word of every length in every bucket up to weight 14, and the
    # words around it; the last word of a bucket steps to the next bucket.
    _grow_columns(14)
    ends = []
    for weight, pos in enumerate(islice(labeling._series_starts(), 15)):
        for length in range(weight // 2 + 1):
            pos += labeling._cols[length][weight - length]
            ends.append(pos - 1)
    for end in ends:
        for pos in range(max(0, end - 2), end + 2):
            step = next(islice(_words_from(OMEGA, _letters_omega(pos)), 1, None))
            assert step == _letters_omega(pos + 1), pos


@pytest.mark.parametrize("lo, hi", [
    (-300, 300), (-40, 250), (-250, 40), (-3000, -2800), (5000, 5100), (7, 7), (-4, -4), (0, 0),
    (5, 3),
])
def test_omega_window_walk_matches_decode(lo, hi):
    seen = list(_window_words(OMEGA, lo, hi))
    assert seen == [(n, _letters_omega(position_from_label(n))) for n in range(lo, hi + 1)]


def test_omega_weight_budget(monkeypatch):
    # Fresh tables, so the lowered limit is met while they grow.
    monkeypatch.setattr(labeling, "_cols", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 20)
    assert _position_omega((19,)) == labeling._starts[20]
    last = labeling._starts[21] - 1
    assert _letters_omega(last) == (-1,) * 10
    grown = [len(col) for col in labeling._cols]
    with pytest.raises(BudgetExceededError):
        _position_omega((20,))
    with pytest.raises(BudgetExceededError):
        _letters_omega(last + 1)
    with pytest.raises(BudgetExceededError):
        VertexLabeling(OMEGA).word_of_label(2**300)
    assert [len(col) for col in labeling._cols] == grown
    assert len(grown) == 11 and all(len(col) <= 21 - r for r, col in enumerate(labeling._cols))


def test_starts_bounded_by_powers_of_two():
    # Weight w holds (2**w + 2 * (-1)**w) / 3 signed letter sequences, reduced
    # or not, so fewer than 2**w words come before it.
    starts = list(islice(labeling._series_starts(), 61))
    assert all(starts[w] <= 2**w for w in range(61))


def test_series_starts_equal_table_starts():
    # The series alone places the buckets; each bucket must hold exactly
    # the words the count columns give it.
    _grow_columns(61)
    starts = list(islice(labeling._series_starts(), 63))
    for w in range(62):
        assert starts[w + 1] - starts[w] == sum(labeling._cols[r][w - r] for r in range(w + 1)), w


def test_position_past_weight_limit_refused_without_tables():
    # The first position past the weight limit has 237 bits, so 2**255 is
    # past it too; the series refuses both with no table grown, where a
    # bound of 2**257 grew the tables through weight 256 first.
    first = next(islice(labeling._series_starts(), labeling.MAX_OMEGA_WEIGHT + 1, None))
    assert first.bit_length() == 237
    grown = [len(col) for col in labeling._cols]
    for pos in (first, 2**255, 2**300):
        with pytest.raises(BudgetExceededError, match=f"weight {labeling.MAX_OMEGA_WEIGHT + 1}"):
            _letters_omega(pos)
    assert [len(col) for col in labeling._cols] == grown


def test_starts_grow_by_doubling(monkeypatch):
    # Growing _starts one weight at a time through the limit restarts the
    # growth series only as _starts doubles, where restarting it for every
    # weight took O(W**3) steps; the weight past the limit is still refused.
    firsts = list(islice(labeling._series_starts(), labeling.MAX_OMEGA_WEIGHT + 2))
    real = labeling._series_starts
    restarts = []

    def counting():
        restarts.append(len(labeling._starts))
        return real()

    monkeypatch.setattr(labeling, "_series_starts", counting)
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    for w in range(2, labeling.MAX_OMEGA_WEIGHT + 1):
        labeling._starts_past(firsts[w])
        assert _position_omega((w - 1,)) == firsts[w]
    assert len(restarts) <= 10
    assert labeling._starts == firsts
    limit = f"weight {labeling.MAX_OMEGA_WEIGHT + 1}"
    with pytest.raises(BudgetExceededError, match=limit):
        labeling._starts_past(firsts[-1])
    with pytest.raises(BudgetExceededError, match=limit):
        _position_omega((labeling.MAX_OMEGA_WEIGHT,))


def test_count_columns_grow_only_as_far_as_read(monkeypatch):
    # A word of L letters reads only the columns of fewer than L letters,
    # however heavy it is.
    monkeypatch.setattr(labeling, "_cols", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    pos = _position_omega((89, -1))
    assert len(labeling._cols) == 2
    assert _letters_omega(pos) == (89, -1)
    # A window tally grows no column further than decoding its heaviest
    # label does.
    lo, hi = -(10**40) - 199, -(10**40)
    monkeypatch.setattr(labeling, "_cols", [[1]])
    _letters_omega(position_from_label(lo))
    decoded = [len(col) for col in labeling._cols]
    monkeypatch.setattr(labeling, "_cols", [[1]])
    _folded(_type_runs(OMEGA, lo, hi))
    assert [len(col) for col in labeling._cols] == decoded


def test_heavy_label_refused_before_tables_grow(monkeypatch):
    monkeypatch.setattr(labeling, "_cols", [[1]])
    monkeypatch.setattr(labeling, "_starts", [0, 1])
    monkeypatch.setattr(labeling, "MAX_OMEGA_WEIGHT", 30)
    with pytest.raises(BudgetExceededError, match="weight 31"):
        _letters_omega(2**31)
    with pytest.raises(BudgetExceededError, match="weight 31"):
        VertexLabeling(OMEGA).word_of_label(2**300)
    assert labeling._cols == [[1]]


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


def _edges(ball):
    """Each tree edge once as (tail label, head label, j), read from the
    positive columns: the head is x_j times the tail."""
    return [
        (n, head, j)
        for j in range(1, ball.rank + 1)
        for n, head in enumerate(ball.columns[j], ball.lo)
        if head is not None
    ]


def test_ball_radius_zero_and_one():
    lab = VertexLabeling(2)
    b0 = lab.ball(0)
    assert isinstance(b0, CayleyBall)
    assert b0.labels() == [0]
    assert _edges(b0) == []

    b1 = lab.ball(1)
    assert b1.labels() == [0, 1, -1, 2, -2]
    assert len(_edges(b1)) == 4


def test_ball_radius_two_structure():
    lab = VertexLabeling(2)
    ball = lab.ball(2)
    assert len(ball.entries) == 17
    edges = _edges(ball)
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
    """The ball's entries, built by decoding each position and encoding each
    neighbour."""
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
    return tuple(entries)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("radius", range(5))
def test_ball_matches_random_access(k, radius):
    lab = VertexLabeling(k)
    ball = lab.ball(radius)
    expected = _random_access_ball(k, radius)
    assert ball.labels() == [label_from_position(p) for p in range(len(expected))]
    assert ball.labels() == [e.label for e in expected]
    # Every signed neighbour of every vertex, read from its column.
    assert sorted(ball.columns) == sorted(ordered_letters(k))
    for e in expected:
        for a, target in e.neighbors.items():
            assert ball.columns[a][e.label - ball.lo] == target
    assert ball.entries == expected
    assert [list(e.neighbors) for e in ball.entries] == [ordered_letters(k)] * len(expected)
    # The ball is built from its own table: its peak is the ball's own size,
    # and once the ball is dropped nothing of it stays, in the labeling or
    # anywhere else.
    del ball
    peak, retained = _traced_peak(lambda: lab.ball(radius))
    assert peak < 1_000 * len(expected) + 50_000
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
