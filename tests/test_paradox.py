import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from lineparadox.freegroup import MINUS, OMEGA, PLUS, WordClass
from lineparadox.labeling import VertexLabeling
from lineparadox import labeling, paradox
from lineparadox.paradox import (
    BudgetExceededError,
    ParadoxInstance,
    rank_token,
    verification_summary,
)
from lineparadox.rigid import floor_part

import oracle


@pytest.fixture(scope="module")
def inst2():
    return ParadoxInstance(2)


@pytest.fixture(scope="module")
def table2():
    return oracle.table(2, 8)


@pytest.fixture(scope="module")
def omega_table():
    words = oracle.omega_words(9)
    labels = {}
    for pos, letters in enumerate(words):
        labels[oracle.zigzag_label(pos)] = letters
    return labels


# --- construction ------------------------------------------------------------


def test_instance_basics(inst2):
    assert inst2.rank == 2
    assert inst2.special == 2
    assert ParadoxInstance(OMEGA).special == 1
    assert ParadoxInstance(5).special == 5


def test_instance_labeling_must_match():
    with pytest.raises(ValueError):
        ParadoxInstance(2, VertexLabeling(3))
    shared = VertexLabeling(2)
    assert ParadoxInstance(2, shared).labeling is shared


def test_rank_token():
    assert rank_token(2) == 2
    assert rank_token(OMEGA) == "omega"


def test_pairs_and_class_names(inst2):
    assert list(inst2.pairs()) == [1, 2]
    assert inst2.class_names() == ["A", "B", "C", "D"]
    assert ParadoxInstance(3).class_names() == [
        "A_1", "B_1", "A_2", "B_2", "A_3", "B_3",
    ]
    om = ParadoxInstance(OMEGA)
    assert om.class_names(2) == ["A_1", "B_1", "A_2", "B_2", "overflow"]
    with pytest.raises(ValueError):
        om.pairs()
    with pytest.raises(ValueError):
        om.pairs(0)


def test_generator_validation(inst2):
    with pytest.raises(ValueError):
        inst2.generator(3)
    with pytest.raises(ValueError):
        inst2.generator(0)
    om = ParadoxInstance(OMEGA)
    assert om.generator(10).apply(0) != 0


def test_rigid_generator(inst2):
    f = inst2.rigid_generator(1)
    assert f.eval(Fraction(1, 2)) == Fraction(3, 2)
    assert f.eval(Fraction(-1, 2)) == Fraction(1, 2)


# --- classification ----------------------------------------------------------


def test_classify_interval_examples(inst2):
    assert inst2.classify_interval(0) == WordClass(2, MINUS)  # D
    assert inst2.classify_interval(1) == WordClass(1, PLUS)  # A
    assert inst2.classify_interval(-1) == WordClass(1, MINUS)  # B
    assert inst2.classify_interval(6) == WordClass(2, PLUS)  # C
    assert inst2.classify_interval(7) == WordClass(2, MINUS)  # x2^2 -> D
    assert inst2.classify_interval(-2) == WordClass(2, MINUS)


def test_classify_point_examples(inst2):
    assert inst2.classify_point(Fraction(1, 3)) == WordClass(2, MINUS)
    assert inst2.classify_point(Fraction(-1, 2)) == WordClass(1, MINUS)
    assert inst2.classify_point(3) == WordClass(1, PLUS)
    assert inst2.classify_point("7/2") == WordClass(1, PLUS)
    with pytest.raises(TypeError):
        inst2.classify_point(0.5)


def test_point_interval_coherence(inst2):
    rng = random.Random(31)
    for _ in range(2000):
        den = rng.randrange(1, 300)
        x = Fraction(rng.randrange(-500 * den, 500 * den), den)
        assert inst2.classify_point(x) == inst2.classify_interval(floor_part(x))


def test_identity_interval_is_special_minus():
    for rank in (2, 3, 5, OMEGA):
        inst = ParadoxInstance(rank)
        s = inst.special
        assert inst.classify_interval(0) == WordClass(s, MINUS)


# --- partition ---------------------------------------------------------------


def test_partition_window_8(inst2):
    report = inst2.verify_partition(-8, 8)
    assert report.passed
    assert report.counts == {"A": 4, "B": 4, "C": 2, "D": 7}
    assert report.checked == 17
    assert report.window == (-8, 8)


def test_partition_single_and_empty(inst2):
    single = inst2.verify_partition(0, 0)
    assert single.counts == {"A": 0, "B": 0, "C": 0, "D": 1}
    empty = inst2.verify_partition(5, 3)
    assert empty.passed
    assert sum(empty.counts.values()) == 0


def test_partition_counts_match_oracle(inst2, table2):
    report = inst2.verify_partition(-2000, 2000)
    assert report.passed
    tally = {"A": 0, "B": 0, "C": 0, "D": 0}
    names = {(1, 1): "A", (1, -1): "B", (2, 1): "C", (2, -1): "D"}
    for n in range(-2000, 2001):
        tally[names[oracle.classify(table2.word_of[n], 2)]] += 1
    assert report.counts == tally


def test_partition_rank3_matches_oracle():
    inst = ParadoxInstance(3)
    t = oracle.table(3, 4)
    report = inst.verify_partition(-400, 400)
    assert report.passed
    tally = {name: 0 for name in inst.class_names()}
    for n in range(-400, 401):
        j, side = oracle.classify(t.word_of[n], 3)
        tally[WordClass(j, side).label(3)] += 1
    assert report.counts == tally


def test_partition_omega_with_overflow(omega_table):
    inst = ParadoxInstance(OMEGA)
    report = inst.verify_partition(-60, 60, pair_limit=2)
    assert report.passed
    tally = {name: 0 for name in inst.class_names(2)}
    for n in range(-60, 61):
        j, side = oracle.classify_omega(omega_table[n])
        if j > 2:
            tally["overflow"] += 1
        else:
            tally[WordClass(j, side).label(OMEGA)] += 1
    assert report.counts == tally
    assert report.counts["overflow"] > 0


def test_partition_omega_requires_limit():
    with pytest.raises(ValueError):
        ParadoxInstance(OMEGA).verify_partition(-5, 5)


# --- reassembly --------------------------------------------------------------


def test_reassembly_window_8(inst2):
    report = inst2.verify_reassembly(-8, 8)
    assert report.passed
    assert report.covered == {1: 17, 2: 17}
    assert report.pairs == (1, 2)
    assert report.violations == []


def test_reassembly_against_honest_action(inst2, table2):
    # Membership in the translated class, recomputed through the actual
    # integer action: n is in the image of the minus class exactly when the
    # inverse generator sends n to a minus-class label.
    report = inst2.verify_reassembly(-200, 200)
    assert report.passed
    for n in range(-200, 201):
        for j in (1, 2):
            in_plus = oracle.classify(table2.word_of[n], 2) == (j, 1)
            m = table2.apply((-j,), n)
            in_image = oracle.classify(table2.word_of[m], 2) == (j, -1)
            assert in_plus != in_image  # exactly one covers n
    assert report.covered == {1: 401, 2: 401}


def test_reassembly_single_pair(inst2):
    report = inst2.verify_reassembly(-8, 8, pairs=(1,))
    assert report.passed
    assert report.covered == {1: 17}
    with pytest.raises(ValueError):
        inst2.verify_reassembly(-8, 8, pairs=(3,))


def test_reassembly_omega(omega_table):
    inst = ParadoxInstance(OMEGA)
    report = inst.verify_reassembly(-60, 60, pairs=range(1, 6))
    assert report.passed
    assert set(report.covered) == {1, 2, 3, 4, 5}
    assert all(c == 121 for c in report.covered.values())


# --- measure audit -----------------------------------------------------------


def test_measure_audit_windows(inst2):
    tiny = inst2.measure_audit(0, 0)
    assert tiny.passed
    assert tiny.interval_count == 1
    assert tiny.coverage == {1: 1, 2: 1}

    mid = inst2.measure_audit(-8, 8)
    assert mid.passed
    assert sum(mid.counts.values()) == 17

    big = inst2.measure_audit(-100, 100)
    assert big.passed
    assert big.interval_count == 201
    assert sum(big.counts.values()) == 201
    assert big.coverage == {1: 201, 2: 201}


def test_measure_audit_omega():
    report = ParadoxInstance(OMEGA).measure_audit(-30, 30, pair_limit=4)
    assert report.passed
    assert sum(report.counts.values()) == 61
    assert all(c == 61 for c in report.coverage.values())


# --- one-pass sweep against the oracle ---------------------------------------


_SWEEP_WINDOWS = [
    (-300, 300),  # symmetric
    (-50, 400),  # asymmetric, longer above 0
    (-400, 50),  # asymmetric, longer below 0
    (10**8, 10**8 + 300),  # all positive, far out
    (-2500, -2000),  # all negative
    (7, 7),
    (-3, -3),
    (0, 0),
    (5, 3),  # empty
]


def _oracle_sweep(table2, lo, hi):
    # Words come from the brute-force table where it reaches, else from
    # random-access decode; classes and pull-backs are the oracle's own.
    lab = VertexLabeling(2)
    names = {(1, 1): "A", (1, -1): "B", (2, 1): "C", (2, -1): "D"}
    counts = dict.fromkeys("ABCD", 0)
    covered = {1: 0, 2: 0}
    for n in range(lo, hi + 1):
        word = table2.word_of[n] if n in table2.word_of else lab.word_of_label(n).letters
        counts[names[oracle.classify(word, 2)]] += 1
        for j in (1, 2):
            in_plus = oracle.classify(word, 2) == (j, 1)
            in_image = oracle.classify(oracle.oracle_reduce((-j,) + word), 2) == (j, -1)
            covered[j] += in_plus != in_image
    return counts, covered


@pytest.mark.parametrize("lo, hi", _SWEEP_WINDOWS)
def test_sweep_matches_oracle(table2, lo, hi):
    inst = ParadoxInstance(2)
    counts, covered = _oracle_sweep(table2, lo, hi)
    size = max(0, hi - lo + 1)
    part = inst.verify_partition(lo, hi)
    assert part.passed and part.counts == counts and part.checked == size
    reas = inst.verify_reassembly(lo, hi)
    assert reas.passed and reas.covered == covered
    audit = inst.measure_audit(lo, hi)
    assert audit.passed and audit.interval_count == size
    assert audit.counts == counts and audit.coverage == covered == {1: size, 2: size}


_SWEEP_RANKS = [(2, None), (3, None), (OMEGA, 3), (OMEGA, 10)]


@pytest.mark.parametrize("rank, limit", _SWEEP_RANKS)
@pytest.mark.parametrize("lo, hi", _SWEEP_WINDOWS)
def test_sweep_equals_per_label_reference(rank, limit, lo, hi):
    # The reference asks every predicate about every label's word, decoded
    # by random access rather than walked.
    inst = ParadoxInstance(rank)
    pairs = inst.pairs(limit)
    part, reas = inst._sweep(lo, hi, pairs, tuple(pairs))
    lab = VertexLabeling(rank)
    words = [(n, lab.word_of_label(n).letters) for n in range(lo, hi + 1)]
    counts, covered, part_violations, reas_violations = oracle.sweep(
        words, inst.special, pairs, limit
    )
    names = {c: c if c == "overflow" else WordClass(*c).label(rank) for c in counts}
    assert part.counts == {names[c]: count for c, count in counts.items()}
    assert reas.covered == covered
    assert part.violations == part_violations == []
    assert reas.violations == reas_violations == []


def _per_label_sweep(inst, lo, hi, pairs):
    # The sweep as it was before the type tally: one verdict per label.
    checks = paradox._classes(pairs)
    top = pairs[-1] if inst.rank == OMEGA else None
    tally, covered = {}, dict.fromkeys(pairs, 0)
    part_violations, reas_violations = [], []
    for n in range(lo, hi + 1):
        word = inst.labeling.word_of_label(n).letters
        counted, failures = paradox._verdict(word, inst.special, checks, top, pairs)
        tally[counted] = tally.get(counted, 0) + 1
        reasons = dict(failures)
        if None in reasons:
            part_violations.append((n, reasons[None]))
        for j in pairs:
            if j not in reasons:
                covered[j] += 1
            else:
                reas_violations.append((j, n, reasons[j]))
    counts = {c.label(inst.rank): tally.get(c, 0) for c in checks}
    if top is not None:
        counts["overflow"] = tally.get("overflow", 0)
    return counts, covered, part_violations, reas_violations


_TYPE_MUTATIONS = {
    # Each reads only the first letter of its word and whether the word is
    # a power of x_s, so its verdict on a label's word w reads only tau(w).
    "every plus class": lambda real, w, j, side, s: side == PLUS or real(w, j, side, s),
    "flip minus on x2": lambda real, w, j, side, s: (
        real(w, j, side, s) != (side == MINUS and bool(w) and w[0] == 2)
    ),
    "flip powers of x_s": lambda real, w, j, side, s: (
        real(w, j, side, s) != (j == s and bool(w) and w.count(s) == len(w))
    ),
}


@pytest.mark.parametrize("mutation", [None, *sorted(_TYPE_MUTATIONS)])
@pytest.mark.parametrize("rank, limit, lo, hi", [
    (2, None, -300, 200), (3, None, -150, 250), (OMEGA, 3, -200, 150), (OMEGA, 10, -60, 90),
])
def test_sweep_equals_per_label_verdicts_under_type_mutations(
    monkeypatch, mutation, rank, limit, lo, hi
):
    # Broken predicates that still read only the type make violations; the
    # tally must scale them and the sweep list them as a per-label sweep
    # does.  Passing or failing, the sweep is one pass: the runs are
    # generated once and each type is judged once, when its first run
    # arrives.
    if mutation:
        real = paradox._is_member
        mutate = _TYPE_MUTATIONS[mutation]
        monkeypatch.setattr(paradox, "_is_member", lambda *args: mutate(real, *args))
    inst = ParadoxInstance(rank)
    pairs = inst.pairs(limit)
    expected = _per_label_sweep(inst, lo, hi, pairs)
    passes, judged = [], []

    def counted(runs):
        return lambda *args: passes.append(args) or runs(*args)

    for name in ("_type_runs",):
        monkeypatch.setattr(paradox, name, counted(getattr(paradox, name)))
    verdict = paradox._verdict
    monkeypatch.setattr(paradox, "_verdict", lambda w, *args: judged.append(w) or verdict(w, *args))
    part, reas = inst._sweep(lo, hi, pairs, tuple(pairs))
    assert (part.counts, reas.covered, part.violations, reas.violations) == expected
    assert bool(mutation) == bool(part.violations or reas.violations)
    assert len(passes) == 1
    assert judged and len(judged) == len(set(judged))


@pytest.mark.parametrize("rank, limit, lo, hi", [
    (2, None, -300, 200), (3, None, 10**60 - 60, 10**60 + 60), (OMEGA, 3, -200, 150),
    (OMEGA, 10, -(10**12) - 100, -(10**12)),
])
def test_failing_sweep_decodes_nothing(monkeypatch, rank, limit, lo, hi):
    # The violations are listed from each failing run's positions: with
    # every decoder and the walk broken, a failing sweep still lists them
    # as a per-label sweep does.
    real = paradox._is_member
    mutate = _TYPE_MUTATIONS["every plus class"]
    monkeypatch.setattr(paradox, "_is_member", lambda *args: mutate(real, *args))
    inst = ParadoxInstance(rank)
    pairs = inst.pairs(limit)
    expected = _per_label_sweep(inst, lo, hi, pairs)

    def no_decode(*args):
        raise AssertionError("a failing sweep must decode no word")

    for name in ("_letters_finite", "_letters_omega", "_window_words"):
        monkeypatch.setattr(labeling, name, no_decode)
    monkeypatch.setattr(paradox, "_window_words", no_decode)
    part, reas = inst._sweep(lo, hi, pairs, tuple(pairs))
    assert (part.counts, reas.covered, part.violations, reas.violations) == expected
    assert part.violations or reas.violations


def _traced(fn):
    """``fn()`` and the peak traced bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_leaves_labeling_memo_empty():
    # The labeling keeps no memo, and the sweep walks its window at flat
    # memory: ten times the labels may not raise the peak by 50 kB.
    inst = ParadoxInstance(2)
    runs = [_traced(lambda: inst.verify_partition(-m, m)) for m in (2000, 20000)]
    assert all(report.passed for report, _ in runs)
    (_, small), (_, large) = runs
    assert small < 200_000
    assert large < small + 50_000
    assert vars(inst.labeling) == {"rank": 2}


def test_sweep_memo_holds_no_slot_per_pair():
    # At k = 100 nearly every label of the window is its own type; a passing
    # type's verdict is its class and no failures, so the memo of about
    # 2,000 verdicts holds nothing per pair.
    inst = ParadoxInstance(100)
    pairs = inst.pairs()
    (part, reas), peak = _traced(lambda: inst._sweep(-1000, 1000, pairs, tuple(pairs)))
    assert part.passed and reas.passed
    assert peak < 1_000_000
    s = inst.special
    word = paradox._type_word(((3, -7), False), s)
    verdict = paradox._verdict(word, s, paradox._classes(pairs), None, tuple(pairs))
    assert verdict == (WordClass(3, PLUS), ())


def test_sweep_violations_in_ascending_order(monkeypatch):
    # A predicate that admits every word to every plus class breaks both
    # checks on every label; the walk visits labels out of order, yet the
    # reports list violations by ascending n, and by pair within one n.
    from lineparadox import labeling, paradox

    real = paradox._is_member
    monkeypatch.setattr(
        paradox, "_is_member", lambda letters, j, side, s: side == PLUS or real(letters, j, side, s)
    )
    inst = ParadoxInstance(2)
    part = inst.verify_partition(-6, 9)
    assert [n for n, _ in part.violations] == list(range(-6, 10))
    reas = inst.verify_reassembly(-6, 9)
    keys = [(n, j) for j, n, _ in reas.violations]
    assert keys and keys == sorted(keys)
    assert all(reason == "double-covered" for _, _, reason in reas.violations)
    summary = verification_summary(inst, -6, 9)
    kinds = [v["kind"] for v in summary["violations"]]
    assert kinds == ["partition"] * len(part.violations) + ["reassembly"] * len(reas.violations)
    assert [(v["pair"], v["n"]) for v in summary["violations"][len(part.violations):]] == [
        (j, n) for j, n, _ in reas.violations
    ]


# --- free action -------------------------------------------------------------


def test_certify_free_action_small(inst2):
    report = inst2.certify_free_action(1, -50, 50)
    assert report.passed
    assert report.words_checked == 4
    assert report.fixed_point_violations == []
    assert report.distinct_actions


def test_certify_free_action_length3(inst2):
    report = inst2.certify_free_action(3, -20, 20)
    assert report.passed
    assert report.words_checked == 52


def test_certify_free_action_budget(inst2):
    with pytest.raises(BudgetExceededError):
        inst2.certify_free_action(8, -10, 10, word_budget=100)
    with pytest.raises(ValueError):
        inst2.certify_free_action(0, -10, 10)


def test_certify_free_action_omega():
    report = ParadoxInstance(OMEGA).certify_free_action(2, -10, 10, pair_limit=3)
    assert report.passed
    assert report.words_checked == 36  # ball of radius 2 over 3 pairs, minus identity


@pytest.mark.parametrize("rank, length, limit", [(2, 6, None), (OMEGA, 3, 3)])
def test_certify_free_action_leaves_labeling_memo_empty(rank, length, limit):
    # The labeling keeps no memo, and the certificate encodes its words
    # without one, so its peak stays small.
    inst = ParadoxInstance(rank)
    report, peak = _traced(lambda: inst.certify_free_action(length, -30, 30, pair_limit=limit))
    assert report.passed
    assert peak < 200_000
    assert vars(inst.labeling) == {"rank": rank}


@pytest.mark.parametrize("rank, length, limit", [(2, 4, None), (OMEGA, 3, 3)])
def test_certify_free_action_catches_a_repeated_word(monkeypatch, rank, length, limit):
    # A walk that yields its first word twice, in place of its second, still
    # yields as many words as are checked; one action then repeats.
    real = paradox._words_from

    def repeating(k, letters):
        words = real(k, letters)
        first = next(words)
        next(words)
        yield first
        yield first
        yield from words

    inst = ParadoxInstance(rank)
    assert inst.certify_free_action(length, -10, 10, pair_limit=limit).distinct_actions
    monkeypatch.setattr(paradox, "_words_from", repeating)
    report = inst.certify_free_action(length, -10, 10, pair_limit=limit)
    assert not report.distinct_actions
    assert not report.passed
    assert report.fixed_point_violations == []


# --- combined summary --------------------------------------------------------


def test_verification_summary_schema(inst2):
    summary = verification_summary(inst2, -8, 8)
    assert summary["window"] == [-8, 8]
    assert summary["rank"] == 2
    assert summary["counts"] == {"A": 4, "B": 4, "C": 2, "D": 7}
    assert summary["coverage"] == {"1": 17, "2": 17}
    assert summary["violations"] == []
    assert summary["pass"] is True
    assert "free_action" not in summary


def test_verification_summary_with_free_check(inst2):
    summary = verification_summary(inst2, -8, 8, free_check=2)
    free = summary["free_action"]
    assert free["max_length"] == 2
    assert free["words_checked"] == 16
    assert free["distinct_actions"] is True
    assert free["pass"] is True
    assert summary["pass"] is True


def test_verification_summary_budget(inst2):
    with pytest.raises(BudgetExceededError):
        verification_summary(inst2, -8, 8, free_check=8, word_budget=10)


def test_verification_summary_omega():
    summary = verification_summary(ParadoxInstance(OMEGA), -20, 20, pair_limit=3)
    assert summary["rank"] == "omega"
    assert "overflow" in summary["counts"]
    assert set(summary["coverage"]) == {"1", "2", "3"}
    assert summary["pass"] is True


def test_verification_summary_deterministic(inst2):
    a = json.dumps(verification_summary(inst2, -30, 30, free_check=2), sort_keys=True)
    b = json.dumps(verification_summary(ParadoxInstance(2), -30, 30, free_check=2), sort_keys=True)
    assert a == b
