import random
from fractions import Fraction

import pytest

from lineparadox import rigid
from lineparadox.freegroup import Word, parse_word
from lineparadox.labeling import VertexLabeling
from lineparadox.permutation import (
    CyclePermutation,
    IntegerPermutation,
    TreePermutation,
    parse_cycles,
)
from lineparadox.rigid import (
    Piece,
    PiecewiseRigidMap,
    RigidityReport,
    _image_tables,
    compose_maps,
    floor_part,
    fractional_part,
    identity_map,
    rigidity_audit,
)

import oracle


@pytest.fixture(scope="module")
def lab2():
    return VertexLabeling(2)


@pytest.fixture(scope="module")
def f_sigma(lab2):
    return PiecewiseRigidMap(TreePermutation(parse_word("x1"), lab2))


@pytest.fixture(scope="module")
def f_tau(lab2):
    return PiecewiseRigidMap(TreePermutation(parse_word("x2"), lab2))


@pytest.fixture(scope="module")
def f_cycle():
    return PiecewiseRigidMap(parse_cycles("(012534)"))


def random_rational(rng, lo, hi):
    den = rng.randrange(1, 500)
    return rng.randrange(lo, hi) + Fraction(rng.randrange(0, den), den)


# --- floor and fractional part ----------------------------------------------


def test_floor_and_frac():
    assert floor_part(Fraction(5, 2)) == 2
    assert floor_part(Fraction(-1, 2)) == -1
    assert floor_part(Fraction(3)) == 3
    assert fractional_part(Fraction(-1, 2)) == Fraction(1, 2)
    assert fractional_part(Fraction(7, 3)) == Fraction(1, 3)


# --- evaluation --------------------------------------------------------------


def test_eval_examples(f_sigma, f_tau):
    assert f_sigma.eval(Fraction(-1, 2)) == Fraction(1, 2)
    assert f_sigma.eval(0) == 1
    assert f_tau.inverse().eval(Fraction(5, 2)) == Fraction(1, 2)
    assert f_tau.eval_inverse(Fraction(5, 2)) == Fraction(1, 2)
    assert f_sigma(Fraction(-1, 2)) == Fraction(1, 2)  # __call__ alias


def test_eval_input_forms(f_sigma):
    assert f_sigma.eval("1/3") == f_sigma.eval(Fraction(1, 3))
    assert f_sigma.eval(2) == f_sigma.eval(Fraction(2))
    got = f_sigma.eval(Fraction(1, 3))
    assert isinstance(got, Fraction)


def test_eval_rejects_floats(f_sigma):
    with pytest.raises(TypeError):
        f_sigma.eval(0.5)
    with pytest.raises(TypeError):
        f_sigma.eval_inverse(0.5)


def test_cycle_map_values(f_cycle):
    assert f_cycle.eval(Fraction(5, 2)) == Fraction(11, 2)  # floor 2 -> 5
    assert f_cycle.eval(Fraction(9, 2)) == Fraction(1, 2)  # floor 4 -> 0
    assert f_cycle.inverse().eval(Fraction(7, 2)) == Fraction(11, 2)  # 3 <- 5


def test_identity_map():
    ident = identity_map()
    for x in (Fraction(0), Fraction(-7, 3), Fraction(100, 7)):
        assert ident.eval(x) == x
    assert [p.offset for p in ident.pieces_in_window(-3, 3)] == [0] * 6
    assert ident.discontinuities_in_window(-10, 10) == []


# --- pieces and discontinuities ----------------------------------------------


def test_pieces_window_is_half_open(f_sigma):
    pieces = f_sigma.pieces_in_window(-1, 2)
    assert [p.start for p in pieces] == [-1, 0, 1]
    assert [p.offset for p in pieces] == [1, 1, 2]
    assert all(p.slope == 1 for p in pieces)
    assert f_sigma.pieces_in_window(3, 3) == []


def test_piece_defaults():
    p = Piece(4, -2)
    assert p == (4, -2, 1)


def test_cycle_pieces(f_cycle):
    assert [p.offset for p in f_cycle.pieces_in_window(0, 6)] == [1, 1, 3, 1, -4, -2]
    assert [p.offset for p in f_cycle.pieces_in_window(-2, 8)] == [
        0, 0, 1, 1, 3, 1, -4, -2, 0, 0,
    ]


def test_cycle_discontinuities(f_cycle):
    assert f_cycle.discontinuities_in_window(-1, 7) == [0, 2, 3, 4, 5, 6]


def test_discontinuities_match_one_sided_limits(f_sigma, f_cycle, lab2):
    # jump at n exactly when the left limit image(n-1) + 1 misses the value
    eps = Fraction(1, 997)
    composite = compose_maps(f_sigma, f_cycle)
    for f, lo, hi in ((f_cycle, -1, 7), (f_sigma, -5, 5), (composite, -4, 8)):
        jumps = f.discontinuities_in_window(lo, hi)
        for n in range(lo, hi + 1):
            continuous = f.eval(n) - f.eval(n - eps) == eps
            assert continuous == (n not in jumps)


@pytest.mark.parametrize("lo, hi", [(-1, 7), (3, 3), (-20, 40)])
def test_discontinuities_apply_once_per_image(monkeypatch, f_cycle, lo, hi):
    image = {n: f_cycle.image_of_integer(n) for n in range(lo - 1, hi + 1)}
    calls = []
    apply = CyclePermutation.apply

    def counted(self, n):
        calls.append(n)
        return apply(self, n)

    monkeypatch.setattr(CyclePermutation, "apply", counted)
    jumps = f_cycle.discontinuities_in_window(lo, hi)
    assert len(calls) == hi - lo + 2
    assert sorted(calls) == list(range(lo - 1, hi + 1))
    assert jumps == [n for n in range(lo, hi + 1) if image[n] - image[n - 1] != 1]


# --- composition -------------------------------------------------------------


def test_compose_example(f_sigma, f_tau):
    st = compose_maps(f_sigma, f_tau)
    assert st.eval(Fraction(1, 4)) == Fraction(-11, 4)


def test_compose_of_tree_maps_multiplies_words(f_sigma, f_tau):
    st = compose_maps(f_sigma, f_tau)
    assert isinstance(st.permutation, TreePermutation)
    assert st.permutation.word == parse_word("x1 x2")


def test_compose_mixed_backing_evaluates(f_sigma, f_cycle):
    # A cycle map, and a tree map over another labeling, share no backing
    # form with f_sigma; each composite still evaluates as f_sigma after g.
    rank3 = PiecewiseRigidMap(TreePermutation(parse_word("x3 X1"), VertexLabeling(3)))
    for g in (f_cycle, rank3):
        mixed = compose_maps(f_sigma, g)
        for x in (Fraction(1, 2), Fraction(9, 4), Fraction(-3, 7)):
            assert mixed.eval(x) == f_sigma.eval(g.eval(x))
        report = rigidity_audit(mixed, -20, 20, samples=500)
        assert report.passed


def test_compose_order(lab2):
    p = PiecewiseRigidMap(parse_cycles("(0 1)"))
    q = PiecewiseRigidMap(parse_cycles("(1 2)"))
    pq = compose_maps(p, q)
    assert pq.image_of_integer(1) == 2  # p(q(1)) = p(2)
    qp = compose_maps(q, p)
    assert qp.image_of_integer(1) == 0  # q(p(1)) = q(0)


def test_compose_matches_pointwise_on_samples(lab2):
    rng = random.Random(23)
    words = oracle.all_words(2, 4)
    for _ in range(100):
        f = PiecewiseRigidMap(TreePermutation(Word(rng.choice(words)), lab2))
        g = PiecewiseRigidMap(TreePermutation(Word(rng.choice(words)), lab2))
        fg = compose_maps(f, g)
        for _ in range(10):
            x = random_rational(rng, -40, 40)
            assert fg.eval(x) == f.eval(g.eval(x))


def test_inverse_round_trip(f_sigma, f_tau, f_cycle):
    rng = random.Random(5)
    composite = compose_maps(f_sigma, f_tau.inverse())
    mixed = compose_maps(f_sigma, f_cycle)
    for f in (f_sigma, f_tau, f_cycle, composite, mixed):
        for _ in range(200):
            x = random_rational(rng, -30, 30)
            assert f.eval_inverse(f.eval(x)) == x
            assert f.eval(f.eval_inverse(x)) == x


def test_inverse_is_cached_bidirectionally(f_sigma):
    inv = f_sigma.inverse()
    assert inv.inverse() is f_sigma
    assert f_sigma.inverse() is inv


# --- rigidity properties -----------------------------------------------------


def test_fractional_part_is_preserved(f_sigma, f_cycle):
    rng = random.Random(9)
    for f in (f_sigma, f_cycle, compose_maps(f_cycle, f_sigma)):
        for _ in range(300):
            x = random_rational(rng, -25, 25)
            assert fractional_part(f.eval(x)) == fractional_part(x)


def test_integer_images_are_distinct(f_sigma, f_cycle):
    for f in (f_sigma, f_cycle):
        images = [f.image_of_integer(n) for n in range(-50, 50)]
        assert len(set(images)) == len(images)


def test_rigidity_audit_passes(f_sigma, f_tau, f_cycle):
    maps = [
        f_sigma,
        f_tau,
        f_sigma.inverse(),
        f_tau.inverse(),
        f_cycle,
        compose_maps(f_sigma, f_tau.inverse()),
    ]
    for f in maps:
        report = rigidity_audit(f, -50, 50, samples=1000, seed=3)
        assert report.passed
        assert report.bijective_ok
        assert report.slope_ok
        assert all(isinstance(n, int) for n in report.discontinuities)
        d = report.to_dict()
        assert d["pass"] is True
        assert d["window"] == [-50, 50]
        assert d["samples"] == 1000


def test_rigidity_audit_rejects_bad_window(f_sigma):
    with pytest.raises(ValueError):
        rigidity_audit(f_sigma, 5, 5, samples=10)


class _NotInjective(IntegerPermutation):
    """Deliberately broken: sends both 0 and 1 to 0."""

    def apply(self, n):
        return 0 if n in (0, 1) else n

    def inverse(self):
        return self


def test_rigidity_audit_detects_failure():
    broken = PiecewiseRigidMap(_NotInjective())
    report = rigidity_audit(broken, 0, 3, samples=800, seed=1)
    assert not report.passed
    assert report.bijection_failures


def test_rigidity_audit_not_injective_with_one_sample():
    report = rigidity_audit(PiecewiseRigidMap(_NotInjective()), 0, 3, samples=1)
    assert not report.passed
    assert (1, 0, 0) in report.bijection_failures  # 1 -> 0 -> 0, and 0 already owns 0


class _WrongInverse(IntegerPermutation):
    """Swaps 3 and 4, but claims the identity as its inverse."""

    def apply(self, n):
        return {3: 4, 4: 3}.get(n, n)

    def inverse(self):
        return CyclePermutation(())


def test_rigidity_audit_catches_wrong_inverse_with_one_sample():
    f = PiecewiseRigidMap(_WrongInverse())
    report = rigidity_audit(f, -50, 50, samples=1, seed=0)
    assert not report.passed
    assert report.to_dict()["bijective"] is False
    assert report.bijection_failures == [(3, 4, 4), (4, 3, 3)]
    # One random sample alone misses the two bad integers.
    assert _reference_audit(f, -50, 50, samples=1, seed=0)["pass"] is True


class _Steep(PiecewiseRigidMap):
    """Right integer images, but slope 2 inside each piece."""

    def eval(self, x):
        x = Fraction(x)
        n = floor_part(x)
        return self.image_of_integer(n) + 2 * (x - n)


def test_rigidity_audit_ties_tables_to_eval(lab2):
    f = _Steep(TreePermutation(parse_word("x1"), lab2))
    report = rigidity_audit(f, -5, 5, samples=0)
    assert report.to_dict()["unit_slope"] is False
    x = Fraction(-9, 2)
    assert report.slope_failures[0] == (x, f.eval(x), f.image_of_integer(-5) + Fraction(1, 2))


def _reference_audit(f, lo, hi, samples, seed):
    """The audit by direct evaluation: every sample through f.eval and
    f.eval_inverse, discontinuities from image_of_integer."""
    rng = random.Random(seed)
    bijective = slope = True
    seen = {}
    for _ in range(samples):
        n = rng.randrange(lo, hi)
        den = rng.randrange(2, 1000)
        x = n + Fraction(rng.randrange(0, den), den)
        y = f.eval(x)
        bijective &= f.eval_inverse(y) == x and seen.get(y, x) == x
        seen[y] = x
    for _ in range(samples // 2):
        n = rng.randrange(lo, hi)
        den1 = rng.randrange(2, 1000)
        den2 = rng.randrange(2, 1000)
        x1 = n + Fraction(rng.randrange(0, den1), den1)
        x2 = n + Fraction(rng.randrange(0, den2), den2)
        slope &= f.eval(x2) - f.eval(x1) == x2 - x1
    jumps = [
        n for n in range(lo, hi + 1) if f.image_of_integer(n) - f.image_of_integer(n - 1) != 1
    ]
    return {
        "window": [lo, hi],
        "samples": samples,
        "bijective": bijective,
        "unit_slope": slope,
        "discontinuities": jumps,
        "pass": bijective and slope,
    }


def _c8_maps(lab2):
    # The 24 maps of acceptance criterion C8, built the same way.
    sigma = PiecewiseRigidMap(TreePermutation(Word((1,)), lab2))
    tau = PiecewiseRigidMap(TreePermutation(Word((2,)), lab2))
    maps = [sigma, tau, sigma.inverse(), tau.inverse()]
    rng = random.Random(808)
    words = oracle.all_words(2, 5)
    for _ in range(20):
        f = PiecewiseRigidMap(TreePermutation(Word(rng.choice(words)), lab2))
        g = PiecewiseRigidMap(TreePermutation(Word(rng.choice(words)), lab2))
        maps.append(compose_maps(f, g))
    assert len(maps) == 24
    return maps


def test_rigidity_audit_matches_direct_evaluation_on_c8_maps(lab2):
    for f in _c8_maps(lab2):
        got = rigidity_audit(f, -50, 50, samples=1000, seed=5).to_dict()
        assert got == _reference_audit(f, -50, 50, samples=1000, seed=5)


def _fraction_sample_audit(f, lo, hi, samples, seed=0):
    """The audit as it stood when every sample was an exact ``Fraction``,
    followed by ``samples // 2`` slope pairs served from the tables; kept
    frozen to pin the integer-triple samples to it, witnesses included."""
    rng = random.Random(seed)
    report = RigidityReport(window=(lo, hi), samples=samples)
    bijection, slope = report.bijection_failures, report.slope_failures
    half = Fraction(1, 2)

    image, preimage = _image_tables(f, lo, hi)
    for n in range(lo, hi):
        y, x = image[n], n + half
        back = preimage[y]
        if back != n:
            bijection.append((n, y, back))
        if f.eval(x) != y + half:
            slope.append((x, f.eval(x), y + half))
        if f.eval_inverse(y + half) != back + half:
            bijection.append((y + half, f.eval_inverse(y + half), back + half))

    seen = {}
    for _ in range(samples):
        n = rng.randrange(lo, hi)
        den = rng.randrange(2, 1000)
        x = Fraction(n * den + rng.randrange(0, den), den)
        m = image[n]
        y = x + (m - n)
        back = y + (preimage[m] - m)
        if back != x:
            bijection.append((x, y, back))
        prior = seen.get(y)
        if prior is not None and prior != x:
            bijection.append((x, y, prior))
        seen[y] = x

    for _ in range(samples // 2):
        n = rng.randrange(lo, hi)
        den1 = rng.randrange(2, 1000)
        den2 = rng.randrange(2, 1000)
        x1 = Fraction(n * den1 + rng.randrange(0, den1), den1)
        x2 = Fraction(n * den2 + rng.randrange(0, den2), den2)
        shift = image[n] - n
        rise = (x2 + shift) - (x1 + shift)
        if rise != x2 - x1:
            slope.append((x1, x2, rise))

    report.discontinuities = [n for n in range(lo, hi + 1) if image[n] - image[n - 1] != 1]
    return report


def _same_audit(f, lo, hi, samples, seed=0):
    got = rigidity_audit(f, lo, hi, samples=samples, seed=seed)
    want = _fraction_sample_audit(f, lo, hi, samples, seed)
    assert got.bijection_failures == want.bijection_failures
    assert got.slope_failures == want.slope_failures
    assert got.discontinuities == want.discontinuities
    assert got.to_dict() == want.to_dict()
    return got


class _HalfWrongInverse(IntegerPermutation):
    """Moves each even n up by 2, but claims the identity as its inverse."""

    def apply(self, n):
        return n + 2 if n % 2 == 0 else n

    def inverse(self):
        return CyclePermutation(())


@pytest.mark.parametrize("make, lo, hi, samples, seed", [
    (_NotInjective, 0, 3, 1, 0),
    (_NotInjective, 0, 3, 800, 1),
    (_WrongInverse, -50, 50, 1, 0),
    (_WrongInverse, -50, 50, 2000, 3),
    (_HalfWrongInverse, -30, 30, 2000, 7),
])
def test_integer_samples_match_fraction_samples_on_broken_maps(make, lo, hi, samples, seed):
    report = _same_audit(PiecewiseRigidMap(make()), lo, hi, samples, seed)
    assert not report.passed


def test_integer_samples_report_sample_witnesses():
    # Half the window's integers come back wrong, so random samples land on
    # them and are reported as rational triples, beyond the integer ones.
    report = _same_audit(PiecewiseRigidMap(_HalfWrongInverse()), -30, 30, 2000, 7)
    witnesses = [t for t in report.bijection_failures if t[0].denominator > 2]
    assert witnesses
    for x, y, back in witnesses:
        assert floor_part(y) == floor_part(x) + 2 and back == y
        assert fractional_part(x) == fractional_part(y)


def test_integer_samples_match_fraction_samples_on_c8_maps(lab2):
    for f in _c8_maps(lab2):
        assert _same_audit(f, -50, 50, 10_000, 5).passed


def test_rigidity_audit_refuses_negative_samples_before_any_table(monkeypatch, f_sigma):
    assert rigidity_audit(f_sigma, -5, 5, samples=0).to_dict()["samples"] == 0

    def no_table(*args):
        raise AssertionError("a refused audit must build no table")

    monkeypatch.setattr(rigid, "_image_tables", no_table)
    with pytest.raises(ValueError, match="samples"):
        rigidity_audit(f_sigma, -5, 5, samples=-7)
    with pytest.raises(TypeError):
        rigidity_audit(f_sigma, -5, 5, samples=1.5)


def _counted_audit(monkeypatch, f, lo, hi, samples, seed):
    """The audit and the number of draws it made from its ``Random``."""
    draws = []

    class Counting(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    monkeypatch.setattr(rigid, "Random", Counting)
    return rigidity_audit(f, lo, hi, samples=samples, seed=seed), len(draws)


def test_passing_audit_makes_no_draw(monkeypatch, lab2):
    for f in _c8_maps(lab2):
        report, draws = _counted_audit(monkeypatch, f, -50, 50, 10_000, 5)
        assert report.passed and draws == 0


@pytest.mark.parametrize("make, lo, hi, samples, seed", [
    (_NotInjective, 0, 3, 800, 1),
    (_WrongInverse, -50, 50, 2000, 3),
    (_HalfWrongInverse, -30, 30, 2000, 7),
])
def test_failing_round_trip_draws_every_sample(monkeypatch, make, lo, hi, samples, seed):
    report, draws = _counted_audit(monkeypatch, PiecewiseRigidMap(make()), lo, hi, samples, seed)
    assert not report.passed and draws == 3 * samples
