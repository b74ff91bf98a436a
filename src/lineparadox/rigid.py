"""Piecewise rigid maps of the real line driven by integer permutations.

For an integer permutation p, the induced map is

    f(x) = p(floor(x)) + frac(x)

which translates each unit interval [n, n+1) rigidly onto [p(n), p(n)+1).
Evaluation is exact over the rationals (:class:`fractions.Fraction`); floats
never enter it, and the audit decides its samples on integers alone.  Every
map holds exactly one integer permutation.  Unit-interval translations
compose interval by interval, so the composite of two maps is the map of the
composite permutation: :func:`.permutation.compose` builds it when the two
share a backing form, and a plain product n -> p(q(n)) otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from math import gcd
from random import Random
from typing import NamedTuple

from .permutation import (
    CyclePermutation,
    IntegerPermutation,
    LabelingMismatchError,
    compose,
)

Rational = Fraction


def as_rational(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("rigid maps are exact; pass Fraction, int, or a string like '3/2'")
    return Fraction(x)


def floor_part(x: Fraction) -> int:
    return x.numerator // x.denominator


def fractional_part(x: Fraction) -> Fraction:
    return x - floor_part(x)


class Piece(NamedTuple):
    """One unit interval [start, start+1) and its rigid displacement."""

    start: int
    offset: int
    slope: int = 1


class _Product(IntegerPermutation):
    """n -> p(q(n)) for a pair that :func:`.permutation.compose` refuses."""

    def __init__(self, p: IntegerPermutation, q: IntegerPermutation):
        self.p = p
        self.q = q

    def apply(self, n: int) -> int:
        return self.p.apply(self.q.apply(n))

    def inverse(self) -> "_Product":
        return _Product(self.q.inverse(), self.p.inverse())

    def __repr__(self) -> str:
        return f"{self.p!r} * {self.q!r}"


class PiecewiseRigidMap:
    """A rigid interval-translation bijection of the line."""

    __slots__ = ("permutation", "_inverse")

    def __init__(self, permutation: IntegerPermutation):
        self.permutation = permutation
        self._inverse: PiecewiseRigidMap | None = None

    def image_of_integer(self, n: int) -> int:
        return self.permutation.apply(n)

    def eval(self, x) -> Fraction:
        x = as_rational(x)
        n = floor_part(x)
        return self.image_of_integer(n) + (x - n)

    __call__ = eval

    def inverse(self) -> "PiecewiseRigidMap":
        if self._inverse is None:
            inv = PiecewiseRigidMap(self.permutation.inverse())
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def eval_inverse(self, y) -> Fraction:
        return self.inverse().eval(y)

    def pieces_in_window(self, lo: int, hi: int) -> list[Piece]:
        """One piece per integer n in [lo, hi), half-open at hi."""
        return [Piece(n, self.image_of_integer(n) - n) for n in range(lo, hi)]

    def discontinuities_in_window(self, lo: int, hi: int) -> list[int]:
        """Integers n in [lo, hi] where the one-sided limits disagree.

        The left limit at n is image(n-1) + 1 and the value is image(n), so a
        jump happens exactly when those differ.  Between integers the map is
        an exact translation, so this list is the entire discontinuity set in
        the window.  Each image of lo - 1, ..., hi is computed once.
        """
        images = pairwise(map(self.image_of_integer, range(lo - 1, hi + 1)))
        return [n for n, (left, value) in enumerate(images, lo) if value - left != 1]

    def __repr__(self) -> str:
        return f"PiecewiseRigidMap[{self.permutation!r}]"


def identity_map() -> PiecewiseRigidMap:
    return PiecewiseRigidMap(CyclePermutation(()))


def compose_maps(f: PiecewiseRigidMap, g: PiecewiseRigidMap) -> PiecewiseRigidMap:
    """The pointwise composition x -> f(g(x)), the map of one permutation.

    That permutation is ``compose(f.permutation, g.permutation)`` when both
    share a backing form (and, for tree permutations, a labeling), and
    otherwise the product that applies g's permutation, then f's.
    """
    p, q = f.permutation, g.permutation
    try:
        pq = compose(p, q)
    except (TypeError, LabelingMismatchError):
        pq = _Product(p, q)
    return PiecewiseRigidMap(pq)


@dataclass
class RigidityReport:
    """Outcome of :func:`rigidity_audit`, with witnesses for any failure."""

    window: tuple[int, int]
    samples: int
    #: (x, f(x), round trip or colliding x) triples that broke bijectivity,
    #: and (y, f^-1(y), table value) where the inverse disagrees with a table.
    bijection_failures: list[tuple] = field(default_factory=list)
    #: (x, f(x), table value) at piece midpoints x = n + 1/2 where the map
    #: departs from the unit-slope translation the tables give.
    slope_failures: list[tuple] = field(default_factory=list)
    #: All discontinuity locations in the window; integers by construction.
    discontinuities: list[int] = field(default_factory=list)

    @property
    def bijective_ok(self) -> bool:
        return not self.bijection_failures

    @property
    def slope_ok(self) -> bool:
        return not self.slope_failures

    @property
    def passed(self) -> bool:
        return self.bijective_ok and self.slope_ok

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "samples": self.samples,
            "bijective": self.bijective_ok,
            "unit_slope": self.slope_ok,
            "discontinuities": list(self.discontinuities),
            "pass": self.passed,
        }


_HALF = Fraction(1, 2)


def _image_tables(f: PiecewiseRigidMap, lo: int, hi: int) -> tuple[dict[int, int], dict[int, int]]:
    """``image[n]`` through f for n in [lo - 1, hi], ``preimage[image[n]]``
    through ``f.inverse()`` for n in [lo, hi).  On [n, n + 1) the map adds
    image[n] - n; on [m, m + 1) the inverse adds preimage[m] - m."""
    inv = f.inverse()
    image = {n: f.image_of_integer(n) for n in range(lo - 1, hi + 1)}
    return image, {image[n]: inv.image_of_integer(image[n]) for n in range(lo, hi)}


def rigidity_audit(
    f: PiecewiseRigidMap, lo: int, hi: int, samples: int, seed: int = 0
) -> RigidityReport:
    """Check bijectivity and unit slope on [lo, hi], and list its jumps.

    The integer certificate is exhaustive: the image of every n in [lo, hi),
    tabled through f, must come back to n through ``f.inverse()``, which also
    makes the images distinct, and at the midpoint of each piece ``f.eval``
    and ``f.eval_inverse`` must agree with the tables.  The rational part is
    sampled: ``samples`` round trips at random x = n + r/den, with collision
    detection of images, decided on (n, r, den) alone.  With m = image[n],
    the round trip holds iff preimage[m] == n, and two images collide iff
    their keys (m, r/g, den/g), g = gcd(r, den), are equal; a ``Fraction``
    is built only for a failure's witness.  Discontinuities are read off the
    image table from the one-sided limits at integers.

    The midpoint tie is what checks unit slope.  The tables model each piece
    as x -> x + s with s = image[n] - n, and (x2 + s) - (x1 + s) = x2 - x1,
    so no pair served from them can fail; only ``f.eval`` can depart from
    the model, and the tie compares the two on every piece of the window.

    The samples are drawn only if some integer of [lo, hi) fails its round
    trip.  A sample at n fails only when preimage[image[n]] != n, which the
    exhaustive loop checks for every n the draws come from; two samples
    collide only when some n1 != n2 share an image m, and preimage[m] then
    differs from one of them.  So when every integer comes back no draw can
    add a witness, and skipping them leaves the report unchanged.
    """
    if lo >= hi:
        raise ValueError(f"audit window must satisfy lo < hi, got [{lo}, {hi}]")
    rng = Random(seed)
    if operator.index(samples) < 0:  # a float raises TypeError
        raise ValueError(f"samples must be nonnegative, got {samples}")
    report = RigidityReport(window=(lo, hi), samples=samples)
    bijection, slope = report.bijection_failures, report.slope_failures

    image, preimage = _image_tables(f, lo, hi)
    every_back = True
    for n in range(lo, hi):
        y, x = image[n], n + _HALF
        back = preimage[y]
        if back != n:
            bijection.append((n, y, back))
            every_back = False
        if f.eval(x) != y + _HALF:
            slope.append((x, f.eval(x), y + _HALF))
        if f.eval_inverse(y + _HALF) != back + _HALF:
            bijection.append((y + _HALF, f.eval_inverse(y + _HALF), back + _HALF))

    seen: dict[tuple[int, int, int], int] = {}
    for _ in range(0 if every_back else samples):  # see the docstring
        n = rng.randrange(lo, hi)
        den = rng.randrange(2, 1000)
        r = rng.randrange(0, den)
        m = image[n]
        back = preimage[m]
        if back != n:
            bijection.append(tuple(Fraction(i * den + r, den) for i in (n, m, back)))
        g = gcd(r, den)
        key = (m, r // g, den // g)
        prior = seen.get(key)
        if prior is not None and prior != n:
            bijection.append(tuple(Fraction(i * den + r, den) for i in (n, m, prior)))
        seen[key] = n

    report.discontinuities = [n for n in range(lo, hi + 1) if image[n] - image[n - 1] != 1]
    return report
