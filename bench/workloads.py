"""Seeded request sequences for the benchmark workloads.

A request is a dict.  ``op`` names the command (or ``audit`` for the
rigidity-audit API call) and selects the output check; ``argv`` is the
command line handed to ``lineparadox.cli.main``; the other keys carry what
the check needs.  This module imports nothing from the package, so the
sequences are fixed by ``(workload, seed, scale)`` alone.

Every draw is made so that different seeds ask for the same amount of work:
window sizes, word weights, radii and request counts are fixed per scale,
and the seed only moves offsets and picks words within a narrow band.  That
keeps the seed-to-seed spread of the timings close to the run-to-run spread.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep-k2", "omega", "certify", "interactive")

#: Sizes per scale.  "full" is what BENCHMARK.json measures; "tiny" runs the
#: same request types in well under a second, for the self-tests.
SIZES = {
    "full": {
        "sweep_half": 25_000,
        "omega_half": 4_000,
        "omega_heavy_weight": 90,
        "omega_enum": 2_000,
        "free_len": 8,
        "free_half": 75,
        "audits": 2,
        "audit_samples": 10_000,
        "interactive_repeat": 8,
        # 18 balls among 122 requests: the slowest tenth of the requests is
        # the two radius-7 balls and ten of the radius-6 ones, so the 90th
        # percentile latency falls inside the radius-6 group, not on the
        # edge between two request types.
        "cayley_radii": (7, 7) + (6,) * 16,
    },
    "tiny": {
        "sweep_half": 200,
        "omega_half": 100,
        "omega_heavy_weight": 24,
        "omega_enum": 60,
        "free_len": 3,
        "free_half": 10,
        "audits": 1,
        "audit_samples": 200,
        "interactive_repeat": 1,
        "cayley_radii": (2, 3),
    },
}


def _window(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


def _far(rng: random.Random, low: int) -> int:
    """A label of magnitude in [low, 2*low) with a random sign.

    One octave of magnitude keeps word lengths within a letter or two, so
    decode and encode costs barely depend on the seed.
    """
    return rng.choice((1, -1)) * rng.randrange(low, 2 * low)


def _token(a: int) -> str:
    return f"{'x' if a > 0 else 'X'}{abs(a)}"


def _reduced_word(rng: random.Random, k: int, length: int) -> tuple[int, ...]:
    letters = [s for j in range(1, k + 1) for s in (j, -j)]
    word: list[int] = []
    while len(word) < length:
        a = rng.choice(letters)
        if not word or a != -word[-1]:
            word.append(a)
    return tuple(word)


def _omega_word(rng: random.Random, weight: int) -> tuple[int, ...]:
    """A reduced three-letter word ``x_a y z`` of exactly the given weight.

    Encoding cost at rank omega is set by the weight (the counting tables
    are filled up to it), so fixing the weight fixes the cost while the seed
    still chooses the letters.
    """
    b = rng.choice((1, -1)) * rng.randint(2, 4)
    c = rng.choice((1, -1)) * rng.randint(1, 3)
    if c == -b:
        c = -c
    a = weight - 3 - abs(b) - abs(c)
    return (a, b, c)


def _verify(lo: int, hi: int, k: str = "2", **extra) -> dict:
    argv = ["verify", "--k", k, "--window", _window(lo, hi)]
    pairs = (1, 2)
    if k == "omega":
        argv += ["--J", "10"]
        pairs = tuple(range(1, 11))
    if "free_len" in extra:
        argv += ["--free-check", str(extra["free_len"])]
    return {"op": "verify", "argv": argv, "lo": lo, "hi": hi, "pairs": pairs, **extra}


def _sweep_k2(rng: random.Random, size: dict) -> list[dict]:
    half = size["sweep_half"]
    c = rng.randint(-half // 4, half // 4)
    req = _verify(c - half, c + half)
    req["out"] = "sweep.json"
    return [req]


def _omega(rng: random.Random, size: dict) -> list[dict]:
    half = size["omega_half"]
    c = rng.randint(-half // 4, half // 4)
    reqs = [_verify(c - half, c + half, k="omega")]
    heavy = _omega_word(rng, size["omega_heavy_weight"])
    # A one-piece window: the image range of a heavy word spans more
    # integers than the SVG grid can draw, one line per integer.
    reqs.append(_plot_fn("omega", heavy, 0, 1))
    count = size["omega_enum"]
    reqs.append({"op": "enumerate", "argv": ["enumerate", "--k", "omega", "--count", str(count)],
                 "k": "omega", "count": count})
    return reqs


def _plot_fn(k: str, word: tuple[int, ...], lo: int, hi: int) -> dict:
    text = " ".join(_token(a) for a in word)
    return {"op": "plot-fn",
            "argv": ["plot-fn", "--k", k, "--word", text, "--window", _window(lo, hi)],
            "lo": lo, "hi": hi}


def _certify(rng: random.Random, size: dict) -> list[dict]:
    half = size["free_half"]
    c = rng.randint(-3 * half, 3 * half)
    reqs = [_verify(c - half, c + half, free_len=size["free_len"])]
    for _ in range(size["audits"]):
        # Two length-5 words with no cancellation between them, so every
        # composite collapses to a length-10 word and costs about the same.
        f = _reduced_word(rng, 2, 5)
        g = _reduced_word(rng, 2, 5)
        while g[0] == -f[-1]:
            g = _reduced_word(rng, 2, 5)
        reqs.append({"op": "audit", "f": f, "g": g, "lo": -50, "hi": 50,
                     "samples": size["audit_samples"], "seed": rng.randrange(1 << 30)})
    return reqs


def _interactive(rng: random.Random, size: dict) -> list[dict]:
    reqs: list[dict] = []
    for _ in range(size["interactive_repeat"]):
        for _ in range(3):
            lo = _far(rng, 10**9)
            reqs.append({"op": "classify",
                         "argv": ["classify", "--k", "2", "--window", _window(lo, lo + 9)],
                         "lo": lo, "hi": lo + 9})
        for _ in range(3):
            m, n = _far(rng, 10**12), _far(rng, 10**12)
            reqs.append({"op": "connect", "argv": ["connect", str(m), str(n), "--check"],
                         "m": m, "n": n})
        for _ in range(2):
            lo = rng.randint(-40, 30)
            reqs.append(_plot_fn("2", _reduced_word(rng, 2, 2), lo, lo + 8))
        for _ in range(2):
            lo = _far(rng, 10**6)
            reqs.append({"op": "line-strip",
                         "argv": ["line-strip", "--k", "2", "--window", _window(lo, lo + 29)],
                         "lo": lo, "hi": lo + 29})
        for _ in range(2):
            lo = _far(rng, 10**8)
            reqs.append(_verify(lo, lo + 199))
        reqs.append({"op": "enumerate", "argv": ["enumerate", "--k", "2", "--count", "300"],
                     "k": "2", "count": 300})
    for r in size["cayley_radii"]:
        reqs.append({"op": "plot-cayley",
                     "argv": ["plot-cayley", "--k", "2", "--radius", str(r)], "radius": r})
    rng.shuffle(reqs)
    return reqs


_BUILDERS = {
    "sweep-k2": _sweep_k2,
    "omega": _omega,
    "certify": _certify,
    "interactive": _interactive,
}


def requests(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The request sequence one pass of ``workload`` sends, in order."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, SIZES[scale])
