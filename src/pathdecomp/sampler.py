"""Truncated exponential distribution and the deterministic uniform stream behind it.

The distribution texp_[lo,hi](lam) is an exponential with mean lam conditioned
to the interval [lo, hi]:

    pdf(x) = e^(-x/lam) / (lam * (e^(-lo/lam) - e^(-hi/lam)))    for x in [lo, hi]

Sampling is by inverse-CDF transform, consuming exactly one uniform per draw,
so the j-th sample of a stream depends only on (seed, j). Uniforms come from
numpy's Philox 4x64 counter-based generator, which produces identical streams
for identical keys on every platform; per-task seeds are derived from a master
seed with a splitmix64 mix.

A stream is keyed by its seed alone. The padding trials of one
verifier.estimate_padding call share one stream and re-key it to each trial's
seed (RngStream.rekey), which yields exactly the uniforms of a new stream at
that seed without numpy's generator set-up; no stream's output changes.

Seeds and counts go through graph._integer, and the parameters of the law
through graph._real: a bool, a float seed or a string raises TypeError
naming the argument, where int() would run it as 1, its floor or parsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _integer, _real

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ZEROS = (0, 0, 0, 0)


class ParameterError(ValueError):
    """Invalid distribution parameters."""


@dataclass(frozen=True)
class TexpParams:
    """Truncated exponential parameters: mean lam, support [lo, hi]."""

    lam: float
    lo: float
    hi: float

    def __post_init__(self):
        if not _real("lam", self.lam) > 0:
            raise ParameterError(f"lam must be positive, got {self.lam}")
        lo, hi = _real("lo", self.lo), _real("hi", self.hi)
        if not (0 <= lo < hi < math.inf):
            raise ParameterError(f"need 0 <= lo < hi < inf, got [{self.lo}, {self.hi}]")


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit child seed for task `index` under `master` (splitmix64)."""
    x = (_integer("master", master) + _GOLDEN * (_integer("index", index) + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class RngStream:
    """Seeded uniform stream; same seed gives bit-identical output everywhere."""

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def rekey(self, seed: int) -> None:
        """Restart in place as RngStream(seed) would start: the Philox key
        becomes the seed, and the counter, the output buffer and the 32-bit
        carry are reset. A new Generator pays numpy's seeding set-up; setting
        the state does not."""
        self.seed = _integer("seed", seed) & _MASK64
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": (self.seed, 0)},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }  # buffer_pos 4: all four buffered words are spent, as in a new Philox

    def uniform(self) -> float:
        """One uniform draw from [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, k: int) -> np.ndarray:
        """k uniform draws; identical to k successive uniform() calls."""
        return self._gen.random(_integer("k", k))

    def permutation(self, k: int) -> np.ndarray:
        return self._gen.permutation(_integer("k", k))

    def integer(self, n: int) -> int:
        """One uniform integer from [0, n)."""
        return int(self._gen.integers(_integer("n", n)))

    def integers(self, bounds: np.ndarray) -> np.ndarray:
        """One uniform integer from [0, b) for each b in bounds: the draws,
        and the stream state after them, of successive integer(b) calls
        (numpy draws an array of bounds one bound at a time, in order)."""
        return self._gen.integers(np.asarray(bounds, dtype=np.int64))

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(_integer("n", n), size=_integer("k", k), replace=False)

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


def _require_point(x) -> None:
    """Refuse an x that is not a number, or is nan, where every comparison
    with lo and hi is false."""
    if math.isnan(_real("x", x)):
        raise ParameterError("x must not be nan")


def texp_pdf(params: TexpParams, x: float) -> float:
    """Density of the truncated exponential; zero outside [lo, hi].

    Computed in the shifted form e^(-(x-lo)/lam) / (lam * -expm1(-(hi-lo)/lam)),
    which stays accurate for both tiny and huge lam.
    """
    _require_point(x)
    if x < params.lo or x > params.hi:
        return 0.0
    span = params.hi - params.lo
    return math.exp(-(x - params.lo) / params.lam) / (
        params.lam * -math.expm1(-span / params.lam)
    )


def texp_cdf(params: TexpParams, x: float) -> float:
    """F(x) = (e^(-lo/lam) - e^(-x/lam)) / (e^(-lo/lam) - e^(-hi/lam)), clamped to [0,1]."""
    _require_point(x)
    if x <= params.lo:
        return 0.0
    if x >= params.hi:
        return 1.0
    span = params.hi - params.lo
    val = math.expm1(-(x - params.lo) / params.lam) / math.expm1(-span / params.lam)
    return min(1.0, max(0.0, val))


def _icdf(params: TexpParams, u):
    """The inverse CDF on numpy uniforms u in [0, 1]: the one formula behind
    every radius. Uses the overflow-free form
    x = lo - lam * log1p(-u * -expm1(-(hi-lo)/lam)), clipped to [lo, hi];
    a lam below 1e-300*(hi-lo) is treated as a point mass at lo."""
    span = params.hi - params.lo
    if params.lam < 1e-300 * span:
        return np.full(np.shape(u), params.lo)
    x = params.lo - params.lam * np.log1p(u * np.expm1(-span / params.lam))
    return np.clip(x, params.lo, params.hi)


def texp_icdf(params: TexpParams, u: float) -> float:
    """Inverse CDF; u=0 and u=1 hit lo and hi exactly."""
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"u must lie in [0,1], got {u}")
    if u == 1.0:
        return params.hi
    return float(_icdf(params, np.float64(u)))


def texp_sample(params: TexpParams, rng: RngStream) -> float:
    """One radius: inverse-CDF transform of one uniform draw."""
    return texp_icdf(params, rng.uniform())


def texp_sample_many(params: TexpParams, rng: RngStream, k: int) -> np.ndarray:
    """k radii, bit-identical to k successive texp_sample calls on the same stream."""
    return _icdf(params, rng.uniforms(k))
