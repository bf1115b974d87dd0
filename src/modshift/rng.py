"""Counter-based splittable random number generation.

Every draw is a pure function of (seed, stream, counter), so draw `i` of a
sampler can be produced independently of draws `0..i-1`.  This is what makes
Monte Carlo estimates reproducible bit-for-bit regardless of how index ranges
are partitioned across workers.

The generator is the splitmix64 output function applied to a keyed counter;
uniform values in [0, m) are taken by 64-bit reduction, whose bias (< m/2**64)
is far below every statistical tolerance used in this package.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, stream: int) -> int:
    """Mix a user seed and a stream id into a 64-bit key."""
    k = _mix_int((seed & _MASK) + _GOLDEN)
    return _mix_int(k ^ _mix_int((stream & _MASK) * 0xD1342543DE82EF95 + 0x632BE59BD9B4E019))


class CounterRng:
    """Stateless uniform generator: value(counter) = mix(key + counter*golden)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._key = np.uint64(derive_key(self.seed, self.stream))

    def uint64(self, counters: np.ndarray) -> np.ndarray:
        c = np.asarray(counters, dtype=np.uint64)
        return _mix((self._key + c * np.uint64(_GOLDEN)) & np.uint64(_MASK))

    def uniform_codes(self, start: int, shape: tuple, modulus: int) -> np.ndarray:
        """Array of codes in [0, modulus); consumes one counter per cell.

        Counters run row-major from `start`, so a block of draws is identical
        to the concatenation of its sub-blocks.
        """
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        counters = np.arange(start, start + n, dtype=np.uint64)
        return self.codes_at(counters, modulus).reshape(shape)

    def codes_at(self, counters: np.ndarray, modulus: int) -> np.ndarray:
        """The codes `uniform_codes` gives the cells with these counters."""
        return (self.uint64(counters) % np.uint64(modulus)).astype(np.int64)

    def uniform_from_cdf(self, start: int, shape: tuple, thresholds: np.ndarray) -> np.ndarray:
        """Codes distributed per a fixed-point CDF.

        `thresholds` are the interior cumulative marks scaled to 2**64 (one per
        code except the last); a 64-bit draw v maps to the number of marks <= v.
        """
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        counters = np.arange(start, start + n, dtype=np.uint64)
        vals = self.uint64(counters)
        codes = np.searchsorted(thresholds, vals, side="right")
        return codes.astype(np.int64).reshape(shape)


def cdf_thresholds(probabilities) -> np.ndarray:
    """Interior fixed-point cumulative marks for uniform_from_cdf.

    Takes exact rationals (Fractions); returns len(probabilities)-1 marks.
    """
    scale = 1 << 64
    acc = 0
    out = []
    total = sum(probabilities, start=0)
    for p in list(probabilities)[:-1]:
        acc += p
        out.append(min(int(acc * scale / total), scale - 1))
    return np.array(out, dtype=np.uint64)
