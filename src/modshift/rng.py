"""Counter-based splittable random number generation.

Every draw is a pure function of (seed, stream, counter), so draw `i` of a
sampler can be produced independently of draws `0..i-1`.  This is what makes
Monte Carlo estimates reproducible bit-for-bit regardless of how index ranges
are partitioned across workers.

The generator is the splitmix64 output function applied to a keyed counter.
A draw is a counter grid, cell (i, j) taking counter start + i*stride +
columns[j] mod 2**64, computed in place a fixed block of cells at a time and
reduced by a mask for a power-of-two modulus m, else by 64-bit remainder
(bias < m/2**64, far below every statistical tolerance used here), or by a
fixed-point CDF.  Grids over DRAW_CAP cells are refused before allocating.
The values are those of the per-counter formula mix(key + counter*golden).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DRAW_CAP, DrawLimitError, InvalidParameterError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1 << 14  # cells per block: the block and its scratch stay in cache


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64's output function on uint64 `z` in place; `tmp` is scratch."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None)):
        np.bitwise_xor(z, np.right_shift(z, np.uint64(shift), out=tmp), out=z)
        if mult:
            np.multiply(z, np.uint64(mult), out=z)


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
        self._key = derive_key(self.seed, self.stream)

    def uint64(self, counters: np.ndarray) -> np.ndarray:
        z = np.array(counters, dtype=np.uint64)
        np.add(np.multiply(z, np.uint64(_GOLDEN), out=z), np.uint64(self._key), out=z)
        _mix(z, np.empty_like(z))
        return z

    def uniform_codes(self, start: int, shape: tuple, modulus: int, columns=None) -> np.ndarray:
        """Array of codes in [0, modulus); consumes one counter per cell.

        Without `columns`, counters run row-major from `start`, so a block of
        draws is identical to the concatenation of its sub-blocks.  With
        `columns`, `shape` is (count, stride) and cell (i, j) takes counter
        start + i * stride + columns[j]: the listed columns of the full grid.
        """
        if not 1 <= modulus <= 1 << 63:
            raise InvalidParameterError(f"modulus {modulus} is not in [1, 2**63]")
        return self._grid(start, shape, columns, modulus=modulus)

    def uniform_from_cdf(self, start: int, shape: tuple, thresholds: np.ndarray, columns=None) -> np.ndarray:
        """Codes distributed per a fixed-point CDF, on `uniform_codes`' grid.

        `thresholds` are the interior cumulative marks scaled to 2**64 (one per
        code except the last); a 64-bit draw v maps to the number of marks <= v.
        """
        return self._grid(start, shape, columns, thresholds=thresholds)

    def _grid(self, start, shape, columns, modulus=None, thresholds=None) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        if columns is None:
            count, stride, columns, out_shape = math.prod(shape), 1, np.zeros(1, np.uint64), shape
        else:
            (count, stride), columns = shape, np.asarray(columns).astype(np.uint64).ravel()
            out_shape = (count, columns.size)
        width, start = columns.size, int(start)
        if min(shape, default=0) < 0 or not 0 <= start // max(stride, 1) <= _MASK:
            raise InvalidParameterError(f"draw of shape {shape} from counter {start}: extents "
                                        "must be >= 0 and the start row must fit in 64 bits")
        if count * max(width, 1) > DRAW_CAP:
            raise DrawLimitError(f"draw of {count} x {width} cells exceeds the draw cap {DRAW_CAP}",
                                 required=count * max(width, 1))
        step = stride * _GOLDEN & _MASK
        rows = max(1, min(count, _BLOCK // max(width, 1)))
        base = columns * np.uint64(_GOLDEN) + np.uint64((self._key + start * _GOLDEN) & _MASK)
        first = (np.arange(rows, dtype=np.uint64) * np.uint64(step))[:, None] + base
        tmp = np.empty_like(first)
        out = np.empty((count, width), dtype=np.uint64)
        for r0 in range(0, count, rows):
            z = out[r0 : r0 + rows]
            np.add(first[: len(z)], np.uint64(r0 * step & _MASK), out=z)
            _mix(z, tmp[: len(z)])
            if thresholds is not None:
                z[...] = np.searchsorted(thresholds, z, side="right")
            elif modulus & (modulus - 1):
                np.remainder(z, np.uint64(modulus), out=z)
            else:
                np.bitwise_and(z, np.uint64(modulus - 1), out=z)
        return out.view(np.int64).reshape(out_shape)


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
