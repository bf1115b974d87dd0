"""Finite-window configurations over the lattice Z^D x N^E.

Axes are listed Z-axes first, then N-axes; arrays are row-major with
coordinates increasing along each axis.  Exact mode tracks shrinking domains
under shifts and local rules; torus mode wraps every axis (including N-axes,
as a simulation device for long-horizon statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .errors import (
    ConfigParseError,
    DomainExhaustedError,
    InvalidParameterError,
    OutOfWindowError,
)
from .rings import ModuleSpec, parse_ring

__all__ = [
    "WindowSpec",
    "WindowConfig",
    "shift_config",
    "restrict_config",
    "config_add",
    "config_sub",
    "config_scale",
    "constant_config",
    "config_from_function",
    "checkerboard_config",
    "encode_config",
    "decode_config",
]

CONFIG_MAGIC = "MODSHIFT-CFG v1"


@dataclass(frozen=True)
class WindowSpec:
    """A rectangular window: origin plus positive extents on each axis."""

    dims: tuple  # (D, E)
    origin: tuple
    extents: tuple

    def __post_init__(self):
        D, E = self.dims
        if D < 0 or E < 0 or D + E < 1:
            raise InvalidParameterError(f"bad dims {self.dims}")
        n = D + E
        if len(self.origin) != n or len(self.extents) != n:
            raise InvalidParameterError("origin/extents length != D+E")
        if any(e < 1 for e in self.extents):
            raise InvalidParameterError(f"extents must be positive: {self.extents}")
        for i in range(D, n):
            if self.origin[i] < 0:
                raise InvalidParameterError(
                    f"N-axis coordinate {i} has negative origin {self.origin[i]}"
                )
        object.__setattr__(self, "origin", tuple(int(x) for x in self.origin))
        object.__setattr__(self, "extents", tuple(int(x) for x in self.extents))
        object.__setattr__(self, "dims", (int(D), int(E)))

    @property
    def axes(self) -> int:
        return self.dims[0] + self.dims[1]

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.extents))

    def sites(self):
        """All sites, row-major."""
        for rel in iter_product(*(range(e) for e in self.extents)):
            yield tuple(o + r for o, r in zip(self.origin, rel))

    def contains_site(self, site) -> bool:
        """Whether the site is in the window; `flat_indices` refuses a malformed site."""
        try:
            self.flat_indices([site])
        except OutOfWindowError:
            return False
        return True

    def contains_window(self, other: "WindowSpec") -> bool:
        return all(
            so <= oo and oo + oe <= so + se
            for so, se, oo, oe in zip(
                self.origin, self.extents, other.origin, other.extents
            )
        )

    def flat_indices(self, sites) -> np.ndarray:
        """Row-major indices of `sites` in this window, as an int64 array.

        A site without D+E integer coordinates raises InvalidParameterError,
        a site outside the window OutOfWindowError; both name the first such
        site.  `sites` is any iterable of sites, or an (n, D+E) array.
        """
        sites = sites if isinstance(sites, np.ndarray) else list(sites)
        if len(sites) == 0:
            return np.zeros(0, dtype=np.int64)
        coords = integer_array(sites, (len(sites), self.axes))
        if coords is None:
            bad = next(s for s in sites if integer_array(s, (self.axes,)) is None)
            raise InvalidParameterError(
                f"site {bad} does not have D+E = {self.axes} integer coordinates"
            )
        rel = coords - np.array(self.origin, dtype=np.int64)
        inside = ((rel >= 0) & (rel < np.array(self.extents))).all(axis=1)
        if not inside.all():
            bad = tuple(coords[np.argmin(inside)].tolist())
            raise OutOfWindowError(f"site {bad} not in window {self}")
        return np.ravel_multi_index(tuple(rel.T), self.extents).astype(np.int64, copy=False)

    def index_of(self, site) -> int:
        return int(self.flat_indices([site])[0])

    def relative_slices(self, sub: "WindowSpec"):
        return tuple(
            slice(oo - so, oo - so + oe)
            for so, oo, oe in zip(self.origin, sub.origin, sub.extents)
        )

    def translate(self, v) -> "WindowSpec":
        return WindowSpec(
            self.dims,
            tuple(o + x for o, x in zip(self.origin, v)),
            self.extents,
        )

    def intersect(self, other: "WindowSpec"):
        """Common sub-window, or None when disjoint."""
        origin = tuple(
            max(a, b) for a, b in zip(self.origin, other.origin)
        )
        top = tuple(
            min(a + ea, b + eb)
            for a, ea, b, eb in zip(self.origin, self.extents, other.origin, other.extents)
        )
        extents = tuple(t - o for o, t in zip(origin, top))
        if any(e < 1 for e in extents):
            return None
        return WindowSpec(self.dims, origin, extents)

    @staticmethod
    def clipped_to_lattice(dims, origin, extents):
        """The box origin + [0, extents) intersected with Z^D x N^E; None when empty.

        The box may stick out of the lattice (negative N-axis origin) or be
        empty (an extent below 1), which a WindowSpec itself cannot.
        """
        origin, extents = list(origin), list(extents)
        for i in range(dims[0], len(origin)):
            if origin[i] < 0:
                extents[i] += origin[i]
                origin[i] = 0
        if any(e < 1 for e in extents):
            return None
        return WindowSpec(dims, tuple(origin), tuple(extents))

    def stencil_anchors(self, offsets):
        """Anchors m in the lattice with m + every offset inside the window; None if empty."""
        offs = np.array(offsets, dtype=np.int64)
        lo, hi = offs.min(axis=0).tolist(), offs.max(axis=0).tolist()
        return WindowSpec.clipped_to_lattice(
            self.dims,
            [o - l for o, l in zip(self.origin, lo)],
            [e - (h - l) for e, h, l in zip(self.extents, hi, lo)],
        )

    def expanded(self, lo, hi) -> "WindowSpec":
        """Grow by lo (per axis, towards -inf) and hi (towards +inf), clipped to the lattice."""
        return WindowSpec.clipped_to_lattice(
            self.dims,
            [o - l for o, l in zip(self.origin, lo)],
            [e + l + h for e, l, h in zip(self.extents, lo, hi)],
        )

    def __str__(self):
        return (
            f"win(dims={self.dims[0]},{self.dims[1]} origin="
            + ",".join(map(str, self.origin))
            + " extents="
            + ",".join(map(str, self.extents))
            + ")"
        )


@dataclass(frozen=True)
class WindowConfig:
    """Module values on a window.

    `values` has shape extents + (rank,) holding ring element codes; the mode
    tag selects exact (shrinking-domain) or torus (wrapping) evaluation.
    """

    window: WindowSpec
    module: ModuleSpec
    values: np.ndarray
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "torus"):
            raise InvalidParameterError(f"mode must be exact|torus: {self.mode!r}")
        vals = np.ascontiguousarray(self.values, dtype=np.int64)
        expected = self.window.extents + (self.module.rank,)
        if vals.shape != expected:
            raise InvalidParameterError(
                f"values shape {vals.shape} != extents+(rank,) {expected}"
            )
        if vals.size and (vals.min() < 0 or vals.max() >= self.module.ring.size):
            bad = np.argwhere((vals < 0) | (vals >= self.module.ring.size))[0]
            raise InvalidParameterError(
                f"element code out of range at index {tuple(int(x) for x in bad)}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value_at(self, site):
        """The module element (tuple of ring codes) stored at an absolute site."""
        return tuple(self.flat()[self.window.index_of(site)].tolist())

    def flat(self) -> np.ndarray:
        """(n_sites, rank) view, row-major."""
        return self.values.reshape(self.window.n_sites, self.module.rank)

    def word_key(self) -> bytes:
        return self.values.tobytes()

    def with_values(self, values) -> "WindowConfig":
        return WindowConfig(self.window, self.module, values, self.mode)

    def __eq__(self, other):
        return (
            isinstance(other, WindowConfig)
            and self.window == other.window
            and self.module == other.module
            and self.mode == other.mode
            and np.array_equal(self.values, other.values)
        )


def integer_array(values, shape):
    """`values` as an int64 array of `shape`, or None when they are not integers of that shape."""
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged: rows of different lengths
        return None
    if arr.dtype.kind not in "iu" or arr.shape != shape:
        return None
    return arr.astype(np.int64, copy=False)


def constant_config(module, window, element, mode="exact") -> WindowConfig:
    """Every site holds `element` (a module code tuple or single ring code)."""
    if isinstance(element, int):
        element = (element,) * module.rank
    vals = np.tile(np.array(element, dtype=np.int64), window.extents + (1,))
    return WindowConfig(window, module, vals, mode)


def config_from_function(module, window, fn, mode="exact") -> WindowConfig:
    """Build a config by evaluating fn(site) -> module element at every site."""
    vals = np.zeros((window.n_sites, module.rank), dtype=np.int64)
    for i, site in enumerate(window.sites()):
        v = fn(site)
        vals[i] = (v,) * module.rank if isinstance(v, int) else v
    return WindowConfig(window, module, vals.reshape(window.extents + (module.rank,)), mode)


def coordinate_sum_images(ring, window: WindowSpec) -> np.ndarray:
    """(sum of coordinates) * 1 in the ring at every site, shape window.extents: one gather
    from a table of n * 1 for n from the least sum, as long as the characteristic or the span."""
    grids = np.meshgrid(
        *[np.arange(o, o + e, dtype=np.int64) for o, e in zip(window.origin, window.extents)],
        indexing="ij", sparse=True,
    )
    low = sum(window.origin)
    n = min(ring.characteristic, sum(window.extents) - window.axes + 1)
    images = np.array([ring.from_int(low + i) for i in range(n)], dtype=np.int64)
    return images[(sum(grids) - low) % n]


def checkerboard_config(module, window, mode="exact") -> WindowConfig:
    """c_site = (sum of coordinates) * 1 in the ring, on every component."""
    scalars = coordinate_sum_images(module.ring, window)
    vals = np.repeat(scalars[..., None], module.rank, axis=-1)
    return WindowConfig(window, module, vals, mode)


_INT64 = np.iinfo(np.int64)


def _within_int64(coords) -> bool:
    return all(_INT64.min <= x <= _INT64.max for x in coords)


def scaled_offset(offset, n: int, axes: int) -> tuple:
    """The lattice vector n * offset; an offset without `axes` coordinates is
    refused, and so is a vector past the int64 coordinate range."""
    offset = tuple(int(x) for x in offset)
    if len(offset) != axes:
        raise InvalidParameterError(
            f"offset {offset} has length {len(offset)}, not D+E = {axes}"
        )
    v = tuple(int(n) * x for x in offset)
    if not _within_int64(v):
        raise InvalidParameterError(f"offset {offset} at n = {n} is past the int64 coordinate range")
    return v


def pin_union(placed):
    """The k-fold event A_1 & sigma^(v_2) A_2 & ... of words placed at lattice vectors, as pins.

    `placed` is a sequence of (vector v, word); each word's values are pinned
    on its window translated by v (at separation n, offset h places a word at
    `scaled_offset(h, n, axes)`).  Returns `(pins, clash)`: `pins` maps each
    pinned site to its first value, both int tuples, in the order first
    pinned; `clash` is None, or (site, held value, other value) of the first
    pin, word after word and each window row-major, whose site an earlier pin
    holds with another value.  A word whose translated window leaves the
    int64 coordinate range is refused.
    """
    pins, clash = {}, None
    for v, word in placed:
        lo = [o + x for o, x in zip(word.window.origin, v)]
        if not _within_int64(lo + [x + e - 1 for x, e in zip(lo, word.window.extents)]):
            raise InvalidParameterError(
                f"word on {word.window} translated by {tuple(v)} is past the int64 coordinate range"
            )
        for site, value in zip(word.window.sites(), map(tuple, word.flat().tolist())):
            site = tuple(s + x for s, x in zip(site, v))
            held = pins.setdefault(site, value)
            if clash is None and held != value:
                clash = (site, held, value)
    return pins, clash


def shift_config(config: WindowConfig, v) -> WindowConfig:
    """Read the configuration displaced by v: out_m = c_{m+v}.

    Exact mode shrinks (and clips to the lattice); torus mode wraps per axis.
    """
    v = tuple(int(x) for x in v)
    if len(v) != config.window.axes:
        raise InvalidParameterError(f"vector {v} has wrong arity")
    if config.mode == "torus":
        shifts = tuple(-x for x in v)
        vals = np.roll(config.values, shifts, axis=tuple(range(len(v))))
        return config.with_values(vals)
    w = config.window
    out_window = WindowSpec.clipped_to_lattice(
        w.dims, [o - x for o, x in zip(w.origin, v)], w.extents
    )
    if out_window is None:
        raise DomainExhaustedError(f"shift by {v} empties the window")
    src = out_window.translate(v)
    vals = config.values[config.window.relative_slices(src)]
    return WindowConfig(out_window, config.module, vals, config.mode)


def restrict_config(config: WindowConfig, sub: WindowSpec) -> WindowConfig:
    if not config.window.contains_window(sub):
        raise OutOfWindowError(f"{sub} not contained in {config.window}")
    vals = config.values[config.window.relative_slices(sub)]
    return WindowConfig(sub, config.module, vals, config.mode)


def _check_compatible(a: WindowConfig, b: WindowConfig):
    a.module.check_same(b.module)
    if a.window != b.window:
        raise OutOfWindowError("configs live on different windows")


def config_add(a: WindowConfig, b: WindowConfig) -> WindowConfig:
    _check_compatible(a, b)
    return a.with_values(a.module.ring.add_arr(a.values, b.values))


def config_sub(a: WindowConfig, b: WindowConfig) -> WindowConfig:
    _check_compatible(a, b)
    return a.with_values(a.module.ring.sub_arr(a.values, b.values))


def config_scale(scalar: int, c: WindowConfig) -> WindowConfig:
    """`scalar * c`; the scalar is an element code of the ring, else InvalidParameterError."""
    ring = c.module.ring
    return c.with_values(ring.mul_arr(np.int64(ring.element_code(scalar, "scalar")), c.values))


def encode_config(config: WindowConfig) -> str:
    """Bit-exact text form; one line per row, packed module codes per site."""
    w = config.window
    lines = [
        CONFIG_MAGIC,
        config.module.ring.descriptor(),
        f"rank {config.module.rank}",
        f"dims {w.dims[0]} {w.dims[1]}",
        "origin " + " ".join(str(o) for o in w.origin),
        "extents " + " ".join(str(e) for e in w.extents),
        f"mode {config.mode}",
    ]
    packed = config.module.pack_arr(config.values)
    rows = packed.reshape(-1, w.extents[-1]) if w.axes > 1 else packed.reshape(1, -1)
    for row in rows:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def _parse_header_line(lines, idx, prefix):
    if idx >= len(lines):
        raise ConfigParseError(f"missing {prefix!r} line", line=idx + 1)
    line = lines[idx]
    if not line.startswith(prefix + " "):
        raise ConfigParseError(f"expected {prefix!r} line, got {line!r}", line=idx + 1)
    try:
        return [int(tok) for tok in line[len(prefix) + 1 :].split()]
    except ValueError:
        raise ConfigParseError(f"bad integers in {line!r}", line=idx + 1) from None


def decode_config(text: str) -> WindowConfig:
    lines = text.splitlines()
    if not lines or lines[0] != CONFIG_MAGIC:
        raise ConfigParseError(f"bad magic; expected {CONFIG_MAGIC!r}", line=1)
    if len(lines) < 7:
        raise ConfigParseError("truncated header", line=len(lines))
    try:
        ring = parse_ring(lines[1])
    except InvalidParameterError as e:
        raise ConfigParseError(str(e), line=2) from None
    rank = _parse_header_line(lines, 2, "rank")
    if len(rank) != 1:
        raise ConfigParseError("rank line needs exactly one integer", line=3)
    try:
        module = ModuleSpec(ring, rank[0])
    except InvalidParameterError as e:
        raise ConfigParseError(str(e), line=3) from None
    dims = _parse_header_line(lines, 3, "dims")
    if len(dims) != 2:
        raise ConfigParseError("dims line needs exactly D and E", line=4)
    D, E = dims
    if D < 0 or E < 0 or D + E < 1:
        raise ConfigParseError(f"bad dims {tuple(dims)}", line=4)
    origin = _parse_header_line(lines, 4, "origin")
    if len(origin) != D + E:
        raise ConfigParseError(f"origin has {len(origin)} coordinates, want {D + E}", line=5)
    for i in range(D, D + E):
        if origin[i] < 0:
            raise ConfigParseError(f"N-axis coordinate {i} has negative origin {origin[i]}", line=5)
    extents = _parse_header_line(lines, 5, "extents")
    if len(extents) != D + E:
        raise ConfigParseError(f"extents has {len(extents)} entries, want {D + E}", line=6)
    if any(e < 1 for e in extents):
        raise ConfigParseError(f"extents must be positive: {tuple(extents)}", line=6)
    mode_line = lines[6]
    if mode_line not in ("mode exact", "mode torus"):
        raise ConfigParseError(f"bad mode line {mode_line!r}", line=7)
    mode = mode_line.split()[1]
    window = WindowSpec((D, E), tuple(origin), tuple(extents))
    n_rows = window.n_sites // window.extents[-1] if window.axes > 1 else 1
    row_len = window.extents[-1] if window.axes > 1 else window.n_sites
    body = lines[7:]
    if len(body) != n_rows:
        raise ConfigParseError(
            f"expected {n_rows} value rows, found {len(body)}", line=8
        )
    packed = []
    for r, line in enumerate(body):
        toks = line.split(" ")
        if toks == [""]:
            toks = []
        if len(toks) != row_len:
            raise ConfigParseError(
                f"row has {len(toks)} values, expected {row_len}", line=8 + r
            )
        for cidx, tok in enumerate(toks):
            try:
                val = int(tok)
            except ValueError:
                raise ConfigParseError(
                    f"bad value {tok!r}", line=8 + r, column=cidx + 1
                ) from None
            if not 0 <= val < module.size:
                offset = r * row_len + cidx
                raise ConfigParseError(
                    f"code {val} out of range [0,{module.size}) at flat offset {offset}",
                    line=8 + r,
                    column=cidx + 1,
                )
            packed.append(val)
    comps = module.unpack_arr(np.array(packed, dtype=np.int64).reshape(window.extents))
    return WindowConfig(window, module, comps, mode)
