import numpy as np
import pytest

from modshift import (
    ConfigParseError,
    DomainExhaustedError,
    InvalidParameterError,
    ModuleSpec,
    OutOfWindowError,
    WindowConfig,
    WindowSpec,
    ZmodRing,
    checkerboard_config,
    config_add,
    config_scale,
    config_sub,
    constant_config,
    decode_config,
    encode_config,
    restrict_config,
    shift_config,
)
from modshift.rng import CounterRng

Z2 = ModuleSpec(ZmodRing(2), 1)
Z6 = ModuleSpec(ZmodRing(6), 1)


def w(dims, origin, extents):
    return WindowSpec(dims, origin, extents)


def random_config(module, window, seed, mode="exact"):
    rng = CounterRng(seed, stream=99)
    vals = rng.uniform_codes(0, window.extents + (module.rank,), module.ring.size)
    return WindowConfig(window, module, vals, mode)


def test_window_invariants():
    with pytest.raises(InvalidParameterError):
        WindowSpec((1, 1), (0, -1), (2, 2))  # negative N origin
    with pytest.raises(InvalidParameterError):
        WindowSpec((1, 0), (0,), (0,))
    win = WindowSpec((1, 1), (-3, 2), (4, 5))
    assert win.n_sites == 20
    assert list(win.sites())[0] == (-3, 2)


def test_shift_fixes_constants():
    win = w((2, 0), (0, 0), (5, 5))
    cfg = constant_config(Z6, win, 4)
    out = shift_config(cfg, (2, -1))
    assert np.all(out.values == 4)


def test_checkerboard_torus_shift_flips():
    win = w((1, 1), (0, 0), (4, 4))
    cb = checkerboard_config(Z2, win, mode="torus")
    out = shift_config(cb, (1, 0))
    assert np.array_equal(out.values, (1 - cb.values) % 2)


def test_torus_shift_group_action():
    win = w((2, 0), (0, 0), (8, 8))
    cfg = random_config(Z6, win, 5, mode="torus")
    v = (3, -2)
    back = shift_config(shift_config(cfg, v), tuple(-x for x in v))
    assert back == cfg


def test_exact_shift_composition():
    win = w((1, 1), (-2, 0), (9, 7))
    cfg = random_config(Z6, win, 8)
    u, v = (1, 2), (-3, 1)
    lhs = shift_config(shift_config(cfg, u), v)
    rhs = shift_config(cfg, tuple(a + b for a, b in zip(u, v)))
    common = lhs.window.intersect(rhs.window)
    assert common is not None
    assert restrict_config(lhs, common) == restrict_config(rhs, common)


def test_exact_shift_domain_exhausted():
    win = w((0, 1), (0,), (3,))
    cfg = constant_config(Z2, win, 1)
    with pytest.raises(DomainExhaustedError):
        shift_config(cfg, (5,))


def test_restrict_identity_and_corner():
    win = w((1, 1), (0, 0), (4, 4))
    cb = checkerboard_config(Z2, win)
    assert restrict_config(cb, win) == cb
    corner = restrict_config(cb, w((1, 1), (0, 0), (2, 2)))
    assert corner == checkerboard_config(Z2, w((1, 1), (0, 0), (2, 2)))
    with pytest.raises(OutOfWindowError):
        restrict_config(cb, w((1, 1), (3, 3), (2, 2)))


def test_restrict_composes_to_intersection():
    win = w((2, 0), (0, 0), (6, 6))
    cfg = random_config(Z6, win, 3)
    a = w((2, 0), (1, 1), (4, 4))
    b = w((2, 0), (2, 2), (2, 2))
    assert restrict_config(restrict_config(cfg, a), b) == restrict_config(cfg, b)


def test_config_algebra():
    win = w((1, 0), (0,), (6,))
    a = random_config(Z6, win, 1)
    b = random_config(Z6, win, 2)
    s = config_add(a, b)
    assert config_sub(s, b) == a
    assert np.all(config_scale(0, a).values == 0)


def test_encode_canonical_checkerboard():
    win = w((1, 1), (0, 0), (2, 2))
    cb = checkerboard_config(Z2, win)
    text = encode_config(cb)
    assert text == (
        "MODSHIFT-CFG v1\nzmod:2\nrank 1\ndims 1 1\norigin 0 0\nextents 2 2\n"
        "mode exact\n0 1\n1 0\n"
    )
    assert encode_config(decode_config(text)) == text


def test_decode_encode_roundtrip_random():
    for seed, rank in [(1, 1), (2, 2)]:
        module = ModuleSpec(ZmodRing(6), rank)
        win = w((1, 1), (-2, 1), (3, 4))
        cfg = random_config(module, win, seed, mode="torus")
        assert decode_config(encode_config(cfg)) == cfg


def test_decode_out_of_range_names_offset():
    win = w((1, 0), (0,), (3,))
    cfg = constant_config(Z6, win, 0)
    text = encode_config(cfg).replace("0 0 0", "0 7 0")
    with pytest.raises(ConfigParseError) as err:
        decode_config(text)
    assert "offset 1" in str(err.value)
    assert err.value.line == 8


def test_decode_refuses_a_module_whose_codes_overflow_int64():
    # zmod:65536 at rank 4 has 2**64 packed codes: the largest cannot be int64.
    text = (
        "MODSHIFT-CFG v1\nzmod:65536\nrank 4\ndims 1 0\norigin 0\nextents 1\n"
        "mode exact\n9223372036854775808\n"
    )
    with pytest.raises(ConfigParseError) as err:
        decode_config(text)
    assert err.value.line == 3
    with pytest.raises(InvalidParameterError):
        ModuleSpec(ZmodRing(65536), 4)


def test_largest_codes_roundtrip_at_rank_3_of_zmod_65536():
    module = ModuleSpec(ZmodRing(65536), 3)
    cfg = constant_config(module, w((1, 0), (0,), (2,)), (65535,) * 3)
    text = encode_config(cfg)
    assert text.endswith(f"\n{2**48 - 1} {2**48 - 1}\n")
    assert decode_config(text) == cfg


def test_decode_malformed_header():
    with pytest.raises(ConfigParseError):
        decode_config("BANANAS v1\n")
    good = encode_config(constant_config(Z2, w((1, 0), (0,), (2,)), 0))
    with pytest.raises(ConfigParseError) as err:
        decode_config(good.replace("rank 1", "rank x"))
    assert err.value.line == 3
    with pytest.raises(ConfigParseError):
        decode_config(good.replace("mode exact", "mode diagonal"))
    with pytest.raises(ConfigParseError):
        decode_config(good.replace("0 0\n", "0 0 0\n"))


_GOOD_2D = encode_config(constant_config(Z2, w((1, 1), (0, 0), (2, 2)), 0))


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("rank 1", "rank 0", 3, "rank must be >= 1"),
        ("rank 1", "rank -2", 3, "rank must be >= 1"),
        ("rank 1", "rank 1 2", 3, "exactly one integer"),
        ("dims 1 1", "dims -1 3", 4, "bad dims"),
        ("dims 1 1", "dims 0 0", 4, "bad dims"),
        ("origin 0 0", "origin 0", 5, "origin has 1 coordinates"),
        ("origin 0 0", "origin 0 -1", 5, "negative origin -1"),
        ("extents 2 2", "extents 2 2 2", 6, "extents has 3 entries"),
        ("extents 2 2", "extents 2 -3", 6, "extents must be positive"),
        ("extents 2 2", "extents 0 2", 6, "extents must be positive"),
    ],
)
def test_decode_header_errors_carry_their_line(old, new, line, message):
    assert old in _GOOD_2D
    with pytest.raises(ConfigParseError) as err:
        decode_config(_GOOD_2D.replace(old, new))
    assert err.value.line == line
    assert message in str(err.value)


def test_decode_negative_z_axis_origin_is_fine():
    text = _GOOD_2D.replace("origin 0 0", "origin -5 0")
    assert decode_config(text).window.origin == (-5, 0)


def test_value_at_and_word_key():
    win = w((1, 1), (1, 0), (2, 2))
    cb = checkerboard_config(Z2, win)
    assert cb.value_at((1, 0)) == (1,)
    assert cb.value_at((2, 1)) == (1,)
    with pytest.raises(OutOfWindowError):
        cb.value_at((5, 5))
