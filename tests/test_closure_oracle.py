"""Differential tests: the narrow-code submodule closure check against int64.

`submodule_condition_check` casts a `WindowBasis` once to the ring's
`sum_dtype` for the generator count and keeps narrow codes from the draw
(`ZmodRing.lincomb`, a float32 matmul while n * (q-1)**2 < 2**24) through the
weighted sum to the exact-mode membership stencil.  The oracle is the original
int64 check in `oracles.py`; every draw must be equal, word for word, and so
must every verdict, on the exhaustive and the sampled branch.
"""

import dataclasses

import numpy as np
import pytest

from modshift import KernelShiftSpec, WindowSpec, ZmodRing, parse_rule, window_kernel
from modshift.errors import InvalidParameterError
from modshift.experiment import parse_experiment, run_experiment
from modshift.kernels import (
    _narrow_basis,
    draw_kernel_words,
    enumerate_kernel_words,
    submodule_condition_check,
)
from modshift.rings import Ring, make_ring
from modshift.rng import CounterRng

from oracles import int64_draw_kernel_words, int64_kernel_words, int64_submodule_condition

RING_TEXTS = [
    "zmod:2",
    "zmod:3",
    "zmod:5",
    "zmod:6",
    "zmod:210",
    "zmod:65521",
    "gf:2:2",
    "gf:3:2",
    "prod:[zmod:2;zmod:3]",
]

CAP = 1 << 17


def _spec(ring, rank, dims, offsets):
    """A kernel whose last coefficient is the largest unit code, the others one."""
    unit = max(c for c in range(ring.size) if ring.is_unit(c))
    coeffs = [ring.one] * (len(offsets) - 1) + [unit]
    terms = ";".join(
        "(" + ",".join(str(x) for x in off) + f"):{c}" for off, c in zip(offsets, coeffs)
    )
    text = f"kernel ring={ring.descriptor()} rank={rank} dims={dims[0]},{dims[1]} H={terms}"
    return KernelShiftSpec(parse_rule(text, expect_prefix="kernel"))


def _exhaustive_case(ring, rank):
    """A one-dimensional kernel per component, and as many generators as the cap allows."""
    basis = window_kernel(_spec(ring, rank, (1, 0), [(0,), (1,)]), WindowSpec((1, 0), (0,), (3,)))
    gens = [1, ring.size - 1, min(2, ring.size - 1)]
    while basis.solution_count ** len(gens) > CAP:
        gens.pop()
    return basis, gens


def _sampled_case(ring, rank):
    offsets = [(-1, 0), (0, 0), (1, 0), (0, 1)]
    basis = window_kernel(_spec(ring, rank, (1, 1), offsets), WindowSpec((1, 1), (-2, 0), (6, 5)))
    return basis, [1, ring.size - 1, min(2, ring.size - 1)]


CASES = [
    (text, rank, branch)
    for text in RING_TEXTS
    for rank in (1, 2)
    for branch in ("exhaustive", "sampled")
    # 65521**2 words at rank 2 leave no exhaustive tuple under the cap.
    if not (text == "zmod:65521" and rank == 2 and branch == "exhaustive")
]


def _case(text, rank, branch):
    ring = make_ring(text)
    basis, gens = (_exhaustive_case if branch == "exhaustive" else _sampled_case)(ring, rank)
    limit = CAP if branch == "exhaustive" else 0
    assert gens and (basis.solution_count ** len(gens) <= limit) == (branch == "exhaustive")
    return ring, basis, gens, limit


def _tampered(basis):
    """The basis with one entry of its first row moved off the kernel at the middle site."""
    ring, rows, free = basis.components[0]
    rows = rows.copy()
    site = basis.window.n_sites // 2
    rows[0, site] = (rows[0, site] + 1) % ring.size
    return dataclasses.replace(basis, components=((ring, rows, free),) + basis.components[1:])


@pytest.mark.parametrize("text, rank, branch", CASES)
def test_narrow_words_equal_int64_words(text, rank, branch):
    ring, basis, gens, _ = _case(text, rank, branch)
    dtype = ring.sum_dtype(len(gens))
    narrow = _narrow_basis(basis, dtype)
    if branch == "exhaustive":
        want = int64_kernel_words(basis)
        got = enumerate_kernel_words(narrow)
        assert got.dtype == dtype and np.array_equal(got, want)
        return
    for seed in (2024, 2031, 2038):
        want = int64_draw_kernel_words(basis, 300, seed, start=5)
        got = draw_kernel_words(narrow, 300, seed, start=5)
        assert got.dtype == dtype and np.array_equal(got, want)
        wide = draw_kernel_words(basis, 300, seed, start=5)
        assert wide.dtype == np.int64 and np.array_equal(wide, want)


@pytest.mark.parametrize("text, rank, branch", CASES)
def test_closure_verdict_equals_int64_verdict(text, rank, branch):
    _, basis, gens, limit = _case(text, rank, branch)
    kwargs = dict(max_exhaustive=limit, samples=300, seed=11)
    assert submodule_condition_check(basis, gens, **kwargs) is True
    assert int64_submodule_condition(basis, gens, **kwargs) is True
    tampered = _tampered(basis)
    assert submodule_condition_check(tampered, gens, **kwargs) is False
    assert int64_submodule_condition(tampered, gens, **kwargs) is False


def test_parity_closure_runs_on_uint8_codes(monkeypatch):
    from modshift import kernels

    spec = KernelShiftSpec(parse_rule(
        "kernel ring=zmod:2 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):1",
        expect_prefix="kernel",
    ))
    basis = window_kernel(spec, WindowSpec((1, 1), (0, 0), (16, 16)))
    seen = []
    real = kernels.batch_membership

    def spy(spec, window, values):
        seen.append(values.dtype)
        return real(spec, window, values)

    monkeypatch.setattr(kernels, "batch_membership", spy)
    assert submodule_condition_check(basis, (1, 1, 1), samples=2000)
    assert seen == [np.dtype(np.uint8)]
    assert int64_submodule_condition(basis, (1, 1, 1), samples=2000)


# -- generators must be element codes ----------------------------------------------------


@pytest.mark.parametrize(
    "text, bad",
    [("gf:2:2", 4), ("gf:2:2", 5), ("gf:2:2", -1), ("zmod:3", 3), ("zmod:3", -1),
     ("zmod:6", 6), ("zmod:6", 7), ("zmod:6", -1)],
)
def test_generator_outside_the_codes_is_refused(text, bad):
    ring = make_ring(text)
    basis, _ = _exhaustive_case(ring, 1)
    message = (
        f"generator {bad} is not an element code of {ring.descriptor()} "
        f"\\(codes are 0..{ring.size - 1}\\)"
    )
    with pytest.raises(InvalidParameterError, match=message):
        submodule_condition_check(basis, [1, bad])
    words = enumerate_kernel_words(basis)
    with pytest.raises(InvalidParameterError, match=message):
        submodule_condition_check((words, basis.module), [bad])
    assert submodule_condition_check(basis, [1, ring.size - 1])


def test_kernel_count_step_refuses_an_out_of_range_generator():
    text = """
[experiment]
name = gens
seed = 1

[step closure]
kind = kernel-count
kernel = kernel ring=zmod:3 rank=1 dims=1,1 H=(-1,0):1;(0,0):1;(1,0):1;(0,1):2
origin = 0 0
extents = 4 3
expected = 6561
submodule-gens = 1 3
"""
    with pytest.raises(InvalidParameterError, match=r"generator 3 is not an element code of zmod:3"):
        run_experiment(parse_experiment(text))
    report = run_experiment(parse_experiment(text.replace("1 3", "1 2")))
    (step,) = report["steps"]
    assert step["submodule_condition"] is True and step["pass"] is True


# -- the three exact tiers of the Z/q matmul ---------------------------------------------


def _spy_matmul(monkeypatch):
    seen = []
    real = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(a.dtype)
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return seen


def test_float32_tier_at_two_to_the_24_minus_one(monkeypatch):
    # 1864135 * 3**2 = 2**24 - 1: the largest bound float32 holds exactly.
    ring, n = ZmodRing(4), 1864135
    assert n * 3**2 == (1 << 24) - 1
    seen = _spy_matmul(monkeypatch)
    coefs = np.full((2, n), 3, dtype=np.int64)
    rows = np.full((n, 3), 3, dtype=np.int64)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(np.float32)]
    assert got.dtype == np.int64 and (got == (9 * n) % 4).all()
    # Random codes against int64 arithmetic (the generic loop over 1.8M rows is too slow).
    coefs = CounterRng(1, stream=9).uniform_codes(0, (2, n), 4)
    rows = CounterRng(2, stream=9).uniform_codes(0, (n, 3), 4)
    want = (coefs @ rows) % 4
    assert np.array_equal(ring.lincomb(coefs, rows), want)
    narrow = ring.lincomb(coefs.astype(np.uint8), rows.astype(np.uint8))
    assert narrow.dtype == np.uint8 and np.array_equal(narrow, want)


@pytest.mark.parametrize("q, n", [(4097, 1), (1025, 16), (65, 4096)])
def test_float64_tier_from_two_to_the_24(q, n, monkeypatch):
    ring = ZmodRing(q)
    assert n * (q - 1) ** 2 == 1 << 24
    coefs = np.full((3, n), q - 1, dtype=np.int64)
    coefs[1] = CounterRng(3, stream=9).uniform_codes(0, (n,), q)
    rows = np.full((n, 5), q - 1, dtype=np.int64)
    want = Ring.lincomb(ring, coefs, rows)
    seen = _spy_matmul(monkeypatch)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(np.float64)]
    assert got.dtype == np.int64 and np.array_equal(got, want)
    narrow = ring.lincomb(coefs.astype(np.uint16), rows.astype(np.uint16))
    assert narrow.dtype == np.uint16 and np.array_equal(narrow, want)


@pytest.mark.parametrize("n, tier", [(2098176, np.float64), (2098177, np.int64)])
def test_int64_tier_from_two_to_the_53(n, tier, monkeypatch):
    # 2098176 * 65520**2 < 2**53 <= 2098177 * 65520**2.
    q = 65521
    assert (n * (q - 1) ** 2 >= 1 << 53) == (tier is np.int64)
    ring = ZmodRing(q)
    coefs = np.full((2, n), q - 1, dtype=np.uint16)
    coefs[1] = CounterRng(4, stream=9).uniform_codes(0, (n,), q)
    rows = np.full((n, 1), q - 1, dtype=np.uint16)
    seen = _spy_matmul(monkeypatch)
    got = ring.lincomb(coefs, rows)
    assert seen == [np.dtype(tier)] and got.dtype == np.uint16
    # (q-1)**2 = 1 mod q, so the all-largest row sums to n mod q.
    assert int(got[0, 0]) == n % q
    assert int(got[1, 0]) == sum(int(c) * (q - 1) for c in coefs[1].tolist()) % q
