"""The output sets that runs write into: a run reuses the arrays of a set
its caller let go of, never one the caller can still reach (grid._run_outputs)."""

import os
import sys
import threading
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from pwadvect import grid, kernel
from pwadvect.grid import GeneratorSpec, GridDims, fill_fields
from pwadvect.kernel import AdvectionCoefficients, run_reference
from pwadvect.schedules import VARIANTS, ScheduleSpec, run_schedule

# y_batch 2 over ny = 5: Y batches of 2, 2 and 1 rows
DIMS = GridDims(7, 5, 6)
Y_BATCH = 2
RUNS = [(variant, engines) for variant in VARIANTS for engines in (1, 2, 3)]


@pytest.fixture(params=["compiled", "numpy"])
def evaluator(request, monkeypatch):
    if request.param == "numpy":
        monkeypatch.setattr(kernel, "_lib", None)
    return request.param


def case(dims=DIMS, seed=5):
    fields = fill_fields(dims, GeneratorSpec.random(seed))
    rng = np.random.default_rng(seed)
    return fields, AdvectionCoefficients(0.25, 0.3, rng.random(dims.nz), rng.random(dims.nz))


def run(fields, coeffs, variant, engines, y_batch=Y_BATCH):
    """The outputs of one run_schedule, or of run_reference."""
    if variant == "run_reference":
        return run_reference(fields, coeffs)
    return run_schedule(fields, coeffs, ScheduleSpec(variant, y_batch, engines))[0]


def arrays(out):
    return out.su.data, out.sv.data, out.sw.data


def addresses(out):
    return [a.ctypes.data for a in arrays(out)]


def scribble(out):
    for a in arrays(out):
        a.fill(np.nan)  # halos, level k = 1 and the interior


def bits_equal(out, ref):
    return all(np.array_equal(got.view(np.int64), want.view(np.int64))
               for got, want in zip(arrays(out), arrays(ref)))


def assert_bits_equal(out, ref):
    assert bits_equal(out, ref)


def run_threads(target, count, timeout=60):
    threads = [threading.Thread(target=target, args=(n,)) for n in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("variant,engines", [*RUNS, ("run_reference", 1)])
def test_released_set_is_reused_and_rewritten_bitwise(evaluator, variant, engines):
    fields, coeffs = case()
    ref = run_reference(fields, coeffs)  # held, so every run below writes other arrays
    out = run(fields, coeffs, variant, engines)
    scribble(out)
    where, kept = addresses(out), [weakref.ref(a) for a in arrays(out)]
    del out
    out = run(fields, coeffs, variant, engines)
    assert addresses(out) == where
    assert all(k() is a for k, a in zip(kept, arrays(out)))
    assert_bits_equal(out, ref)


HOLDERS = {
    "SourceSet": (lambda out: out, lambda held: np.stack(arrays(held)), "uvw"),
    "Field3D": (lambda out: out.sv, lambda held: held.data, "v"),
    "interior view": (lambda out: out.sw.interior, lambda held: held, "w"),
    "memoryview": (lambda out: memoryview(out.su.data), np.asarray, "u"),
}


@pytest.mark.parametrize("holder", HOLDERS)
@pytest.mark.parametrize("variant,engines", RUNS)
def test_held_set_is_not_reused(evaluator, variant, engines, holder):
    hold, read, pinned = HOLDERS[holder]
    fields, coeffs = case()
    ref = run_reference(fields, coeffs)
    out = run(fields, coeffs, variant, engines)
    scribble(out)
    held = hold(out)
    want = read(held).copy()
    where = {f: a.ctypes.data for f, a in zip("uvw", arrays(out))}
    del out
    out = run(fields, coeffs, variant, engines)
    assert not {where[f] for f in pinned} & set(addresses(out))
    assert np.array_equal(read(held), want, equal_nan=True)
    assert_bits_equal(out, ref)


@pytest.mark.parametrize("variant,engines", RUNS)
def test_concurrent_runs_never_share_arrays(evaluator, variant, engines):
    fields, coeffs = case()
    ref = run_reference(fields, coeffs)
    for _ in range(5):
        scribble(run(fields, coeffs, variant, engines))  # released: one runner may reuse it
        start, outs = threading.Barrier(2, timeout=10), [None, None]

        def runner(n):
            start.wait()
            outs[n] = run(fields, coeffs, variant, engines)

        run_threads(runner, 2)
        assert len(set(addresses(outs[0]) + addresses(outs[1]))) == 6
        for out in outs:
            assert_bits_equal(out, ref)


@pytest.mark.parametrize("variant", VARIANTS)
def test_check_and_take_are_one_step(monkeypatch, evaluator, variant):
    # each run, once it has counted the references to the released set,
    # waits for the other to count them too; the lock keeps the other out
    # until the first has taken the set, so the wait times out and the
    # second run finds the set held and gets fresh arrays
    fields, coeffs = case()
    ref = run_reference(fields, coeffs)
    scribble(run(fields, coeffs, variant, 2))
    both = threading.Barrier(2, timeout=0.2)

    def getrefcount(obj):  # holds one more reference to every object alike
        refs = sys.getrefcount(obj)
        if len(grid._outputs) == 4 and obj is grid._outputs[-1]:
            try:
                both.wait()
            except threading.BrokenBarrierError:
                pass
        return refs

    monkeypatch.setattr(grid, "sys", SimpleNamespace(getrefcount=getrefcount))
    outs = [None, None]

    def runner(n):
        outs[n] = run(fields, coeffs, variant, 2)

    run_threads(runner, 2)
    assert both.broken
    assert len(set(addresses(outs[0]) + addresses(outs[1]))) == 6
    for out in outs:
        assert_bits_equal(out, ref)


def test_many_threads_never_hold_one_array(evaluator):
    # more runners than cores, switching threads every microsecond: no
    # array is ever in two runners' hands, and every reused set is rewritten
    fields, coeffs = case()
    ref = run_reference(fields, coeffs)
    in_use, guard, errors = set(), threading.Lock(), []

    def runner(n):
        for r in range(20):
            out = run(fields, coeffs, VARIANTS[(n + r) % len(VARIANTS)], 1 + r % 3)
            where = set(addresses(out))
            with guard:
                if where & in_use:
                    errors.append(f"runner {n}, run {r}: arrays in use elsewhere")
                in_use.update(where)
            if not bits_equal(out, ref):
                errors.append(f"runner {n}, run {r}: output differs from run_reference")
            scribble(out)
            with guard:
                in_use.difference_update(where)
            del out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads(runner, 2 * (os.cpu_count() or 1) + 2)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@pytest.mark.parametrize("variant,engines", RUNS)
def test_other_dims_get_fresh_arrays(evaluator, variant, engines):
    fields, coeffs = case()
    out = run(fields, coeffs, variant, engines)
    scribble(out)
    kept = [weakref.ref(a) for a in arrays(out)]
    del out
    for dims in (GridDims(7, 6, 6), GridDims(7, 5, 7)):  # ny, then nz
        fields, coeffs = case(dims)
        ref = run_reference(fields, coeffs)
        out = run(fields, coeffs, variant, engines)
        assert all(k() is None for k in kept)  # the released set was let go, not reused
        assert out.su.data.shape == dims.padded_shape
        assert_bits_equal(out, ref)
        kept = [weakref.ref(a) for a in arrays(out)]
        scribble(out)
        del out, ref


def test_other_dims_free_the_released_set_before_allocating(monkeypatch):
    # so the process never holds a released set and a fresh one at once
    fields, coeffs = case()
    kept = [weakref.ref(a) for a in arrays(run_reference(fields, coeffs))]
    fields, coeffs = case(GridDims(7, 6, 6))
    zeros, alive = np.zeros, []

    def zeros_noting_the_kept_set(*args, **kwargs):
        alive.append(any(k() is not None for k in kept))
        return zeros(*args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros_noting_the_kept_set)
    run_reference(fields, coeffs)
    assert alive == [False] * 3


def _traced_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("variant", [*VARIANTS, "run_reference"])
def test_reuse_allocates_no_output_field(variant):
    # a count, not a timing: a run into a released set allocates less than
    # one padded field; with that set held, the next allocates three
    dims = GridDims(128, 128, 64)
    fields, coeffs = case(dims)
    field_bytes = dims.padded_len * 8

    def again():
        return run(fields, coeffs, variant, 2, y_batch=64)

    again()  # released on return
    first, peak = _traced_bytes(again)
    assert peak < field_bytes
    second, peak = _traced_bytes(again)
    assert peak >= 3 * field_bytes
    assert not set(addresses(first)) & set(addresses(second))


def test_read_only_released_set_is_not_reused():
    fields, coeffs = case()
    out = run_reference(fields, coeffs)
    out.sv.data.flags.writeable = False
    kept = weakref.ref(out.sv.data)
    del out
    assert run_reference(fields, coeffs).sv.data.flags.writeable
    assert kept() is None
