import ast
import hashlib
import json
import shutil
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwadvect import grid, kernel
from pwadvect.dataflow import kernel_time
from pwadvect.grid import (
    Field3D,
    FieldSet,
    GeneratorSpec,
    GridDims,
    GridError,
    SourceSet,
    check_config,
    checksum,
    checksums,
    fill_fields,
    lcg_doubles,
    lcg_fill,
    zeros_field,
)
from pwadvect.params import ModelParams
from pwadvect.schedules import ScheduleSpec, partition_domain
from naive_oracle import naive_lcg_doubles

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def test_make_grid_cell_counts():
    assert GridDims(1012, 1024, 64).cells == 66_322_432  # the 67M-cell case
    assert GridDims(512, 512, 64).cells == 16_777_216    # the 16.7M-cell case
    assert GridDims(1, 1, 2).cells == 2                  # minimum legal grid


@pytest.mark.parametrize("bad", [(0, 4, 4), (4, 0, 4), (4, 4, 1), (4, 4, 0), (-1, 4, 4),
                                 (2.5, 4, 4), (float("nan"), 4, 4), (4, float("inf"), 4),
                                 (4, 4, 4.0), (True, 4, 4)])
def test_make_grid_rejects(bad):
    with pytest.raises(GridError):
        GridDims(*bad)


def test_uniform_fill_including_halos():
    dims = GridDims(3, 4, 5)
    fs = fill_fields(dims, GeneratorSpec.uniform(1.5, -2.0, 0.25))
    assert np.all(fs.u.data == 1.5)
    assert np.all(fs.v.data == -2.0)
    assert np.all(fs.w.data == 0.25)
    fs0 = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0))
    assert np.all(fs0.u.data == 0.0)


@pytest.mark.parametrize("spec", [GeneratorSpec.trig(), GeneratorSpec.random(3)])
def test_halos_are_periodic_wrap(spec):
    dims = GridDims(5, 3, 4)
    for f in fill_fields(dims, spec).u, fill_fields(dims, spec).w:
        d = f.data
        assert np.array_equal(d[0, :, :], d[-2, :, :])
        assert np.array_equal(d[-1, :, :], d[1, :, :])
        assert np.array_equal(d[:, 0, :], d[:, -2, :])
        assert np.array_equal(d[:, -1, :], d[:, 1, :])


def test_generation_determinism():
    dims = GridDims(6, 7, 8)
    a = fill_fields(dims, GeneratorSpec.random(42))
    b = fill_fields(dims, GeneratorSpec.random(42))
    assert checksum(a.u) == checksum(b.u)
    assert checksum(a.v) == checksum(b.v)
    assert checksum(a.w) == checksum(b.w)
    c = fill_fields(dims, GeneratorSpec.random(43))
    assert checksum(a.u) != checksum(c.u)


def test_lcg_matches_documented_recurrence():
    # counts end just before, on and after the edges of the compiled
    # generator's 8-lane steps and of the numpy path's 65,536-value chunks
    for seed, count in ((0, 1), (3, 7), (4, 8), (5, 9), (6, 15), (10, 16), (11, 17),
                        (42, 1000), (2**63 + 5, 4097), (7, 65_535), (8, 65_536),
                        (9, 65_537), (2**64 - 1, 3 * 65_536 + 7)):
        assert np.array_equal(lcg_doubles(seed, count), naive_lcg_doubles(seed, count))
    assert lcg_doubles(1, 0).size == 0


def test_lcg_stream_continues_across_arrays():
    # zero-size arrays in the middle neither take values nor break the stream
    sizes = (5, 0, 9, 0, 0, 16, 1, 0, 23)
    arrays = [np.full(n, -1.0) for n in sizes]
    lcg_fill(2**64 - 1, arrays)
    stream = naive_lcg_doubles(2**64 - 1, sum(sizes))
    assert np.array_equal(np.concatenate(arrays), stream)
    # shapes are filled in index order
    blocks = [np.empty((3, 4, 5)), np.empty((0, 7)), np.empty((2, 9))]
    lcg_fill(12, blocks)
    assert np.array_equal(np.concatenate([b.reshape(-1) for b in blocks]),
                          naive_lcg_doubles(12, 3 * 4 * 5 + 2 * 9))
    # an empty list and only zero-size arrays are no-ops, not errors
    lcg_fill(12, [])
    lcg_fill(12, [np.empty(0), np.empty((3, 0))])


def _misaligned(n):
    raw = np.zeros(8 * n + 1, dtype=np.uint8)
    return raw[1:].view(np.float64)


def _read_only(n):
    a = np.zeros(n)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("bad", ["strided", "float32", "read-only", "misaligned",
                                 "not an array", "fortran"])
def test_lcg_fill_rejects_arrays_it_cannot_fill(bad):
    make = {"strided": lambda: np.zeros((4, 6))[:, :3],
            "float32": lambda: np.zeros(10, dtype=np.float32),
            "read-only": lambda: _read_only(10),
            "misaligned": lambda: _misaligned(10),
            "not an array": lambda: [0.0] * 10,
            "fortran": lambda: np.zeros((4, 6), order="F")}[bad]
    good, worse = np.zeros(20), make()
    with pytest.raises(ValueError, match=r"arrays\[1\]"):
        lcg_fill(1, [good, worse])
    # the check runs before any array is filled
    assert not good.any() and not np.any(worse)


def test_lcg_fill_fills_3d_arrays_plane_by_plane_in_place():
    # a field's interior: C-contiguous planes at the padded array's X stride
    padded = np.full((6, 7, 9), -1.0)
    interior = padded[1:-1, 1:-1, :]
    lcg_fill(2**64 - 1, [np.empty(3), interior])
    stream = naive_lcg_doubles(2**64 - 1, 3 + interior.size)
    assert np.array_equal(interior.reshape(-1), stream[3:])
    padded[1:-1, 1:-1, :] = -1.0
    assert np.all(padded == -1.0)  # the halo is untouched
    # any axis-0 stride, negative too: index order, not memory order
    backwards = np.empty((4, 3, 5))[::-1, :, :]
    lcg_fill(7, [backwards])
    assert np.array_equal(np.ascontiguousarray(backwards).reshape(-1),
                          naive_lcg_doubles(7, backwards.size))
    # planes that are not C-contiguous are rejected before anything is filled
    good, worse = np.zeros(20), np.zeros((3, 4, 6))[:, :, :3]
    with pytest.raises(ValueError, match=r"arrays\[1\]"):
        lcg_fill(1, [good, worse])
    assert not good.any()


@pytest.mark.parametrize("make", [
    lambda buf: [buf[:10], buf[5:15]],  # two views of one buffer
    lambda buf: [buf, buf],
    lambda buf: [np.zeros(3), buf[:4], buf[4:8], buf[7:12]],  # overlap by one value
    lambda buf: [np.lib.stride_tricks.as_strided(buf, (3, 4, 5), (0, 40, 8))],  # stride 0
    lambda buf: [buf.reshape(2, 2, 5)[::-1], buf[:1]],  # a 3-D array and a view of it
], ids=["views", "twice", "one value", "stride 0", "plane"])
def test_lcg_fill_rejects_overlapping_arrays(make):
    buf = np.zeros(20)
    arrays = make(buf)
    with pytest.raises(ValueError, match="overlap"):
        lcg_fill(1, arrays)
    assert not buf.any() and not any(a.any() for a in arrays)
    # adjacent views that share no cell are fine
    lcg_fill(1, [buf[:4], buf[4:8], buf[8:]])
    assert np.array_equal(buf, naive_lcg_doubles(1, 20))


def test_random_fill_streams_into_planes_with_bounded_peak():
    # 1,100 x 64 values per X plane: chunk edges fall inside planes
    dims = GridDims(3, 1100, 64)
    fields = fill_fields(dims, GeneratorSpec.random(5))
    stream = lcg_doubles(5, 3 * dims.cells).reshape(3, dims.nx, dims.ny, dims.nz)
    for n, f in enumerate((fields.u, fields.v, fields.w)):
        assert np.array_equal(f.interior, stream[n])
    # set-up holds the fields and one chunk, not a copy of the stream
    dims = GridDims(128, 128, 64)
    tracemalloc.start()
    try:
        fill_fields(dims, GeneratorSpec.random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 3 * dims.padded_len * 8


needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")


def test_lcg_jump_equals_naive_stepping():
    counts = (0, 1, 7, 8, 9, 2**20 + 3)
    for seed in (0, 2**64 - 1):
        state, stepped = seed, {}
        for n in range(max(counts) + 1):
            if n in counts:
                stepped[n] = state
            state = (grid._LCG_MULT * state + grid._LCG_INC) & grid._LCG_MASK
        for n in counts:
            a, c = grid._lcg_jump(n)
            assert (a * seed + c) & grid._LCG_MASK == stepped[n]


@pytest.mark.parametrize("n", [1, 8, 9, 65537])
def test_lcg_jump_tables_equal_jumps(n):
    # entry m jumps m + 1 steps; 8 is the compiled generator's lane count,
    # 65,537 one past the numpy path's chunk
    mult, inc = grid._lcg_jump_tables(n)
    assert mult.dtype == inc.dtype == np.uint64 and len(mult) == len(inc) == n
    assert [(int(a), int(c)) for a, c in zip(mult, inc)] == [grid._lcg_jump(m + 1)
                                                             for m in range(n)]


# Array sizes of one stream; each array is one row, so with 1-4 threads the
# runs of whole rows start on and off the generator's 8-lane steps, at
# uneven value counts and next to empty arrays (e.g. (5, 0, 9, 0, 16, 1, 23, 3)
# cuts at 30 with 2 threads, at 14 and 31 with 3).
_SPLIT_SIZES = [(64,), (24, 40), (5, 0, 9, 0, 16, 1, 23, 3), (0, 3, 0), (1, 2)]


@needs_gcc
@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_threaded_fill_equals_numpy_path_and_naive_stream(monkeypatch, cores, seed):
    # one value per thread suffices, so the threaded path runs on any host
    monkeypatch.setattr(grid, "_THREAD_MIN", 1)
    monkeypatch.setattr(grid.os, "cpu_count", lambda: cores)
    for sizes in _SPLIT_SIZES:
        got = [np.full(n, -1.0) for n in sizes]
        lcg_fill(seed, got)
        with monkeypatch.context() as m:
            m.setattr(kernel, "_lib", None)
            ref = [np.full(n, -1.0) for n in sizes]
            lcg_fill(seed, ref)
        stream = naive_lcg_doubles(seed, sum(sizes))
        assert np.concatenate(got).tobytes() == np.concatenate(ref).tobytes() == stream.tobytes()
    # three interiors: the cuts fall between their planes
    padded = [np.full((6, 7, 9), -1.0) for _ in range(3)]
    lcg_fill(seed, [p[1:-1, 1:-1, :] for p in padded])
    got = np.concatenate([p[1:-1, 1:-1, :].reshape(-1) for p in padded])
    assert np.array_equal(got, naive_lcg_doubles(seed, got.size))


@given(st.integers(-20, 20), st.integers(0, 40), st.integers(1, 45))
@example(1, 13, 5)  # range(1, 14) in 3, 3, 3, 2, 2
def test_cut_tiles_the_span_longer_pieces_first(start, length, parts):
    span = range(start, start + length)
    pieces = grid.cut(span, parts)
    assert len(pieces) == parts
    # contiguous, in order: the pieces' values, in turn, are the span's, once each
    assert [i for piece in pieces for i in piece] == list(span)
    assert all(piece.step == 1 for piece in pieces)  # callers slice by start and stop
    lengths = [len(piece) for piece in pieces]
    assert lengths == sorted(lengths, reverse=True)
    assert lengths[0] - lengths[-1] <= 1


def test_fill_threads_never_exceed_cores(monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(grid, "ThreadPoolExecutor", RecordingPool)
    # the 8x8x8 goldens fill is far below a thread's share: no thread starts
    fill_fields(GridDims(8, 8, 8), GeneratorSpec.random(42))
    assert pools == []
    monkeypatch.setattr(grid, "_THREAD_MIN", 1)
    fields = [fill_fields(GridDims(2, 2, 2), GeneratorSpec.random(1)).u for _ in range(3)]
    threaded = kernel.evaluator() == "compiled"  # the numpy path fills on the caller
    for cores in (1, 2, 3, 4, 8):
        monkeypatch.setattr(grid.os, "cpu_count", lambda: cores)
        pools.clear()
        lcg_fill(3, [np.empty((10, 2, 3))[::2]])  # 5 rows: one plane each
        assert pools == ([min(cores, 5)] if threaded and cores > 1 else [])
        pools.clear()
        lcg_fill(3, [np.empty(2), np.empty(3)])  # 2 rows: at most 2 threads
        assert pools == ([min(cores, 2)] if threaded and cores > 1 else [])
        pools.clear()
        checksums(fields)
        assert pools == ([min(cores, 3)] if cores > 1 else [])


def _thread_names(path: Path) -> set[str]:
    """Which of ThreadPoolExecutor and cpu_count the module at `path`
    imports or refers to."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found & {"ThreadPoolExecutor", "cpu_count"}


def test_only_grid_sizes_and_starts_threads():
    # one rule for parallel work: grid._pieces and grid._on_threads
    src = Path(grid.__file__).parent
    used = {path.name: _thread_names(path) for path in sorted(src.glob("*.py"))}
    assert used.pop("grid.py") == {"ThreadPoolExecutor", "cpu_count"}
    assert {name: found for name, found in used.items() if found} == {}


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_checksums_equal_checksum_of_each_field(monkeypatch, cores):
    monkeypatch.setattr(grid.os, "cpu_count", lambda: cores)
    dims = GridDims(5, 6, 64)  # 3 KiB planes: hashlib hashes them without the GIL
    special = (np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2e-308, -0.0)
    fields = [fill_fields(dims, GeneratorSpec.random(seed)).u for seed in range(4)]
    for n, f in enumerate(fields):
        f.data[1 + n, 2, :len(special)] = special[n:] + special[:n]
    assert checksums(fields) == [checksum(f) for f in fields]
    assert len(set(checksums(fields))) == 4
    assert checksums(fields[:1]) == [checksum(fields[0])]
    assert checksums([]) == []


def test_checksum_equality_and_bit_sensitivity():
    dims = GridDims(4, 4, 4)
    a = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0)).u
    b = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0)).u
    assert checksum(a) == checksum(b)
    # one-ULP perturbation at one interior cell changes the digest
    c = b.copy()
    c.data[2, 2, 1] = np.nextafter(c.data[2, 2, 1], 1.0)
    assert checksum(c) != checksum(b)
    # halo-only difference does not: digest covers the interior
    d = b.copy()
    d.data[0, 0, 0] = 99.0
    assert checksum(d) == checksum(b)


def test_checksum_is_digest_of_interior_byte_stream():
    # plane-by-plane hashing equals one digest of the whole interior stream,
    # whatever the memory order of the padded array
    dims = GridDims(5, 3, 4)
    u = fill_fields(dims, GeneratorSpec.random(8)).u
    whole = np.ascontiguousarray(u.interior, dtype="<f8").tobytes()
    want = hashlib.blake2b(whole, digest_size=8).hexdigest()
    assert checksum(u) == want
    assert checksum(Field3D(dims, np.asfortranarray(u.data))) == want


def test_checksum_golden():
    dims = GridDims(8, 8, 8)
    fs = fill_fields(dims, GeneratorSpec.random(42))
    assert checksum(fs.u) == GOLDENS["fields"]["u"]
    assert checksum(fs.v) == GOLDENS["fields"]["v"]
    assert checksum(fs.w) == GOLDENS["fields"]["w"]
    assert checksums([fs.u, fs.v, fs.w]) == [GOLDENS["fields"][name] for name in "uvw"]


def test_field_shape_validation():
    dims = GridDims(2, 2, 2)
    with pytest.raises(GridError):
        Field3D(dims, np.zeros((2, 2, 2)))
    with pytest.raises(GridError):
        Field3D(dims, np.zeros(dims.padded_shape, dtype=np.float32))


@pytest.mark.parametrize("make", [FieldSet, SourceSet])
@pytest.mark.parametrize("odd", [0, 1, 2])
def test_field_and_source_sets_reject_mismatched_dims(make, odd):
    fields = [zeros_field(GridDims(2, 2, 3 if n == odd else 2)) for n in range(3)]
    with pytest.raises(GridError, match="must share one GridDims"):
        make(*fields)


def test_generator_spec_rejects_unknown_mode():
    with pytest.raises(GridError, match="unknown generator mode 'bogus'"):
        GeneratorSpec("bogus")


def _counts(top):
    """Counts near 1..top, any int, and what no count is: floats, integral
    ones included, and bools."""
    near = st.integers(-3, top)
    return near | st.integers() | near.map(float) | st.floats() | st.booleans()


@settings(max_examples=300, deadline=None)
@given(st.integers(-2, 40), st.integers(-2, 80), st.integers(-2, 6),
       _counts(45), _counts(90), st.booleans())
@example(4, 4, 1, 1, 4, True)  # a grid the kernel rejects, which the model used to time
@example(4, 4, 2, 1.5, 4, True)  # a fractional engine count the model used to time
@example(4, 4, 2, True, 2.0, False)  # a bool and an integral float
def test_check_config_accepts_exactly_the_configurations_that_fit(nx, ny, nz, engines, y_batch,
                                                                  batched):
    def accepts(check):
        try:
            check()
        except ValueError:
            return False
        return True

    accepted = accepts(lambda: check_config(GridDims(nx, ny, nz), engines, y_batch, batched))
    # whole extents, int counts, no idle engine, no empty batch, and a batch
    # of Y never wider than ny
    assert accepted == (nx >= 1 and ny >= 1 and nz >= 2 and type(engines) is type(y_batch) is int
                        and 1 <= engines <= nx and y_batch >= 1 and (not batched or y_batch <= ny))
    # the schedules take exactly the same configurations, batched or not
    variant = "y_batched" if batched else "reference"
    assert accepts(lambda: ScheduleSpec(variant, y_batch, engines).validate(
        GridDims(nx, ny, nz))) == accepted
    assert accepts(lambda: partition_domain(GridDims(nx, ny, nz), engines)) == accepts(
        lambda: check_config(GridDims(nx, ny, nz), engines, 1))
    if batched:  # the model batches Y and takes exactly the same configurations
        params = ModelParams()
        assert accepts(lambda: kernel_time(GridDims(nx, ny, nz), params.pipeline,
                                           params.memory, y_batch, engines)) == accepted


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyPath:
    """The generator tests above, again with lcg_fill pinned to its numpy path;
    at module level they run on the compiled generator when gcc is found."""

    test_lcg_matches_documented_recurrence = staticmethod(test_lcg_matches_documented_recurrence)
    test_lcg_stream_continues_across_arrays = staticmethod(
        test_lcg_stream_continues_across_arrays)
    test_lcg_fill_rejects_arrays_it_cannot_fill = staticmethod(
        test_lcg_fill_rejects_arrays_it_cannot_fill)
    test_lcg_fill_fills_3d_arrays_plane_by_plane_in_place = staticmethod(
        test_lcg_fill_fills_3d_arrays_plane_by_plane_in_place)
    test_lcg_fill_rejects_overlapping_arrays = staticmethod(
        test_lcg_fill_rejects_overlapping_arrays)
    test_random_fill_streams_into_planes_with_bounded_peak = staticmethod(
        test_random_fill_streams_into_planes_with_bounded_peak)
    test_checksum_golden = staticmethod(test_checksum_golden)
