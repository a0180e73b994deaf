"""The PW advection stencil: per-point formulas, reference execution, op counts.

The three tendency formulas (docs/model-notes.md section 2) are written once,
as `su_formula` / `sv_formula` / `sw_formula`, over plain operands. Scalar
point evaluation calls them directly; the operation census counts the tapes
recorded from them at import, and `compute_block` (the reference run and
every execution schedule) runs those tapes, as C generated from them or,
without a compiler, replayed in numpy. That is what makes their
results bit-identical: the per-element operation sequence is fixed here
(X term, + Y term, + Z term, inner parenthesisation as written) and nowhere
else.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import _LCG_INC, _LCG_MULT, FieldSet, SourceSet, _lcg_jump_tables, _run_outputs


@dataclass
class AdvectionCoefficients:
    """tcx/tcy scalars and per-level tzc1/tzc2 arrays (length nz)."""

    tcx: float
    tcy: float
    tzc1: np.ndarray
    tzc2: np.ndarray

    def __post_init__(self):
        self.tzc1 = np.asarray(self.tzc1, dtype=np.float64)
        self.tzc2 = np.asarray(self.tzc2, dtype=np.float64)
        if self.tzc1.shape != self.tzc2.shape or self.tzc1.ndim != 1:
            raise ValueError("tzc1/tzc2 must be 1-D arrays of equal length")
        if not (np.isfinite(self.tzc1).all() and np.isfinite(self.tzc2).all()):
            raise ValueError("vertical coefficients must be finite")
        if not (np.isfinite(self.tcx) and np.isfinite(self.tcy)):
            raise ValueError("horizontal coefficients must be finite")

    @property
    def nz(self) -> int:
        return len(self.tzc1)


def default_coefficients(nz: int, value: float = 0.25) -> AdvectionCoefficients:
    """Test/bench defaults: tcx = tcy = tzc1(k) = tzc2(k) = 0.25."""
    return AdvectionCoefficients(value, value, np.full(nz, value), np.full(nz, value))


# ---------------------------------------------------------------------------
# The formulas. Operand names encode the stencil offset relative to the
# output point: xm1/xp1 for i-1/i+1, jm1/jp1 for j-1/j+1, km1/kp1 for the
# vertical neighbours. At the top of the column (k == nz) the tzc2 half of
# the Z term is dropped; kp1-level operands are unused there and may be
# passed as dummies.


def su_formula(tcx, tcy, tzc1_k, tzc2_k,
               u_c, u_xm1, u_xp1, u_jm1, u_jp1, u_km1, u_kp1,
               v_jm1, v_jm1_xp1, v_c, v_xp1,
               w_km1, w_km1_xp1, w_c, w_xp1, top=False):
    s = tcx * (u_xm1 * (u_c + u_xm1) - u_xp1 * (u_c + u_xp1))
    s = s + tcy * (u_jm1 * (v_jm1 + v_jm1_xp1) - u_jp1 * (v_c + v_xp1))
    if top:
        s = s + tzc1_k * u_km1 * (w_km1 + w_km1_xp1)
    else:
        s = s + (tzc1_k * u_km1 * (w_km1 + w_km1_xp1)
                 - tzc2_k * u_kp1 * (w_c + w_xp1))
    return s


def sv_formula(tcx, tcy, tzc1_k, tzc2_k,
               v_c, v_xm1, v_xp1, v_jm1, v_jp1, v_km1, v_kp1,
               u_xm1, u_xm1_jp1, u_c, u_jp1,
               w_km1, w_km1_jp1, w_c, w_jp1, top=False):
    s = tcx * (v_xm1 * (u_xm1 + u_xm1_jp1) - v_xp1 * (u_c + u_jp1))
    s = s + tcy * (v_jm1 * (v_c + v_jm1) - v_jp1 * (v_c + v_jp1))
    if top:
        s = s + tzc1_k * v_km1 * (w_km1 + w_km1_jp1)
    else:
        s = s + (tzc1_k * v_km1 * (w_km1 + w_km1_jp1)
                 - tzc2_k * v_kp1 * (w_c + w_jp1))
    return s


def sw_formula(tcx, tcy, tzc1_k, tzc2_k,
               w_c, w_xm1, w_xp1, w_jm1, w_jp1, w_km1, w_kp1,
               u_xm1_km1, u_xm1, u_km1, u_c,
               v_jm1_km1, v_jm1, v_km1, v_c, top=False):
    s = tcx * (w_xm1 * (u_xm1_km1 + u_xm1) - w_xp1 * (u_km1 + u_c))
    s = s + tcy * (w_jm1 * (v_jm1_km1 + v_jm1) - w_jp1 * (v_km1 + v_c))
    if top:
        s = s + tzc1_k * w_km1 * (w_c + w_km1)
    else:
        s = s + (tzc1_k * w_km1 * (w_c + w_km1)
                 - tzc2_k * w_kp1 * (w_c + w_kp1))
    return s


# Operand wiring: (field, dx, dy, dk) per positional formula argument, where
# (dx, dy) select the input column at (i+dx, j+dy) and dk the k offset.
_SU_ARGS = (("u", 0, 0, 0), ("u", -1, 0, 0), ("u", 1, 0, 0), ("u", 0, -1, 0),
            ("u", 0, 1, 0), ("u", 0, 0, -1), ("u", 0, 0, 1),
            ("v", 0, -1, 0), ("v", 1, -1, 0), ("v", 0, 0, 0), ("v", 1, 0, 0),
            ("w", 0, 0, -1), ("w", 1, 0, -1), ("w", 0, 0, 0), ("w", 1, 0, 0))
_SV_ARGS = (("v", 0, 0, 0), ("v", -1, 0, 0), ("v", 1, 0, 0), ("v", 0, -1, 0),
            ("v", 0, 1, 0), ("v", 0, 0, -1), ("v", 0, 0, 1),
            ("u", -1, 0, 0), ("u", -1, 1, 0), ("u", 0, 0, 0), ("u", 0, 1, 0),
            ("w", 0, 0, -1), ("w", 0, 1, -1), ("w", 0, 0, 0), ("w", 0, 1, 0))
_SW_ARGS = (("w", 0, 0, 0), ("w", -1, 0, 0), ("w", 1, 0, 0), ("w", 0, -1, 0),
            ("w", 0, 1, 0), ("w", 0, 0, -1), ("w", 0, 0, 1),
            ("u", -1, 0, -1), ("u", -1, 0, 0), ("u", 0, 0, -1), ("u", 0, 0, 0),
            ("v", 0, -1, -1), ("v", 0, -1, 0), ("v", 0, 0, -1), ("v", 0, 0, 0))

_FORMULAS = ((su_formula, _SU_ARGS), (sv_formula, _SV_ARGS), (sw_formula, _SW_ARGS))

# The 17 input columns (roles) touched when producing all three outputs for
# one column, keyed (field, dx, dy).
COMPUTE_ROLES: tuple[tuple[str, int, int], ...] = tuple(
    sorted({(f, dx, dy) for _, spec in _FORMULAS for f, dx, dy, _dk in spec})
)


# ---------------------------------------------------------------------------
# Formula tapes. At import each formula is run once, mid-column and top
# variant, on symbolic operands, and every operation it performs is recorded
# in Python's evaluation order as (ufunc, a, b, dest): indices into one flat
# operand list
#     [tcx, tcy, tzc1_k, tzc2_k, *15 field operands, result, *slots]
# Temporaries are given scratch slots by liveness and the last operation
# writes the result, so the numpy replay evaluates a block by `out=` ufunc
# calls into slot buffers of its compute_block call and into the outputs.
# Each element still sees the same IEEE operations in the same order as the
# written formula.

_NCOEFS = 4
_NLEAVES = _NCOEFS + 15
_RESULT = _NLEAVES


class _Sym:
    """Symbolic operand: node `node` of the recording `ops` (leaves first)."""

    __slots__ = ("ops", "node")

    def __init__(self, ops, node):
        self.ops = ops
        self.node = node

    def _op(self, ufunc, other):
        self.ops.append((ufunc, self.node, other.node))
        return _Sym(self.ops, _NLEAVES + len(self.ops) - 1)

    def __add__(self, other):
        return self._op(np.add, other)

    def __sub__(self, other):
        return self._op(np.subtract, other)

    def __mul__(self, other):
        return self._op(np.multiply, other)


def _record(formula, top: bool) -> list:
    """The formula's operations as (ufunc, a, b, dest) over the flat operand list."""
    ops = []
    formula(*(_Sym(ops, n) for n in range(_NLEAVES)), top=top)
    last_use = {}
    for n, (_, a, b) in enumerate(ops):
        last_use[a] = last_use[b] = n
    where = list(range(_NLEAVES))  # node -> flat index
    free, nslots, tape = [], 0, []
    for n, (ufunc, a, b) in enumerate(ops):
        for node in {a, b}:
            if node >= _NLEAVES and last_use[node] == n:
                free.append(where[node])
        if n == len(ops) - 1:
            dest = _RESULT
        elif free:
            dest = min(free)
            free.remove(dest)
        else:
            nslots += 1
            dest = _RESULT + nslots
        where.append(dest)
        tape.append((ufunc, where[a], where[b], dest))
    return tape


# Per formula (tape, operand wiring), mid-column levels and the top level.
_MID_TAPES = tuple((_record(formula, False), spec) for formula, spec in _FORMULAS)
_TOP_TAPES = tuple((_record(formula, True), spec) for formula, spec in _FORMULAS)
_NSLOTS = max(d for tape, _ in _MID_TAPES + _TOP_TAPES for *_, d in tape) - _RESULT


def _loads(tape) -> int:
    """The field-operand reads of one tape; coefficients are not loads."""
    return sum(_NCOEFS <= x < _NLEAVES for _, a, b, _d in tape for x in (a, b))


# field-operand reads to produce all three outputs at one point: mid level, top level
_READS = tuple(sum(_loads(tape) for tape, _ in tapes) for tapes in (_MID_TAPES, _TOP_TAPES))


def new_scratch(shape) -> tuple[list, list]:
    """Slot buffers for blocks of role shape (..., nz): mid levels, top level.

    Every slot is a contiguous array of its own; slots sliced out of one
    (..., nz) buffer would make every temporary strided, which is slower.
    """
    *lead, nz = shape
    mid = np.empty((_NSLOTS, *lead, nz - 2))
    top = np.empty((_NSLOTS, *lead))
    return ([mid[s, ...] for s in range(_NSLOTS)],
            [top[s, ...] for s in range(_NSLOTS)])


# ---------------------------------------------------------------------------
# The compiled kernel: kernel_source() emits the tapes as C, so the C has no
# formula of its own, and gcc builds it on first use, never at import. The
# same library carries grid.lcg_fill's generator, emitted from grid's
# recurrence constants.
# Contraction stays off because a fused multiply-add rounds once where the
# tape rounds twice. `omp simd` vectorises the mid-level k loop (each lane
# runs the same operations in the same order, so results stay bitwise); on
# x86-64 the loader picks an AVX-512, AVX2 or SSE2 clone, so one library
# serves every CPU and no -march flag enters the cache key. The clones need
# gcc >= 12 (ISA levels in target_clones) and glibc (ifunc); elsewhere the
# source builds one plain body, still vectorised by the pragma. The library is
# cached under .bench_build/ by a hash of the source, the flags and the
# compiler version, and a new build deletes the libraries it supersedes.
# Without a working gcc, compute_block replays the tapes in numpy and
# lcg_fill generates in numpy.

CFLAGS = ("-O2", "-ffp-contract=off", "-fopenmp-simd", "-fPIC", "-shared")
_C_OPS = {np.add: "+", np.subtract: "-", np.multiply: "*"}
_CACHE_DIR = Path(__file__).resolve().parents[2] / ".bench_build"
_UNBUILT = object()
_lib = _UNBUILT  # the loaded kernel library, or None for the numpy replay
_build_lock = threading.Lock()


def _c_level(tapes, k: str, ks: dict) -> list[str]:
    """C statements running each formula's tape at level `k`, operands at ks[dk]."""
    lines = []
    for q, (tape, spec) in enumerate(tapes):
        names = ["tcx", "tcy", f"tzc1[{k}]", f"tzc2[{k}]",
                 *(f"r{COMPUTE_ROLES.index((f, dx, dy))}[{ks[dk]}]" for f, dx, dy, dk in spec),
                 f"o{q}[{k}]", *(f"s{n}" for n in range(1, _NSLOTS + 1))]
        lines += [f"{names[d]} = {names[a]} {_C_OPS[ufunc]} {names[b]};"
                  for ufunc, a, b, d in tape]
    return lines


# On x86-64 with gcc >= 12 and glibc, the loader picks one of these bodies
# of each function for the CPU.
_CLONES = ("#if defined(__x86_64__) && defined(__GLIBC__) && !defined(__clang__) \\",
           "    && __GNUC__ >= 12",
           '__attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))',
           "#endif")

# Values per step of the compiled generator: lane l takes the state l + 1
# steps on from the step's start, so a step depends on the one before only
# through its last lane.
_LCG_LANES = 8


def _lcg_source() -> list[str]:
    """The C lines of `pwadvect_lcg`, the generator of grid.lcg_fill."""
    mult, inc = _lcg_jump_tables(_LCG_LANES)

    def table(name, values):
        return (f"static const uint64_t {name}[{_LCG_LANES}] = "
                f"{{{', '.join(f'{int(v):#x}u' for v in values)}}};")

    return [
        table("lcg_mult", mult),
        table("lcg_inc", inc),
        "",
        *_CLONES,
        "void pwadvect_lcg(uint64_t state, int64_t narrays, const int64_t *arrays)",
        "{",
        "    for (int64_t n = 0; n < narrays; n++) {",
        "        double *out = (double *)(intptr_t)arrays[2 * n];",
        "        const int64_t count = arrays[2 * n + 1];",
        "        int64_t m = 0;",
        f"        for (; m + {_LCG_LANES} <= count; m += {_LCG_LANES}) {{",
        "            #pragma omp simd",
        f"            for (int l = 0; l < {_LCG_LANES}; l++)",
        "                out[m + l] = (double)((lcg_mult[l] * state + lcg_inc[l]) >> 11)"
        " * 0x1p-53;",
        f"            state = lcg_mult[{_LCG_LANES - 1}] * state + lcg_inc[{_LCG_LANES - 1}];",
        "        }",
        "        for (; m < count; m++) {",
        f"            state = {_LCG_MULT:#x}u * state + {_LCG_INC:#x}u;",
        "            out[m] = (double)(state >> 11) * 0x1p-53;",
        "        }",
        "    }",
        "}",
        "",
    ]


def kernel_source() -> str:
    """The C source of the compiled library: the kernel, generated from the
    formula tapes, and the generator of grid.lcg_fill.

    `pwadvect_block` runs the loop nest of one compute_block call (see
    there): per Y batch at row y, WIDTH(y) rows wide, the X steps 0 <= i <
    `steps`, and returns the doubles its copies moved. `desc` holds per
    phase (base address, stride 0, stride 1) per array, strides in bytes:
    the 17 COMPUTE_ROLES in order (r0..r16), then su, sv, sw (o0..o2).
    `copies` holds per phase and copy (destination, address of source plane
    dx, source plane stride, row bytes, bytes, prefetch). compute_block
    builds both tables; the C's one staging rule is BYTES, the bytes a batch
    copies. While step i computes its columns, column b of w prefetches
    into L2 its w-th share of the cache lines that step i + 1 will copy
    from each copy whose prefetch field is 1 (see _copy_table); the last
    step of a batch prefetches nothing. A prefetch stages no element, so
    the count the call returns is the same.

    `pwadvect_lcg(state, narrays, arrays)` fills segments in turn with the
    doubles of grid.lcg_fill's stream from `state`, the masked seed jumped
    ahead to the first segment's place in the stream; `arrays` holds per
    segment (address, count of doubles). Each step makes
    _LCG_LANES values at once from the state at its start, through grid's
    jump tables, and a scalar loop makes an array's last values.
    """
    columns = [f"const double *r{n} = COLUMN({n}, b);  /* {f} {dx:+d} {dy:+d} */"
               for n, (f, dx, dy) in enumerate(COMPUTE_ROLES)]
    columns += [f"double *o{q} = OUTPUT({len(COMPUTE_ROLES) + q});  /* {name} */"
                for q, name in enumerate(("su", "sv", "sw"))]
    slots = f"double {', '.join(f's{n}' for n in range(1, _NSLOTS + 1))};"
    mid = _c_level(_MID_TAPES, "k", {-1: "k - 1", 0: "k", 1: "k + 1"})
    # the top tapes never read the k+1 operands; level t stands in for them;
    # level k = 1 has no formula and is written 0
    top = _c_level(_TOP_TAPES, "t", {-1: "t - 1", 0: "t", 1: "t"})
    top += [f"o{q}[0] = 0.0;" for q in range(3)]

    def indent(lines, depth):
        return [" " * 4 * depth + line for line in lines]

    return "\n".join([
        "/* Generated by pwadvect.kernel from the formula tapes and grid's LCG; do not edit. */",
        "#include <stdint.h>",
        "#include <string.h>",
        "",
        "#define WIDTH(y) (rows - (y) < n1 ? rows - (y) : n1)",
        "#define COPIES(i) (copies + (i) % phases * 6 * ncopies)",
        "#define DEST(c) ((void *)(intptr_t)(c)[0])",
        "#define SOURCE(c, i, y) ((const char *)(intptr_t)(c)[1] + (i) * (c)[2] + (y) * (c)[3])",
        "#define BYTES(c, w) ((size_t)((c)[4] - (n1 - (w)) * (c)[3]))",
        "/* while step i computes, its column b of w prefetches a w-th of the 64-byte */",
        "/* lines that the next step's copies read; the last step prefetches none */",
        "#define NEXT(i) COPIES((i) + 1)",
        "#define NEXT_END(i) (NEXT(i) + ((i) + 1 < steps) * 6 * ncopies)",
        "#define SHARE(c, w, b) ((int64_t)((BYTES(c, w) + 63) / 64) * (b) / (w))",
        "#define LINE(c, i, y, l) (SOURCE(c, (i) + 1, y) + 64 * (l))",
        f"#define ARRAYS(a) (desc + (a) % phases * 3 * {len(COMPUTE_ROLES) + 3})",
        "#define COLUMN(n, j) ((double *)((char *)(intptr_t)arrays[3 * (n)]"
        " + a * arrays[3 * (n) + 1] + (j) * arrays[3 * (n) + 2]))",
        "#define OUTPUT(n) COLUMN(n, y + b)",
        "",
        *_CLONES,
        "int64_t pwadvect_block(int64_t steps, int64_t phases, int64_t lag, int64_t n1,",
        "                       int64_t rows, int64_t nz, double tcx, double tcy,",
        "                       const double *tzc1, const double *tzc2, const int64_t *desc,",
        "                       int64_t ncopies, const int64_t *copies)",
        "{",
        "    const int64_t t = nz - 1;",
        "    size_t moved = 0;",
        "    for (int64_t y = 0; y < rows; y += n1) {",
        "        const int64_t w = WIDTH(y);",
        "        for (int64_t i = 0, a = -lag; i < steps; i++, a++) {",
        "            const int64_t *c = COPIES(i);",
        "            for (int64_t n = 0; n < ncopies; n++, c += 6) {",
        "                memcpy(DEST(c), SOURCE(c, i, y), BYTES(c, w));",
        "                moved += BYTES(c, w);",
        "            }",
        "            if (a < 0)",
        "                continue;",
        "            const int64_t *arrays = ARRAYS(a);",
        "            for (int64_t b = 0; b < w; b++) {",
        "                for (const int64_t *p = NEXT(i); p < NEXT_END(i); p += 6)",
        "                    if (p[5])",
        "                        for (int64_t l = SHARE(p, w, b); l < SHARE(p, w, b + 1); l++)",
        "                            __builtin_prefetch(LINE(p, i, y, l), 0, 2);",
        *indent(columns, 4),
        "                #pragma omp simd",
        "                for (int64_t k = 1; k < t; k++) {",
        *indent([slots, *mid], 5),
        "                }",
        *indent([slots, *top], 4),
        "            }",
        "        }",
        "    }",
        "    return (int64_t)(moved / sizeof(double));",
        "}",
        "",
        *_lcg_source(),
    ])


def _build():
    """Load the cached kernel library, compiling it first if needed; None on failure."""
    gcc = shutil.which("gcc")
    if gcc is None:
        warnings.warn("pwadvect: no C compiler (gcc) found; compute_block uses the "
                      "slower numpy replay and lcg_fill its numpy path", RuntimeWarning)
        return None
    source = kernel_source()
    try:
        version = subprocess.run([gcc, "--version"], capture_output=True, text=True,
                                 check=True).stdout
        key = hashlib.sha256("\0".join([source, *CFLAGS, version]).encode()).hexdigest()
        path = _CACHE_DIR / f"pwadvect_kernel-{key[:16]}.so"
        if not path.exists():
            _CACHE_DIR.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=_CACHE_DIR, suffix=".so.tmp")
            os.close(fd)
            try:
                subprocess.run([gcc, *CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                               capture_output=True, text=True, check=True)
                os.replace(tmp, path)
                # the new library supersedes the others; another builder's
                # .so.tmp does not match, and one already deleted is skipped
                for stale in _CACHE_DIR.glob("pwadvect_kernel-*.so"):
                    if stale != path:
                        stale.unlink(missing_ok=True)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or str(exc)
        warnings.warn(f"pwadvect: building the C kernel failed ({detail.strip()}); "
                      "compute_block uses the slower numpy replay and lcg_fill its numpy path",
                      RuntimeWarning)
        return None
    return _declare(lib)


def _declare(lib):
    """`lib` with the argument and result types of pwadvect_block and
    pwadvect_lcg declared."""
    lib.pwadvect_block.argtypes = (*[ctypes.c_int64] * 6, ctypes.c_double, ctypes.c_double,
                                   *[ctypes.c_void_p] * 3, ctypes.c_int64, ctypes.c_void_p)
    lib.pwadvect_block.restype = ctypes.c_int64
    lib.pwadvect_lcg.argtypes = (ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p)
    lib.pwadvect_lcg.restype = None
    return lib


def _compiled():
    """The kernel library, built on the first call of the process; None: use numpy."""
    global _lib
    if _lib is _UNBUILT:
        with _build_lock:  # engine threads may make the first call together
            if _lib is _UNBUILT:
                _lib = _build()
    return _lib


def evaluator() -> str:
    """Which evaluator compute_block and lcg_fill run: "compiled" or "numpy"."""
    return "numpy" if _compiled() is None else "compiled"


def _checked_arrays(coeffs: AdvectionCoefficients, roles: dict, out) -> list:
    """The 17 role arrays in COMPUTE_ROLES order, then su, sv, sw, once checked."""
    try:
        arrays = [roles[role] for role in COMPUTE_ROLES]
    except KeyError as exc:
        raise ValueError(f"missing role {exc.args[0]}") from None
    if len(out) != 3:
        raise ValueError(f"out must hold su, sv, sw; got {len(out)} arrays")
    arrays += out
    shape = getattr(arrays[0], "shape", ())
    if len(shape) != 3 or shape[1] < 1:
        raise ValueError(f"role arrays must be shaped (n0, n1 >= 1, nz), got shape {shape}")
    if shape[-1] != coeffs.nz or coeffs.nz < 2:
        raise ValueError(f"role arrays have nz = {shape[-1]}, coefficients {coeffs.nz} "
                         "(need equal, >= 2)")
    # the outputs hold the rows of every Y batch: (n0, rows, nz)
    out_shape = (shape[0], *np.shape(out[0])[1:2], shape[2])
    for name, arr in zip((*COMPUTE_ROLES, "su", "sv", "sw"), arrays):
        output = isinstance(name, str)
        want = out_shape if output else shape
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                and arr.shape == want and arr.strides[-1] == 8 and arr.flags.aligned
                and (arr.flags.writeable or not output)):
            raise ValueError(f"{name}: need an aligned{' writeable' if output else ''} "
                             f"float64 array of shape {want} with unit k-stride")
    return arrays


def _checked_copies(copies, phases: int, steps: int, n1: int, rows: int) -> tuple:
    """Per phase, its staging copies (dest, source, dx), once checked."""
    copies = tuple(tuple(phase) for phase in copies) or ((),) * phases
    if len(copies) != phases or len({len(phase) for phase in copies}) != 1:
        raise ValueError(f"copies: need one list per phase ({phases}), all of one length")
    for dst, src, dx in (copy for phase in copies for copy in phase):
        if not (isinstance(dst, np.ndarray) and dst.dtype == np.float64 and dst.ndim
                and dst.flags.c_contiguous and dst.flags.writeable and len(dst) >= n1):
            raise ValueError(f"copy destination: need {n1}+ rows, writeable C-contiguous float64")
        # the last Y batch reads furthest: source rows up to len(dst) + rows - n1
        if not (isinstance(src, np.ndarray) and src.dtype == np.float64
                and src.ndim == dst.ndim + 1 and src.shape[2:] == dst.shape[1:]
                and src.shape[1] >= len(dst) + rows - n1):
            raise ValueError(f"copy source: need float64 planes of {len(dst) + rows - n1}+ rows "
                             f"of shape {dst.shape[1:]}, got {getattr(src, 'shape', None)}")
        if type(dx) is not int:
            raise ValueError(f"copy dx must be an int, got {dx!r}")
        # steps 0 .. steps - 1 read source planes dx .. dx + steps - 1
        if steps and not 0 <= dx <= len(src) - steps:
            raise ValueError(f"copy source planes [{dx}, {dx + steps}) are outside "
                             f"its {len(src)} planes")
        if steps and not src[dx].flags.c_contiguous:
            raise ValueError("copy source: each plane must be C-contiguous")
    return copies


def _copy_table(copies) -> np.ndarray:
    """pwadvect_block's copy table for checked copies: per phase and copy
    (destination, address of source plane dx, source plane stride, row
    bytes, bytes, prefetch).

    Step i copies with phase i % P and step i + 1 with the next phase. A
    copy of the next phase gets prefetch 0 when its source at step i + 1
    lies inside the range that one copy of phase i % P read at step i, so
    its lines are cached already. With equal strides that holds at every
    step and Y batch of the call or at none: both ranges move by the same
    bytes from step to step and from row to row, and a narrower last batch
    shortens both by the same rows.
    """
    table = np.array([(dst.ctypes.data, src.ctypes.data + dx * src.strides[0], src.strides[0],
                       dst.nbytes // len(dst), dst.nbytes, 1)
                      for phase in copies for dst, src, dx in phase],
                     dtype=np.int64).reshape(len(copies), len(copies[0]), 6)
    # [q, c, d]: copy c of phase q at step i + 1 against copy d of phase q - 1 at step i
    nxt, read = table[:, :, None], np.roll(table, 1, axis=0)[:, None]
    gap = nxt[..., 1] + nxt[..., 2] - read[..., 1]
    inside = ((nxt[..., 2] == read[..., 2]) & (nxt[..., 3] == read[..., 3])
              & (gap >= 0) & (gap + nxt[..., 4] <= read[..., 4]))
    table[..., 5] = ~inside.any(axis=2)
    return table


# Cells per block of the numpy replay: 65,536 cells is 512 KiB per float64
# temporary, so the replay's operands and scratch slots stay in L2 instead
# of streaming grid-sized temporaries through DRAM. The compiled kernel
# keeps its temporaries in registers and takes any block whole.
BLOCK_CELLS = 1 << 16


def compute_block(coeffs: AdvectionCoefficients, phases, out, copies=(), lag: int = 0) -> int:
    """Check and address a block's arrays and staging copies, then run its
    whole loop nest: one compiled kernel call, or the numpy replay.

    `phases` is a sequence of P >= 1 role dicts of one shape. Each maps
    every key in COMPUTE_ROLES to a float64 array shaped (n0, n1 >= 1, nz)
    with unit stride along k; any leading stride, 0 included, is allowed.
    `out` is (su, sv, sw), writeable arrays shaped (n0, R, nz); levels
    k >= 2 are written from the tapes and level k = 1 is written 0, so
    every cell of the output rows is written. `copies` is empty or holds
    one list of (dest, source, dx) per phase, all of one length:
    dest a writeable C-contiguous float64 array of n1 or more rows, source
    a float64 array of C-contiguous planes of len(dest) + R - n1 or more
    such rows. The call runs ceil(R / n1) Y batches, the last w = R -
    (batches - 1) * n1 rows wide, the others n1. In the batch at row y, X
    step i < n0 + lag fills the first len(dest) - (n1 - w) rows of each
    dest of phase i % P from source plane i + dx, row y on, then evaluates
    row i - lag, if that is >= 0: columns b < w of the roles of phase
    (i - lag) % P into output rows y + b. It returns the elements all fills
    moved: 0 in the reference run (one phase, no copies, lag 0, R = n1).

    A bad role, output, copy or lag, no phases, a source plane or row
    outside its array on any step, or coefficients of another length than
    nz raise ValueError before anything is written. No output may overlap
    a role, a copy or another output, and no copy's destination its source:
    the compiled kernel runs the k loop in SIMD lanes and copies with memcpy
    on that promise, and it is not checked (every caller writes into a
    SourceSet and staging buffers of its own). The compiled kernel reads and
    copies the arrays in place; the numpy replay (no compiler) evaluates
    blocks of at most BLOCK_CELLS cells into scratch slots of the call, one
    `new_scratch` per replayed shape shared by its phases.
    """
    # per phase, the 17 roles, then su, sv, sw
    phases = [_checked_arrays(coeffs, roles, out) for roles in phases]
    if len({arrays[0].shape for arrays in phases}) != 1:
        raise ValueError("need at least one phase of roles, every phase of one shape")
    if not (type(lag) is int and lag >= 0):
        raise ValueError(f"lag must be an int >= 0, got {lag!r}")
    (n0, n1, nz), rows = phases[0][0].shape, out[0].shape[1]
    steps = n0 + lag
    copies = _checked_copies(copies, len(phases), steps, n1, rows)
    lib = _compiled()
    if lib is not None:
        # the locals hold the buffers behind the addresses for the call
        desc = np.array([[(arr.ctypes.data, *arr.strides[:2]) for arr in arrays]
                         for arrays in phases], dtype=np.int64)
        table = _copy_table(copies)
        tzc1, tzc2 = np.ascontiguousarray(coeffs.tzc1), np.ascontiguousarray(coeffs.tzc2)
        return lib.pwadvect_block(steps, len(phases), lag, n1, rows, nz, coeffs.tcx, coeffs.tcy,
                                  tzc1.ctypes.data, tzc2.ctypes.data, desc.ctypes.data,
                                  table.shape[1], table.ctypes.data)
    # the numpy replay: a block that stages runs one step at a time, else
    # blocks of at most BLOCK_CELLS cells
    scratch, moved = {}, 0
    staged = len(phases) > 1 or copies[0]
    planes = 1 if staged else max(1, BLOCK_CELLS // (n1 * nz))
    block_rows = min(n1, max(1, BLOCK_CELLS // nz))
    for y in range(0, rows, n1):
        w = min(n1, rows - y)
        # per phase, the batch's w columns of every role, then its output rows
        batch = [[a[:, :w] for a in arrays[:-3]] + [a[:, y : y + w] for a in arrays[-3:]]
                 for arrays in phases]
        for i in range(0, steps, planes):
            for dst, src, dx in copies[i % len(phases)]:
                part = dst[: len(dst) - n1 + w]
                np.copyto(part, src[i + dx, y : y + len(part)])
                moved += part.size
            a0, a1 = max(i - lag, 0), min(i + planes, steps) - lag
            if a0 >= a1:
                continue
            for j0 in range(0, w, block_rows):
                views = [arr[a0:a1, j0 : j0 + block_rows] for arr in batch[a0 % len(phases)]]
                _replay_block(coeffs, dict(zip(COMPUTE_ROLES, views)), views[-3:], scratch)
    return moved


def _replay_block(coeffs: AdvectionCoefficients, roles: dict, out, scratch: dict) -> None:
    """Replay the tapes over one block, into scratch slots kept per block shape."""
    shape = out[0].shape
    slots = scratch.get(shape)
    if slots is None:
        slots = scratch[shape] = new_scratch(shape)
    t = shape[-1] - 1
    tcx, tcy = coeffs.tcx, coeffs.tcy
    if t > 1:
        mid = {dk: slice(1 + dk, t + dk) for dk in (-1, 0, 1)}
        _replay(_MID_TAPES, (tcx, tcy, coeffs.tzc1[1:t], coeffs.tzc2[1:t]),
                roles, mid, out, mid[0], slots[0])
    # the top tapes never read the k+1 operands; level t stands in for them
    top = {-1: t - 1, 0: t, 1: t}
    _replay(_TOP_TAPES, (tcx, tcy, float(coeffs.tzc1[t]), float(coeffs.tzc2[t])),
            roles, top, out, t, slots[1])
    for dest in out:  # level k = 1 has no formula
        dest[..., 0] = 0.0


def _replay(tapes, coefs, roles, ks, out, k, slots) -> None:
    """Run each formula's tape on the role views at levels ks[dk], into out[..., k]."""
    for (tape, spec), dest in zip(tapes, out):
        vals = [*coefs, *[roles[(f, dx, dy)][..., ks[dk]] for f, dx, dy, dk in spec],
                dest[..., k], *slots]
        for ufunc, a, b, d in tape:
            ufunc(vals[a], vals[b], vals[d])  # third argument is `out`


def grid_roles(fields: FieldSet, x0: int, x1: int) -> dict:
    """Role views over interior columns i in [x0, x1) (1-based) and every interior j."""
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    ny = fields.dims.ny
    return {
        (f, dx, dy): arrs[f][x0 + dx : x1 + dx, 1 + dy : ny + 1 + dy, :]
        for f, dx, dy in COMPUTE_ROLES
    }


def run_reference(fields: FieldSet, coeffs: AdvectionCoefficients) -> SourceSet:
    """Reference execution over the whole grid, in one compute_block call;
    pure function of its inputs."""
    out = _run_outputs(fields.dims)
    compute_block(coeffs, [grid_roles(fields, 1, fields.dims.nx + 1)],
                  tuple(f.data[1:-1, 1:-1] for f in (out.su, out.sv, out.sw)))
    return out


def _advect_point(formula, argspec, fields, coeffs, i, j, k) -> float:
    dims = fields.dims
    assert 1 <= i <= dims.nx and 1 <= j <= dims.ny and 2 <= k <= dims.nz
    top = k == dims.nz
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    args = [0.0 if (top and dk == 1) else float(arrs[f][i + dx, j + dy, k - 1 + dk])
            for f, dx, dy, dk in argspec]
    return float(formula(coeffs.tcx, coeffs.tcy,
                         float(coeffs.tzc1[k - 1]), float(coeffs.tzc2[k - 1]),
                         *args, top=top))


def advect_point_u(fields: FieldSet, coeffs: AdvectionCoefficients,
                   i: int, j: int, k: int) -> float:
    """su contribution at one interior point (2 <= k <= nz)."""
    return _advect_point(su_formula, _SU_ARGS, fields, coeffs, i, j, k)


def advect_point_v(fields: FieldSet, coeffs: AdvectionCoefficients,
                   i: int, j: int, k: int) -> float:
    return _advect_point(sv_formula, _SV_ARGS, fields, coeffs, i, j, k)


def advect_point_w(fields: FieldSet, coeffs: AdvectionCoefficients,
                   i: int, j: int, k: int) -> float:
    return _advect_point(sw_formula, _SW_ARGS, fields, coeffs, i, j, k)


def operation_census(top: bool = False) -> dict:
    """Multiplications, add/subs and operand loads per point, per formula.

    Counts come from the recorded formula tapes that `compute_block`
    evaluates, so they track the implementation exactly; coefficients are
    not counted as loads. For k < nz each formula performs 10 muls +
    11 add/subs over 18 operand reads; at k = nz, 8 + 9 over 15.
    """
    census = {}
    for name, (tape, _spec) in zip(("su", "sv", "sw"), _TOP_TAPES if top else _MID_TAPES):
        census[name] = {
            "muls": sum(ufunc is np.multiply for ufunc, *_ in tape),
            "adds": sum(ufunc is not np.multiply for ufunc, *_ in tape),
            "loads": _loads(tape),
        }
    return census


def reads_per_point(top: bool = False) -> int:
    """Total field-operand reads to produce all three outputs at one point."""
    return _READS[top]
