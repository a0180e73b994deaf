"""The PW advection stencil: per-point formulas, reference execution, op counts.

The three tendency formulas (docs/model-notes.md section 2) are written once,
as `su_formula` / `sv_formula` / `sw_formula`, over plain operands. Scalar
point evaluation calls them directly; `compute_block` (the blocked reference
kernel and every execution schedule) and the operation census replay the
tapes recorded from them at import. That is what makes their results
bit-identical: the per-element operation sequence is fixed here (X term,
+ Y term, + Z term, inner parenthesisation as written) and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FieldSet, GridDims, SourceSet, zeros_sources


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

    @property
    def nz(self) -> int:
        return len(self.tzc1)


def default_coefficients(nz: int, value: float = 0.25) -> AdvectionCoefficients:
    """Test/bench defaults: tcx = tcy = tzc1(k) = tzc2(k) = 0.25."""
    return AdvectionCoefficients(value, value, np.full(nz, value), np.full(nz, value))


@dataclass(frozen=True)
class FlopProfile:
    """Per-cell operation credit used for GFLOP/s accounting (53 = 21 + 32)."""

    adds_per_cell: int = 21
    muls_per_cell: int = 32

    @property
    def total_per_cell(self) -> int:
        return self.adds_per_cell + self.muls_per_cell


def flops(dims: GridDims, profile: FlopProfile = FlopProfile()) -> int:
    """Nominal operation count for one kernel run over the grid."""
    return dims.cells * profile.total_per_cell


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
# writes the result, so a block is evaluated by `out=` ufunc calls into
# reused buffers and the caller's output. Each element still sees the same
# IEEE operations in the same order as the written formula.

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


def compute_block(coeffs: AdvectionCoefficients, roles: dict, out, scratch: dict) -> None:
    """Evaluate su/sv/sw for columns given their role arrays, into `out`.

    `roles` maps each key in COMPUTE_ROLES to an array shaped (..., nz) with
    a common (possibly empty) leading shape. `out` is (su, sv, sw), arrays of
    that shape; levels k >= 2 are written and level k = 1 is left as it is.
    `scratch` is a dict the caller owns and passes to every call: it keeps
    one `new_scratch` per role shape, so callers running concurrently need
    one each.
    """
    shape = roles[("u", 0, 0)].shape
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


def _replay(tapes, coefs, roles, ks, out, k, slots) -> None:
    """Run each formula's tape on the role views at levels ks[dk], into out[..., k]."""
    for (tape, spec), dest in zip(tapes, out):
        vals = [*coefs, *[roles[(f, dx, dy)][..., ks[dk]] for f, dx, dy, dk in spec],
                dest[..., k], *slots]
        for ufunc, a, b, d in tape:
            ufunc(vals[a], vals[b], vals[d])  # third argument is `out`


def grid_roles(fields: FieldSet, x0: int, x1: int, j0: int, j1: int) -> dict:
    """Role views over interior columns i in [x0, x1), j in [j0, j1) (1-based)."""
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    return {
        (f, dx, dy): arrs[f][x0 + dx : x1 + dx, j0 + dy : j1 + dy, :]
        for f, dx, dy in COMPUTE_ROLES
    }


# Cells per block of the blocked reference run: 65,536 cells is 512 KiB per
# float64 temporary, so a block's operands and temporaries stay in L2
# instead of streaming grid-sized temporaries through DRAM.
BLOCK_CELLS = 1 << 16


def run_blocks(fields: FieldSet, coeffs: AdvectionCoefficients, out: SourceSet,
               x0: int, x1: int) -> None:
    """Evaluate interior columns i in [x0, x1) into `out`, one block at a time.

    Blocks are whole X planes, as many as fit in BLOCK_CELLS; a plane larger
    than that is split in Y. Every element is still computed by
    `compute_block` in the canonical order, so the result is independent of
    the block shape; the blocks share one scratch per block shape.
    """
    ny, nz = fields.dims.ny, fields.dims.nz
    planes = max(1, BLOCK_CELLS // (ny * nz))
    rows = min(ny, max(1, BLOCK_CELLS // nz))
    scratch = {}
    for i0 in range(x0, x1, planes):
        i1 = min(i0 + planes, x1)
        for j0 in range(1, ny + 1, rows):
            j1 = min(j0 + rows, ny + 1)
            compute_block(coeffs, grid_roles(fields, i0, i1, j0, j1),
                          tuple(f.data[i0:i1, j0:j1] for f in (out.su, out.sv, out.sw)),
                          scratch)


def run_reference(fields: FieldSet, coeffs: AdvectionCoefficients) -> SourceSet:
    """Blocked reference execution over the whole grid; pure function of its inputs."""
    dims = fields.dims
    if coeffs.nz != dims.nz:
        raise ValueError(f"coefficient length {coeffs.nz} != nz {dims.nz}")
    out = zeros_sources(dims)
    run_blocks(fields, coeffs, out, 1, dims.nx + 1)
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
            "loads": sum(_NCOEFS <= x < _NLEAVES for _, a, b, _d in tape for x in (a, b)),
        }
    return census


def reads_per_point(top: bool = False) -> int:
    """Total field-operand reads to produce all three outputs at one point."""
    return sum(c["loads"] for c in operation_census(top).values())
