import math

import pytest

from pwadvect.grid import GridDims
from pwadvect.params import ModelParams
from pwadvect.refdata import DMA_TABLE, GRID_LARGEST, GRID_STRATUS
from pwadvect.transfer import (
    DmaConfig,
    dma_time,
    end_to_end,
    factor_cells,
    scaling_table,
    transfer_volume,
)

PARAMS = ModelParams()


def test_transfer_volume_published_case():
    both = transfer_volume(GRID_LARGEST, "both")
    assert both == pytest.approx(12.88e9, rel=0.01)
    assert transfer_volume(GRID_LARGEST, "to_card") == pytest.approx(6.44e9, rel=0.01)


def test_transfer_volume_single_cell_and_linearity():
    tiny = GridDims(1, 1, 2)  # 2 cells
    assert transfer_volume(tiny, "both") == 96
    assert transfer_volume(tiny, "to_card") == 48
    for dims in (tiny, GRID_STRATUS):
        assert transfer_volume(dims, "both") == 2 * transfer_volume(dims, "to_card")
    with pytest.raises(ValueError):
        transfer_volume(tiny, "sideways")


def test_dma_table_reproduced_exactly():
    cfg = DmaConfig()
    for topo, ref in DMA_TABLE.items():
        assert dma_time(1.6e9, cfg, topo) == ref.value
    assert dma_time(0.0, cfg, "split_banks_4ch") == 0.0
    with pytest.raises(ValueError):
        dma_time(1.0, cfg, "imaginary_wiring")
    for nbytes in (-1.0, -math.inf, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^nbytes = {nbytes} must be finite and >= 0$"):
            dma_time(nbytes, cfg, "split_banks_4ch")


def test_dma_time_additive():
    cfg = DmaConfig()
    for a, b in ((1.0e9, 0.6e9), (12.5, 99.5), (0.0, 3e10)):
        whole = dma_time(a + b, cfg, "one_controller_4ch")
        parts = dma_time(a, cfg, "one_controller_4ch") + dma_time(b, cfg, "one_controller_4ch")
        assert whole == pytest.approx(parts, rel=1e-12)


def test_dma_round_trip_headline():
    assert dma_time(12.88e9, DmaConfig(), "end_to_end") == pytest.approx(2.2, rel=0.02)


def test_dma_config_validation():
    with pytest.raises(ValueError):
        DmaConfig(end_to_end_bandwidth=0.0)


def _report(dims, engines):
    return end_to_end(dims, engines, PARAMS.pipeline, PARAMS.memory, PARAMS.dma,
                      PARAMS.y_batch, PARAMS.flops, PARAMS.controllers)


def test_end_to_end_largest_case():
    rep = _report(GRID_LARGEST, 12)
    assert rep.dma_seconds == pytest.approx(2.2, rel=0.02)
    assert rep.gflops_total == pytest.approx(4.2, rel=0.10)
    assert rep.total_seconds == rep.kernel_seconds + rep.dma_seconds
    assert 0.0 <= rep.dma_fraction <= 1.0


def test_end_to_end_dma_share_at_twelve_engines():
    rep = _report(GRID_STRATUS, 12)
    assert rep.dma_fraction >= 0.65


def test_dma_fraction_monotone_in_engines():
    fractions = [_report(GRID_STRATUS, e).dma_fraction for e in range(1, 13)]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))


def test_scaling_table_engines():
    reports = scaling_table(GRID_STRATUS, range(1, 13), PARAMS.pipeline, PARAMS.memory,
                            PARAMS.dma, PARAMS.y_batch, PARAMS.flops, PARAMS.controllers)
    assert len(reports) == 12
    assert reports[0].kernel_seconds > reports[-1].kernel_seconds
    assert len({r.dma_seconds for r in reports}) == 1  # DMA constant across engines
    kernels = [r.kernel_seconds for r in reports]
    assert all(a >= b for a, b in zip(kernels, kernels[1:]))


def test_scaling_table_single_point_equals_end_to_end():
    only = scaling_table(GRID_STRATUS, [3], PARAMS.pipeline, PARAMS.memory, PARAMS.dma,
                         PARAMS.y_batch, PARAMS.flops, PARAMS.controllers)
    assert only == [_report(GRID_STRATUS, 3)]
    with pytest.raises(ValueError):
        scaling_table(GRID_STRATUS, [], PARAMS.pipeline, PARAMS.memory, PARAMS.dma,
                      PARAMS.y_batch, PARAMS.flops, PARAMS.controllers)


def test_grid_sweep_monotone_series():
    cells = (1e6, 4e6, 16e6, 67e6, 268e6)
    reports = [_report(factor_cells(c), 12) for c in cells]
    for attr in ("kernel_seconds", "dma_seconds", "total_seconds"):
        series = [getattr(r, attr) for r in reports]
        assert all(a < b for a, b in zip(series, series[1:]))


def test_factor_cells_targets():
    for cells, expect in ((268.3e6, (2047, 2048, 64)), (67e6, (1022, 1024, 64)),
                          (1e6, (122, 128, 64)), (16.7e6, (510, 512, 64))):
        dims = factor_cells(cells)
        assert (dims.nx, dims.ny, dims.nz) == expect
        assert math.isclose(dims.cells, cells, rel_tol=0.02)
    with pytest.raises(ValueError):
        factor_cells(3)
