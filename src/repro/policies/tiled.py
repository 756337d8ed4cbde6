"""Tile-search fallback for layers no named policy can fit.

Algorithm 1's analyzer requires every layer to have at least one feasible
plan: "If the condition ... is not true for any of the policies, then we
have to search for appropriate tile sizes that will satisfy the condition.
This may lead to an increased off-chip accesses" (paper §3.3).

Policy 5 with ``n = 1`` is the smallest-footprint corner of the named
policies, but it still needs a full spatial ofmap channel (``O_H × O_W``)
resident.  The search tiles further along the access directions of the
paper's Fig. 2a:

* **height-wise** — ofmap row bands of ``o_t`` rows; band boundaries
  re-load the ``F_H − S`` halo rows (the turquoise re-loads of Fig. 2a);
* **width-wise** — ofmap column bands of ``w_t`` columns with the
  symmetric ``F_W − S`` column halos; engaged only when height-wise
  tiling alone cannot fit (width tiling never reduces traffic, it only
  shrinks footprints);
* **depth-wise** — one ifmap channel at a time with per-channel filter
  slices (as in Policies 3/5), re-streamed once per (row band × column
  band × filter block) since a band's partial sums must finish before it
  drains.

Filters additionally block into groups of ``n_f`` as in Policies 4/5.
The search enumerates candidate ``(n_f, o_t[, w_t])`` combinations and
returns the feasible plan with the fewest off-chip accesses, tie-broken
toward fewer steps.

The search is the planner's hot loop (hundreds to thousands of tile
candidates per layer), so its budget-independent work is done once per
layer: the whole candidate grid's memory footprints, traffic totals and
step counts are evaluated as NumPy arrays in one shot (every quantity has
a closed form in ``(n_f, o_t, w_t)`` — band sums factor into a row-sum ×
column-sum product), and the grid's Pareto frontier is kept beside them:
taken in ``(traffic, steps, index)`` order, every candidate whose
footprint is strictly below that of all earlier ones.  The winner at a
budget is the frontier's largest footprint that fits, found by bisection,
and only that candidate is instantiated into a full
:class:`CandidatePlan` by the exact scalar construction.  The grid depends
on the layer alone, so it is built once per layer and memoized
(:func:`tile_grid`).  The test suite keeps a candidate-at-a-time
reference loop and asserts the same winner, tie-breaks included.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from ..arch.units import ceil_div
from ..nn.layer import LayerSpec
from .base import CandidatePlan, LayerSchedule, Policy, StepGroup, TileSizes, Traffic
from .p4 import split_blocks


def _candidate_values(limit: int) -> list[int]:
    """1, 2, 4, ... powers of two up to ``limit``, plus ``limit`` itself."""
    values = []
    v = 1
    while v < limit:
        values.append(v)
        v *= 2
    values.append(limit)
    return sorted(set(values))


class TileGrid(NamedTuple):
    """One layer's candidate grid: read-only arrays in enumeration order,
    and its Pareto frontier.

    ``footprint`` is the Eq. (1) residency ``I_Tile + F_Tile + O_Tile`` of
    every candidate (doubled per Eq. (2) by the caller); ``traffic`` and
    ``steps`` are the winner's sort keys.  ``frontier_footprint`` holds,
    in ascending order, the footprints of the candidates that win at some
    budget, and ``frontier`` their ``(n_f, o_t, w_t)``, both as Python
    ints.  None of them depends on the budget or on prefetching.
    """

    n_f: NDArray[np.int64]
    o_t: NDArray[np.int64]
    w_t: NDArray[np.int64]
    footprint: NDArray[np.int64]
    traffic: NDArray[np.int64]
    steps: NDArray[np.int64]
    frontier_footprint: tuple[int, ...]
    frontier: tuple[tuple[int, int, int], ...]


#: Memo of built grids keyed by ``(layer, width_wise)``: a GLB sweep asks
#: for the same layer's grid at every size, and the planner passes each
#: layer's name-blind shape, so layers of one shape share a grid.  Same
#: discipline as the shape memo — idempotent puts of deterministic
#: values, reset wholesale above the cap, cleared with the evaluation memo.
_GRID_MEMO: dict[tuple[LayerSpec, bool], TileGrid] = {}
_GRID_MEMO_MAX = 4096


def clear_grid_memo() -> None:
    """Drop the memoized tile grids (cold-start benches)."""
    _GRID_MEMO.clear()


def tile_grid(layer: LayerSpec, width_wise: bool) -> TileGrid:
    """The layer's height-wise (``w_t = O_W``) or width-wise grid, memoized.

    Every per-candidate quantity of :meth:`TiledFallback._instantiate` has
    a closed form: the band sum ``Σ covered_rows·covered_cols`` factors
    into ``(Σ covered_rows)·(Σ covered_cols)`` because row and column
    bands tile independently, and block sums collapse through
    ``Σ count = ⌈total/n_f⌉`` and ``Σ count·size = total``.
    """
    key = (layer, width_wise)
    grid = _GRID_MEMO.get(key)
    if grid is None:
        if len(_GRID_MEMO) > _GRID_MEMO_MAX:
            _GRID_MEMO.clear()
        grid = _build_grid(layer, width_wise)
        _GRID_MEMO[key] = grid
    return grid


def _build_grid(layer: LayerSpec, width_wise: bool) -> TileGrid:
    n_limit = layer.in_c if layer.kind.is_depthwise else layer.num_filters
    nf_vals = _candidate_values(n_limit)
    ot_vals = _candidate_values(layer.out_h)
    wt_vals = _candidate_values(layer.out_w)[:-1] if width_wise else [layer.out_w]
    # Candidate axes in enumeration order (n_f outer, o_t middle, w_t
    # inner), flattened C-order.
    n_f = np.repeat(np.asarray(nf_vals, dtype=np.int64), len(ot_vals) * len(wt_vals))
    o_t = np.tile(
        np.repeat(np.asarray(ot_vals, dtype=np.int64), len(wt_vals)), len(nf_vals)
    )
    w_t = np.tile(np.asarray(wt_vals, dtype=np.int64), len(nf_vals) * len(ot_vals))

    depthwise = layer.kind.is_depthwise
    row_step = min(layer.stride, layer.f_h)
    col_step = min(layer.stride, layer.f_w)
    filter_area = layer.f_h * layer.f_w

    # Eq. (1) residency terms of every candidate.
    window_cols = np.minimum(layer.padded_w, layer.f_w + (w_t - 1) * col_step)
    window = layer.f_h * window_cols * (n_f if depthwise else 1)
    filter_slice = filter_area * n_f
    ofmap_tile = o_t * w_t * n_f
    footprint = window + filter_slice + ofmap_tile

    # Band structure: Σ_bands covered_rows·covered_cols factors into
    # (Σ_bh covered_rows)·(Σ_bw covered_cols).
    bands_h = -(-layer.out_h // o_t)
    bands_w = -(-layer.out_w // w_t)
    rows_last = layer.out_h - (bands_h - 1) * o_t
    cols_last = layer.out_w - (bands_w - 1) * w_t
    cr_full = np.minimum(layer.padded_h, layer.f_h + (o_t - 1) * row_step)
    cr_last = np.minimum(layer.padded_h, layer.f_h + (rows_last - 1) * row_step)
    cc_full = np.minimum(layer.padded_w, layer.f_w + (w_t - 1) * col_step)
    cc_last = np.minimum(layer.padded_w, layer.f_w + (cols_last - 1) * col_step)
    sum_rows = (bands_h - 1) * cr_full + cr_last
    sum_cols = (bands_w - 1) * cc_full + cc_last
    bands = bands_h * bands_w

    # Filter blocking: Σ count = ⌈total/n_f⌉ blocks, Σ count·size = total.
    total_items = layer.in_c if depthwise else layer.num_filters
    num_blocks = -(-total_items // n_f)

    if depthwise:
        total_ifmap = sum_rows * sum_cols * layer.in_c
        total_filters = bands * filter_area * layer.in_c
        num_steps = bands * num_blocks
    else:
        chan_iters = layer.in_c
        total_ifmap = sum_rows * sum_cols * chan_iters * num_blocks
        total_filters = bands * chan_iters * filter_area * layer.num_filters
        num_steps = bands * num_blocks * (chan_iters + 1)
    traffic_total = total_ifmap + total_filters + layer.ofmap_elems

    arrays = (n_f, o_t, w_t, footprint, traffic_total, num_steps)
    for array in arrays:
        array.setflags(write=False)

    # The frontier: in winner order (stable, so exact ties keep the
    # earliest index), each candidate smaller than every one before it.
    # The winner at a budget is the first candidate in that order that
    # fits; all before it are larger, so it is on the frontier.
    order = np.lexsort((num_steps, traffic_total))
    ranked = footprint[order]
    keep = np.ones(ranked.size, dtype=bool)
    keep[1:] = ranked[1:] < np.minimum.accumulate(ranked)[:-1]
    kept = order[keep][::-1]
    return TileGrid(
        *arrays,
        frontier_footprint=tuple(footprint[kept].tolist()),
        frontier=tuple(zip(n_f[kept].tolist(), o_t[kept].tolist(), w_t[kept].tolist())),
    )


def _grid_winner(
    grid: TileGrid, factor: int, budget_elems: int
) -> tuple[int, int, int] | None:
    """Best candidate of ``grid`` whose ``factor``-scaled footprint fits:
    minimum ``(traffic, steps)``, earliest grid index on exact ties.

    That is the frontier's largest footprint within ``budget // factor``.
    """
    index = bisect_right(grid.frontier_footprint, budget_elems // factor)
    return grid.frontier[index - 1] if index else None


class TiledFallback(Policy):
    """Tile search over filter blocks × ofmap row bands × column bands."""

    name = "tiled"

    def plan(
        self, layer: LayerSpec, budget_elems: int, prefetch: bool
    ) -> CandidatePlan | None:
        """Search tile shapes; return the fewest-accesses feasible plan."""
        params = self._search(layer, budget_elems, prefetch)
        if params is None:
            return None
        return self._instantiate(layer, budget_elems, prefetch, *params)

    def capacity_signature(
        self, layer: LayerSpec, budget_elems: int, prefetch: bool
    ) -> object:
        """The winning tile parameters (or None): everything plan() takes
        from the budget.  Same winner ⇒ bit-identical plan."""
        return self._search(layer, budget_elems, prefetch)

    def _search(
        self, layer: LayerSpec, budget_elems: int, prefetch: bool
    ) -> tuple[int, int, int] | None:
        """Winning ``(n_f, o_t, w_t)`` of the tile grid, or None.

        Height-wise candidates first (``w_t = O_W``), the width direction
        only when nothing fits.
        """
        factor = 2 if prefetch else 1
        winner = _grid_winner(tile_grid(layer, False), factor, budget_elems)
        if winner is None:
            winner = _grid_winner(tile_grid(layer, True), factor, budget_elems)
        return winner

    @staticmethod
    def candidate_tiles(layer: LayerSpec, n_f: int, o_t: int, w_t: int) -> TileSizes:
        """The Eq. (1) residency of one ``(n_f, o_t, w_t)`` candidate."""
        col_step = min(layer.stride, layer.f_w)
        window_cols = min(layer.padded_w, layer.f_w + (w_t - 1) * col_step)
        window = layer.f_h * window_cols * (n_f if layer.kind.is_depthwise else 1)
        return TileSizes(ifmap=window, filters=layer.f_h * layer.f_w * n_f, ofmap=o_t * w_t * n_f)

    def _instantiate(
        self,
        layer: LayerSpec,
        budget_elems: int,
        prefetch: bool,
        n_f: int,
        o_t: int,
        w_t: int,
    ) -> CandidatePlan | None:
        tiles = self.candidate_tiles(layer, n_f, o_t, w_t)
        if not self._fits(tiles, budget_elems, prefetch):
            return None
        depthwise = layer.kind.is_depthwise
        row_step = min(layer.stride, layer.f_h)
        col_step = min(layer.stride, layer.f_w)

        bands_h = ceil_div(layer.out_h, o_t)
        bands_w = ceil_div(layer.out_w, w_t)
        groups: list[StepGroup] = []
        total_ifmap = 0
        total_filters = 0
        chan_iters = 1 if depthwise else layer.in_c
        blocks = split_blocks(layer.in_c if depthwise else layer.num_filters, n_f)

        for bh in range(bands_h):
            rows = min(o_t, layer.out_h - bh * o_t)
            covered_rows = min(layer.padded_h, layer.f_h + (rows - 1) * row_step)
            for bw in range(bands_w):
                cols = min(w_t, layer.out_w - bw * w_t)
                covered_cols = min(
                    layer.padded_w, layer.f_w + (cols - 1) * col_step
                )
                band_elems = covered_rows * covered_cols
                out_elems = rows * cols
                for count, size in blocks:
                    macs = out_elems * size * layer.f_h * layer.f_w
                    if depthwise:
                        groups.append(
                            StepGroup(
                                count=count,
                                ifmap=band_elems * size,
                                filters=layer.f_h * layer.f_w * size,
                                macs=macs,
                                store=out_elems * size,
                            )
                        )
                        total_ifmap += count * band_elems * size
                        total_filters += count * layer.f_h * layer.f_w * size
                    else:
                        groups.append(
                            StepGroup(
                                count=count * chan_iters,
                                ifmap=band_elems,
                                filters=layer.f_h * layer.f_w * size,
                                macs=macs,
                            )
                        )
                        groups.append(
                            StepGroup(count=count, store=out_elems * size)
                        )
                        total_ifmap += count * chan_iters * band_elems
                        total_filters += (
                            count * chan_iters * layer.f_h * layer.f_w * size
                        )

        traffic = Traffic(
            ifmap_reads=total_ifmap,
            filter_reads=total_filters,
            ofmap_writes=layer.ofmap_elems,
        )
        schedule = LayerSchedule(groups=tuple(groups))
        return CandidatePlan(
            policy_name=self.name,
            layer=layer,
            tiles=tiles,
            traffic=traffic,
            schedule=schedule,
            prefetch=prefetch,
            block_size=n_f,
            tile_shape=(o_t, w_t),
        )
