"""Shuffle-step algorithms as action scripts on the PEM machine.

The map-dependent half turns an instance into R meta-runs, each sorted
by (row, column); the reduce-dependent half either rearranges tiles
into a fully row-major region or reduces rows on the fly.  Merging
always combines *adjacent* runs, so every meta-run covers a contiguous
piece of the original column order; that makes tile concatenation in
(row, run) order come out globally (row, column) sorted, which the
sequential oracles require bit-exactly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Container, Sequence

from .machine import (
    Element,
    Input,
    Machine,
    MachineConfig,
    Region,
    SimulationError,
    ceil_div,
    create_machine,
    each_share,
    write_out,
)
from .primitives import contract, prefix_sum
from .workload import COLUMN_MAJOR, MapTask, ShuffleInstance, instance_blocks


def _key(e: Element):
    return e.key


# -- run bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """A sorted slice of a dense region: elements [lo, hi) in block order."""

    region: Region
    lo: int
    hi: int

    @property
    def count(self) -> int:
        return self.hi - self.lo


def merge_degree(H: int, P: int, B: int, M: int) -> int:
    """Merge fan-in: ceil(max(2, min(H/(PB), sqrt(H/P), M/B)))."""
    return math.ceil(max(2.0, min(H / (P * B), math.sqrt(H / P), M / B)))


def nonparallel_run_target(H: int, N_R: int, B: int) -> int:
    return max(1, ceil_div(H, N_R * B))


def parallel_run_target(H: int, N_R: int, w: int, B: int) -> int:
    return max(1, ceil_div(H, N_R * max(w, B)))


def _effective_fanin(config: MachineConfig, d: int | None = None) -> int:
    # One buffer block per input run plus the output buffer must fit in M.
    cap = max(2, config.M // config.B - 1)
    return cap if d is None else max(2, min(d, cap))


def run_elements(machine: Machine, run: Run) -> list[Element]:
    """God view of a run's elements in order (no I/O charged)."""
    B = machine.config.B
    out: list[Element] = []
    for bi in range(run.lo // B, ceil_div(run.hi, B)):
        block = machine.peek(run.region.addr(bi))
        out.extend(block[max(0, run.lo - bi * B):run.hi - bi * B])
    return out


def _block_pieces(nbs: Sequence[int], lo: int, hi: int):
    """The flat block range [lo, hi) over groups of ``nbs`` blocks laid
    end to end, as (group, first block, end block) pieces."""
    end = 0
    for gi, nb in enumerate(nbs):
        start, end = end, end + nb
        if max(lo, start) < min(hi, end):
            yield gi, max(lo, start) - start, min(hi, end) - start


def _read_window(machine: Machine, p: int, addr: int, base: int, lo: int,
                 hi: int, held: Container[Element] = ()):
    """Input the block at ``addr`` and return its elements at positions [lo, hi).

    ``base`` is the position of the block's offset 0.  The rest of the
    block is dropped, except what ``held`` has: pieces of one column
    share boundary blocks, and the caller may still own elements of an
    earlier piece.
    """
    block = yield Input(addr)
    a, b = max(0, lo - base), max(0, hi - base)
    if a or b < len(block):
        drop = [e for e in itertools.chain(block[:a], block[b:]) if e not in held]
        if drop:
            machine.discard(p, drop)
    return block[a:b]


def _read_span(machine: Machine, p: int, runs: Sequence[Run], lo: int, hi: int):
    """``_read_window`` over every block holding positions [lo, hi) of
    the runs laid end to end; returns the kept elements in order."""
    kept: list[Element] = []
    for _, addr, base, win_lo, win_hi in _span_blocks(runs, lo, hi, machine.config.B):
        kept.extend((yield from _read_window(machine, p, addr, base, win_lo, win_hi)))
    return kept


# -- generic k-way merging ---------------------------------------------------


def _merge_task(machine: Machine, p: int, srcs: Sequence[tuple[Region, int, int]],
                out_addrs: Sequence[int], out_count: int,
                combine: Callable | None = None):
    """Generator merging source intervals into the given output blocks.

    Keeps one buffer block per source plus one output buffer, so peak
    memory stays within (fan-in + 1) blocks.  With ``combine``, equal
    keys are folded left-to-right in source order as they are emitted.
    """
    B = machine.config.B
    k = len(srcs)
    buffers: list[Sequence[Element]] = [() for _ in range(k)]
    heads = [0] * k
    cursors = [lo for _, lo, _ in srcs]
    owned: set[Element] = set()
    outbuf: list[Element] = []
    out_w = 0
    # (head key, source) of every source with buffered elements; the
    # source index breaks ties, exactly as a scan for the least pair would
    heap: list[tuple] = []

    def refill(s: int):
        region, _, hi = srcs[s]
        blk_idx = cursors[s] // B
        keep = yield from _read_window(machine, p, region.addr(blk_idx),
                                       blk_idx * B, cursors[s], hi, owned)
        owned.update(keep)
        buffers[s] = keep
        heads[s] = 0
        cursors[s] += len(keep)
        if keep:
            heapq.heappush(heap, (keep[0].key, s))

    for s in range(k):
        if cursors[s] < srcs[s][2]:
            yield from refill(s)
    while heap:
        s = heapq.heappop(heap)[1]
        e = buffers[s][heads[s]]
        heads[s] += 1
        if combine is not None and outbuf and outbuf[-1].key == e.key:
            tail = outbuf[-1]
            value = combine(tail.payload, e.payload)
            owned.discard(tail)
            owned.discard(e)
            machine.discard(p, (tail, e))
            merged = machine.create(p, e.key, value)
            outbuf[-1] = merged
            owned.add(merged)
        else:
            if len(outbuf) == B:
                yield from write_out(machine, p, out_addrs[out_w], outbuf)
                owned.difference_update(outbuf)
                out_w += 1
                outbuf = []
            outbuf.append(e)
        if heads[s] < len(buffers[s]):
            heapq.heappush(heap, (buffers[s][heads[s]].key, s))
        elif cursors[s] < srcs[s][2]:
            yield from refill(s)
    if outbuf:
        yield from write_out(machine, p, out_addrs[out_w], outbuf)
        owned.difference_update(outbuf)
    written = out_w * B + len(outbuf)
    if written != out_count:
        raise SimulationError(f"merge wrote {written} elements, expected {out_count}")


def _block_cuts(machine: Machine, runs: Sequence[Run], combined: bool,
                B: int) -> tuple[int, list[tuple[int, ...]]]:
    """Merged length of a run group and its block cuts (free plan knowledge).

    ``cuts[b]`` counts, per run, the elements consumed by the first
    min(b*B, length) output positions, for b = 0..ceil(length/B).  With
    ``combined``, equal keys fold into one output position.
    """
    streams = [zip(map(_key, run_elements(machine, r)), itertools.repeat(s))
               for s, r in enumerate(runs)]
    counts = [0] * len(runs)
    cuts: list[tuple[int, ...]] = []
    n = 0
    last = None
    for key, s in heapq.merge(*streams):
        if not (combined and n and key == last):
            if n % B == 0:
                cuts.append(tuple(counts))
            n += 1
            last = key
        counts[s] += 1
    cuts.append(tuple(counts))
    return n, cuts


def _merge_groups_parallel(machine: Machine, groups: Sequence[Sequence[Run]],
                           combine: Callable | None = None) -> list[Run]:
    """Merge every group of runs at once, all processors cooperating.

    Each group's output is split into block-aligned pieces so writes
    never collide; source boundary blocks may be read by two processors
    (a concurrent read).  Split points and the matching source
    intervals are plan knowledge, charged zero I/Os.
    """
    B = machine.config.B
    plans = [_block_cuts(machine, g, combine is not None, B) for g in groups]
    out_counts = [n for n, _ in plans]
    regions = [machine.alloc_region(c) for c in out_counts]
    nbs = [ceil_div(c, B) for c in out_counts]

    def script(p: int, lo: int, hi: int):
        for gi, blo, bhi in _block_pieces(nbs, lo, hi):
            n, cuts = plans[gi]
            at_lo, at_hi = cuts[blo], cuts[bhi]
            srcs = [(r.region, r.lo + at_lo[s], r.lo + at_hi[s])
                    for s, r in enumerate(groups[gi]) if at_hi[s] > at_lo[s]]
            addrs = [regions[gi].addr(b) for b in range(blo, bhi)]
            yield from _merge_task(machine, p, srcs, addrs,
                                   min(bhi * B, n) - blo * B, combine)

    each_share(machine, sum(nbs), script)
    return [Run(regions[gi], 0, out_counts[gi]) for gi in range(len(groups))]


def parallel_merge_to_R(machine: Machine, runs: Sequence[Run], R: int,
                        d: int | None = None,
                        combine: Callable | None = None) -> list[Run]:
    """Merge sorted runs until at most max(R, 1) remain.

    Rounds merge groups of up to d adjacent runs; with runs_in <= R the
    input passes through untouched (zero I/Os).
    """
    R = max(1, R)
    runs = [r for r in runs if r.count > 0]
    fanin = _effective_fanin(machine.config, d)
    while len(runs) > R:
        n_groups = max(R, ceil_div(len(runs), fanin))
        bounds = [(i * len(runs)) // n_groups for i in range(n_groups + 1)]
        groups = [runs[bounds[i]:bounds[i + 1]] for i in range(n_groups)
                  if bounds[i + 1] > bounds[i]]
        to_merge = [g for g in groups if len(g) > 1]
        merged = _merge_groups_parallel(machine, to_merge, combine)
        nxt: list[Run] = []
        mi = 0
        for g in groups:
            if len(g) == 1:
                nxt.append(g[0])
            else:
                nxt.append(merged[mi])
                mi += 1
        runs = nxt
    return runs


# -- local (single-processor) sorting ----------------------------------------


def _local_merge_runs(machine: Machine, p: int, runs: list[Run], target: int,
                      fanin: int):
    """Merge adjacent presorted runs down to at most ``target``; returns
    the runs left."""
    while len(runs) > target:
        nxt: list[Run] = []
        for g in range(0, len(runs), fanin):
            batch = runs[g:g + fanin]
            if len(batch) == 1:
                nxt.append(batch[0])
                continue
            count = sum(r.count for r in batch)
            out = machine.alloc_region(count)
            srcs = [(r.region, r.lo, r.hi) for r in batch]
            yield from _merge_task(machine, p, srcs, list(out.addrs()), count)
            nxt.append(Run(out, 0, count))
        runs = nxt
    return runs


def _formation_and_local_merge(machine: Machine, region: Region, blk_lo: int,
                               blk_hi: int, p: int, target: int, fanin: int):
    """Sort batches of up to M elements in memory, write each back as a
    presorted run, then locally merge down to ``target`` runs; returns
    the runs left."""
    B = machine.config.B
    batch_cap = machine.config.M // B
    whole = (Run(region, 0, region.count),)
    runs: list[Run] = []
    for bi in range(blk_lo, blk_hi, batch_cap):
        elems = yield from _read_span(machine, p, whole, bi * B,
                                      min(blk_hi, bi + batch_cap) * B)
        elems.sort(key=_key)
        out = machine.alloc_region(len(elems))
        for wi, ofs in enumerate(range(0, len(elems), B)):
            yield from write_out(machine, p, out.addr(wi), elems[ofs:ofs + B])
        runs.append(Run(out, 0, len(elems)))
    return (yield from _local_merge_runs(machine, p, runs, target, fanin))


def _sort_to_runs(machine: Machine, region: Region, H: int, R: int) -> list[Run]:
    """The layout-blind PEM merge sort (Arge, Goodrich, Nelson and Sitchinava,
    SPAA 2008): form presorted runs locally, then merge in parallel to R."""
    cfg = machine.config
    d = merge_degree(H, cfg.P, cfg.B, cfg.M)
    fanin = _effective_fanin(cfg, d)
    target_local = max(1, R // cfg.P)
    local = each_share(machine, region.blocks, lambda p, lo, hi: _formation_and_local_merge(
        machine, region, lo, hi, p, target_local, fanin))
    return parallel_merge_to_R(machine, [r for runs in local for r in runs], R, d)


# -- map-dependent preparation -----------------------------------------------


def _key_stretches(elems: Sequence[Element], part: int):
    """(start, end) of every maximal stretch of elements with equal key[part]."""
    start = 0
    for idx in range(1, len(elems) + 1):
        if idx == len(elems) or elems[idx].key[part] != elems[start].key[part]:
            yield start, idx
            start = idx


def _column_runs(machine: Machine, region: Region) -> list[Run]:
    elems = machine.region_elements(region)
    return [Run(region, lo, hi) for lo, hi in _key_stretches(elems, 1)]


def _formed_runs(cfg: MachineConfig, H: int) -> int:
    """Runs that run formation leaves: P*ceil(ceil(H/P)/M)."""
    return cfg.P * ceil_div(ceil_div(H, cfg.P), cfg.M)


def prepare_map(machine: Machine, region: Region, instance: ShuffleInstance,
                R: int) -> list[Run]:
    """Meta-runs of a map output; the instance layout picks the path.

    Mixed column input (unordered map) goes through the parallel merge
    sort.  In column major input (sorted map) the columns are presorted
    runs, merged straight down to R by the parallel merge when there are
    no more of them than R or than the runs run formation would leave,
    and sorted otherwise.  No other step reads the layout.
    """
    cfg = machine.config
    H = instance.H
    if instance.layout == COLUMN_MAJOR:
        columns = _column_runs(machine, region)
        if len(columns) <= max(R, _formed_runs(cfg, H)):
            d = merge_degree(H, cfg.P, cfg.B, cfg.M)
            return parallel_merge_to_R(machine, columns, R, d)
    return _sort_to_runs(machine, region, H, R)


def meta_column_capacity(config: MachineConfig, H: int) -> int:
    """m = min(M - B, ceil(H/P)): input elements a processor can pin."""
    return min(config.M - config.B, ceil_div(H, config.P))


def prepare_parallel_map(machine: Machine, vec_region: Region, task: MapTask,
                         R: int) -> list[Run]:
    """Run the map phase itself: emit meta-columns row-wise, then merge.

    Input vectors sit column-major in ``vec_region``; each processor
    pins the input elements of a whole meta-column (m/v columns, at
    least one) while emitting that meta-column's pairs in row order, m
    being ``meta_column_capacity``.  Beyond v = M - B the pinned entries
    leave no room for a full output block, and the machine refuses a
    run that overflows its memory.  Pairs outside a processor's
    assigned slice are dropped without any I/O.
    """
    cfg = machine.config
    B = cfg.B
    m = meta_column_capacity(cfg, task.H)
    cols_per_mc = max(1, m // task.v)
    n_mc = ceil_div(task.N_M, cols_per_mc)

    # Volume discovery: scan input-vector shares, then a prefix sum over
    # the per-processor pair counts.
    counts = [0] * cfg.P

    def discover(p: int, lo: int, hi: int):
        for bi in range(lo, hi):
            block = yield Input(vec_region.addr(bi))
            for e in block:
                j, k = e.key
                if k == 1:
                    counts[p] += len(task.emission(j))
            machine.discard(p, block)

    each_share(machine, vec_region.blocks, discover)
    prefix_sum(machine, counts)

    # Meta-column formation: emit row-sorted pairs into block-aligned
    # slices per processor so writes never collide.
    mc_cols = [(mc * cols_per_mc + 1, min(task.N_M, (mc + 1) * cols_per_mc))
               for mc in range(n_mc)]
    mc_pairs: list[list] = []
    for col_lo, col_hi in mc_cols:
        pairs = []
        for j in range(col_lo, col_hi + 1):
            pairs.extend(task.emission(j))
        pairs.sort(key=lambda t: (t.i, t.j))
        mc_pairs.append(pairs)
    mc_regions = [machine.alloc_region(len(pairs)) if pairs else None
                  for pairs in mc_pairs]

    nbs = [ceil_div(len(pairs), B) for pairs in mc_pairs]
    vectors = (Run(vec_region, 0, vec_region.count),)

    def emit_script(p: int, lo: int, hi: int):
        for mc, blo, bhi in _block_pieces(nbs, lo, hi):
            col_lo, col_hi = mc_cols[mc]
            ent_lo = (col_lo - 1) * task.v
            ent_hi = col_hi * task.v
            pinned = yield from _read_span(machine, p, vectors, ent_lo, ent_hi)
            pairs = mc_pairs[mc]
            for bi in range(blo, bhi):
                chunk = pairs[bi * B: min((bi + 1) * B, len(pairs))]
                created = [machine.create(p, (t.i, t.j), t) for t in chunk]
                yield from write_out(machine, p, mc_regions[mc].addr(bi), created)
            machine.discard(p, sorted(pinned, key=lambda e: e.uid))

    each_share(machine, sum(nbs), emit_script)

    runs = [Run(mc_regions[mc], 0, len(pairs))
            for mc, pairs in enumerate(mc_pairs) if pairs]
    # The merge here follows the M/B-way budget, not the general degree.
    return parallel_merge_to_R(machine, runs, R, None)


# -- reduce-dependent finalisation -------------------------------------------


def _span_blocks(runs: Sequence[Run], lo: int, hi: int, B: int):
    """Physical blocks covering global positions [lo, hi) over the runs.

    Global positions number the runs' elements consecutively, run after
    run.  Yields (run_idx, addr, base, win_lo, win_hi): ``base`` is the
    global position of the block's offset 0, and [win_lo, win_hi) is the
    part of the block that lies both inside the run and inside [lo, hi).
    """
    r_hi = 0
    for ri, run in enumerate(runs):
        r_lo, r_hi = r_hi, r_hi + run.count
        s, e = max(lo, r_lo), min(hi, r_hi)
        if s >= e:
            continue
        local_s = run.lo + (s - r_lo)
        local_e = run.lo + (e - r_lo)
        for bi in range(local_s // B, ceil_div(local_e, B)):
            base = r_lo - run.lo + bi * B
            win_lo = max(s, base)
            win_hi = min(e, base + B)
            yield ri, run.region.addr(bi), base, win_lo, win_hi


@dataclass(frozen=True)
class Tile:
    """Elements of one row inside one meta-run."""

    run: int
    row: int
    start: int   # global position over the concatenated runs
    size: int


def tile_table(machine: Machine, runs: Sequence[Run]) -> list[Tile]:
    """Tiles in current (run, row) order with global start positions."""
    tiles: list[Tile] = []
    pos = 0
    for ri, run in enumerate(runs):
        elems = run_elements(machine, run)
        for lo, hi in _key_stretches(elems, 0):
            tiles.append(Tile(ri, elems[lo].key[0], pos + lo, hi - lo))
        pos += len(elems)
    return tiles


def finalize_nonparallel_reduce(machine: Machine, runs: Sequence[Run]) -> Region:
    """Rearrange tiles into a fully row-major region.

    Scans record every tile start into table S (one block per entry);
    tile sizes derived from S become block-ceiled destinations in table
    D through a row-major prefix sum; tiles are then written to their
    ceiled slots and a final contraction squeezes out the padding.
    """
    cfg = machine.config
    P, B = cfg.P, cfg.B
    runs = [r for r in runs if r.count > 0]
    if not runs:
        return machine.alloc_region(0)
    if len(runs) == 1 and runs[0].lo == 0 and runs[0].hi == runs[0].region.count:
        return runs[0].region   # already row-major and dense
    H = sum(r.count for r in runs)
    tiles = tile_table(machine, runs)
    T = len(tiles)
    start_of_tile = {t.start: ti for ti, t in enumerate(tiles)}

    # Scan phase: write every tile start into S, one block per entry.
    s_table = machine.alloc(T)

    def scan_script(p: int, lo: int, hi: int):
        for ri, addr, base, win_lo, win_hi in _span_blocks(runs, lo, hi, B):
            # the S entries need positions only, so the block is not held
            block = yield Input(addr)
            machine.discard(p, block)
            for off in range(len(block)):
                pos = base + off
                if win_lo <= pos < win_hi and pos in start_of_tile:
                    ti = start_of_tile[pos]
                    entry = machine.create(p, ("S", ti), pos)
                    yield from write_out(machine, p, s_table + ti, (entry,))

    each_share(machine, H, scan_script)

    # Size phase: tile extents from S (entry plus successor), local block
    # tallies in row-major order, then a prefix sum fixes each
    # processor's first destination; phase three writes table D.
    sigma = sorted(range(T), key=lambda ti: (tiles[ti].row, tiles[ti].run))
    d_table = machine.alloc(T)
    local_blocks = [0] * P
    extent: dict[int, tuple[int, int]] = {}   # tile -> (start, size) read off S

    def size_script(p: int, lo: int, hi: int):
        for rank in range(lo, hi):
            ti = sigma[rank]
            entry = (yield Input(s_table + ti))[0]
            start = entry.payload
            machine.discard(p, (entry,))
            if ti + 1 < T:
                succ = (yield Input(s_table + ti + 1))[0]
                size = succ.payload - start
                machine.discard(p, (succ,))
            else:
                size = H - start
            extent[ti] = (start, size)
            local_blocks[p] += ceil_div(size, B)

    each_share(machine, T, size_script)
    ends = prefix_sum(machine, local_blocks)
    dest: dict[int, int] = {}   # tile -> first staging block, as written to D

    def dest_script(p: int, lo: int, hi: int):
        blk = ends[p] - local_blocks[p]
        for rank in range(lo, hi):
            ti = sigma[rank]
            entry = machine.create(p, ("D", ti), blk)
            yield from write_out(machine, p, d_table + ti, (entry,))
            dest[ti] = blk
            blk += ceil_div(extent[ti][1], B)

    each_share(machine, T, dest_script)

    # Write phase: every staging block belongs to exactly one tile, so
    # ownership is conflict-free; a block's elements sit in at most two
    # source blocks of its meta-run.  Destinations grow along sigma.
    staging = Region(machine.alloc(ends[-1]), ends[-1], ends[-1] * B)
    out_blocks = [(ti, q) for ti in sigma for q in range(ceil_div(extent[ti][1], B))]

    def write_script(p: int, lo: int, hi: int):
        for ob in range(lo, hi):
            ti, q = out_blocks[ob]
            start, size = extent[ti]
            g_lo = start + q * B
            g_hi = min(start + size, g_lo + B)
            picked = yield from _read_span(machine, p, runs, g_lo, g_hi)
            yield from write_out(machine, p, staging.addr(dest[ti] + q), picked)

    each_share(machine, len(out_blocks), write_script)

    return contract(machine, staging)


def finalize_parallel_reduce(machine: Machine, runs: Sequence[Run], N_R: int,
                             w: int) -> Region:
    """Sum meta-runs into the dense (row, destination) result grid.

    Processors stream even shares of the meta-runs, summing each row's
    values per destination on the fly; the per-fragment partial sums
    are then merged with combining down to one run and expanded into an
    N_R x w grid (0 where no triple contributed).
    """
    B = machine.config.B
    runs = [r for r in runs if r.count > 0]
    H = sum(r.count for r in runs)
    grid = machine.alloc_region(N_R * w)
    if not runs:
        return _fill_grid(machine, grid, None, N_R, w)
    offsets = [0, *itertools.accumulate(r.count for r in runs)]

    frags: dict[tuple[int, int], Run] = {}   # (meta-run, processor) -> partials

    def reduce_script(p: int, lo: int, hi: int):
        row_acc: dict[int, object] = {}
        outbuf: list[Element] = []

        def emit_row():
            nonlocal blk
            for l in sorted(row_acc):
                outbuf.append(machine.create(p, (row, l), row_acc[l]))
                if len(outbuf) == B:
                    yield from write_out(machine, p, frag.addr(blk), outbuf)
                    blk += 1
                    outbuf.clear()
            row_acc.clear()

        for ri, windows in itertools.groupby(_span_blocks(runs, lo, hi, B),
                                             key=lambda win: win[0]):
            # a fragment holds at most one partial per element of the share
            frag = machine.alloc_region(min(hi, offsets[ri + 1]) - max(lo, offsets[ri]))
            blk, row = 0, None
            for _, addr, base, win_lo, win_hi in windows:
                for e in (yield from _read_window(machine, p, addr, base,
                                                  win_lo, win_hi)):
                    if e.key[0] != row:
                        yield from emit_row()
                        row = e.key[0]
                    dest = e.payload.l
                    row_acc[dest] = row_acc.get(dest, 0) + e.payload.value
                    machine.discard(p, (e,))
            yield from emit_row()
            frags[(ri, p)] = Run(frag, 0, blk * B + len(outbuf))
            if outbuf:
                yield from write_out(machine, p, frag.addr(blk), outbuf)
                outbuf.clear()

    each_share(machine, H, reduce_script)

    # Partial-result segments ordered by (meta-run, position) keep the
    # fold order equal to the original sequence order per key.
    segments = [frags[k] for k in sorted(frags)]
    merged = parallel_merge_to_R(machine, segments, 1, combine=operator.add)
    final = merged[0] if merged else None
    return _fill_grid(machine, grid, final, N_R, w)


def _fill_grid(machine: Machine, grid: Region, final: Run | None,
               N_R: int, w: int) -> Region:
    """Expand combined partials into the dense (row, dest) grid."""
    B = machine.config.B
    total = N_R * w
    present = run_elements(machine, final) if final is not None else []
    pos_of: dict[int, int] = {}
    for idx, e in enumerate(present):
        i, l = e.key
        pos_of[(i - 1) * w + (l - 1)] = idx

    def fill_script(p: int, blo: int, bhi: int):
        for bi in range(blo, bhi):
            ranks = range(bi * B, min(total, (bi + 1) * B))
            need = [g for g in ranks if g in pos_of]
            held: dict[int, Element] = {}
            if need and final is not None:
                p_lo, p_hi = pos_of[need[0]], pos_of[need[-1]] + 1
                for e in (yield from _read_span(machine, p, (final,), p_lo, p_hi)):
                    i, l = e.key
                    held[(i - 1) * w + (l - 1)] = e
            cells: list[Element] = []
            for g in ranks:
                if g in held:
                    cells.append(held[g])
                else:
                    cells.append(machine.create(p, (g // w + 1, g % w + 1), 0))
            yield from write_out(machine, p, grid.addr(bi), cells)

    each_share(machine, grid.blocks, fill_script)
    return grid


# -- direct shuffling and complete sorting -----------------------------------


def make_direct_plan(instance: ShuffleInstance) -> list[int]:
    """Source position of every row-major rank (non-uniform knowledge)."""
    return sorted(range(instance.H),
                  key=lambda idx: (instance.triples[idx].i, instance.triples[idx].j))


def direct_shuffle(machine: Machine, region: Region, instance: ShuffleInstance,
                   plan: Sequence[int] | None = None) -> Region:
    """Write every triple straight to its row-major slot.

    ``plan`` lists the source position of every row-major rank, as
    ``make_direct_plan`` computes it when none is given; the output
    splits into block-aligned consecutive parts per processor, so
    concurrent reads are the only shared access.
    """
    cfg = machine.config
    H = instance.H
    order = make_direct_plan(instance) if plan is None else plan
    B = cfg.B
    out = machine.alloc_region(H)

    def script(p: int, blo: int, bhi: int):
        for bi in range(blo, bhi):
            srcs = order[bi * B: min(H, (bi + 1) * B)]
            by_slot: dict[int, Element] = {}
            for sb in sorted({s // B for s in srcs}):
                block = yield Input(region.addr(sb))
                keep = set()
                for slot, s in enumerate(srcs):
                    if s // B == sb:
                        e = block[s % B]
                        by_slot[slot] = e
                        keep.add(e)
                drop = [e for e in block if e not in keep]
                if drop:
                    machine.discard(p, drop)
            cells = [by_slot[r] for r in range(len(srcs))]
            yield from write_out(machine, p, out.addr(bi), cells)

    each_share(machine, out.blocks, script)
    return out


def complete_sort(machine: Machine, region: Region,
                  instance: ShuffleInstance) -> Region:
    """Sort the whole instance row-wise by the parallel merge sort down
    to one run, which the tile reduce passes through.  The cost depends
    only on the order of the triples, not on the layout label.
    """
    runs = _sort_to_runs(machine, region, instance.H, 1)
    return finalize_nonparallel_reduce(machine, runs)


# -- instance loading ---------------------------------------------------------


def machine_with_instance(config: MachineConfig,
                          instance: ShuffleInstance) -> tuple[Machine, Region]:
    """Fresh machine holding the instance triples at addresses 0.."""
    blocks = instance_blocks(instance, config.B)
    machine = create_machine(config, blocks)
    return machine, Region(0, len(blocks), instance.H)


def machine_with_vectors(config: MachineConfig,
                         task: MapTask) -> tuple[Machine, Region]:
    """Fresh machine holding the map input vectors, column-major."""
    blocks = task.vector_blocks(config.B)
    machine = create_machine(config, blocks)
    return machine, Region(0, len(blocks), task.N_M * task.v)
