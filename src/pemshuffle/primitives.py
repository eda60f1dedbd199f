"""Reusable communication primitives built from machine action scripts.

Gather, scatter and prefix sums communicate through per-processor inbox
blocks in a binary tree pattern, so they stay within a logarithmic
parallel I/O budget and remain exclusive-write safe.  Load balancing
and contraction are the scan-based helpers the shuffle algorithms lean
on for assigning work and compacting sparse regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .machine import (
    Element,
    Input,
    Machine,
    Output,
    Region,
    SimulationError,
    act,
    ceil_div,
    exchange,
    run_lockstep,
)


# -- gather / scatter -------------------------------------------------------


def gather(machine: Machine, participants: Sequence[int],
           contributions: dict[int, Sequence[Element]],
           combine: Callable | None = None,
           out_addr: int | None = None) -> int:
    """Collect the participants' held elements into one external block.

    Pairs of contributors merge left-to-right over inboxes, so the I/O
    count is logarithmic in the number of non-empty contributors (at
    most min(P, B) of them when contributions are plain elements).
    With ``combine``, partner batches are replaced by
    ``combine(left, right) -> [(key, payload), ...]`` so intermediate
    results stay small and all P participants may take part.

    Returns the address of the written block.
    """
    B = machine.config.B
    active = [[p, list(contributions[p])] for p in participants
              if contributions.get(p)]
    if combine is None:
        total = sum(len(c) for _, c in active)
        if total > B:
            raise SimulationError(f"gather of {total} > B={B} elements")
    if out_addr is None:
        out_addr = machine.alloc(1)
    if not active:
        act(machine, {participants[0]: Output(out_addr, ())})
        return out_addr
    while len(active) > 1:
        pairs = list(zip(active[::2], active[1::2]))
        results = exchange(machine, [(right[0], left[0], right[1])
                                     for left, right in pairs])
        for left, right in pairs:
            lp, lelems = left
            rp, relems = right
            received = list(results[lp])
            machine.discard(rp, relems)
            if combine is None:
                left[1] = lelems + received
            else:
                merged = [machine.create(lp, key, payload)
                          for key, payload in combine(lelems, received)]
                machine.discard(lp, lelems + received)
                left[1] = merged
        active = active[::2]
    owner, elems = active[0]
    if len(elems) > B:
        raise SimulationError(f"gather result of {len(elems)} > B={B} elements")
    act(machine, {owner: Output(out_addr, elems)})
    machine.discard(owner, elems)
    return out_addr


def scatter(machine: Machine, source: int, targets: Sequence[int],
            tree: bool | None = None) -> dict[int, tuple[Element, ...]]:
    """Spread one block to every target processor.

    Under CREW a single concurrent read suffices; the binary inbox tree
    (one write per target inbox, mirroring the key-range distribution
    pattern) keeps the operation EREW safe in O(log P) I/Os.  Targets
    are left holding their copies; the caller discards as needed.
    """
    if not machine.peek(source):
        raise SimulationError(f"scatter of empty or absent block {source}")
    if tree is None:
        tree = machine.config.policy != "crew"
    readers = targets[:1] if tree else targets
    results = act(machine, {t: Input(source) for t in readers})
    got = {t: results[t] for t in readers}
    holders = list(readers)
    remaining = list(targets[len(readers):])
    while remaining:
        batch = remaining[: len(holders)]
        remaining = remaining[len(holders):]
        results = exchange(machine, [(h, t, got[h]) for h, t in zip(holders, batch)])
        for t in batch:
            got[t] = results[t]
        holders.extend(batch)
    return got


# -- prefix sums ------------------------------------------------------------


def prefix_sum(machine: Machine, values: Sequence, op: Callable) -> list:
    """Inclusive parallel scan: processor i ends up with v_0 (+) ... (+) v_i.

    Doubling-stride scan over inboxes, 2*ceil(log2 P) parallel I/Os.
    """
    P = machine.config.P
    if len(values) != P:
        raise SimulationError(f"need one value per processor ({P})")
    acc = [machine.create(p, ("scan", p), values[p]) for p in range(P)]
    shift = 1
    while shift < P:
        results = exchange(machine, [(p, p + shift, (acc[p],)) for p in range(P - shift)])
        for q in range(shift, P):
            incoming = results[q][0]
            merged = machine.create(q, ("scan", q), op(incoming.payload, acc[q].payload))
            machine.discard(q, (incoming, acc[q]))
            acc[q] = merged
        shift *= 2
    out = [acc[p].payload for p in range(P)]
    for p in range(P):
        machine.discard(p, (acc[p],))
    return out


# -- range-bounded load balancing -------------------------------------------


@dataclass(frozen=True)
class Span:
    """One processor's contiguous piece of a region, in element terms."""

    proc: int
    start: int
    count: int
    key_lo: int
    key_hi: int

    @property
    def end(self) -> int:
        return self.start + self.count


@dataclass(frozen=True)
class Assignment:
    """Per-processor spans partitioning a key-sorted region.

    Every span holds at most ceil(2n/P) tuples and covers at most
    ceil(2m/P) consecutive keys.
    """

    spans: tuple[Span, ...]
    n: int
    m: int

    def span_of(self, p: int) -> Span:
        return self.spans[p]


def range_bounded_load_balance(machine: Machine, region: Region, n: int, m: int,
                               key_of: Callable[[Element], int]) -> Assignment:
    """Split a key-sorted region into per-processor spans.

    ``key_of`` must map elements to integers in 1..m, non-decreasing
    over the region.  Half the processors scan volume pieces of
    ceil(2n/P) tuples recording where key ranges of width ceil(2m/P)
    begin; the recorded start positions are distributed to the range
    processors through their inboxes.  Cutting at both kinds of
    boundary yields at most P spans bounded in volume and key width.
    """
    P = machine.config.P
    B = machine.config.B
    if m > n:
        raise SimulationError(f"more keys ({m}) than tuples ({n})")
    if n < P * B:
        raise SimulationError(f"load balancing needs n/P >= B (n={n}, P={P}, B={B})")
    elems = machine.region_elements(region)
    if len(elems) != n:
        raise SimulationError(f"region holds {len(elems)} elements, expected {n}")
    keys = [key_of(e) for e in elems]
    for a, b in zip(keys, keys[1:]):
        if a > b:
            raise SimulationError("load balancing requires key-sorted input")
    if P == 1:
        return Assignment((Span(0, 0, n, keys[0], keys[-1]),), n, m)

    volume_procs = ceil_div(P, 2)
    piece = ceil_div(n, volume_procs)
    width = ceil_div(2 * m, P)

    scratch = [machine.alloc(ceil_div(ceil_div(m, width) + 1, B))
               for _ in range(volume_procs)]
    boundary_lists: list[list[tuple[int, int]]] = [[] for _ in range(volume_procs)]

    def scan_script(vp: int):
        lo = vp * piece
        hi = min(n, lo + piece)
        if lo >= hi:
            return
        first_blk = lo // B
        last_blk = (hi - 1) // B
        pos = first_blk * B
        prev_range = (keys[lo - 1] - 1) // width if lo > 0 else -1
        buffer: list[Element] = []
        out_blk = 0
        for bi in range(first_blk, last_blk + 1):
            block = yield Input(region.addr(bi))
            for e in block:
                if lo <= pos < hi:
                    r = (key_of(e) - 1) // width
                    if r != prev_range:
                        boundary_lists[vp].append((r, pos))
                        buffer.append(machine.create(vp, ("range-start", r), (r, pos)))
                        prev_range = r
                        if len(buffer) == B:
                            yield Output(scratch[vp] + out_blk, buffer)
                            machine.discard(vp, buffer)
                            out_blk += 1
                            buffer = []
                pos += 1
            machine.discard(vp, block)
        if buffer:
            yield Output(scratch[vp] + out_blk, buffer)
            machine.discard(vp, buffer)

    run_lockstep(machine, [scan_script(vp) if vp < volume_procs else None
                           for vp in range(P)])

    # Distribution: each range processor fetches the scratch block that
    # carries its key-range start; under CREW this is one parallel read.
    range_starts: dict[int, int] = {}
    entry_home: dict[int, int] = {}
    for vp in range(volume_procs):
        for idx, (r, pos) in enumerate(boundary_lists[vp]):
            range_starts.setdefault(r, pos)
            entry_home.setdefault(r, scratch[vp] + idx // B)
    fetch = {rp: Input(entry_home[r]) for r, rp in enumerate(range(volume_procs, P), 1)
             if r in entry_home}
    if fetch:
        results = act(machine, fetch)
        for rp in fetch:
            machine.discard(rp, results[rp])

    cuts = {0}
    for vp in range(volume_procs):
        if vp * piece < n:
            cuts.add(vp * piece)
    cuts.update(range_starts.values())
    ordered = sorted(cuts)
    spans: list[tuple[int, int]] = []
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else n
        if end > start:
            spans.append((start, end))
    if len(spans) > P:
        raise SimulationError(f"load balancing produced {len(spans)} > P spans")
    full = []
    for p in range(P):
        if p < len(spans):
            s, e = spans[p]
            full.append(Span(p, s, e - s, keys[s], keys[e - 1]))
        else:
            full.append(Span(p, n, 0, 0, -1))
    return Assignment(tuple(full), n, m)


# -- contraction ------------------------------------------------------------


def contract(machine: Machine, region: Region) -> Region:
    """Remove empty cells: pack the region's elements densely, in order.

    Processors take contiguous pieces of the input blocks in ascending
    order, count their elements, learn their output offsets through a
    prefix sum, and stream their cells to the packed output.  An output
    block fed by several processors is finalised by the lowest-indexed
    contributor; the others hand their cells over through its inbox, so
    each processor joins at most two hand-offs.
    """
    P = machine.config.P
    B = machine.config.B
    mblocks = region.blocks
    piece = ceil_div(mblocks, P) if mblocks else 1

    counts = [0] * P

    def count_script(p: int):
        lo = p * piece
        hi = min(mblocks, lo + piece)
        for bi in range(lo, hi):
            block = yield Input(region.addr(bi))
            counts[p] += len(block)
            machine.discard(p, block)

    run_lockstep(machine, [count_script(p) if p * piece < mblocks else None
                           for p in range(P)])

    ends = prefix_sum(machine, counts, lambda a, b: a + b)
    starts = [e - c for e, c in zip(ends, counts)]
    total = ends[-1] if ends else 0
    out = machine.alloc_region(total)
    if total == 0:
        return Region(out.start, 0, 0)

    nblocks_out = ceil_div(total, B)
    owner_of = {}
    for b in range(nblocks_out):
        pos = b * B
        for p in range(P):
            if counts[p] and starts[p] <= pos < ends[p]:
                owner_of[b] = p
                break

    def block_span(b: int) -> tuple[int, int]:
        return b * B, min((b + 1) * B, total)

    pieces: dict[int, dict[int, list[Element]]] = {}

    def stream_script(p: int):
        lo_blk = p * piece
        hi_blk = min(mblocks, lo_blk + piece)
        pos = starts[p]
        outbuf: list[Element] = []
        for bi in range(lo_blk, hi_blk):
            block = yield Input(region.addr(bi))
            pending = list(block)
            while pending:
                blk = pos // B
                blk_lo, blk_hi = block_span(blk)
                take = min(blk_hi - pos, len(pending))
                outbuf.extend(pending[:take])
                pending = pending[take:]
                pos += take
                if pos == blk_hi:
                    if owner_of[blk] == p and starts[p] <= blk_lo:
                        yield Output(out.addr(blk), outbuf)
                        machine.discard(p, outbuf)
                    else:
                        pieces.setdefault(blk, {})[p] = outbuf
                    outbuf = []
        if outbuf:
            # range ends mid-block: hand the cells over to the block owner
            pieces.setdefault((pos - 1) // B, {})[p] = outbuf

    run_lockstep(machine, [stream_script(p) if counts[p] else None
                           for p in range(P)])

    # Hand-off rounds: rank r senders of every shared block write their
    # cells to the owner's inbox, the owners read and keep them.
    shared = sorted(pieces)
    senders_of = {blk: [q for q in sorted(pieces[blk]) if q != owner_of[blk]]
                  for blk in shared}
    collected = {blk: {owner_of[blk]: pieces[blk].get(owner_of[blk], [])}
                 for blk in shared}
    max_rank = max((len(s) for s in senders_of.values()), default=0)
    for rank in range(max_rank):
        expecting = [(blk, senders_of[blk][rank]) for blk in shared
                     if rank < len(senders_of[blk])]
        results = exchange(machine, [(q, owner_of[blk], pieces[blk][q])
                                     for blk, q in expecting])
        for blk, q in expecting:
            owner = owner_of[blk]
            collected[blk][q] = list(results[owner])
            machine.discard(q, pieces[blk][q])

    remaining = list(shared)
    while remaining:
        writes: dict[int, tuple[int, list[Element]]] = {}
        for blk in remaining:
            if owner_of[blk] not in writes:
                writes[owner_of[blk]] = (blk, [e for q in sorted(collected[blk])
                                               for e in collected[blk][q]])
        act(machine, {owner: Output(out.addr(blk), cells)
                      for owner, (blk, cells) in writes.items()})
        for owner, (blk, cells) in writes.items():
            machine.discard(owner, cells)
            remaining.remove(blk)
    return out
