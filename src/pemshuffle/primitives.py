"""Reusable communication primitives built from machine action scripts.

Gather, scatter and prefix sums communicate through per-processor inbox
blocks in a binary tree pattern, so they stay within a logarithmic
parallel I/O budget and remain exclusive-write safe.  Contraction is
the scan-based helper the shuffle algorithms lean on for compacting
sparse regions.
"""

from __future__ import annotations

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
    each_share,
    exchange,
    run_lockstep,
    write_out,
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


def scatter(machine: Machine, source: int,
            targets: Sequence[int]) -> dict[int, tuple[Element, ...]]:
    """Spread one block to every target processor.

    The first target reads the block; a binary inbox tree (one write per
    target inbox, mirroring the key-range distribution pattern) then
    doubles the holders every round, EREW safe in O(log P) I/Os.
    Targets are left holding their copies; the caller discards as needed.
    """
    if not machine.peek(source):
        raise SimulationError(f"scatter of empty or absent block {source}")
    holders = list(targets[:1])
    results = act(machine, {t: Input(source) for t in holders})
    got = {t: results[t] for t in holders}
    while len(holders) < len(targets):
        batch = targets[len(holders):2 * len(holders)]
        results = exchange(machine, [(h, t, got[h]) for h, t in zip(holders, batch)])
        got.update((t, results[t]) for t in batch)
        holders.extend(batch)
    return got


# -- prefix sums ------------------------------------------------------------


def prefix_sum(machine: Machine, values: Sequence) -> list:
    """Inclusive parallel scan: processor i ends up with v_0 + ... + v_i.

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
            merged = machine.create(q, ("scan", q), incoming.payload + acc[q].payload)
            machine.discard(q, (incoming, acc[q]))
            acc[q] = merged
        shift *= 2
    out = [acc[p].payload for p in range(P)]
    for p in range(P):
        machine.discard(p, (acc[p],))
    return out


# -- contraction ------------------------------------------------------------


def contract(machine: Machine, region: Region) -> Region:
    """Remove empty cells: pack the region's elements densely, in order.

    Processors take even shares of the input blocks in ascending order,
    count their elements, learn their output offsets through a prefix
    sum, and stream their cells to the packed output.  An output block
    belongs to the processor whose range holds its first cell.  A block
    fed by several processors is finalised by its owner; the others hand
    their cells over through its inbox, one sender per owner and round,
    so each processor sends at most two hand-offs.
    """
    P = machine.config.P
    B = machine.config.B
    mblocks = region.blocks

    counts = [0] * P

    def count_script(p: int, lo: int, hi: int):
        for bi in range(lo, hi):
            block = yield Input(region.addr(bi))
            counts[p] += len(block)
            machine.discard(p, block)

    each_share(machine, mblocks, count_script)

    ends = prefix_sum(machine, counts)
    starts = [e - c for e, c in zip(ends, counts)]
    total = ends[-1] if ends else 0
    out = machine.alloc_region(total)
    if total == 0:
        return Region(out.start, 0, 0)

    owner_of = {b: p for p in range(P)
                for b in range(ceil_div(starts[p], B), ceil_div(ends[p], B))}
    pieces: dict[int, dict[int, list[Element]]] = {}

    def stream_script(p: int, lo: int, hi: int):
        if not counts[p]:
            return
        pos = starts[p]
        outbuf: list[Element] = []
        for bi in range(lo, hi):
            block = yield Input(region.addr(bi))
            pending = list(block)
            while pending:
                blk = pos // B
                blk_hi = min((blk + 1) * B, total)
                take = min(blk_hi - pos, len(pending))
                outbuf.extend(pending[:take])
                pending = pending[take:]
                pos += take
                if pos == blk_hi:
                    if owner_of[blk] == p:
                        yield from write_out(machine, p, out.addr(blk), outbuf)
                    else:
                        pieces.setdefault(blk, {})[p] = outbuf
                    outbuf = []
        if outbuf:
            # range ends mid-block: hand the cells over to the block owner
            pieces.setdefault((pos - 1) // B, {})[p] = outbuf

    each_share(machine, mblocks, stream_script)

    # Hand-off rounds: rank r senders of every shared block write their
    # cells to the owner's inbox, the owners read and keep them.
    shared = sorted(pieces)
    senders_of = {blk: [q for q in sorted(pieces[blk]) if q != owner_of[blk]]
                  for blk in shared}
    max_rank = max((len(s) for s in senders_of.values()), default=0)
    for rank in range(max_rank):
        expecting = [(blk, senders_of[blk][rank]) for blk in shared
                     if rank < len(senders_of[blk])]
        exchange(machine, [(q, owner_of[blk], pieces[blk][q]) for blk, q in expecting])
        for blk, q in expecting:
            machine.discard(q, pieces[blk][q])

    # An owner's range ends in the one shared block it owns, so every
    # shared block is written in a single step.
    writers: list = [None] * P
    for blk in shared:
        owner = owner_of[blk]
        if writers[owner] is not None:
            raise SimulationError(f"processor {owner} owns two shared blocks")
        writers[owner] = write_out(machine, owner, out.addr(blk),
                                   [e for q in sorted(pieces[blk]) for e in pieces[blk][q]])
    run_lockstep(machine, writers)
    return out
