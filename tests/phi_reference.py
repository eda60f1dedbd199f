"""The togetherness potential by its definition, kept as a test oracle.

At every step boundary phi is summed afresh from the state the trace
leads to: the internal memories, the external image and the block that
last received each element.  A memory is rated by the rated elements it
holds; a block by those of its elements that no memory holds and that it
received last.  Nothing is carried from one boundary to the next but the
state itself, so ``tests/test_potential_replay.py`` can hold
``pemshuffle.cost_model.check_potential_deltas`` against it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable

from pemshuffle.cost_model import PotentialReport
from pemshuffle.machine import Element, IOTrace


def _rating(elems: Iterable[Element], out_of) -> float:
    counts = Counter(o for o in map(out_of, elems) if o is not None)
    return sum(x * math.log2(x) for x in counts.values())


def check_potential_deltas(trace: IOTrace,
                           initial_image: dict[int, tuple],
                           output_block_of: Callable[[Element], int | None],
                           P: int, M: int, B: int) -> PotentialReport:
    """Phi at every step boundary, from the state; copies and bound checked there."""
    mem: list[set] = [set() for _ in range(P)]
    ext = {a: tuple(elems) for a, elems in initial_image.items()}
    # the block that last received each rated element
    last = {e: a for a, elems in ext.items() for e in elems
            if output_block_of(e) is not None}

    def sample() -> tuple[float, bool]:
        held = Counter(e for m in mem for e in m if output_block_of(e) is not None)
        phi = sum(_rating(m, output_block_of) for m in mem)
        resting = Counter((a, output_block_of(e)) for e, a in last.items()
                          if e not in held and e in ext[a])
        phi += sum(x * math.log2(x) for x in resting.values())
        return phi, any(n > 1 for n in held.values())

    def apply_free(t: int) -> None:
        for rec in trace.free_ops.get(t, ()):
            mem[rec[1]].difference_update(rec[2])
            if rec[0] == "C":
                mem[rec[1]].update(rec[3])

    H = len(last)
    bound = P * B * math.log2(2 * math.e) + P * B * math.log2(min(M, max(H / P, B)) / B)
    phi0, _ = sample()
    apply_free(0)
    phi, copies = phi0, False
    deltas: list[float] = []
    violations: list[int] = []
    for t, records in enumerate(trace.steps):
        for p, rec in enumerate(records):
            if rec is not None and rec[0] == "I":
                mem[p].update(ext[rec[1]])
        for rec in records:
            if rec is not None and rec[0] == "O":
                ext[rec[1]] = rec[2]
                last.update((e, rec[1]) for e in rec[2]
                            if output_block_of(e) is not None)
        apply_free(t + 1)
        now, twice = sample()
        copies = copies or twice
        deltas.append(now - phi)
        phi = now
        if deltas[-1] > bound + 1e-9:
            violations.append(t)
    phi, _ = sample()
    return PotentialReport(deltas, bound, phi0, phi, applicable=not copies,
                           reason="trace copies elements" if copies else "",
                           violations=violations)
