"""Reference replay of the togetherness potential, kept as a test oracle.

This is the per-event tracker the package used before its replay was
batched per parallel step: every read, write and drop bumps phi at once,
one element at a time.  ``tests/test_potential_replay.py`` checks that
``pemshuffle.cost_model.check_potential_deltas`` reports the same
per-step deltas, applicability and violations.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from pemshuffle.cost_model import PotentialReport
from pemshuffle.machine import Element, IOTrace


def _f(x: int) -> float:
    return x * math.log2(x) if x > 0 else 0.0


class _PhiTracker:
    """Incremental potential over a replayed trace.

    Every element carries exactly one "resting" rating at its home
    block plus one rating per processor holding it; re-reading content
    whose rating already moved elsewhere is a copy and simply adds a
    memory rating.  Elements held by more than one processor at a
    sample point mark the trace as carrying copies, which the per-step
    bound does not cover.
    """

    def __init__(self, P: int, output_block_of):
        self.out_of = output_block_of
        self.mem: list[dict[int, int]] = [dict() for _ in range(P)]
        self.blk: dict[int, dict[int, int]] = {}
        self.holders: dict[Element, list[int]] = {}
        self.home: dict[Element, int | None] = {}
        self.at_home: dict[Element, bool] = {}
        self.phi = 0.0
        self.multi_held = 0

    def _bump(self, counter: dict[int, int], o: int, delta: int) -> None:
        old = counter.get(o, 0)
        new = old + delta
        self.phi += _f(new) - _f(old)
        if new:
            counter[o] = new
        else:
            counter.pop(o, None)

    def place_initial(self, addr: int, elems: Iterable[Element]) -> None:
        for e in elems:
            o = self.out_of(e)
            self.home[e] = addr
            if o is not None:
                self.at_home[e] = True
                self._bump(self.blk.setdefault(addr, {}), o, +1)

    def read(self, p: int, addr: int, elems: Iterable[Element]) -> None:
        for e in elems:
            o = self.out_of(e)
            if o is None:
                continue
            hs = self.holders.setdefault(e, [])
            if p in hs:
                continue
            if self.at_home.get(e) and self.home.get(e) == addr:
                self.at_home[e] = False
                self._bump(self.blk.setdefault(addr, {}), o, -1)
            if len(hs) == 1:
                self.multi_held += 1
            hs.append(p)
            self._bump(self.mem[p], o, +1)

    def write(self, p: int, addr: int, elems: tuple, old: tuple) -> None:
        new_set = set(elems)
        for e in old:
            if e in new_set:
                continue
            if self.home.get(e) == addr:
                o = self.out_of(e)
                if o is not None and self.at_home.get(e):
                    self.at_home[e] = False
                    self._bump(self.blk.setdefault(addr, {}), o, -1)
                self.home[e] = None
        for e in elems:
            o = self.out_of(e)
            if o is not None and self.at_home.get(e):
                # a stale resting rating moves along with the rewrite
                prev = self.home.get(e)
                if prev is not None and prev != addr:
                    self.at_home[e] = False
                    self._bump(self.blk.setdefault(prev, {}), o, -1)
            self.home[e] = addr

    def drop(self, p: int, elems: Iterable[Element]) -> None:
        for e in elems:
            o = self.out_of(e)
            if o is None:
                continue
            hs = self.holders.get(e)
            if not hs or p not in hs:
                continue
            hs.remove(p)
            if len(hs) == 1:
                self.multi_held -= 1
            self._bump(self.mem[p], o, -1)
            if not hs and not self.at_home.get(e):
                home = self.home.get(e)
                if home is not None:
                    self.at_home[e] = True
                    self._bump(self.blk.setdefault(home, {}), o, +1)


def check_potential_deltas(trace: IOTrace,
                           initial_image: dict[int, tuple],
                           output_block_of: Callable[[Element], int | None],
                           P: int, M: int, B: int) -> PotentialReport:
    """Replay a trace and bound every parallel step's potential increase.

    The per-step bound is P*B*log2(2e) + P*B*log2(min(M, H/P)/B) with H
    the number of tracked elements.  Traces in which an element ends up
    held by two processors at a step boundary carry copies; the bound
    does not apply to them and the report says so.
    """
    tracker = _PhiTracker(P, output_block_of)
    ext: dict[int, tuple] = {}
    tracked = 0
    for addr, elems in initial_image.items():
        ext[addr] = tuple(elems)
        tracker.place_initial(addr, elems)
        tracked += sum(1 for e in elems if output_block_of(e) is not None)
    H = tracked
    bound = P * B * math.log2(2 * math.e) + P * B * math.log2(min(M, max(H / P, B)) / B)
    phi0 = tracker.phi

    def apply_free(bucket: list[tuple]) -> None:
        for rec in bucket:
            if rec[0] == "D":
                _, p, elems = rec
                tracker.drop(p, elems)
            else:
                _, p, consumed, produced = rec
                tracker.drop(p, consumed)
                # produced elements have no home yet; they enter rated
                # memory only if they map to an output block
                for e in produced:
                    o = output_block_of(e)
                    if o is not None:
                        tracker.holders.setdefault(e, []).append(p)
                        tracker._bump(tracker.mem[p], o, +1)

    deltas: list[float] = []
    violations: list[int] = []
    copies = False
    apply_free(trace.free_ops.get(0, ()))
    # pre-step free ops fold into the first delta so the sum telescopes
    # exactly to phi_final - phi_initial
    phi_prev = phi0
    for t, records in enumerate(trace.steps):
        for p, rec in enumerate(records):
            if rec is None:
                continue
            if rec[0] == "I":
                tracker.read(p, rec[1], ext.get(rec[1], ()))
        for p, rec in enumerate(records):
            if rec is None or rec[0] != "O":
                continue
            addr, elems = rec[1], rec[2]
            tracker.write(p, addr, elems, ext.get(addr, ()))
            ext[addr] = elems
        apply_free(trace.free_ops.get(t + 1, ()))
        if tracker.multi_held:
            copies = True
        delta = tracker.phi - phi_prev
        deltas.append(delta)
        phi_prev = tracker.phi
        if delta > bound + 1e-9:
            violations.append(t)
    report = PotentialReport(deltas, bound, phi0, tracker.phi,
                             applicable=not copies,
                             reason="trace copies elements" if copies else "",
                             violations=violations)
    return report
