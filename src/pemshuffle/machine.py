"""Deterministic simulator of a parallel external memory (PEM) machine.

P processors, each with a private internal memory of M elements, share an
unbounded external memory organised in blocks of B elements.  The only
charged operation is the parallel I/O step: within one step every
processor may input or output a single block.  Rearranging, combining or
dropping elements that reside in internal memory is free.

Block access follows CREW (concurrent read, exclusive write) by default;
EREW is available as a stricter policy.  Within one step all inputs see
the pre-step image of external memory, outputs are applied afterwards,
which makes every step atomic and the whole simulation deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Sequence

CREW = "crew"
EREW = "erew"

# Inboxes (one message block per processor) live in a reserved address
# range so they can never collide with data regions.
INBOX_BASE = 1 << 40


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling of a / b for b > 0."""
    return -(-a // b)


class SimulationError(Exception):
    """A machine rule was violated by the running program."""


class ConfigurationError(SimulationError):
    pass


class PolicyViolation(SimulationError):
    pass


class CapacityViolation(SimulationError):
    pass


class ProvenanceViolation(SimulationError):
    pass


class MissingBlockError(SimulationError):
    """Input of an address that was never written (likely a program bug)."""


@dataclass(frozen=True)
class MachineConfig:
    """PEM parameters: processor count, internal memory and block size."""

    P: int
    M: int
    B: int
    policy: str = CREW

    def __post_init__(self) -> None:
        if self.P < 1:
            raise ConfigurationError(f"P must be >= 1, got {self.P}")
        if self.B < 1:
            raise ConfigurationError(f"B must be >= 1, got {self.B}")
        if self.M < 3 * self.B:
            raise ConfigurationError(f"M >= 3B required (M={self.M}, B={self.B})")
        if self.policy not in (CREW, EREW):
            raise ConfigurationError(f"unknown policy {self.policy!r}")


class Element:
    """Atomic simulated value; never split across blocks.

    ``key`` orders elements (shuffle workloads use (row, column)),
    ``payload`` is opaque to the machine.  Identity is the provenance
    tag used to check that outputs only move data a processor holds.
    """

    __slots__ = ("uid", "key", "payload")

    def __init__(self, uid: int, key: Any, payload: Any):
        self.uid = uid
        self.key = key
        self.payload = payload

    def __repr__(self) -> str:
        return f"Element({self.uid}, key={self.key!r})"


class Input:
    __slots__ = ("addr",)

    def __init__(self, addr: int):
        self.addr = addr


class Output:
    __slots__ = ("addr", "elements")

    def __init__(self, addr: int, elements: Iterable[Element]):
        self.addr = addr
        self.elements = tuple(elements)


# None is an idle processor.
Action = Input | Output | None


class IOTrace:
    """Machine observer that records every processor's action per step.

    ``steps[t]`` is a P-tuple of records: ("I", addr, n), ("O", addr,
    elements) or None for idle.  Free operations are kept in
    ``free_ops`` buckets keyed by the number of steps executed when they
    happened: ("D", p, dropped) and ("C", p, consumed, produced).
    Attached before a machine's first operation, the trace and the
    machine's ``initial_image`` replay the run exactly.
    """

    __slots__ = ("P", "steps", "free_ops")

    def __init__(self, P: int):
        self.P = P
        self.steps: list[tuple] = []
        self.free_ops: dict[int, list[tuple]] = {}

    def step(self, reads: list[tuple], writes: list[tuple]) -> None:
        records: list = [None] * self.P
        for p, addr, block in reads:
            records[p] = ("I", addr, len(block))
        for p, addr, elems, _old in writes:
            records[p] = ("O", addr, elems)
        self.steps.append(tuple(records))

    def drop(self, p: int, elems: tuple) -> None:
        self.free_ops.setdefault(len(self.steps), []).append(("D", p, elems))

    def compute(self, p: int, consumed: tuple, produced: tuple) -> None:
        self.free_ops.setdefault(len(self.steps), []).append(("C", p, consumed, produced))

    def feed(self, observer, initial_image: dict[int, tuple]) -> None:
        """Send the recorded run to another observer, event by event, as
        the machine that started from ``initial_image`` sent it."""
        ext = dict(initial_image)

        def free(t: int) -> None:
            for rec in self.free_ops.get(t, ()):
                if rec[0] == "D":
                    observer.drop(rec[1], rec[2])
                else:
                    observer.compute(rec[1], rec[2], rec[3])

        free(0)
        for t, records in enumerate(self.steps):
            reads, writes = [], []
            for p, rec in enumerate(records):
                if rec is None:
                    continue
                block = ext.get(rec[1], ())
                if rec[0] == "I":
                    reads.append((p, rec[1], block))
                else:
                    writes.append((p, rec[1], rec[2], block))
            observer.step(reads, writes)
            for _, addr, elems, _ in writes:
                ext[addr] = elems
            free(t + 1)


@dataclass(frozen=True)
class Region:
    """A contiguous range of block addresses holding ``count`` elements.

    Elements are dense in block order: every block holds B elements
    except possibly the last one.
    """

    start: int
    blocks: int
    count: int

    def addr(self, idx: int) -> int:
        return self.start + idx

    def addrs(self) -> range:
        return range(self.start, self.start + self.blocks)


class Machine:
    """One PEM instance: external memory image, internal memories, I/O count.

    The machine counts its parallel steps and records nothing else of a
    run.  Element-level events go to ``observer``, at most one, when one
    is attached: ``step(reads, writes)`` after every parallel I/O, with
    reads as (p, addr, block) and writes as (p, addr, elements, the
    block's old content); ``drop(p, elements)`` and ``compute(p,
    consumed, produced)`` for the free operations.  ``IOTrace`` records
    them; the potential tracker of ``cost_model`` rates them as they
    come.  A machine is confined to a single thread; independent
    machines may run concurrently.
    """

    def __init__(self, config: MachineConfig,
                 initial_contents: Iterable[tuple[int, Iterable]] = ()):
        self.config = config
        self.observer = None
        self.io_count = 0
        self._uid = 0
        self._ext: dict[int, tuple[Element, ...]] = {}
        self._mem: list[set[Element]] = [set() for _ in range(config.P)]
        self._next_addr = 0
        for addr, elems in initial_contents:
            if addr in self._ext:
                raise ConfigurationError(f"duplicate initial block {addr}")
            if addr < 0 or addr >= INBOX_BASE:
                raise ConfigurationError(f"initial address {addr} out of range")
            block = tuple(self._new_element(key, payload) for key, payload in elems)
            if len(block) > config.B:
                raise ConfigurationError(
                    f"initial block {addr} holds {len(block)} > B={config.B} elements")
            self._ext[addr] = block
            self._next_addr = max(self._next_addr, addr + 1)
        self.inboxes = [INBOX_BASE + p for p in range(config.P)]
        for a in self.inboxes:
            self._ext[a] = ()
        self.initial_image = dict(self._ext)

    # -- construction helpers -------------------------------------------

    def _new_element(self, key, payload) -> Element:
        e = Element(self._uid, key, payload)
        self._uid += 1
        return e

    def inbox(self, p: int) -> int:
        return self.inboxes[p]

    def alloc(self, nblocks: int = 1) -> int:
        """Reserve a fresh contiguous address range (free bookkeeping)."""
        start = self._next_addr
        self._next_addr += nblocks
        if self._next_addr >= INBOX_BASE:
            raise ConfigurationError("address space exhausted")
        return start

    def alloc_region(self, count: int) -> Region:
        B = self.config.B
        nblocks = max(1, ceil_div(count, B))
        return Region(self.alloc(nblocks), nblocks, count)

    # -- the one charged operation ---------------------------------------

    def parallel_step(self, actions: Sequence[Action]) -> list:
        """Execute one parallel I/O: at most one action per processor.

        Inputs read the pre-step external memory image; outputs are
        applied afterwards.  Returns the per-processor input contents
        (None for output/idle processors).
        """
        cfg = self.config
        if len(actions) != cfg.P:
            raise ConfigurationError(
                f"need exactly one action per processor ({cfg.P}), got {len(actions)}")

        ext, mems = self._ext, self._mem
        reads: list[tuple[int, int]] = []
        writes: list[tuple[int, Output]] = []
        for p, a in enumerate(actions):
            if a is None:
                continue
            if a.__class__ is Input:
                if a.addr not in ext:
                    raise MissingBlockError(
                        f"processor {p}: input of absent block {a.addr}")
                reads.append((p, a.addr))
            elif a.__class__ is Output:
                elems = a.elements
                if len(elems) > cfg.B:
                    raise CapacityViolation(
                        f"processor {p}: output of {len(elems)} > B={cfg.B} elements")
                if len(set(elems)) != len(elems):
                    raise ProvenanceViolation(f"processor {p}: duplicate element in output")
                if not mems[p].issuperset(elems):
                    raise ProvenanceViolation(
                        f"processor {p}: output of element not in internal memory")
                writes.append((p, a))
            else:
                raise ConfigurationError(
                    f"processor {p}: {a!r} is not an Input, Output or None")
        if not reads and not writes:
            raise PolicyViolation("all-idle parallel step is not allowed")
        out_addrs = [a.addr for _, a in writes]
        if len(set(out_addrs)) != len(out_addrs):
            raise PolicyViolation("two outputs to the same block in one step")
        if cfg.policy == EREW:
            touched = [addr for _, addr in reads] + out_addrs
            if len(set(touched)) != len(touched):
                raise PolicyViolation("EREW: concurrent access to one block")

        # Capacity must hold after the inputs land, before any free ops.
        for p, addr in reads:
            mem, block = mems[p], ext[addr]
            if len(mem) + len(block) - len(mem.intersection(block)) > cfg.M:
                raise CapacityViolation(
                    f"processor {p}: internal memory would exceed M={cfg.M}")

        results: list = [None] * cfg.P
        for p, addr in reads:
            block = ext[addr]
            mems[p].update(block)
            results[p] = block
        observer = self.observer
        if observer is not None:
            observer.step([(p, addr, results[p]) for p, addr in reads],
                          [(p, a.addr, a.elements, ext.get(a.addr, ()))
                           for p, a in writes])
        for _, a in writes:
            ext[a.addr] = a.elements
        self.io_count += 1
        return results

    # -- free operations --------------------------------------------------

    def discard(self, p: int, elements: Collection[Element]) -> None:
        """Drop elements from a processor's internal memory (no I/O)."""
        mem = self._mem[p]
        if not mem.issuperset(elements):
            raise ProvenanceViolation(
                f"processor {p}: discard of element not in internal memory")
        mem.difference_update(elements)
        if self.observer is not None and elements:
            self.observer.drop(p, tuple(elements))

    def create(self, p: int, key, payload) -> Element:
        """Materialise one computation result in a processor's memory."""
        mem = self._mem[p]
        if len(mem) + 1 > self.config.M:
            raise CapacityViolation(f"processor {p}: internal memory full")
        e = self._new_element(key, payload)
        mem.add(e)
        if self.observer is not None:
            self.observer.compute(p, (), (e,))
        return e

    def compute(self, p: int, transform: Callable[[list[Element]], Iterable]) -> list[Element]:
        """Replace a processor's internal memory by a computed result.

        ``transform`` receives the held elements (ordered by creation)
        and returns a sequence mixing held elements with (key, payload)
        pairs for newly computed ones.  Zero I/Os are charged.
        """
        held = sorted(self._mem[p], key=lambda e: e.uid)
        held_set = self._mem[p]
        out: list[Element] = []
        produced: list[Element] = []
        for item in transform(held):
            if isinstance(item, Element):
                if item not in held_set:
                    raise ProvenanceViolation(
                        f"processor {p}: compute returned foreign element")
                out.append(item)
            else:
                key, payload = item
                e = self._new_element(key, payload)
                out.append(e)
                produced.append(e)
        if len(out) != len(set(out)):
            raise ProvenanceViolation(f"processor {p}: duplicate element in compute result")
        if len(out) > self.config.M:
            raise CapacityViolation(
                f"processor {p}: compute result exceeds M={self.config.M}")
        new_mem = set(out)
        self._mem[p] = new_mem
        if self.observer is not None:
            self.observer.compute(p, tuple(e for e in held if e not in new_mem),
                                  tuple(produced))
        return out

    # -- zero-cost inspection ---------------------------------------------

    def peek(self, addr: int) -> tuple[Element, ...]:
        return self._ext.get(addr, ())

    def holds(self, p: int, e: Element) -> bool:
        return e in self._mem[p]

    def held_count(self, p: int) -> int:
        return len(self._mem[p])

    def held_sorted(self, p: int) -> list[Element]:
        return sorted(self._mem[p], key=lambda e: e.uid)

    def region_elements(self, region: Region) -> list[Element]:
        out: list[Element] = []
        for a in region.addrs():
            out.extend(self._ext.get(a, ()))
        return out

    def external_image(self) -> dict[int, tuple[Element, ...]]:
        return dict(self._ext)

    def assert_memories_empty(self) -> None:
        for p, mem in enumerate(self._mem):
            if mem:
                raise SimulationError(f"processor {p} still holds {len(mem)} elements")


def create_machine(config: MachineConfig,
                   initial_contents: Iterable[tuple[int, Iterable]] = ()) -> Machine:
    """Build a machine holding blocks of (key, payload) pairs at their addresses."""
    return Machine(config, initial_contents)


def run_lockstep(machine: Machine, scripts: Sequence) -> list:
    """Advance per-processor action generators one step at a time.

    ``scripts[p]`` is processor p's generator, or None when p has
    nothing to do; processors past the end of ``scripts`` idle too.  A
    script yields Input, Output or None (idle) and is sent back its
    input content (None otherwise).  Scripts run in lockstep, each
    leaving when it finishes; a step in which every live script idles
    is refused by ``parallel_step``.  Returns each script's return
    value, None where a processor has no script.
    """
    P = machine.config.P
    if len(scripts) > P:
        raise ConfigurationError(
            f"at most one script per processor ({P}), got {len(scripts)}")
    live = [(p, g) for p, g in enumerate(scripts) if g is not None]
    results: list = [None] * P
    returned: list = [None] * len(scripts)
    while live:
        actions: list[Action] = [None] * P
        running = []
        for p, g in live:
            try:
                actions[p] = g.send(results[p])
            except StopIteration as stop:
                returned[p] = stop.value
                continue
            running.append((p, g))
        live = running
        if live:
            results = machine.parallel_step(actions)
    return returned


def each_share(machine: Machine, n: int, script: Callable) -> list:
    """Run ``script(p, lo, hi)`` in lockstep over even shares [lo, hi) of
    n items; processors whose share is empty stay idle.  Returns the
    scripts' return values in share order."""
    share = ceil_div(n, machine.config.P) or 1
    return run_lockstep(machine, [script(p, lo, min(n, lo + share))
                           for p, lo in enumerate(range(0, n, share))])


def act(machine: Machine, actions: dict[int, Action]) -> list:
    """One parallel I/O of the given per-processor actions; every
    processor not named stays idle.  Returns ``parallel_step``'s result."""
    P = machine.config.P
    step: list[Action] = [None] * P
    for p, a in actions.items():
        if not 0 <= p < P:
            raise ConfigurationError(f"processor {p} out of range for P={P}")
        step[p] = a
    return machine.parallel_step(step)


def write_out(machine: Machine, p: int, addr: int, elems: Sequence[Element]):
    """Script step: processor p outputs ``elems`` to block ``addr``, then
    drops them from its internal memory."""
    yield Output(addr, elems)
    machine.discard(p, elems)


def exchange(machine: Machine,
             messages: Sequence[tuple[int, int, Sequence[Element]]]) -> list:
    """One inbox round: a BSP* 1-relation super-step in two parallel I/Os.

    Every (src, dst, elements) message is output by src to dst's inbox,
    then every dst inputs its inbox.  Senders must be distinct, and so
    must receivers.  Returns the second step's per-processor contents,
    so entry dst holds the block dst received.
    """
    if (len({m[0] for m in messages}) != len(messages)
            or len({m[1] for m in messages}) != len(messages)):
        raise SimulationError("exchange violates the 1-relation: "
                              "a processor sends or receives twice")
    act(machine, {src: Output(machine.inbox(dst), elems)
                  for src, dst, elems in messages})
    return act(machine, {dst: Input(machine.inbox(dst)) for _, dst, _ in messages})


# -- BSP* correspondence ---------------------------------------------------


def bsp_star_replay(machine: Machine,
                    supersteps: Sequence[Sequence[tuple[int, int, Sequence]]]) -> int:
    """Replay a 1-relation BSP exchange: two parallel I/Os per super-step.

    Each super-step is a list of (src, dst, payloads) messages where
    every processor sends at most one message of at most B elements and
    receives at most one.  Every super-step is one ``exchange``, so a
    program of ``len(supersteps)`` super-steps costs exactly twice that
    many parallel I/Os.  Returns the number of I/Os consumed.
    """
    before = machine.io_count
    B = machine.config.B
    for step_no, msgs in enumerate(supersteps):
        if not msgs:
            raise SimulationError(f"super-step {step_no} carries no messages")
        sent = []
        for src, dst, payloads in msgs:
            if len(payloads) > B:
                raise SimulationError(f"message longer than B={B}")
            sent.append((src, dst, [machine.create(src, ("msg", step_no, src, dst), v)
                                    for v in payloads]))
        results = exchange(machine, sent)
        for src, dst, elems in sent:
            machine.discard(src, elems)
            machine.discard(dst, results[dst])
    return machine.io_count - before

