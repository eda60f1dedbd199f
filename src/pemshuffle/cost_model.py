"""Model requirements, closed-form parallel I/O bounds, togetherness potential.

Upper bounds follow the complexity table of the shuffle algorithms
(leading terms; a sweep row reports the additive log P term apart);
lower bounds cover the combined matrix-vector product for the three
layouts, matrix creation from vectors, the transposition potential
argument and their combinations.  ``COMPLEXITY`` and ``LOWER_BOUNDS``
hold the bound catalog, each lower bound with its paired upper cell.
Logarithms are base 2 wherever a base is unstated; log_d is a ratio of
base-2 logs.

The togetherness potential is rated by one tracker, a machine observer
fed either live by a running machine or from a recorded ``IOTrace``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from .machine import Element, IOTrace, Machine, ceil_div

UNORDERED = "unordered"
SORTED = "sorted"
PARALLEL_MAP = "parallel_map"
DIRECT_SHUFFLE = "direct_shuffle"
COMPLETE_MERGE = "complete_merge"

NONPARALLEL = "nonparallel"
PARALLEL = "parallel"

MIXED = "mixed_column"
COLUMN = "column_major"
BEST_CASE = "best_case"


def lgb(b: float, x: float) -> float:
    """Clamped logarithm max(log_b x, 1)."""
    if b <= 1:
        raise ValueError(f"lgb base must exceed 1, got {b}")
    if x <= 0:
        raise ValueError(f"lgb argument must be positive, got {x}")
    return max(math.log2(x) / math.log2(b), 1.0)


@dataclass(frozen=True)
class Params:
    """Bound parameters; validity flags are derived, never assumed."""

    N_M: int
    N_R: int
    H: int
    v: int = 1
    w: int = 1
    P: int = 1
    M: int = 3
    B: int = 1

    def failed_preconditions(self) -> list[str]:
        return [r.skip for r in unmet_requirements(self, (BOUND_FORMULAS,))]

    def max_eps(self) -> float:
        """Largest eps with H/N_R <= N_M^(1-eps) and H/N_M <= N_R^(1-eps)."""
        if self.N_M < 2 or self.N_R < 2:
            return -math.inf
        a = math.log2(self.H / self.N_R) / math.log2(self.N_M)
        b = math.log2(self.H / self.N_M) / math.log2(self.N_R)
        return 1.0 - max(a, b)


# Scopes of the model requirements.
EVERY_PIPELINE = "every pipeline"
SHUFFLE_PIPELINES = "shuffle pipelines"
PARALLEL_REDUCE_PIPELINES = "parallel-reduce pipelines"
MAP_TASK_PIPELINES = "map-task pipelines"
BOUND_FORMULAS = "bound formulas"


class Requirement(NamedTuple):
    skip: str                      # the sweep's skip reason when it fails
    scopes: tuple[str, ...]
    holds: Callable[[Params], bool]


# Ordered: a skipped sweep row names the first unmet entry, and the
# predicates after H <= N_M*N_R divide by N_M and N_R.
REQUIREMENTS = (
    Requirement("M < 3B", (EVERY_PIPELINE, BOUND_FORMULAS), lambda p: p.M >= 3 * p.B),
    Requirement("H > N_M*N_R", (SHUFFLE_PIPELINES,), lambda p: p.H <= p.N_M * p.N_R),
    Requirement("H/P < B", (SHUFFLE_PIPELINES, BOUND_FORMULAS), lambda p: p.P * p.B <= p.H),
    Requirement("w > H/N_R", (PARALLEL_REDUCE_PIPELINES, BOUND_FORMULAS),
                lambda p: p.w <= p.H / p.N_R),
    Requirement("v > H/N_M", (MAP_TASK_PIPELINES, BOUND_FORMULAS),
                lambda p: p.v <= p.H / p.N_M),
    Requirement("v > meta-column capacity", (MAP_TASK_PIPELINES,),
                lambda p: p.v <= min(p.M - p.B, ceil_div(p.H, p.P))),
)


def unmet_requirements(params: Params, scopes: tuple[str, ...]) -> Iterator[Requirement]:
    """The requirements binding any of ``scopes`` that ``params`` fail, lazily, in order."""
    return (r for r in REQUIREMENTS
            if any(s in scopes for s in r.scopes) and not r.holds(params))


@dataclass(frozen=True)
class CostEstimate:
    value: float | None
    formula_id: str
    valid: bool = True


def _d(params: Params) -> float:
    # Merge degree min(M/B, H/(PB)); clamping to 2 mirrors the
    # algorithmic max(2, .) and keeps the log base meaningful.
    return max(2.0, min(params.M / params.B, params.H / (params.P * params.B)))


def log2_p(P: int) -> float:
    """log2 P, the additive term of every variant; 0 for one processor."""
    return math.log2(P) if P > 1 else 0.0


def _merge(params: Params, arg: float) -> float:
    """scan * lgb(d, arg): a sorting-based cell's leading term."""
    p = params
    return p.H / (p.P * p.B) * lgb(_d(p), arg)


# Leading term of each complexity-table cell, (map type, reduce type),
# in catalog order.  The additive O(log P) term every variant carries
# is left out.
COMPLEXITY: dict[tuple[str, str | None], Callable[[Params], float]] = {
    (UNORDERED, NONPARALLEL): lambda p: _merge(p, p.N_R),
    (UNORDERED, PARALLEL): lambda p: _merge(p, p.N_R * p.w / p.B),
    (SORTED, NONPARALLEL): lambda p: _merge(p, min(p.N_M * p.N_R * p.B / p.H, p.N_R, p.N_M)),
    (SORTED, PARALLEL): lambda p: _merge(p, min(p.N_M * p.N_R * p.w / p.H, p.N_R * p.w / p.B)),
    (PARALLEL_MAP, NONPARALLEL): lambda p: _merge(
        p, min(p.N_M * p.N_R * p.v / p.H, p.N_M * p.v / p.B)),
    (PARALLEL_MAP, PARALLEL): lambda p: _merge(p, p.N_M * p.N_R * p.v * p.w / (p.B * p.H)),
    (DIRECT_SHUFFLE, None): lambda p: p.H / p.P,
    (COMPLETE_MERGE, None): lambda p: _merge(p, p.H / p.B),
}


def table1_upper(params: Params, map_type: str,
                 reduce_type: str | None = None) -> CostEstimate:
    """Leading upper-bound term of one complexity-table cell."""
    term = COMPLEXITY.get((map_type, reduce_type))
    if term is None:
        raise ValueError(f"unknown complexity cell {(map_type, reduce_type)!r}")
    cell = map_type if reduce_type is None else f"{map_type}/{reduce_type}"
    return CostEstimate(term(params), f"table1:{cell}")


def _lower(params: Params, formula_id: str, arg: float) -> CostEstimate:
    """min(H/P, scan * log_d(arg)), floored at the scanning bound."""
    p = params
    scan = p.H / (p.P * p.B)
    leading = scan * (math.log2(arg) / math.log2(_d(p))) if arg > 0 else 0.0
    value = min(p.H / p.P, max(leading, scan))
    return CostEstimate(value, formula_id)


def _counting_invalid(p: Params, formula_id: str,
                      best_case: bool = False) -> CostEstimate | None:
    """A counting bound's invalid estimate, or None if its requirements, a
    positive eps and, for the best case, the sixth-root condition hold."""
    if (p.failed_preconditions() or p.max_eps() <= 0
            or best_case and not (p.H / p.N_R <= p.N_M ** (1 / 6) + 1e-9
                                  and p.H / p.N_M <= p.N_R ** (1 / 6) + 1e-9)):
        return CostEstimate(None, formula_id, valid=False)
    return None


def thm1_lower(params: Params, layout: str) -> CostEstimate:
    """Combined matrix-vector product lower bound per input layout."""
    p = params
    if layout == MIXED:
        formula_id, arg = "thm1:mixed", p.N_R * p.w / p.B
    elif layout == COLUMN:
        formula_id, arg = "thm1:column", min(p.N_M * p.N_R * p.w / p.H, p.N_R * p.w / p.B)
    elif layout == BEST_CASE:
        formula_id = "thm1:best_case"
        arg = p.N_M * p.N_R * p.v * p.w / (p.H * min(p.M, p.H / p.P))
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return (_counting_invalid(p, formula_id, layout == BEST_CASE)
            or _lower(p, formula_id, arg))


def lemma2_lower(params: Params) -> CostEstimate:
    """Creating a row-major sparse matrix from v vectors."""
    p = params
    arg = min(p.N_M * p.N_R * p.v / p.H, p.N_M * p.v / p.B)
    return _counting_invalid(p, "lemma2") or _lower(p, "lemma2", arg)


def transpose_lower(params: Params) -> CostEstimate:
    """Potential-argument bound for sparse transposition."""
    p = params
    return _lower(p, "transpose", min(p.B, p.N_M, p.N_R, p.H / p.B))


def combined_lower(params: Params, layout: str) -> CostEstimate:
    """Transposition and counting bounds merged, plus the log P floor."""
    p = params
    formula_id = f"combined:{layout}"
    if layout == COLUMN:
        arg = min(p.N_M * p.N_R * p.B / p.H, p.N_M, p.N_R, p.H / p.B)
    elif layout == MIXED:
        arg = min(p.N_R, p.H / p.B)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    invalid = _counting_invalid(p, formula_id)
    if invalid:
        return invalid
    return CostEstimate(max(_lower(p, formula_id, arg).value, log2_p(p.P)), formula_id)


def scatter_gather_floor(params: Params) -> CostEstimate:
    """Omega(log P) floor from the exclusive-write requirement."""
    return CostEstimate(log2_p(params.P), "scatter_gather")


# Lower bounds in catalog order: (formula, sweep column, paired upper
# cell).  A sweep row's lb_combined column holds the combined bound of
# its own input layout.  The entries look their formula up at call
# time, so a wrapper put on a module attribute after import sees the
# call.
LOWER_BOUNDS = (
    (lambda p: thm1_lower(p, MIXED), "lb_thm1_mixed", (UNORDERED, PARALLEL)),
    (lambda p: thm1_lower(p, COLUMN), "lb_thm1_column", (SORTED, PARALLEL)),
    (lambda p: thm1_lower(p, BEST_CASE), "lb_thm1_best", (PARALLEL_MAP, PARALLEL)),
    (lambda p: lemma2_lower(p), "lb_lemma2", (PARALLEL_MAP, NONPARALLEL)),
    (lambda p: transpose_lower(p), "lb_transpose", None),
    (lambda p: combined_lower(p, MIXED), "lb_combined", (UNORDERED, NONPARALLEL)),
    (lambda p: combined_lower(p, COLUMN), "lb_combined", (SORTED, NONPARALLEL)),
    (lambda p: scatter_gather_floor(p), None, None),
)


# -- togetherness potential ---------------------------------------------------


def output_blocks(elements: Iterable[Element], B: int) -> dict[Element, int]:
    """Output block of each element of a transposition, its key rank // B,
    as one int object per output block rather than per element."""
    order = sorted(elements, key=lambda e: e.key)
    return dict(zip(order, (o for o in itertools.count() for _ in range(B))))


def potential(machine: Machine,
              output_block_of: Callable[[Element], int | None]) -> float:
    """Togetherness potential of the machine's state so far.

    Every internal memory and every external block is rated by
    sum f(x_i) over the number x_i of its elements destined for output
    block i, f(x) = x log2 x.  An element counts in every memory that
    holds it.  While no memory holds it, it counts at the block that
    last received it, for as long as that block still holds it.
    Elements without an output block (bookkeeping values) are ignored.
    The value is ``phi_final`` of ``check_potential_deltas`` replaying
    the trace the machine records, so its observer must be an
    ``IOTrace`` attached before the first operation.
    """
    trace = machine.observer
    if not isinstance(trace, IOTrace):
        raise ValueError("potential() needs a machine that records an IOTrace")
    cfg = machine.config
    return check_potential_deltas(trace, machine.initial_image,
                                  output_block_of, cfg.P, cfg.M, cfg.B).phi_final


@dataclass
class PotentialReport:
    """Per-step potential increases of a run, tracked live or replayed."""

    deltas: list[float]
    bound: float
    phi_initial: float
    phi_final: float
    applicable: bool = True
    reason: str = ""
    violations: list[int] = field(default_factory=list)

    @property
    def total_delta(self) -> float:
        return sum(self.deltas)

    def ok(self) -> bool:
        return self.applicable and not self.violations


def _xlog2x(n: int) -> list[float]:
    """f(x) = x log2 x tabulated for x = 0 .. n-1."""
    return [0.0] + [x * math.log2(x) for x in range(1, n)]


class PotentialTracker:
    """Machine observer that bounds every parallel step's potential increase.

    The per-step bound is P*B*log2(2e) + P*B*log2(min(M, H/P)/B) with H
    the number of tracked elements.  Phi is sampled at step boundaries,
    where the lemma reads it: after the step's inputs, its outputs and
    the free operations up to the next step.  The boundary comes with
    the next step or ``report``.  Free operations before the first step
    fold into the first delta, so the deltas telescope to phi_final -
    phi_initial.

    Ratings are counts per (container, output block), a container being
    a block address a >= 0 or processor p as ~p.  ``counts`` holds only
    the containers that rate something: a container leaves it when its
    last count drops to 0 and comes back with its next count.  ``held[p]``
    holds the rated elements in p's memory and ``holders`` counts the
    memories holding each.
    ``home``, indexed by ``Element.uid``, names the block that last
    received an element while that block still holds it, or None; the
    element counts there while no memory holds it.  The table grows when
    a produced element is first read.  Counts change where their events
    happen, and ``change`` sums the resulting change of phi up to the
    boundary, which takes it as the step's phi increase.

    Phi depends only on the state at a boundary, so reads wait for it:
    a step parks each reader's elements it did not hold in ``parked[p]``
    and applies its writes at once; a drop cancels parked elements, a
    compute parks what it produces, and the boundary reads what is still
    parked.  Writing before the surviving reads gives the same counts.
    An element's output block is looked up when it is read, so a caller
    may name the output block of a produced element after the compute.

    Runs in which an element ends up held by two processors at a step
    boundary carry copies; the bound does not apply to them and the
    report says so.
    """

    def __init__(self, initial_image: dict[int, tuple],
                 output_block_of: Callable[[Element], int | None],
                 P: int, M: int, B: int):
        self.out_of = out_of = output_block_of
        self.held: list[set[Element]] = [set() for _ in range(P)]
        self.parked: list[dict[Element, None]] = [{} for _ in range(P)]
        self.holders: dict[Element, int] = {}
        self.home: list[int | None] = [None] * (1 + max(
            (e.uid for elems in initial_image.values() for e in elems), default=-1))
        self.counts: dict[int, dict[int, int]] = {}
        self.f = _xlog2x(max(M, B) + 1)   # no container holds more
        self.change = 0.0
        H = 0
        for addr, elems in initial_image.items():
            for e in elems:
                o = out_of(e)
                if o is not None:
                    self.home[e.uid] = addr
                    self._count(addr, o, 1)
                    H += 1
        self.bound = (P * B * math.log2(2 * math.e)
                      + P * B * math.log2(min(M, max(H / P, B)) / B))
        self.phi_initial = self.phi = self.change
        self.change = 0.0
        self.deltas: list[float] = []
        self.violations: list[int] = []
        self.copies = False
        self._open = False       # a step ran whose boundary has not come

    # -- observer events -------------------------------------------------

    def step(self, reads: list[tuple], writes: list[tuple]) -> None:
        self._boundary()
        self._open = True
        for p, _, block in reads:
            held, parked = self.held[p], self.parked[p]
            for e in block:
                if e not in held:
                    parked[e] = None
        for _, addr, elems, old in writes:
            self._write(addr, elems, old)

    def drop(self, p: int, elems: Iterable[Element]) -> None:
        out_of, home, holders, count = self.out_of, self.home, self.holders, self._count
        held, parked = self.held[p], self.parked[p]
        for e in elems:
            if e in parked:
                del parked[e]
                continue
            if e not in held:
                continue
            held.remove(e)
            o = out_of(e)
            n = holders[e] - 1
            if n:
                holders[e] = n
            else:
                del holders[e]
                a = home[e.uid]
                if a is not None:
                    # the last holder let go: the rating rests at home again
                    count(a, o, 1)
            count(~p, o, -1)

    def compute(self, p: int, consumed: tuple, produced: tuple) -> None:
        """Drops what p consumed and parks what it produced, which has no home yet."""
        self.drop(p, consumed)
        self.parked[p].update(dict.fromkeys(produced))

    # -- count changes ---------------------------------------------------

    def _count(self, container: int, o: int, k: int) -> None:
        """Add k to o's count in ``container`` and the change of phi to ``change``."""
        counts = self.counts
        cnt = counts.get(container)
        if cnt is None:
            cnt = counts[container] = {}
        old = cnt.get(o, 0)
        new = old + k
        self.change += self.f[new] - self.f[old]
        if new:
            cnt[o] = new
        else:
            del cnt[o]
            if not cnt:
                del counts[container]

    def _read(self, p: int, elems: Iterable[Element]) -> None:
        """p takes ``elems``, none of which it holds, into memory."""
        out_of, home, holders, held = self.out_of, self.home, self.holders, self.held[p]
        count = self._count
        for e in elems:
            o = out_of(e)
            if o is None:
                continue
            held.add(e)
            n = holders.get(e, 0)
            holders[e] = n + 1
            if n:
                # reads follow the step's drops, so two memories hold e
                # at this boundary
                self.copies = True
            else:
                u = e.uid
                if u >= len(home):   # first read of a produced element
                    home.extend([None] * (u + 1 - len(home)))
                a = home[u]
                if a is not None:
                    # the first holder takes the rating off its home block
                    count(a, o, -1)
            count(~p, o, 1)

    def _write(self, addr: int, elems: tuple, old: tuple) -> None:
        # the writer holds every element it outputs, so a rated element
        # written here is held: it moves home without moving its rating
        home, holders = self.home, self.holders
        if old:
            fresh = set(elems)
            for e in old:
                u = e.uid
                if u < len(home) and home[u] == addr and e not in fresh:
                    home[u] = None
                    if e not in holders:
                        self._count(addr, self.out_of(e), -1)
        for e in elems:
            if e in holders:
                home[e.uid] = addr

    # -- step boundaries -------------------------------------------------

    def _boundary(self) -> None:
        """Read what is still parked, then close the step that ended, if any."""
        for p, parked in enumerate(self.parked):
            if parked:
                self._read(p, parked)
                parked.clear()
        if not self._open:
            return
        self._open = False
        delta, self.change = self.change, 0.0
        if delta > self.bound + 1e-9:
            self.violations.append(len(self.deltas))
        self.deltas.append(delta)
        self.phi += delta

    def report(self) -> PotentialReport:
        """Close the last step and report the run once it is over."""
        self._boundary()
        phi = self.phi + self.change   # free operations of a run with no step
        return PotentialReport(self.deltas, self.bound, self.phi_initial, phi,
                               applicable=not self.copies,
                               reason="trace copies elements" if self.copies else "",
                               violations=self.violations)


def track_potential(machine: Machine,
                    output_block_of: Callable[[Element], int | None]) -> PotentialTracker:
    """Attach a ``PotentialTracker`` to a machine that has run no operation."""
    cfg = machine.config
    if machine.io_count or any(machine.held_count(p) for p in range(cfg.P)):
        raise ValueError("track_potential() needs a machine that has run no operation")
    tracker = machine.observer = PotentialTracker(
        machine.initial_image, output_block_of, cfg.P, cfg.M, cfg.B)
    return tracker


def check_potential_deltas(trace: IOTrace,
                           initial_image: dict[int, tuple],
                           output_block_of: Callable[[Element], int | None],
                           P: int, M: int, B: int) -> PotentialReport:
    """Feed a recorded trace through a ``PotentialTracker`` and report it."""
    tracker = PotentialTracker(initial_image, output_block_of, P, M, B)
    trace.feed(tracker, initial_image)
    return tracker.report()
