"""Shuffle workload generation and sequential oracles.

A shuffle instance is a sparse N_R x N_M matrix of intermediate pairs:
triple (i, j, x) says map operation j emitted value x for reducer i.
For combined matrix-vector tasks every triple additionally names which
of v input vectors it stems from and which of w output vectors it
feeds.  Instances carry their triples in one of the two layouts the
algorithms consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

MIXED_COLUMN = "mixed_column"
COLUMN_MAJOR = "column_major"

LAYOUTS = (MIXED_COLUMN, COLUMN_MAJOR)


class GenerationError(ValueError):
    pass


class Triple(NamedTuple):
    """One intermediate pair: row i, column j, value, origin k, destination l."""

    i: int
    j: int
    value: int
    k: int
    l: int


@dataclass(frozen=True)
class ShuffleInstance:
    N_M: int
    N_R: int
    H: int
    v: int
    w: int
    layout: str            # one of LAYOUTS
    triples: tuple[Triple, ...]
    seed: int


def _sample_positions(rng: random.Random, N_M: int, N_R: int, H: int,
                      regularity: str | None) -> list[tuple[int, int]]:
    if regularity is None:
        cells = rng.sample(range(N_M * N_R), H)
        return [(c % N_R + 1, c // N_R + 1) for c in cells]
    if regularity == "column":
        per_col = H // N_M
        out = []
        for j in range(1, N_M + 1):
            for i in rng.sample(range(1, N_R + 1), per_col):
                out.append((i, j))
        return out
    if regularity == "row":
        per_row = H // N_R
        out = []
        for i in range(1, N_R + 1):
            for j in rng.sample(range(1, N_M + 1), per_row):
                out.append((i, j))
        return out
    if regularity == "both":
        # Circulant band: consecutive cell ranks wrap around the rows, so
        # both margins come out exactly regular; random relabelling of
        # rows and columns keeps the conformation varied.
        per_col = H // N_M
        rows = list(range(1, N_R + 1))
        cols = list(range(1, N_M + 1))
        rng.shuffle(rows)
        rng.shuffle(cols)
        out = []
        for j0 in range(N_M):
            for t in range(per_col):
                out.append((rows[(j0 * per_col + t) % N_R], cols[j0]))
        return out
    raise GenerationError(f"unknown regularity {regularity!r}")


# The last (arguments, instance) that ``generate`` returned.
_last_drawn: tuple | None = None


def generate(N_M: int, N_R: int, H: int, v: int = 1, w: int = 1,
             layout: str = MIXED_COLUMN, regularity: str | None = None,
             seed: int = 0) -> ShuffleInstance:
    """Draw a shuffle instance, deterministic per seed.

    Positions are uniform without replacement, subject to the requested
    regularity (exactly H/N_M per column and/or H/N_R per row, which
    requires the matching divisibility).  Values are distinct integers
    so element identity survives reordering.

    The last result is kept and returned again, the same object, for a
    repeated call with equal arguments, so consecutive pipelines on one
    instance share a single draw.  Instances are immutable.
    """
    global _last_drawn
    args = (N_M, N_R, H, v, w, layout, regularity, seed)
    last = _last_drawn      # read once: another thread may replace it
    if last is not None and last[0] == args:
        return last[1]
    if H < 1 or H > N_M * N_R:
        raise GenerationError(f"H={H} infeasible for a {N_R}x{N_M} matrix")
    if v < 1 or w < 1:
        raise GenerationError("v and w must be >= 1")
    if regularity in ("column", "both") and H % N_M:
        raise GenerationError(f"column-regular needs N_M | H ({N_M} does not divide {H})")
    if regularity in ("row", "both") and H % N_R:
        raise GenerationError(f"row-regular needs N_R | H ({N_R} does not divide {H})")
    if layout not in LAYOUTS:
        raise GenerationError(f"unknown layout {layout!r}")

    _last_drawn = None   # never hold two instances at once
    rng = random.Random(seed)
    positions = _sample_positions(rng, N_M, N_R, H, regularity)
    values = list(range(1, H + 1))
    rng.shuffle(values)
    triples = [Triple(i, j, values[idx], rng.randrange(1, v + 1), rng.randrange(1, w + 1))
               for idx, (i, j) in enumerate(positions)]

    if layout == MIXED_COLUMN:
        decorated = sorted((t.j, rng.random(), t) for t in triples)
        triples = [t for _, _, t in decorated]
    else:
        triples.sort(key=lambda t: (t.j, t.i))
    instance = ShuffleInstance(N_M, N_R, H, v, w, layout, tuple(triples), seed)
    _last_drawn = (args, instance)
    return instance


# -- oracles ---------------------------------------------------------------


def oracle_shuffle(instance: ShuffleInstance) -> list[Triple]:
    """Reference answer: the triples in row major order, stable by (i, j)."""
    return sorted(instance.triples, key=lambda t: (t.i, t.j))


def oracle_combined_mxv(instance: ShuffleInstance,
                        input_vectors: Sequence[Sequence]) -> list[list]:
    """Combined matrix-vector product: out[l][i] = sum of x_ij * in[k_ij][j].

    ``input_vectors`` is v rows of N_M scalars; the result is w rows of
    N_R scalars.
    """
    out = [[0] * instance.N_R for _ in range(instance.w)]
    for t in instance.triples:
        out[t.l - 1][t.i - 1] += t.value * input_vectors[t.k - 1][t.j - 1]
    return out


def elementary_products(instance: ShuffleInstance,
                        input_vectors: Sequence[Sequence]) -> ShuffleInstance:
    """Replace every triple's value by its elementary product x_ij * in[k][j].

    Shuffling the result and reducing by destination reproduces the
    combined matrix-vector product.
    """
    triples = tuple(Triple(t.i, t.j, t.value * input_vectors[t.k - 1][t.j - 1], t.k, t.l)
                    for t in instance.triples)
    return ShuffleInstance(instance.N_M, instance.N_R, instance.H, instance.v,
                           instance.w, instance.layout, triples, instance.seed)


# -- machine feed ------------------------------------------------------------


def instance_blocks(instance: ShuffleInstance, B: int) -> list[tuple[int, list]]:
    """Chunk the triples into machine blocks keyed by (i, j)."""
    out = []
    t = instance.triples
    for bi in range(0, len(t), B):
        chunk = t[bi:bi + B]
        out.append((bi // B, [((x.i, x.j), x) for x in chunk]))
    return out


@dataclass(frozen=True)
class MapTask:
    """Inputs of a parallel map phase: v stacked input vectors plus the
    emission function (column -> row-sorted triples)."""

    N_M: int
    H: int
    v: int
    emission: Callable[[int], list[Triple]]
    vector_values: tuple = ()    # column-major: (j=1,k=1..v), (j=2,k=1..v), ...

    def vector_blocks(self, B: int) -> list[tuple[int, list]]:
        specs = []
        idx = 0
        for j in range(1, self.N_M + 1):
            for k in range(1, self.v + 1):
                specs.append(((j, k), self.vector_values[idx]))
                idx += 1
        out = []
        for bi in range(0, len(specs), B):
            out.append((bi // B, specs[bi:bi + B]))
        return out


def make_map_task(instance: ShuffleInstance,
                  input_vectors: Sequence[Sequence] | None = None) -> MapTask:
    """Build the map-phase view of an instance.

    Without input vectors the emission reproduces the instance triples;
    with vectors it emits their ``elementary_products``.
    """
    if input_vectors is None:
        vals = tuple(1 for _ in range(instance.N_M * instance.v))
    else:
        vals = tuple(input_vectors[k][j] for j in range(instance.N_M)
                     for k in range(instance.v))
        instance = elementary_products(instance, input_vectors)
    by_col: dict[int, list[Triple]] = {}
    for t in instance.triples:
        by_col.setdefault(t.j, []).append(t)
    for j in by_col:
        by_col[j].sort(key=lambda t: (t.i, t.j))

    def emission(j: int) -> list[Triple]:
        return list(by_col.get(j, ()))

    return MapTask(instance.N_M, instance.H, instance.v, emission, vals)
