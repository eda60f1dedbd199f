"""Row and output checks of the benchmark, made apart from the program.

Nothing here imports pemshuffle: the expected results are computed from
the generated triples and input vectors alone, so a fault in the
program's own oracles cannot hide a fault in its output.  Every check
returns a list of problems; an empty list means the check passed.
"""

from __future__ import annotations

import math

TRANSPOSITION = ("direct_shuffle", "complete_sort",
                 "unordered_nonparallel", "sorted_nonparallel")
PARALLEL_REDUCE = ("unordered_parallel", "sorted_parallel",
                   "parallel_map_parallel")
PRIMITIVES = ("prim_gather", "prim_scatter", "prim_prefix_sum")
PIPELINES = TRANSPOSITION + ("parallel_map_nonparallel",) + PARALLEL_REDUCE + PRIMITIVES


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def io_floor(row: dict) -> int:
    """Fewest parallel I/Os that can read and write what the row must.

    Every pipeline laid out in external memory reads its H triples;
    every pipeline writes either the H shuffled triples or the dense
    N_R x w result grid.  The map-task pipelines start from the input
    vectors instead of the triples, and some columns' vectors may go
    unread, so no reads are counted for them.  One parallel I/O moves at
    most P*B elements.
    """
    algo, H = row["algorithm"], row["H"]
    reads = 0 if algo.startswith("parallel_map") else H
    writes = row["N_R"] * row["w"] if algo in PARALLEL_REDUCE else H
    return _ceil_div(reads + writes, row["P"] * row["B"])


def primitive_budget(P: int) -> int:
    return 4 * math.ceil(math.log2(P)) + 4 if P > 1 else 4


def row_problems(row: dict) -> list[str]:
    """Verdicts and I/O range of one sweep row."""
    algo = row["algorithm"]
    where = f"{algo} seed={row['seed']} H={row['H']} P={row['P']}"
    if row["status"] != "ok":
        return [f"{where}: status {row['status']}"]
    problems = []
    if row["correct"] != "pass":
        problems.append(f"{where}: correct={row['correct']}")
    if algo in TRANSPOSITION and row["potential"] != "pass":
        problems.append(f"{where}: potential={row['potential']}, expected pass")
    elif row["potential"] == "fail":
        problems.append(f"{where}: potential=fail")
    io = row["measured_io"]
    if algo in PRIMITIVES:
        hi = primitive_budget(row["P"])
        if not 1 <= io <= hi:
            problems.append(f"{where}: {io} I/Os outside [1, {hi}]")
    elif io < io_floor(row):
        problems.append(f"{where}: {io} I/Os below the floor {io_floor(row)}")
    return problems


def shuffle_problems(triples, got: list) -> list[str]:
    """The output must be the triples stably sorted by (row, column)."""
    expected = sorted(triples, key=lambda t: (t[0], t[1]))
    if got == expected:
        return []
    if len(got) != len(expected):
        return [f"output holds {len(got)} triples, expected {len(expected)}"]
    first = next(n for n, (a, b) in enumerate(zip(got, expected)) if a != b)
    return [f"output position {first} holds {got[first]}, expected {expected[first]}"]


def reduce_problems(triples, vectors, N_R: int, w: int, got: dict) -> list[str]:
    """The grid must hold every (row, destination) sum of x_ij * in[k][j].

    ``triples`` are (i, j, value, k, l) with 1-based indices, ``got``
    maps every grid cell (i, l) to its value; cells no triple feeds
    hold 0.
    """
    expected = {(i, l): 0 for i in range(1, N_R + 1) for l in range(1, w + 1)}
    for i, j, value, k, l in triples:
        expected[(i, l)] += value * vectors[k - 1][j - 1]
    if got == expected:
        return []
    if set(got) != set(expected):
        return [f"grid holds {len(got)} cells, expected {len(expected)}"]
    cell = next(c for c in sorted(expected) if got[c] != expected[c])
    return [f"grid cell {cell} holds {got[cell]}, expected {expected[cell]}"]


def corruption_escapes(row: dict, triples=None, got=None, vectors=None) -> list[str]:
    """Self-test: each check must reject a deliberately corrupted result.

    The row is replayed with 0 I/Os; a shuffle output gets two of its
    elements swapped; a reduced grid gets one cell off by one.  Returns
    the corruptions that a check failed to notice.
    """
    escaped = []
    if not row_problems(dict(row, measured_io=0)):
        escaped.append(f"{row['algorithm']}: a row with 0 I/Os passes")
    if got is None:
        return escaped
    if row["algorithm"] in PARALLEL_REDUCE:
        bad = dict(got)
        cell = min(bad)
        bad[cell] += 1
        if not reduce_problems(triples, vectors, row["N_R"], row["w"], bad):
            escaped.append(f"{row['algorithm']}: a grid cell off by one passes")
    else:
        bad = list(got)
        bad[0], bad[-1] = bad[-1], bad[0]
        if not shuffle_problems(triples, bad):
            escaped.append(f"{row['algorithm']}: two swapped output elements pass")
    return escaped
