"""Seeded benchmark inputs and their plain-scan ground truth.

Nothing here imports ``repro``: the answers a run is checked against come
from scanning the generated records, not from the program under test.

A record is ``(label_0, ..., label_{n-1}, measure)`` with string labels
``d<j>v<k>`` (rank ``k`` in dimension ``j``, rank 0 the most frequent) and an
integer-valued float measure, so every ``sum`` is exact in floating point
and answers compare with ``==``.
"""

from __future__ import annotations

import random
from itertools import product

STAR = "*"


def label(dim: int, rank: int) -> str:
    return f"d{dim}v{rank}"


class TableShape:
    """Rows, dimensions, per-dimension cardinality and Zipf factor."""

    def __init__(self, rows: int, dims: int, card: int, zipf: float):
        self.rows, self.dims, self.card, self.zipf = rows, dims, card, zipf
        self.weights = [1.0 / (k + 1) ** zipf for k in range(card)]

    def draw_labels(self, rng: random.Random, dim: int, n: int) -> list:
        ranks = rng.choices(range(self.card), self.weights, k=n)
        return [label(dim, k) for k in ranks]


def make_records(shape: TableShape, rng: random.Random) -> list:
    columns = [shape.draw_labels(rng, j, shape.rows) for j in range(shape.dims)]
    measures = [float(rng.randint(1, 99)) for _ in range(shape.rows)]
    return [tuple(col[i] for col in columns) + (measures[i],)
            for i in range(shape.rows)]


def dim_names(n_dims: int) -> list:
    return [f"D{j}" for j in range(n_dims)]


def write_csv(path: str, records: list, n_dims: int) -> None:
    """The CSV ``python -m repro build`` reads (header, then records)."""
    with open(path, "w") as fp:
        fp.write(",".join(dim_names(n_dims) + ["M"]) + "\n")
        for record in records:
            fp.write(",".join(record[:-1]) + f",{record[-1]:.1f}\n")


def project(record, keep) -> tuple:
    """The cell of ``record`` with every dimension outside ``keep`` at ``*``."""
    return tuple(record[d] if d in keep else STAR
                 for d in range(len(record) - 1))


# -- wire text -------------------------------------------------------------------


def cell_text(cell) -> str:
    return ",".join(cell)


def range_text(spec) -> str:
    return ",".join(STAR if entry == STAR else "|".join(entry) for entry in spec)


def range_cells(spec) -> list:
    """Every cell a range spec names (its cross product)."""
    axes = [(STAR,) if entry == STAR else entry for entry in spec]
    return [tuple(cell) for cell in product(*axes)]


def record_text(record) -> str:
    return ",".join(record[:-1]) + f",{record[-1]:.1f}"


# -- ground truth ------------------------------------------------------------------


def scan_truth(records, cells) -> dict:
    """``{cell: sum of the measures of the records it covers}`` for every
    cell in ``cells`` that covers at least one record.

    One pass over ``records`` per distinct set of fixed dimensions, keeping
    only the keys asked for, so memory stays proportional to the query set.
    """
    wanted: dict = {}
    for cell in set(cells):
        mask = tuple(d for d, value in enumerate(cell) if value != STAR)
        wanted.setdefault(mask, {})[tuple(cell[d] for d in mask)] = cell
    out = {}
    for mask, keys in wanted.items():
        sums: dict = {}
        for record in records:
            key = tuple([record[d] for d in mask])
            if key in keys:
                sums[key] = sums.get(key, 0.0) + record[-1]
        for key, total in sums.items():
            out[keys[key]] = total
    return out


def live_records(base, writes) -> list:
    """``base`` plus the inserted records minus the deleted ones, applying
    ``[("insert" | "delete", record), ...]`` in order; a delete removes the
    first remaining record with the same dimensions, as the program does."""
    rows = list(base)
    for kind, record in writes:
        if kind == "insert":
            rows.append(record)
            continue
        dims = record[:-1]
        for i, row in enumerate(rows):
            if row[:-1] == dims:
                del rows[i]
                break
        else:
            raise ValueError(f"delete of a record that is not live: {record}")
    return rows


# -- query plans -------------------------------------------------------------------


class QueryPlan:
    """Seeded pools of queries over one table, drawn from its records.

    ``points`` and ``explore`` cells project a random record onto a random
    set of dimensions (so they are mostly answered), plus a share of cells
    with labels drawn independently (which can cover nothing).  ``ranges``
    fix 1 to 3 dimensions to 2 to 4 candidate labels each.
    """

    def __init__(self, records, shape: TableShape, rng: random.Random,
                 n_points: int, n_ranges: int, n_explore: int,
                 n_navigate: int, free_share: float = 0.05):
        self.shape = shape
        n = shape.dims
        self.points = _distinct(
            lambda: self._cell(records, rng, free_share), n_points)
        self.ranges = _distinct(lambda: self._range(rng), n_ranges)
        self.explore = _distinct(
            lambda: (rng.choice(("rollup", "rollup_exceptions", "class")),
                     self._cell(records, rng, 0.0)), n_explore)
        # Navigation cells fix one or two dimensions: these calls already
        # cost tens of milliseconds each.  The three commands come in equal
        # numbers, so their mix does not change with the seed.
        cells = _distinct(
            lambda: project(rng.choice(records),
                            set(rng.sample(range(n), rng.choice((1, 2))))),
            n_navigate)
        self.navigate = [(("drilldowns", "rollups", "open")[i % 3], cell)
                         for i, cell in enumerate(cells)]

    def _cell(self, records, rng, free_share):
        n = self.shape.dims
        keep = {d for d in range(n) if rng.random() < 0.5}
        if rng.random() < free_share:
            return tuple(self.shape.draw_labels(rng, d, 1)[0] if d in keep
                         else STAR for d in range(n))
        return project(rng.choice(records), keep)

    def _range(self, rng):
        n, shape = self.shape.dims, self.shape
        fixed = set(rng.sample(range(n), rng.choice((1, 2, 3))))
        spec = []
        for d in range(n):
            if d not in fixed:
                spec.append(STAR)
                continue
            values = set()
            want = rng.choice((2, 3, 4))
            while len(values) < want:
                values.add(shape.draw_labels(rng, d, 1)[0])
            spec.append(tuple(sorted(values)))
        return tuple(spec)


def _distinct(draw, n: int) -> list:
    seen, out = set(), []
    attempts = 0
    while len(out) < n and attempts < 50 * n:
        attempts += 1
        item = draw()
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def zipf_picker(n: int, skew: float, rng: random.Random):
    """A function drawing indexes ``0..n-1``, index 0 the hottest."""
    weights = [1.0 / (k + 1) ** skew for k in range(n)]
    cum, total = [], 0.0
    for w in weights:
        total += w
        cum.append(total)
    order = list(range(n))
    rng.shuffle(order)
    from bisect import bisect_left

    def pick() -> int:
        return order[min(bisect_left(cum, rng.random() * total), n - 1)]

    return pick


def even_schedule(rate: float, duration: float, rng: random.Random) -> list:
    """``rate * duration`` send offsets, one in each ``1 / rate`` slot at a
    uniformly random point of its middle half: open loop at a fixed count."""
    gap = 1.0 / rate
    return [(k + rng.uniform(0.25, 0.75)) * gap
            for k in range(int(rate * duration))]


def poisson_schedule(rate: float, duration: float, rng: random.Random,
                     start: float = 0.0) -> list:
    """Send offsets (seconds) of a Poisson process at ``rate`` per second
    over ``[start, start + duration)``, fixed up front."""
    out, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= start + duration:
            return out
        out.append(t)
