"""Answer normalisation and the reference answers a run is checked against.

Point and range answers are checked against :func:`inputs.scan_truth`, a
plain scan of the generated records.  Iceberg, exploration and navigation
answers are checked against a fresh rebuild of the records into the
mutable dict-backed QC-tree (``serve_frozen=False``, no cache), which
shares neither the frozen view, the cache nor the serving stack with what
is being measured.

Both the wire text and Python answers are reduced to one normal form, so a
TCP answer and an in-process answer compare with ``==``.
"""

from __future__ import annotations

import json

from inputs import STAR, dim_names, range_cells, scan_truth

#: Commands of each read family, by wire name.
EXPLORE = ("rollup", "rollup_exceptions", "class")
NAVIGATE = ("drilldowns", "rollups", "open")
#: Wire command -> warehouse method, where the names differ.
METHODS = {"class": "class_of", "open": "open_class"}


def _cell(cell) -> str:
    return ",".join(map(str, cell))


def _pairs(pairs) -> list:
    return sorted((_cell(cell), float(value)) for cell, value in pairs)


def normalize(command: str, value):
    """The normal form of an in-process answer to ``command``."""
    if command == "point":
        return None if value is None else float(value)
    if command == "range":
        return {_cell(cell): float(v) for cell, v in value.items()}
    if command in ("iceberg", "rollup", "rollup_exceptions",
                   "drilldowns", "rollups"):
        return _pairs(value)
    if command == "class":
        return None if value is None else (_cell(value[0]), float(value[1]))
    if command == "open":
        return {
            "upper_bound": _cell(value["upper_bound"]),
            "lower_bounds": sorted(map(_cell, value["lower_bounds"])),
            "members": sorted(map(_cell, value["members"])),
            "value": float(value["value"]),
        }
    if command in ("insert", "delete"):
        return "OK"
    raise ValueError(f"no normal form for {command!r}")


def parse_wire(command: str, lines: list):
    """The normal form of a wire response; raises ValueError on an error
    line or a response that does not frame as the protocol says."""
    if lines[0].startswith("error:"):
        raise ValueError(lines[0])
    if command == "point":
        return None if lines[0] == "NULL" else float(lines[0])
    if command == "class":
        if lines[0] == "NULL":
            return None
        cell, value = lines[0].split("\t")
        return (cell, float(value))
    if command == "open":
        doc = json.loads(lines[0])
        return {
            "upper_bound": _cell(doc["upper_bound"]),
            "lower_bounds": sorted(map(_cell, doc["lower_bounds"])),
            "members": sorted(map(_cell, doc["members"])),
            "value": float(doc["value"]),
        }
    if command in ("insert", "delete"):
        return lines[0]
    body = [line.split("\t") for line in lines[:-1]]
    trailer = lines[-1]
    if command == "iceberg":
        if trailer != "# end":
            raise ValueError(f"iceberg trailer {trailer!r}")
    elif trailer != f"# {len(body)} " + ("cells" if command == "range"
                                         else "classes"):
        raise ValueError(f"{command} trailer {trailer!r} for {len(body)} rows")
    if command == "range":
        return {cell: float(value) for cell, value in body}
    return sorted((cell, float(value)) for cell, value in body)


def expected_ranges(records, specs) -> dict:
    """``{spec: normal-form answer}`` by plain scan."""
    cells = [cell for spec in specs for cell in range_cells(spec)]
    truth = scan_truth(records, cells)
    out = {}
    for spec in specs:
        out[spec] = {_cell(cell): truth[cell] for cell in range_cells(spec)
                     if cell in truth}
    return out


class DictTreeOracle:
    """A fresh dict-tree warehouse over ``records``, for the answers a plain
    scan cannot give cheaply (iceberg, exploration, navigation)."""

    def __init__(self, records, n_dims: int):
        from repro import QCWarehouse, Schema

        schema = Schema(dimensions=tuple(dim_names(n_dims)), measures=("M",))
        self.warehouse = QCWarehouse.from_records(
            records, schema, aggregate=("sum", "M"),
            serve_frozen=False, cache_size=0)
        self._memo: dict = {}

    def answer(self, command: str, arg):
        """Normal-form answer to ``command`` with argument ``arg`` (a cell,
        or an iceberg threshold)."""
        key = (command, arg)
        if key not in self._memo:
            wh = self.warehouse
            if command == "iceberg":
                value = wh.iceberg(arg, ">=")
            else:
                value = getattr(wh, METHODS.get(command, command))(arg)
            self._memo[key] = normalize(command, value)
        return self._memo[key]


def top_cell(n_dims: int) -> str:
    """The all-``*`` cell in normal form."""
    return _cell((STAR,) * n_dims)
