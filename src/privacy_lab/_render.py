"""The one output renderer of every CLI output and bundle artifact.

Bytes are deterministic: floats carry 17 significant digits (round-trip
exact), rows follow the input order, and no timestamps or environment data
leak in.  JSON payloads hold plain values and records (dataclasses), which
are written as objects of their fields under the keys of `_KEYS` (`lam` as
`lambda`, `passed` as `pass`) through one `json.dumps(indent=2,
sort_keys=True)`.  CSV goes through `_to_csv(header, rows)`, which writes
each row by one "%" template made for its sequence of cell types (float 17
digits, str as is, None empty); a row holding any other cell type goes
through the one cell formatter `_cell` (also bool true/false), with the same
text.

This module imports nothing from the package, so every command can render
without loading the modules it does not run.
"""

from __future__ import annotations

import json
from dataclasses import fields

# output keys of the record fields whose key is not the field name
_KEYS = {"lam": "lambda", "passed": "pass"}


def _record(rec, drop: tuple[str, ...] = ()) -> dict:
    """A record's fields under their output keys, in field order."""
    return {_KEYS.get(f.name, f.name): getattr(rec, f.name) for f in fields(rec) if f.name not in drop}


def _to_json(payload) -> str:
    """Plain values and records, nested in dicts and lists, as indented JSON."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_record) + "\n"


def _cell(v) -> str:
    if type(v) is float:  # most cells: test it first
        return f"{v:.17g}"
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{float(v):.17g}"


# The "%" piece of each cell type whose `_cell` text one "%" conversion
# writes: a float at 17 digits, a str as it is, and None as "%.0s", the empty
# cut of "None".
_PIECES = {float: "%.17g", str: "%s", type(None): "%.0s"}


def _template(types: tuple) -> str:
    """The "%" template of a row whose cells have these exact `types`, or ""
    when some cell type has no piece and the row goes through `_cell`."""
    pieces = tuple(map(_PIECES.get, types))
    return "" if None in pieces else ",".join(pieces)


def _to_csv(header, rows) -> str:
    """A header line, then one line per row of values.

    A row is written by one "%" template, made once per call for each
    sequence of cell types met; a row with a cell of another type (bool,
    int) is written cell by cell through `_cell`.  Both give the same text.
    """
    lines = [",".join(header)]
    templates: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = _template(types)
        lines.append(template % row if template else ",".join(map(_cell, row)))
    lines.append("")
    return "\n".join(lines)
