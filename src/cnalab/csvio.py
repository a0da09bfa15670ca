"""Artifact writing (replacing: a temp file renamed into place, so no file
is overwritten in place) and CSV emission and parsing with a schema header.

Every CSV starts with "# schema=<name> v<version>" followed by a normal
header row. Floats are written with repr so a round trip through the
module's own reader loses nothing. Empty cells encode None (used for
undefined correlation values).
"""

import csv
import os
from contextlib import contextmanager

from .errors import FormatError

SCHEMA_VERSION = 1


def _format(row):
    return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row]


@contextmanager
def replacing(path, mode="w"):
    """<path>.tmp opened with mode ("w": UTF-8 text), renamed onto path on success."""
    tmp = f"{path}.tmp"
    with open(tmp, mode, **({} if "b" in mode else {"encoding": "utf-8", "newline": ""})) as fh:
        yield fh
    os.replace(tmp, path)


def write_csv(path, schema, columns, rows):
    with replacing(path) as fh:
        fh.write(f"# schema={schema} v{SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(_format, rows))


def append_csv(path, rows):
    """Append rows to the CSV at path, whose last row is complete."""
    with open(path, "a", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(map(_format, rows))


def read_csv(path):
    """Returns (schema_name, columns, rows-of-strings)."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            first = fh.readline()
            if not first.startswith("# schema="):
                raise FormatError(f"{path}: missing schema header line")
            name = first[len("# schema="):].strip().split(" ")[0]
            reader = csv.reader(fh)
            columns = next(reader, None)
            if columns is None:
                raise FormatError(f"{path}: missing column header")
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc})") from exc
    return name, columns, rows
