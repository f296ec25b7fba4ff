"""The CSV writer of every table mpslab writes: a scan's raw, summary,
failures and chi_star files, a training trace, classifier predictions and
generated datasets share one cell format and one line end."""

import csv
from types import SimpleNamespace

import numpy as np


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows):
    """Write ``header`` and then ``rows`` to the CSV file ``path``; returns
    ``path``.  A bool or int cell is written as its ``str``, a float as
    its shortest round-trip ``repr`` (``nan``, ``inf`` and ``-0.0``
    included), anything else as its ``str``.  Only cells that hold a
    comma, quote, CR or LF are quoted, and lines end in LF."""
    with open(path, "w", newline="") as fh:
        # csv quotes a cell holding a character of its line terminator, so
        # the writer ends lines in CRLF and each line is written with LF
        writer = csv.writer(
            SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
            lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(map(_format_cell, row) for row in rows)
    return path
