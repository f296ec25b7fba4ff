"""The CSV writer of every table mpslab writes: a scan's raw, summary,
failures and chi_star files, a training trace, classifier predictions and
generated datasets share one cell format and one line end."""

import csv

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
    comma, quote or LF are quoted, and lines end in LF; Python 3.11's
    ``csv`` leaves a carriage return in a cell unquoted, so such a cell
    does not read back."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_format_cell, row) for row in rows)
    return path
