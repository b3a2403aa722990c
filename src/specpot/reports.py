"""Report and artifact writers: JSON for scalars and verdicts, CSV for vectors.

JSON is written with sorted keys so identical runs produce byte-identical
files (the timestamp field is the one intentional exception).
"""
from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from .domain import DomainGrid


def new_report(command: str, config_echo: dict) -> dict:
    return {
        "command": command,
        "config": config_echo,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "verdicts": [],
        "artifacts": {},
    }


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def fmt(x) -> str:
    return repr(float(x))


def write_node_csv(grid: DomainGrid, path, columns: dict[str, np.ndarray]) -> None:
    """One row per node: the coordinates (x, or x and y on the torus), then the
    named value columns in the order given."""
    coord_names = ["x"] if grid.ndim == 1 else ["x", "y"]
    table = np.column_stack([grid.coords.reshape(grid.n_nodes, -1), *columns.values()])
    # tolist() gives Python floats, whose repr is fmt's string; one row at a
    # time keeps a single row of them alive
    write_csv(path, coord_names + list(columns), (map(repr, row.tolist()) for row in table))


def verdict(name: str, passed: bool, measured, tolerance) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "measured": None if measured is None else float(measured),
        "tolerance": None if tolerance is None else float(tolerance),
    }
