"""Regenerate reference.json, the benchmark's accuracy references.

    PYTHONPATH=src python3 perfbench/regen_reference.py

Writes 50-digit roots from ``oracle.root`` (mpmath) for the solve-stream
reference panel (the anchors and the first draws of ``PANEL_SEED``), for
every solved value of fig1-fig3, and for the constants the CLI examples
print, plus the row count of each figure.  The figure inputs and row
counts are taken from the library's emitters; the roots never are.
"""

from __future__ import annotations

import csv
import io
import json

import oracle
import workloads


def main() -> None:
    from anacci import figures

    points = {(p, q) for p, q, _ in workloads.solve_panel()}
    points |= {(1, 2), (2, 2)} | {(n, n) for n in range(1, 7)}
    rows = {}
    for which in workloads.FIGURES:
        body = list(csv.reader(io.StringIO(figures.emit(which))))[1:]
        rows[which] = len(body)
        points |= {(p, q) for p, q, _ in workloads.solved_points(which, body)}
    roots = {}
    for p, q in sorted(points, key=lambda pq: (float(pq[0]), float(pq[1]))):
        roots.setdefault(workloads.root_key(p, q), oracle.root(p, q))
    reference = {
        "digits": oracle.DIGITS,
        "panel_seed": workloads.PANEL_SEED,
        "panel_draws": workloads.PANEL_DRAWS,
        "figure_rows": rows,
        "roots": roots,
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"{len(roots)} roots, figure rows {rows}")


if __name__ == "__main__":
    main()
