"""Run the anacci CLI with the layer tracer installed.

    PERFBENCH_SPANS=out.json python cli_traced.py <anacci arguments>

Behaves like ``python -m anacci.cli`` and, on exit, writes the summed spans
(``Tracer.raw``) to the file named by ``PERFBENCH_SPANS``.
"""

from __future__ import annotations

import json
import os
import sys

import spans


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    from anacci import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump(tracer.raw(), handle)


if __name__ == "__main__":
    sys.exit(main())
