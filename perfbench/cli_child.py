"""Run one CLI command in-process with the tracer installed.

Usage: python -X importtime cli_child.py SPANS_JSON ARGV...

``nilform.cli`` is imported first, so ``-X importtime`` reports its full
import cost; the span summary and counters go to SPANS_JSON and stdout
carries the command's own output, unchanged.
"""

import json
import sys

import nilform.cli

import tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        code = nilform.cli.main(argv)
    finally:
        restore()
    sys.stdout.flush()
    with open(path, "w") as fh:
        json.dump({"summary": tracer.tracer_summary(tr), "counts": dict(tr.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
