"""Run the swapnet CLI with the benchmark's span wrappers installed.

Usage: python cli_shim.py SPANS_FILE ARG...

Behaves like ``python -m swapnet ARG...`` (same stdout, stderr and exit
code) and writes the spans recorded in this process to SPANS_FILE.
"""
import json
import sys

from tracing import Tracer


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from swapnet import cli

    try:
        code = cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="ascii") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
