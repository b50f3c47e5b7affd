"""Run one magiclab CLI command with the layer tracer installed.

Usage: python cli_child.py SPANS_OUT ARG...

Behaves as `python -m magiclab.cli ARG...` (same stdout, stderr and exit
code) and writes the spans it recorded, rooted at one cli.main span, to
SPANS_OUT as JSON.  The parent benchmark adopts them under its process span.
"""

import json
import sys
from pathlib import Path

from magiclab import cli  # found through PYTHONPATH
from tracing import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    span = tracer.begin("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.end(span)
        tracer.uninstall()
        sys.stdout.flush()
        Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
