"""Run the qdescent CLI under the benchmark's tracer.

    python3 perfbench/cli_child.py OUT.json SPANS RING_OPS <qdescent arguments>

Behaves like "python -m qdescent <arguments>" (same stdout and exit code)
and writes the spans and counters of the call to OUT.json.  SPANS and
RING_OPS (0 or 1) select what Tracer.install wraps.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import qdescent.cli as cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main():
    out, spans, ring_ops, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    tracer.install(spans=spans == "1", ring_ops=ring_ops == "1")
    try:
        code = tracer._wrap("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
