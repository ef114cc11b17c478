"""Runs the hciz CLI with the benchmark's tracer installed.

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/clitrace.py eval --n 2 ...

Behaves as `python -m hciz.cli` (same arguments, output and exit code) and
writes the spans it recorded to $PERFBENCH_TRACE_OUT when the command ends;
$PERFBENCH_OP_ID tags them with the benchmark's operation id.
"""

import json
import os
import sys

from tracer import Tracer


def main() -> int:
    import hciz.cli

    tracer = Tracer()
    tracer.op_id = int(os.environ.get("PERFBENCH_OP_ID", "-1"))
    tracer.install()
    try:
        return hciz.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
