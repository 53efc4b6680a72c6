"""Child process for one traced cli-cold query.

Equivalent to ``python -m hornkit.cli ARGS`` with the tracer installed:
calls ``hornkit.cli.main`` and, after the CLI's own output, writes the
tracer state to stderr as one line starting with MARK.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer

MARK = "perfbench-trace:"


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from hornkit import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(MARK + json.dumps(tracer.state()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
