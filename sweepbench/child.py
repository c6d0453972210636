"""One measured CLI run: import the package, then call ``cli.main(argv)``.

Usage: ``python child.py [cli arguments...]`` with ``SWEEPBENCH_INFO`` naming
a JSON file to write. With no arguments it only imports, which is how the
benchmark samples set-up time. The file records the ``time.monotonic()``
instant at which ``import sumsetchains.cli`` returned (the parent took its
own reading just before spawning; both read the system-wide monotonic
clock) and the active kernel backend. With ``SWEEPBENCH_TRACE`` set to a
directory, the layers are traced into it (see tracer.py).
"""

import json
import os
import sys
import time

import sumsetchains.cli as cli

IMPORT_DONE = time.monotonic()


def main() -> int:
    argv = sys.argv[1:]
    trace_dir = os.environ.get("SWEEPBENCH_TRACE")
    tracer = None
    if trace_dir:
        from tracer import Tracer

        tracer = Tracer(trace_dir).install()
    code = 0
    try:
        if argv:
            code = cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump()
        kernel = sys.modules.get("sumsetchains.kernel")
        info = {"import_done": IMPORT_DONE, "backend": getattr(kernel, "BACKEND", "unknown")}
        with open(os.environ["SWEEPBENCH_INFO"], "w") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
