"""Run one `masseykit` job with the layers traced, for cli-jobs traces.

    python3 bench/child.py SIDE_FILE <masseykit arguments...>

Times the import of ``masseykit.cli`` in this fresh interpreter, installs
the benchmark's wrappers, runs ``cli.main`` and writes the totals and
spans to SIDE_FILE.  Exits with the job's exit code.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import masseykit.cli as cli  # noqa: E402
imported = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer, install  # noqa: E402


def main() -> int:
    side, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    tracer.op = 0
    tracer.active = True
    tracer.add("cli.import_s", imported - start)
    try:
        code = cli.main(argv)
    finally:
        tracer.active = False
        with open(side, "w") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
