"""Traced CLI process: ``python launcher.py TRACE_FILE CLI_ARGS...``.

Imports the package, installs the tracer's wrappers, runs ``cli.main`` on
the remaining arguments inside one request span, and writes the spans, the
counters and the import time to TRACE_FILE.  Stdout and the exit code are
the CLI's own.
"""

import importlib
import sys
import time

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("contextuality.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span():
            code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
        tracer.write(trace_file, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
