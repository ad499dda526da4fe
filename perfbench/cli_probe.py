"""Run one gotzmann CLI call and report where its process spent the time.

Usage: python cli_probe.py <parent monotonic ns before spawn> <cli args...>

Behaves like ``python -m gotzmann.cli <cli args...>`` (same stdout and exit
code) and adds one JSON line on stderr with ``interpreter_ms`` (spawn to the
first line of this script), ``import_ms`` (``import gotzmann.cli``) and
``dispatch_ms`` (argument parsing, the library call and printing).
"""
import time

_STARTED = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawned = int(sys.argv[1])
    argv = sys.argv[2:]
    import gotzmann.cli

    imported = time.monotonic_ns()
    code = gotzmann.cli.main(argv)
    sys.stdout.flush()
    done = time.monotonic_ns()
    print(json.dumps({
        "interpreter_ms": (_STARTED - spawned) / 1e6,
        "import_ms": (imported - _STARTED) / 1e6,
        "dispatch_ms": (done - imported) / 1e6,
    }), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
