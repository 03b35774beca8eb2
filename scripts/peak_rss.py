#!/usr/bin/env python3
"""Run one posetmorse CLI command as a child process under a bound on its
peak resident set size.

    PYTHONPATH=src python scripts/peak_rss.py BOUND_MB -- validate --input sd4.txt --format doc

The child's stdout and stderr pass straight through, so a result check
can read the report from a pipe.  The child's peak RSS (ru_maxrss) goes
to stderr.  The exit code is the child's when that is nonzero, else 1
when the peak is above BOUND_MB, else 0.
"""

import resource
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[1] != "--":
        sys.exit(f"usage: {sys.argv[0]} BOUND_MB -- COMMAND [ARGS...]")
    bound, command = float(args[0]), args[2:]
    code = subprocess.run([sys.executable, "-m", "posetmorse.cli", *command]).returncode
    # ru_maxrss is in KiB on Linux
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{command[0]}: exit {code}, peak RSS {mb:.0f} MB (bound {bound:g} MB)",
          file=sys.stderr)
    return code or int(mb > bound)


if __name__ == "__main__":
    sys.exit(main())
