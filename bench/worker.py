"""One benchmark job in a fresh interpreter; reads a JSON job on stdin.

The first thing timed is `import gmfkit.cli`, which a user pays at the start
of every CLI invocation, so nothing else is imported before it.  The job's
result is one JSON line on stdout (see jobs.py).
"""

import sys
import time


def main() -> int:
    job_text = sys.stdin.read()
    t0 = time.perf_counter()
    import gmfkit.cli  # noqa: F401

    setup_s = time.perf_counter() - t0
    import jobs

    return jobs.run(job_text, setup_s)


if __name__ == "__main__":
    raise SystemExit(main())
