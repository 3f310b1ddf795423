"""One benchmark job: a single ``kissgram`` command in a fresh process.

    python3 bench/job.py --result R.json [--trace] -- <kissgram arguments>

Imports numpy and every kissgram module, makes one LAPACK call (which starts
the BLAS thread pool), optionally installs the tracer, then calls
``kissgram.cli.main`` once.  ``R.json`` receives the monotonic clock just
before and after that call, the peak RSS and, when traced, the per-layer
summary of the spans.  The exit code is the command's own.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    ``VmHWM`` belongs to the address space created by exec, whereas
    ``ru_maxrss`` also counts the launching parent's pages shared before it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true", help="trace the command's layers")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import numpy as np

    from spans import Tracer, kissgram_modules

    kissgram_modules()
    from kissgram import cli

    np.linalg.eigvalsh(np.eye(64) + np.ones((64, 64)))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    code = cli.main(command)
    done = time.monotonic()
    result = {
        "ready": ready,
        "done": done,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
