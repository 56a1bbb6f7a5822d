"""Traced CLI process: ``python3 perfbench/cli_boot.py <lepage arguments>``.

Times ``import lepage.cli``, installs the span wrappers, then runs
``lepage.cli.main`` with the given arguments, so stdout and the exit status
are those of ``python -m lepage.cli``.  The span summary goes to stderr as
the last line, after the marker ``TRACE_MARK``, with the time spent in this
function (``in_process_s``); the parent's wall time minus that is the
interpreter's start and exit.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARK = "perfbench-trace "


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import lepage.cli
    import_s = time.perf_counter() - start

    import tracer as tr
    tracer, obs = tr.Tracer(), tr.Observations()
    tr.install(tracer, obs)
    status = lepage.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    in_process_s = time.perf_counter() - start
    print(TRACE_MARK + json.dumps({"import_s": import_s,
                                   "in_process_s": in_process_s,
                                   "summary": summary,
                                   "observations": obs.to_json()}),
          file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
