"""One op: a single ``qthresh`` command run in a fresh process.

Usage: ``python3 perfbench/child.py TRACE_PATH -- <qthresh arguments>``, with
``src`` on ``PYTHONPATH``.  TRACE_PATH ``-`` runs untraced.  Otherwise the
process wraps the ``qthresh`` layers after importing them and writes the
import time and its spans to TRACE_PATH as JSON when the command ends.
"""
import json
import sys
import time


def main() -> int:
    trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_PATH -- ARGS...")
    started = time.perf_counter()
    import qthresh.cli

    import_s = time.perf_counter() - started
    entry = qthresh.cli.main
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
    try:
        return entry(argv)
    finally:  # also when argparse exits
        if tracer is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"import_s": import_s, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
