"""One pass of a workload in a fresh interpreter.

Reads a JSON spec from stdin::

    {"invocations": [[label, argv], ...], "trace": false,
     "trace_file": null, "src": "<checkout>/src"}

imports ``wreathdunkl.cli``, runs ``cli.main(argv)`` for each invocation in
order with its standard output captured, and prints one JSON result line.
An empty invocation list only measures set-up.  ``setup_done`` is read from
``time.monotonic``, a system-wide clock on Linux, so the parent can subtract
the moment it started this process.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.load(sys.stdin)
    import wreathdunkl.cli as cli

    setup_done = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(spec["src"] + os.sep):
        print(f"wreathdunkl imported from {cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 3
    result = {"setup_done": setup_done}
    if not spec["invocations"]:
        print(json.dumps(result))
        return 0

    tracer = before = None
    if spec["trace"]:
        import tracer as tracing

        before = tracing.binding_snapshot()
        tracer = tracing.Tracer()
        tracer.install()
    runs = []
    t_start = time.perf_counter()
    try:
        for label, argv in spec["invocations"]:
            out, err = io.StringIO(), io.StringIO()
            raised = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects argv with exit 2
                    rc = exc.code
                except Exception as exc:  # recorded as a failed invocation
                    rc, raised = None, f"{type(exc).__name__}: {exc}"
            runs.append({"label": label, "rc": rc, "raised": raised,
                         "report": out.getvalue(),
                         "stderr": err.getvalue()[-2000:]})
    finally:
        if tracer:
            tracer.restore()
    result["wall_s"] = time.perf_counter() - t_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["runs"] = runs
    result["env"] = _stamp()
    if tracer:
        result["trace"] = tracer.metrics()
        result["unrestored"] = tracing.changed_bindings(before, tracing.binding_snapshot())
        with open(spec["trace_file"], "w") as fh:
            json.dump({"spans": tracer.spans, "metrics": result["trace"]}, fh)
    print(json.dumps(result))
    return 0


def _stamp() -> dict:
    """What ran: engine kernel backend and numpy version."""
    import importlib.util

    import numpy

    from wreathdunkl import _kernels

    return {
        "kernel_backend": _kernels.BACKEND_NAME,
        "compiled_kernels_built": importlib.util.find_spec(
            "wreathdunkl._kernels_cy") is not None,
        "numpy": numpy.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
