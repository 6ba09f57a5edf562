"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPAWNED COMMANDS [--trace] [--spans PATH]

SPAWNED is the parent's `time.monotonic()` just before it started this
process, so set-up time covers the interpreter, numpy and escount up to the
return of `import escount.cli`. COMMANDS is a JSON list of argv lists, each
run through `escount.cli.main` in this process, in order.

Writes JSON lines to stdout: {"ready": setup_s} once escount is imported and
the first calibration has run, {"case": i, ...} after each command,
{"cal": seconds} after each calibration, and {"done": ...} at the end, with
peak resident memory and, with --trace, the per-layer figures.

The calibration is a fixed loop of big-integer Fraction sums that never
touches escount. It runs before the first command and after each one, so the
parent can scale each pass's time by how fast this machine ran the same
fixed work at the same moment.
"""
import sys
import time

SPAWNED = float(sys.argv[1])
import escount.cli  # noqa: E402  (set-up ends when this import returns)

SETUP_S = time.monotonic() - SPAWNED

import contextlib  # noqa: E402
from fractions import Fraction  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

CRASHED = -1


def emit(message: dict) -> None:
    sys.__stdout__.write(json.dumps(message) + "\n")
    sys.__stdout__.flush()


def calibrate() -> float:
    """Seconds this process takes for a fixed amount of big-integer work,
    about 25 ms on a 2-vCPU Intel Xeon."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(3 ** (i % 97 + 40), 7 ** (i % 13) * (i % 11 + 1))
    return time.perf_counter() - start


def run_command(argv: list[str]) -> tuple[int, float, str, str]:
    """Run one command as `escount.cli.main(argv)`; return exit code,
    seconds, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = escount.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else CRASHED
        except Exception:
            code = CRASHED
            traceback.print_exc(file=err)
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def main() -> None:
    commands = json.loads(sys.argv[2])
    spans_path = sys.argv[sys.argv.index("--spans") + 1] if "--spans" in sys.argv else None
    tracer = None
    first_cal = calibrate()
    emit({"ready": SETUP_S})
    emit({"cal": first_cal})
    if "--trace" in sys.argv:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for index, argv in enumerate(commands):
        if tracer:
            tracer.case = index
        code, seconds, out, err = run_command(argv)
        emit({"case": index, "rc": code, "seconds": seconds, "stdout": out,
              "stderr": err[-4000:]})
        emit({"cal": calibrate()})
    done = {"done": True, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        done["trace"] = tracer.layer_metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    emit(done)


if __name__ == "__main__":
    main()
