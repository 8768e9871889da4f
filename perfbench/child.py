"""One benchmark process: import ergolab, build the inputs, run one command.

Reads a JSON job on standard input and writes one JSON record on standard
output.  ``ready`` is the time.monotonic() reading once ergolab is imported
and the inputs are built; the clock is system-wide, so the launching process
subtracts its own launch reading to get the set-up time.

Modes:
  setup        stop once set-up is done;
  run          run ``ergolab.cli.main(argv)`` with its output captured,
               traced when the job says so;
  check_sweep  check sweep outputs (not timed).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> int:
    import ergolab.cli

    job = json.loads(sys.stdin.read())
    argv = list(job.get("argv", ()))
    record = {"ready": time.monotonic(), "module": ergolab.cli.__file__}
    mode = job["mode"]
    if mode == "run":
        record.update(run(ergolab.cli, argv, bool(job.get("trace"))))
    elif mode == "check_sweep":
        import workloads

        checks = workloads.check_sweep(job["schedule"], job["runs"])
        record.update(attempted=checks.attempted, failures=checks.failures)
    elif mode != "setup":
        raise ValueError(f"unknown mode {mode!r}")
    record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def run(cli, argv, traced: bool) -> dict:
    tracer = None
    if traced:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a wrong exit code, as in a shell
                traceback.print_exc()
                code = 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"exit": code, "stdout": buffer.getvalue()}
    if tracer is not None:
        report = tracer.report()
        report["build_s"] = tracer.measure_sweep_builds()
        out["trace"] = report
    return out


if __name__ == "__main__":
    sys.exit(main())
