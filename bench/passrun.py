"""One timed pass over a workload's job list, in a fresh interpreter.

Usage: python3 bench/passrun.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory that contains the perifp package),
``jobs`` (from workloads.generate), ``out`` (the pass's output
directory), ``trace_file`` (where a traced pass writes its spans; null
for an untraced pass) and ``setup_only``.  The pass first times
``import perifp.cli`` (the start-up every CLI invocation pays), then
runs the jobs one after another through ``perifp.cli.run`` and writes
per-job wall times, exit codes and exception types to RESULT.  Output
checks run later, in the parent, outside the timed region.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import perifp.cli
    result = {"setup_s": time.perf_counter() - t0}
    if not spec["setup_only"]:
        result.update(_run_jobs(perifp.cli, spec))
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def _run_jobs(cli, spec):
    tracer = None
    if spec["trace_file"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    jobs = []
    with open(os.devnull, "w") as devnull:
        for job in spec["jobs"]:
            argv = job["argv"] + ["--out", os.path.join(spec["out"], job["name"])]
            err = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
            except SystemExit as exc:      # argparse rejects the argv
                code, error = exc.code, "SystemExit"
            except Exception as exc:       # a traceback must not end the pass
                code, error = None, type(exc).__name__
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - t0
            if error is None and code != 0:
                # cli.run reports typed errors as "perifp: <Type>: message"
                first = err.getvalue().partition("\n")[0]
                error = first.split(":")[1].strip() if first.count(":") >= 2 else "exit"
            jobs.append({"name": job["name"], "cmd": job["cmd"], "code": code,
                         "error": error, "seconds": seconds,
                         "stderr": err.getvalue()[-2000:]})
    out = {"jobs": jobs,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.dump(spec["trace_file"])
    return out


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
