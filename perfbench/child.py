"""Measured process of the fairdisc benchmark; run.py starts a fresh one per request.

    python3 child.py probe ARGV_JSON
        Time `import fairdisc.cli` plus argv parsing in this fresh
        interpreter and print the seconds.

    python3 child.py run JOB_JSON RESULT_JSON
        Import fairdisc.cli, then run one request: each argv of the job in
        turn through `fairdisc.cli.main`, as a user's shell would, but in one
        process. With "trace", run it under the outside-in tracer and write
        the spans out. Write timings, outputs and output-file hashes.

Every request is the first in its process, as for a user of the command, so
per-process caches start cold each time. Runs single-threaded; the parent
sets the thread-count variables.
"""

import sys
import time


def probe(argv_json: str) -> None:
    import json

    t0 = time.perf_counter()
    import fairdisc.cli

    fairdisc.cli.build_parser().parse_args(json.loads(argv_json))
    print(repr(time.perf_counter() - t0))


def run(job_path: str, result_path: str) -> None:
    import contextlib
    import hashlib
    import io
    import json
    import os
    import resource

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    import fairdisc.cli as cli

    import_s = time.perf_counter() - t0
    import numpy
    import scipy

    tracer = None
    if job["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    codes, outs = [], []
    c0, t0 = time.process_time(), time.perf_counter()
    for argv in job["request"]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                codes.append(cli.main(list(argv)))
            except Exception as exc:  # a traceback is a failed request, not a crash
                codes.append(f"{type(exc).__name__}: {exc}")
        outs.append(buf.getvalue())
        if codes[-1] != 0:
            break
    t1, c1 = time.perf_counter(), time.process_time()

    files = {}
    for path in job["files"]:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[path] = hashlib.sha256(fh.read()).hexdigest()
    result = {
        "import_s": import_s, "wall_s": t1 - t0, "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes, "stdout": outs, "files": files,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        tracer.write_spans(job["spans_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "probe":
        probe(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)
