"""One benchmark pass in a fresh interpreter.

Measures set-up (importing the lab and loading and validating the
scenario docs), then, unless ``--setup-only``, runs the workload once,
optionally traced, and writes a JSON record to ``--result``.  Each
time is recorded raw and scaled to reference-core seconds by the core
speed the probe (``speed.py``) saw: a burst right after set-up for
set-up, samples throughout the run for the workload.  Started by
``run.py`` with ``src`` on ``PYTHONPATH``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--result", required=True, help="path of the JSON record")
    parser.add_argument("--tmp", required=True, help="directory for report trees")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from expanderlab import acceptance, cli  # noqa: F401  (set-up cost)

    import workloads

    docs = workloads.scenario_docs(args.workload, args.seed)
    for doc in docs:
        cli.Scenario.from_doc(doc)
    setup = time.perf_counter() - T_START

    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.burst()
    record = {"setup_raw_s": setup, "setup_s": setup / probe.slowdown()}

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(args.pass_id)
            tracer.install()
        out_dir = tempfile.mkdtemp(prefix="reports-", dir=args.tmp)
        probe = SpeedProbe()
        probe.start()
        try:
            cpu0 = time.process_time()
            ops, wall = workloads.run(args.workload, docs, out_dir)
            cpu = time.process_time() - cpu0
        finally:
            probe.stop()
            shutil.rmtree(out_dir, ignore_errors=True)
        slowdown = probe.slowdown()
        for op in ops:
            op["elapsed"] /= slowdown
        record.update(
            wall_raw_s=wall - probe.inline_s,
            wall_s=(wall - probe.inline_s) / slowdown,
            slowdown=slowdown,
            probe_s=probe.inline_s,
            cpu_s=cpu - probe.inline_s,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            ops=ops,
        )
        if tracer is not None:
            record["trace"] = {"spans": tracer.spans, "counts": dict(tracer.counts),
                               "absent": tracer.absent}
    with open(args.result, "w") as f:
        json.dump(record, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
