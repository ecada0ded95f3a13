"""Benchmark of the expanderlab lab: time to a verified report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flat_torus --seed 0 --seconds 40 --trace 0

Each pass runs the workload once in a fresh interpreter (``worker.py``);
a run makes as many passes as fit in ``--seconds``, at least one.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` spends half the time on untraced and half on traced
passes and prints the per-layer metrics.  Times are in reference-core
seconds (see speed.py); the raw ones are printed beside them.  Every operation's
outputs are checked (see README.md); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the lab's sources are not
in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import TOP_SPAN, self_times  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, compare, environment,  # noqa: E402
                       perturbed, tree_digest, verdict_failure)

SETUP_PROBES = 12       # set-up-only interpreters per untraced run
RUN_LIMIT_S = 172.0     # a pass still running then is killed
# outcome counts the gate requires to repeat but that are no metric:
# they read 0 on every workload at the commit that added the benchmark
GATE_ONLY_COUNTS = ("reduced.flagged_frac", "entropy.mu_plus.unconverged")
LAYERS = ("reduced.shoot", "reduced.oracle", "reduced.radial", "reduced.checks",
          "conjugate_heat.backward", "conjugate_heat.immortal", "conjugate_heat.checks",
          "flow.evolve", "numerics.integrate_ode", "numerics.smallest_eigenpair",
          "entropy.lambda_min", "entropy.mu_plus", "entropy.nu_plus", "entropy.reports",
          "reports.write")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "expanderlab" / "cli.py").is_file():
        print(f"error: no lab sources at {src / 'expanderlab'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, src, work)

    start = time.perf_counter()
    if args.trace:
        probes = []
        untraced = bench.passes(start + args.seconds / 2, trace=False)
        traced = bench.passes(start + args.seconds, trace=True)
    else:
        probes = [bench.run_pass(setup_only=True) for _ in range(SETUP_PROBES)]
        untraced = bench.passes(start + args.seconds, trace=False)
        traced = []
    done = [p for p in untraced + traced if p is not None]

    attempted, failed, problems = bench.gate(untraced + traced)
    print(bench.environment(len(done)))
    if args.trace:
        reference = json.loads((HERE / "reference.json").read_text())
        values, not_run = layer_metrics(untraced, traced,
                                        {op for ops in reference.values() for op in ops})
        names = spec["per_layer"]
        absent = {}
        for p in traced:
            if p is not None:
                absent.update(p["trace"]["absent"])
        for name in GATE_ONLY_COUNTS:
            if values.get(name):
                print(f"outcome {name} {statistics.median(values[name]):.6g}")
        spans_path = work / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps([p["trace"]["spans"] for p in traced if p]))
        print(f"spans: {spans_path.relative_to(root)}")
    else:
        values = {
            "wall_s": [p["wall_s"] for p in untraced if p],
            "setup_s": [p["setup_s"] for p in untraced + probes if p],
            "peak_rss_mb": [p["rss_mb"] for p in untraced if p],
        }
        names = spec["end_to_end"]
        absent, not_run = {}, set()
        raw = {"wall_raw_s": [p["wall_raw_s"] for p in untraced if p],
               "setup_raw_s": [p["setup_raw_s"] for p in untraced + probes if p],
               "slowdown": [p["slowdown"] for p in untraced if p]}
        print("raw: " + ", ".join(f"{k} {statistics.median(v):.6g}"
                                  for k, v in raw.items() if v))
    for line in problems:
        print(f"FAIL {line}")
    print(f"fail_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")

    metrics = {}
    for m in names:
        name, unit = m["name"], m["unit"]
        reason = next((r for key, r in absent.items() if name.startswith(key)), None)
        samples = values.get(name)
        if reason is not None or not samples:
            reason = reason or "not measured: every pass failed"
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
            print(f"{name:<48s} absent ({reason})")
            continue
        med = statistics.median(samples)
        q1, _, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                     if len(samples) > 1 else (med,) * 3)
        metrics[name] = {"value": med, "unit": unit}
        note = "  (not run by this workload)" if name in not_run else ""
        print(f"{name:<48s} {med:.6g} {unit}  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)}){note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


class Bench:
    """Passes of one workload and seed, and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, src: Path, work: Path):
        self.workload, self.seed, self.src, self.work = workload, seed, src, work
        self.src_digest = tree_digest(src / "expanderlab")
        self.versions = environment()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        # single-threaded BLAS unless the caller chose otherwise
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env.setdefault(var, "1")
        self.t_start = time.perf_counter()
        self.n_passes = 0
        self.errors = []

    def run_pass(self, trace: bool = False, setup_only: bool = False):
        """One fresh interpreter; its JSON record, or None if it crashed."""
        self.n_passes += 1
        result = self.work / f"pass-{os.getpid()}-{self.n_passes}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--trace", str(int(trace)),
               "--pass-id", str(self.n_passes), "--result", str(result),
               "--tmp", str(self.work)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(RUN_LIMIT_S - (time.perf_counter() - self.t_start), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
            if proc.returncode == 0:
                return json.loads(result.read_text())
            self.errors.append(f"pass {self.n_passes} exited {proc.returncode}: "
                               f"{proc.stderr.strip().splitlines()[-1:]}")
        except subprocess.TimeoutExpired:
            self.errors.append(f"pass {self.n_passes} killed after {timeout:.0f} s")
        finally:
            result.unlink(missing_ok=True)
        return None

    def passes(self, deadline: float, trace: bool) -> list:
        """As many passes as fit before ``deadline`` (a ``perf_counter``
        reading), judged by the last pass's duration, and at least one;
        stops at a crash."""
        out = []
        while True:
            t_pass = time.perf_counter()
            out.append(self.run_pass(trace=trace))
            now = time.perf_counter()
            if out[-1] is None or now + (now - t_pass) > deadline:
                return out

    def gate(self, passes: list):
        """Count operations and failures: exceptions, false verdicts,
        drift from the reference outputs (packaged inputs only), and
        report digests or outcome counts that differ between passes of
        this code, Python, numpy, BLAS, BLAS thread count, workload and
        seed."""
        reference = json.loads((HERE / "reference.json").read_text())[self.workload]
        check_reference = not perturbed(self.workload, self.seed)
        ledger_path = self.work / "ledger.json"
        ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
        key = ":".join([self.src_digest, *self.versions.values(),
                        self.env["OPENBLAS_NUM_THREADS"], self.workload, str(self.seed)])
        seen = ledger.setdefault(key, {})
        digests = seen.setdefault("digests", {})
        attempted, failed, problems = 0, 0, list(self.errors)
        for p in passes:
            if p is None:
                attempted += len(reference)
                failed += len(reference)
                continue
            counts_ok = True
            if "trace" in p:
                counts = outcome_counts(p["trace"])
                expected = seen.setdefault("counts", counts)
                if counts != expected:
                    counts_ok = False
                    problems.append(f"outcome counts {counts} != {expected}")
            for op in p["ops"]:
                attempted += 1
                reasons = []
                why = verdict_failure(op)
                if why:
                    reasons.append(why)
                if check_reference:
                    ref = reference.get(op["name"])
                    diffs = (["no reference"] if ref is None
                             else compare(ref, op["outputs"]) if op["outputs"] else [])
                    reasons += diffs[:3]
                if op["digest"] is not None:
                    if digests.setdefault(op["name"], op["digest"]) != op["digest"]:
                        reasons.append("report digest differs from an earlier pass")
                if not counts_ok:
                    reasons.append("outcome counts differ from an earlier pass")
                if reasons:
                    failed += 1
                    problems.append(f"{op['name']}: {'; '.join(reasons)}")
        ledger_path.write_text(json.dumps(ledger, indent=1))
        return attempted, failed, problems

    def environment(self, n_passes: int) -> str:
        v = self.versions
        return (f"env: rev {_git_revision(self.src.parent)} src {self.src_digest[:12]} "
                f"python {v['python']} numpy {v['numpy']} blas {v['blas']} "
                f"nproc {os.cpu_count()} OPENBLAS_NUM_THREADS={self.env['OPENBLAS_NUM_THREADS']} "
                f"workload {self.workload} seed {self.seed} passes {n_passes}")


def outcome_counts(trace: dict) -> dict:
    """Deterministic outcome counts of one traced pass."""
    counts = Counter(trace["counts"])
    calls = Counter(name for name, *_ in trace["spans"])
    return {
        "flow.torus_steps": counts["flow.torus_steps"],
        "reduced.flagged_frac": counts["reduced.flagged"] / max(counts["reduced.flag_checked"], 1),
        "entropy.mu_plus.unconverged": counts["entropy.mu_plus.unconverged"],
        "conjugate_heat.immortal_converged_frac": (
            counts["conjugate_heat.immortal.converged"]
            / max(calls["conjugate_heat.immortal"], 1)),
        "reports.bytes": counts["reports.bytes"],
        "reduced.shoot.targets": counts["reduced.shoot.targets"],
        "reduced.oracle.targets": counts["reduced.oracle.targets"],
    }


def layer_metrics(untraced: list, traced: list, op_names) -> dict:
    """Per-layer samples, one per traced pass, the own times of the
    operations ``op_names`` from the untraced passes, and the
    traced-vs-untraced comparison.  ``not_run`` names the metrics of
    layers and operations the workload never reaches."""
    samples = defaultdict(list)
    for p in traced:
        if p is None:
            continue
        spans = p["trace"]["spans"]
        own = self_times(spans)
        calls, self_s = Counter(), defaultdict(float)
        for (name, *_), o in zip(spans, own):
            calls[name] += 1
            self_s[name] += o / p["slowdown"]
        m = outcome_counts(p["trace"])
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        m["reduced.shoot.s_per_target"] = (self_s["reduced.shoot"]
                                           / max(m["reduced.shoot.targets"], 1))
        attributed = sum(o for (name, *_), o in zip(spans, own) if name != TOP_SPAN)
        interval = p["wall_raw_s"] + p["probe_s"]      # the probe's chunks land in spans
        m["trace.unattributed_frac"] = (interval - attributed) / interval
        m["trace.wall_s"] = p["wall_s"]
        for key, val in m.items():
            samples[key].append(val)
    out = dict(samples)
    idle = [layer for layer in LAYERS if samples and not any(samples[f"{layer}.calls"])]
    not_run = {key for key in out for layer in idle if key.startswith(f"{layer}.")}
    # an operation's own time, 0 in the workloads that do not contain it
    done = [p for p in untraced if p]
    for name in op_names:
        metric = (f"acceptance.{name}.wall_s" if name.startswith("crit")
                  else f"cli.run_scenario_doc.{name}.wall_s")
        out[metric] = [sum(op["elapsed"] for op in p["ops"] if op["name"] == name)
                       for p in done]
        if done and not any(op["name"] == name for op in done[0]["ops"]):
            not_run.add(metric)
    if done and samples:
        base = statistics.median(p["wall_s"] for p in done)
        out["proc.cpu_s"] = [p["cpu_s"] for p in done]
        out["proc.wall_raw_s"] = [p["wall_raw_s"] for p in done]
        out["proc.slowdown"] = [p["slowdown"] for p in done]
        out["trace.overhead_s"] = [statistics.median(samples["trace.wall_s"]) - base]
        out["trace.overhead_frac"] = [out["trace.overhead_s"][0] / base]
    return out, not_run


def _git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


if __name__ == "__main__":
    raise SystemExit(main())
