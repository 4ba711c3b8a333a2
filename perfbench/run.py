"""qcplane benchmark: seeded job workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-operator --seed 1 --seconds 30 --trace 0

One client, closed loop: the next job starts only after the previous one
returns, in this single process, with BLAS/OpenMP pinned to one thread.
``--trace 0`` runs a seeded list of at least 100 jobs twice over, sized so
that the two passes take about ``--seconds``, and prints the end-to-end
metrics, in seconds scaled to the reference speed of reference.py; ``--trace 1`` runs a fixed number of rounds untraced, then
the same rounds traced, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object.  Spans and a
record of the run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
REFERENCE_SAMPLES = 9
PASSES = 2


def _pin_threads() -> int:
    threads = min(1, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(threads: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_threads": threads, "cpu": _cpu_model(),
            "loadavg": list(os.getloadavg())}


def _workdir(args, tag: str) -> Path:
    return OUT / f"work-{args.workload}-{args.seed}-{tag}-{os.getpid()}"


def _setup_probe(args) -> int:
    """One set-up in this fresh process: import, generate, write and parse inputs.

    The reference work runs after the set-up, so that its own imports are
    part of the set-up it scales.
    """
    t0 = time.perf_counter()
    import workloads
    workdir = _workdir(args, "probe")
    try:
        prep = workloads.prepare(args.workload, args.seed, args.seconds, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import reference
    ref = reference.median_sample(REFERENCE_SAMPLES)
    print(json.dumps({"setup_s": elapsed, "reference_s": ref, "digest": prep.digest}))
    return 0


def _probe_setups(args) -> tuple[list[tuple[float, float]], set[str]]:
    """(set-up seconds, reference seconds) of each probe, and the digests."""
    times, digests = [], set()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              env=os.environ.copy(), cwd=ROOT, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((result["setup_s"], result["reference_s"]))
        digests.add(result["digest"])
    return times, digests


class Runner:
    """Executes rounds of jobs and keeps (job, seconds, exit code, report) records.

    With a reference module, the reference work is timed before the first job
    and after every job: ``reference_s[i]`` and ``reference_s[i + 1]`` bracket
    record i.
    """

    def __init__(self, workloads, prep, tracer=None, reference=None):
        self.w = workloads
        self.prep = prep
        self.tracer = tracer
        self.reference = reference
        self.records = []
        self.reference_s = []

    def run_round(self, jobs) -> None:
        if self.reference is not None and not self.reference_s:
            self.reference_s.append(self.reference.sample())
        for job in jobs:
            if self.tracer is not None:
                self.tracer.current_job = job.jid
            t0 = time.perf_counter()
            try:
                code, data = self.w.execute(self.prep, job)
                error = None
            except Exception as exc:    # a job that raises is a failed job, not a crash
                code, data, error = -1, b"", f"exception {type(exc).__name__}: {exc}"
            self.records.append((job, time.perf_counter() - t0, code, data, error))
            if self.reference is not None:
                self.reference_s.append(self.reference.sample())

    def scaled_times(self) -> list[float]:
        """Each record's seconds at reference speed: scaled by the median of the
        four reference samples nearest it, two before and two after."""
        ref, near = self.reference.REFERENCE_S, self.reference_s
        return [t * ref / statistics.median(near[max(0, i - 1):i + 3])
                for i, (_, t, *_) in enumerate(self.records)]

    def judge(self) -> tuple[int, int, list[str]]:
        """(oracle misses, unexpected misses, notes) over every record."""
        misses, unexpected, notes = 0, 0, []
        for job, _, code, data, error in self.records:
            why = error or self.w.judge(job, code, data)
            if why is None:
                continue
            misses += 1
            if error is not None or not self.w.is_known(job, why):
                unexpected += 1
                notes.append(f"{job.jid}: {why}")
        return misses, unexpected, notes


def _timed_run(prep, runner) -> float:
    """PASSES passes over the whole job list, in the same order each time.

    The runs of one job therefore lie a whole pass apart (about half of
    ``--seconds``).  Taking the better one drops most runs that a short slow
    spell of the host hit; the reference scaling corrects for the long ones.
    """
    t0 = time.perf_counter()
    for _ in range(PASSES):
        for jobs in prep.rounds:
            runner.run_round(jobs)
    return time.perf_counter() - t0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, w, prep, setup_times, record) -> dict:
    import reference
    runner = Runner(w, prep, reference=reference)
    elapsed = _timed_run(prep, runner)
    runs, raw = {}, {}
    for (job, t, *_), scaled in zip(runner.records, runner.scaled_times()):
        runs.setdefault(job.jid, []).append(scaled)
        raw.setdefault(job.jid, []).append(t)
    times = sorted(min(ts) for ts in runs.values())     # a job's time: its best run
    setup = [s * reference.REFERENCE_S / ref for s, ref in setup_times]
    n = len(times)
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(1 for t in times if t > p90)
    misses, unexpected, notes = runner.judge()
    attempted = len(runner.records)
    record.update(jobs=n, passes=PASSES, beyond_p90=beyond, elapsed_s=elapsed,
                  setup_samples=setup_times, unexpected=notes, oracle_misses=misses,
                  raw_jobs_per_s=attempted / elapsed, job_times=runs, raw_job_times=raw,
                  reference_s=runner.reference_s, job_order=list(raw),
                  raw_job_s_p50=statistics.median(min(ts) for ts in raw.values()))
    print(f"timed {n} jobs ({len(prep.rounds)} rounds) {PASSES} times in {elapsed:.2f} s; "
          f"p90 over {n} jobs, {beyond} beyond it; oracle misses {misses} of {attempted} "
          f"({misses - unexpected} known defects)")
    metrics = {
        "job_s_p50": _metric(statistics.median(times), "s"),
        "job_s_p90": _metric(p90, "s"),
        "jobs_per_s": _metric(n / sum(times), "1/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "fail_ratio": _metric(misses / attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"attempted": attempted, "failed": unexpected, "notes": notes, "metrics": metrics}


def run_traced(args, w, prep, record) -> dict:
    """Each job runs untraced, then traced, so that drift in machine speed
    affects both sides of the overhead alike."""
    import tracer as tr
    tracer = tr.Tracer()
    tracer.install()
    try:
        w.prepare(args.workload, args.seed, args.seconds, prep.workdir)
    finally:
        tracer.uninstall()
    plain, traced = Runner(w, prep), Runner(w, prep, tracer)
    for jobs in prep.rounds[:w.TRACE_ROUNDS[args.workload]]:
        for job in jobs:
            plain.run_round([job])
            tracer.install()
            try:
                traced.run_round([job])
            finally:
                tracer.uninstall()
    plain_s = sum(t for _, t, *_ in plain.records)
    traced_s = sum(t for _, t, *_ in traced.records)

    mismatched = [a[0].jid for a, b in zip(plain.records, traced.records)
                  if (a[2], a[3]) != (b[2], b[3])]
    layer = tracer.layer_metrics()
    unfired = [name for name in w.REQUIRED_SPANS[args.workload] if not layer[name][0]]
    jobs_plain = len(plain.records) / plain_s
    jobs_traced = len(traced.records) / traced_s
    print(f"self-test byte-identical reports: {'ok' if not mismatched else mismatched}")
    print(f"self-test mapped spans fired: {'ok' if not unfired else unfired}")
    print(f"tracing overhead: {jobs_plain:.3f} -> {jobs_traced:.3f} jobs/s; "
          f"{len(tracer.names)} spans; missing functions {tracer.missing or 'none'}")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.csv")

    _, unexpected_p, notes_p = plain.judge()
    _, unexpected_t, notes_t = traced.judge()
    metrics = {name: _metric(value, unit) for name, (value, unit) in layer.items()}
    metrics["trace.overhead_jobs_per_s"] = _metric(jobs_plain - jobs_traced, "1/s")
    metrics["trace.spans_unfired"] = _metric(len(unfired) + len(tracer.missing), "count")
    record.update(mismatched=mismatched, unfired=unfired, missing=tracer.missing,
                  untraced_jobs_per_s=jobs_plain, traced_jobs_per_s=jobs_traced)
    notes = notes_p + notes_t + [f"{jid}: traced report differs" for jid in mismatched]
    return {"attempted": len(plain.records) + len(traced.records),
            "failed": unexpected_p + unexpected_t + len(mismatched),
            "notes": notes, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads = _pin_threads()
    if not (SRC / "qcplane" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qcplane sources under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.setup_probe:
        return _setup_probe(args)

    import workloads as w
    if args.workload not in w.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    import qcplane
    if Path(qcplane.__file__).resolve().parent != SRC / "qcplane":
        sys.stderr.write(f"perfbench: imported qcplane from {qcplane.__file__}\n")
        return 2
    env = _environment(threads)
    setup_times, digests = ([], set()) if args.trace else _probe_setups(args)
    workdir = _workdir(args, "run")
    try:
        prep = w.prepare(args.workload, args.seed, args.seconds, workdir)
        digests.add(prep.digest)
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        print(f"workload {args.workload} seed {args.seed}: job-list digest {prep.digest}, "
              f"{sum(len(r) for r in prep.rounds)} jobs in {len(prep.rounds)} rounds")
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": env, "digest": prep.digest}
        result = (run_traced(args, w, prep, record) if args.trace
                  else run_untraced(args, w, prep, setup_times, record))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(digests) != 1:
        result["notes"].append(f"set-up probes generated different job lists: {sorted(digests)}")
        result["failed"] += 1
    for note in result["notes"]:
        print(f"UNEXPECTED {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    record.update(metrics=result["metrics"], failed=result["failed"])
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
