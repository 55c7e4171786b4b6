"""logq benchmark: one seeded workload, end-to-end or traced per module.

    python3 bench/run.py --workload lattice_ladder --seed 1 --seconds 24 --trace 0

Runs from the root of a checkout and imports logq from its ``src/``.  The
workload is a closed loop with one client: one job at a time, no threads.
After an untimed warm-up pass, whole passes over the jobs repeat until
``--seconds`` have been measured; every output is checked against the
oracle in ``oracle.py``.  The report goes to stdout; its last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``).  The exit code is 0 only if every check passed.  Metric
definitions are in bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from time import perf_counter

import jobs as jobgen
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is timed in SETUP_PER_PASS fresh interpreters after every measured
# pass, so that its samples spread over the whole run, not one moment of it.
SETUP_PER_PASS = 2
MIN_PASSES = 4  # with 25 jobs, job_p90_ms then has at least ten samples beyond it
MAX_OVERRUN = 1.5  # stop adding passes after this many --seconds
# Neighbours on a shared host slow the vCPU by up to 2x for stretches longer
# than a run, so every timing is put at a reference speed: calibrate() reads
# the current speed at least every CAL_EVERY_S between jobs, and CAL_REF_S is
# its time in the quiet state of a 2.1 GHz Xeon VM under Python 3.11.
CAL_REF_S = 0.0055
CAL_EVERY_S = 0.2


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git": git_sha()}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (Fraction arithmetic, tuples,
    dicts; no logq): a reading of the machine's current speed."""
    t = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        key = (i, i * 3, i % 7)
        seen[key] = seen.get(key[:2], 0) + 1
    return perf_counter() - t


class Speed:
    """Calibration readings taken between jobs, to put timings at the
    reference speed: a time measured while ``calibrate()`` read ``c``
    seconds counts as ``time * CAL_REF_S / c``."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (when, seconds)

    def read(self, force: bool = False) -> int:
        """Take a reading if ``CAL_EVERY_S`` have passed (or ``force``);
        return the index of the latest reading."""
        now = perf_counter()
        if force or not self.readings or now - self.readings[-1][0] >= CAL_EVERY_S:
            self.readings.append((perf_counter(), calibrate()))
        return len(self.readings) - 1

    def scaled(self, seconds: float, before: int) -> float:
        """``seconds`` measured between readings ``before`` and ``before + 1``."""
        c = (self.readings[before][1] + self.readings[before + 1][1]) / 2
        return seconds * CAL_REF_S / c


def quantiles(values) -> tuple[float, float]:
    """(p50, p90) as statistics.quantiles gives them."""
    q = statistics.quantiles(values, n=10)
    return statistics.median(values), q[8]


# ---------------------------------------------------------------------------
# Jobs.


def library_job(job, decoded):
    """lattice_ladder / welded_sweep: quantize_lattice and qr_check."""
    from logq import indexcalc, toricmodel

    first, terms = decoded
    if terms is None:  # a Delzant polytope: build the data and its vertex terms
        data = toricmodel.delzant(first)
        terms = indexcalc.fixed_terms_delzant(first)
    else:
        data = first
    char = indexcalc.quantize_lattice(data)
    t = perf_counter()
    report = indexcalc.qr_check(data, terms)
    return (char, report), perf_counter() - t


def cli_run(argv):
    """cli.main in-process with stdout captured: (exit code, stdout)."""
    from logq import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped traceback is a failed job, not a crash
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Workload:
    """Generated jobs, written to disk where the program reads them."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.passes = 0
        self.jobs = jobgen.WORKLOADS[name](seed)
        self.cli = name == "cli_batch"
        workdir.mkdir(parents=True, exist_ok=True)
        if self.cli:
            batch = workdir / "batch"
            batch.mkdir()
            self.batch_specs = {}
            for job in self.jobs:
                text = job["config"] if isinstance(job["config"], str) else json.dumps(job["config"])
                job["path"] = str(workdir / f"{job['id']}.json")
                Path(job["path"]).write_text(text)
                (batch / f"{job['id']}.json").write_text(text)
                self.batch_specs[f"{job['id']}.json"] = job["spec"]
            self.batch = str(batch)
        else:
            self.jobs_file = workdir / "jobs.json"
            self.jobs_file.write_text(json.dumps([j["config"] for j in self.jobs]))

    def setup_seconds(self, spawns: int) -> tuple[list[float], list[float]]:
        """Fresh-interpreter set-up times, at reference speed and raw; for
        cli_batch the CLI cold start on the first sphere-family job."""
        if self.cli:
            job = next(j for j in self.jobs if j["spec"]["kind"] == "s2"
                       and oracle.expected_exit(j["spec"], j["command"])[0] == 0)
            argv = [sys.executable, "-m", "logq.cli", job["command"], "--config", job["path"]]
            env = dict(os.environ, PYTHONPATH=str(SRC))
        else:
            job = None
            argv = [sys.executable, str(ROOT / "bench" / "probe.py"), str(self.jobs_file)]
            env = None
        times, raw = [], []
        speed = Speed()
        for _ in range(spawns):
            before = speed.read(force=True)
            t = perf_counter()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=60)
            raw.append(perf_counter() - t)
            speed.read(force=True)
            times.append(speed.scaled(raw[-1], before))
            if job is not None:
                problems = oracle.check_cli(job["spec"], job["command"], job["config"],
                                            proc.returncode, proc.stdout)
            else:
                ok = proc.returncode == 0 and proc.stdout.strip() == str(len(self.jobs))
                problems = [] if ok else [f"set-up probe failed: {proc.stderr[-300:]}"]
            if problems:
                raise RuntimeError("set-up: " + "; ".join(problems))
        return times, raw

    def decode(self) -> None:
        if not self.cli:
            from probe import decode

            for job in self.jobs:
                job["decoded"] = decode(job["config"])

    def run_pass(self, run_job, tally):
        """One pass, in a fresh seeded job order so that no job always runs
        at the same point of a pass.  Returns seconds per job in job order
        (then the batch run for cli_batch), at reference speed and raw, and
        the reference-speed qr_check seconds per library job."""
        self.passes += 1
        order = list(range(len(self.jobs)))
        random.Random(f"{self.name}:{self.seed}:{self.passes}").shuffle(order)
        n = len(self.jobs) + self.cli
        raw, qr_raw, marks = [0.0] * n, [0.0] * len(self.jobs), [0] * n
        speed = Speed()
        for i in order:
            job = self.jobs[i]
            marks[i] = speed.read()
            if self.cli:
                argv = [job["command"], "--config", job["path"]]
                t = perf_counter()
                code, out = run_job(job["id"], lambda: cli_run(argv))
                raw[i] = perf_counter() - t
                problems = oracle.check_cli(job["spec"], job["command"], job["config"], code, out)
            else:
                t = perf_counter()
                (char, report), qr_raw[i] = run_job(
                    job["id"], lambda: library_job(job, job["decoded"]))
                raw[i] = perf_counter() - t
                problems = oracle.check_library(job["spec"], char, report)
                del char, report
            tally(job["id"], problems)
        if self.cli:
            argv = ["qr-check", "--batch", self.batch]
            marks[-1] = speed.read()
            t = perf_counter()
            code, out = run_job("batch", lambda: cli_run(argv))
            raw[-1] = perf_counter() - t
            tally("batch", oracle.check_batch(self.batch_specs, code, out))
        speed.read(force=True)
        times = [speed.scaled(t, m) for t, m in zip(raw, marks)]
        qr_times = [speed.scaled(t, m) for t, m in zip(qr_raw, marks)]
        return times, raw, qr_times


def toric_data(config):
    """The logq data of a toric, delzant or s2_family job config."""
    from logq import toricmodel
    from logq.jsonio import decode_int
    from logq.polyhedra import Polyhedron

    payload = config["payload"]
    if config["kind"] == "s2_family":
        return toricmodel.s2_family(decode_int(payload["n1"]), decode_int(payload["n2"]))[0]
    if config["kind"] == "delzant":
        return toricmodel.delzant(Polyhedron.from_jsonable(payload))
    return toricmodel.ToricLogData.from_jsonable(payload)


def profile(jobs) -> dict:
    """Input shares and ranges that later changes cite.  Hyperplane counts
    and box volumes come from logq's own facet arrangement and vertex box,
    the box that lattice counting scans."""
    from logq import indexcalc, polyhedra

    bounded = unbounded = bad = 0
    hps, vols = [], []
    for job in jobs:
        spec = job["spec"]
        kind = spec["kind"] if spec["kind"] != "bad" else spec["variant"]
        if kind in ("polytope", "not_delzant", "empty", "box_cap"):
            bounded += 1
        elif kind in ("s2", "welded", "unbounded", "not_proper", "odd_cycle", "infinite"):
            unbounded += 1
        if "command" in job and oracle.expected_exit(spec, job["command"])[0] != 0:
            bad += 1
        if spec["kind"] in ("polytope", "welded", "s2"):
            rows = indexcalc._facet_hyperplanes(toric_data(job["config"]))
            box = polyhedra.arrangement_vertex_box(rows)
            hps.append(len(rows))
            vols.append(prod(hi - lo + 1 for lo, hi in box) if box else 0)
    keys = [(job.get("command"), json.dumps(job["config"], sort_keys=True)) for job in jobs]
    n = len(jobs)
    return {"jobs": n, "share_bounded": bounded / n, "share_unbounded": unbounded / n,
            "share_bad": bad / n, "share_repeated": 1 - len(set(keys)) / n,
            "hyperplanes": [min(hps), max(hps)], "box_volume": [min(vols), max(vols)]}


# ---------------------------------------------------------------------------


def measure(w: Workload, seconds: float, run_job, tally, between=None):
    """Repeat passes for ``seconds`` and at least ``MIN_PASSES``, calling
    ``between()`` after each pass outside the measured time.  Returns
    per-pass lists of job seconds (reference speed, raw) and qr_check seconds."""
    passes, raw_passes, qr = [], [], []
    elapsed = 0.0
    while True:
        start = perf_counter()
        times, raw, qr_times = w.run_pass(run_job, tally)
        elapsed += perf_counter() - start
        passes.append(times)
        raw_passes.append(raw)
        qr.append(qr_times)
        if between is not None:
            between()
        if elapsed >= seconds and (len(passes) >= MIN_PASSES
                                   or elapsed >= MAX_OVERRUN * seconds):
            return passes, raw_passes, qr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(jobgen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "logq" / "__init__.py").is_file():
        print(f"bench: no logq sources at {SRC}; run from a logq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import logq

    if Path(logq.__file__).resolve().parent != (SRC / "logq").resolve():
        print(f"bench: imported logq from {logq.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and the set-up interpreters it starts, so that
    # a calibration reading measures the CPU the timed work then runs on: the
    # vCPUs of a shared host are slowed independently of each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return run(args, Workload(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, w: Workload) -> int:
    info = machine()
    prof = profile(w.jobs)
    print(f"# logq benchmark: workload={w.name} seed={w.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine: nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
          f"git={info['git']}")
    print("# profile: " + " ".join(
        f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}" for k, v in prof.items()))

    failures: dict[str, list[str]] = {}
    counts = {"attempted": 0, "failed": 0}

    def tally(job_id, problems):
        counts["attempted"] += 1
        if problems:
            counts["failed"] += 1
            failures.setdefault(job_id, problems)

    w.decode()

    def plain(job_id, fn):
        return fn()

    w.run_pass(plain, tally)  # warm-up
    metrics = {}
    if args.trace:
        from spans import Tracer, install, summarize

        untraced, _, _ = measure(w, args.seconds / 2, plain, tally)
        tracer = Tracer()
        install(tracer)
        try:
            traced, _, _ = measure(w, args.seconds / 2, tracer.run_job, tally)
        finally:
            tracer.uninstall()
        passes = len(traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   summarize(tracer.spans, passes).items()}
        traced_s = statistics.median(sum(p) for p in traced)
        untraced_s = statistics.median(sum(p) for p in untraced)
        overhead = traced_s / untraced_s
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{w.name}-s{w.seed}.tsv"
        tracer.write(spans_path)
        print(f"# traced passes={passes} untraced passes={len(untraced)} "
              f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(f"# tracing overhead: {traced_s - untraced_s:+.4f} s per pass, ratio "
              f"{overhead:.4f} (wall_s traced {traced_s:.4f} s, untraced {untraced_s:.4f} s)")
        ranked = sorted((m for m in metrics if m.endswith(".self_ms")),
                        key=lambda m: -metrics[m]["value"])
        for m in ranked:
            if metrics[m]["value"] > 0:
                print(f"{m:<44} {metrics[m]['value']:>12.3f} ms")
        for m, v in metrics.items():
            if not m.endswith(".self_ms"):
                print(f"{m:<44} {v['value']:>12.4f} {v['unit']}")
    else:
        setup, raw_setup = [], []

        def time_setup():
            times, raw = w.setup_seconds(SETUP_PER_PASS)
            setup.extend(times)
            raw_setup.extend(raw)

        passes, raw_passes, qr = measure(w, args.seconds, plain, tally, time_setup)
        samples = [t for p in passes for t in p[:len(w.jobs)]]
        p50, p90 = quantiles(samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(sum(p) for p in passes), "unit": "s"},
            "job_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"# passes={len(passes)} job samples={len(samples)} "
              f"(beyond p90: {sum(t > p90 for t in samples)}) setup spawns={len(setup)}")
        print("# pass wall_s at reference speed: " + " ".join(f"{sum(p):.3f}" for p in passes))
        print("# pass wall_s raw:                " + " ".join(f"{sum(p):.3f}" for p in raw_passes))
        print(f"# raw medians: wall_s {statistics.median(sum(p) for p in raw_passes):.4f} s, "
              f"setup_s {statistics.median(raw_setup):.4f} s")
        for m, v in metrics.items():
            print(f"{m:<12} {v['value']:>12.4f} {v['unit']}")
        if w.name == "lattice_ladder":
            for tag, label, ref in (("square60", "60x60 square", "359 ms"),
                                    ("cube15", "15-cube", "1.01 s")):
                i = next(i for i, j in enumerate(w.jobs) if j["id"].endswith(tag))
                t = statistics.median(p[i] for p in qr)
                print(f"# baseline: qr_check on the {label}: {t * 1e3:.1f} ms (ROADMAP: {ref})")
        if w.cli:
            print(f"# baseline: one CLI job, cold start: {metrics['setup_s']['value']:.3f} s "
                  f"(ROADMAP: 0.20 s)")

    # error_rate counts distinct jobs: a job fails if any of its runs failed.
    distinct = len(w.jobs) + w.cli
    job_failures = len(failures)
    defect_failures = 0
    if w.cli:
        for job in jobgen.known_defects():
            path = w.workdir / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"]))
            code, out = cli_run([job["command"], "--config", str(path)])
            problems = oracle.check_cli(job["spec"], job["command"], job["config"], code, out)
            defect_failures += bool(problems)
            status = "FAILS: " + "; ".join(problems) if problems else "passes"
            print(f"# known defect {job['id']} ({job['why']}): {status}")
    attempted = distinct + (len(jobgen.known_defects()) if w.cli else 0)
    print(f"error_rate   {(job_failures + defect_failures) / attempted:>12.4f} ratio "
          f"({job_failures} of {distinct} workload jobs, {defect_failures} known-defect repros)")
    for job_id, problems in sorted(failures.items()):
        print(f"# FAILED {job_id}: {'; '.join(problems[:3])}")
    print(json.dumps({"correct": counts["failed"] == 0, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if counts["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
