"""One benchmark pass in a fresh process: set up, run the job list, check.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It writes
``ready`` on stdout once imports, input generation and parsing of the
shipped data are done (the parent times set-up up to that line), then runs
every job once, one at a time, and writes one JSON line with the wall time,
the per-job latencies and verdicts, the peak RSS and, when traced, the
per-layer aggregates.  The host speed reference (speed.py) is sampled
right after ``ready``, after every job and every 50 ms of CPU time within
a job; each job also reports its latency in reference seconds, from the
samples before, during and after it.

``--cli-inproc`` runs one ``vcarlitz`` argv inside this process instead,
for the per-layer breakdown of cli-session.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

JOB_TIMEOUT_S = 60
CLI_BOOT = "from vcarlitz.cli import main; main()"


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def _require_checkout_package():
    import vcarlitz
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(vcarlitz.__file__).startswith(src + os.sep):
        raise SystemExit(f"vcarlitz was imported from {vcarlitz.__file__}, "
                         "not from this checkout's src/")


def cli_child(argv, traced, timeout=JOB_TIMEOUT_S):
    """Run this file as a --cli-inproc child and return its JSON result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--cli-inproc",
           json.dumps(argv)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"in-process child failed: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli_process(argv, timeout=JOB_TIMEOUT_S):
    proc = subprocess.run([sys.executable, "-c", CLI_BOOT] + list(argv),
                          capture_output=True, text=True, timeout=timeout)
    return [proc.stdout, proc.returncode]


def cli_inproc(argv, traced):
    """Import the package, run one argv in this process, report timings.

    Every module is imported before the clock starts for run_command, so
    ``run_command_s`` is the command alone and the lazy imports the CLI
    would do count towards ``import_s``.
    """
    t0 = time.perf_counter()
    for name in tracing.MODULES:
        importlib.import_module(f"{tracing.PACKAGE}.{name}")
    import_s = time.perf_counter() - t0
    _require_checkout_package()
    import vcarlitz.cli as cli
    tr = None
    if traced:
        tr = tracing.Tracer()
        tr.install()
    out, err = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    run_s = time.perf_counter() - t1
    result = {"import_s": import_s, "run_command_s": run_s,
              "output": [out.getvalue(), code]}
    if tr is not None:
        result["trace"] = tr.snapshot()
    print(json.dumps(result))


def run_pass(workload, seed, traced):
    lib = wl.Lib()
    _require_checkout_package()
    shipped = wl.load_shipped()
    for name, text in shipped.items():
        if name.startswith("decompositions/"):
            lib.relations.parse_decomposition(text)
        else:
            lib.tmodule.parse_tmodule_spec(text)
    records = wl.load_records()
    jobs = wl.generate(lib, workload, seed)
    tr = None
    if traced and workload != "cli-session":
        tr = tracing.Tracer()
        tr.install()
    print("ready", flush=True)

    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    cli_layers = {"process_s": 0.0, "run_command_s": 0.0, "import_s": 0.0,
                  "traced_run_command_s": 0.0}
    snaps = []
    before = first = speed.sample()
    t_start = time.perf_counter()
    for spec in jobs:
        note = ""
        # no samples inside traced jobs: they would land in the spans
        meter = speed.Meter(period=0 if traced else speed.PERIOD_S)
        t0 = time.perf_counter()
        try:
            if spec["kind"] == "cli":
                output = run_cli_process(spec["argv"])
            else:
                signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
                try:
                    with meter:
                        output = wl.execute(lib, spec, shipped)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0 - meter.spent
            ok, note = wl.check(spec, output, records)
        except Exception as exc:  # a failed job is counted, not fatal
            dt = time.perf_counter() - t0 - meter.spent
            ok, note = False, f"{type(exc).__name__}: {exc}"
        if traced and spec["kind"] == "cli":
            # per-layer breakdown: the same argv in-process, cold, twice
            plain = cli_child(spec["argv"], traced=False)
            deep = cli_child(spec["argv"], traced=True)
            cli_layers["process_s"] += dt
            cli_layers["run_command_s"] += plain["run_command_s"]
            cli_layers["import_s"] += plain["import_s"]
            cli_layers["traced_run_command_s"] += deep["run_command_s"]
            snaps.append(deep["trace"])
            if ok and not (plain["output"] == deep["output"] == output):
                ok, note = False, "in-process output differs from the CLI"
        after = speed.sample()
        results.append([spec["kind"], dt, ok, note,
                        speed.to_ref(dt, before + meter.samples + after)])
        before = after
    wall = time.perf_counter() - t_start
    report = {"wall_s": wall, "jobs": results, "speed": first,
              "rss_mb": _rss_mb(resource.RUSAGE_CHILDREN
                                if workload == "cli-session"
                                else resource.RUSAGE_SELF)}
    if traced:
        if tr is not None:
            snaps.append(tr.snapshot())
            report["traced_job_s"] = sum(r[4] for r in results)
        else:
            report["traced_job_s"] = cli_layers["traced_run_command_s"]
            report["untraced_job_s"] = cli_layers["run_command_s"]
        report["trace"] = tracing.merge(snaps)
        report["cli"] = cli_layers
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cli-inproc", metavar="ARGV_JSON")
    ns = ap.parse_args()
    if ns.cli_inproc is not None:
        cli_inproc(json.loads(ns.cli_inproc), ns.trace)
    elif ns.workload:
        run_pass(ns.workload, ns.seed, ns.trace)
    else:
        ap.error("give --workload or --cli-inproc")


if __name__ == "__main__":
    main()
