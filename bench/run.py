"""vcarlitz benchmark driver.

    python3 bench/run.py --workload diffsys-verify --seed 1 --seconds 30 \
        --trace 0

Runs one workload as a closed loop with a single client: fresh worker
processes (bench/worker.py), one after another, each running the seeded
job list once with empty caches, until about ``--seconds`` have passed
and at least four passes are done.  Every job's output is checked.  It
prints a report and, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one extra traced
pass with ``--trace 1``.

Other modes:
    --workload all            every workload in turn, one report each
    --steadiness K            K runs with seeds seed..seed+K-1 in fresh
                              processes; median, quartiles and max/min of
                              every metric

Must be started from the root of a checkout holding ``src/vcarlitz``; the
package is used from there, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 4
RUN_BUDGET_S = 170.0       # a run never outlives this, traced pass included
TAIL_BEYOND = 10
TAIL_SLICES = 4

END_TO_END = (("wall_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
              ("ops_ok_ratio", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

CLI_LAYERS = ("cli.process_s", "cli.run_command.s", "cli.startup_s",
              "cli.import_s")

# per-layer metric -> workloads whose end-to-end metrics it should move
# (the arrows of bench/README.md); on these it must be nonzero
ARROWS = {}
for _name in ("local.mul.calls", "local.mul.self_s",
              "local.mul.digit_products", "local.add.calls", "local.add.self_s", "local.qpow.calls",
              "local.qpow.s", "local.embed.self_s"):
    ARROWS[_name] = ("diffsys-verify", "certify-transport")
for _name in ("local.inv.calls", "local.inv.self_s"):
    ARROWS[_name] = ("certify-transport",)
for _name in ("tseries.mul.calls", "tseries.mul.s", "tseries.mul.self_s",
              "tseries.mul.coeff_products", "tseries.twist.calls",
              "tseries.twist.s", "tseries.add.self_s",
              "diffsys.verify_difference.s",
              "diffsys.verify_difference.self_s",
              "diffsys.psi.s", "diffsys.tp_apply.s",
              "polylog.deformation_build.s", "polylog.omega_product.s",
              "polylog.deformation_build.tseries_muls"):
    ARROWS[_name] = ("diffsys-verify",)
for _name in ("algebra.ratk.calls", "algebra.ratk.self_s",
              "algebra.polya_mul.calls", "linalg.s",
              "polylog.cmpl_eval.s", "polylog.cmspl_eval.s",
              "polylog.mzv_inf.s", "polylog.power_sum_inf.s",
              "polylog.deformation_specialize.s",
              "polylog.chain_sum.local_muls", "polylog.mzv_inf.local_muls",
              "diffsys.vabp_certify.s", "diffsys.mpl_certificate.s",
              "diffsys.certify.algebra_calls",
              "tmodule.log_at_point.s", "tmodule.extended_cmspl_v.s",
              "tmodule.validate_tmodule.s", "tmodule.residue_annihilator.s",
              "tmodule.log_at_point.local_muls"):
    ARROWS[_name] = ("certify-transport",)
for _name in ("relations.verify_decomposition_inf.s", "relations.eval_vmzv.s",
              "relations.find_k_relations.s"):
    ARROWS[_name] = ("certify-transport", "cli-session")
for _name in ("abp.s",) + CLI_LAYERS:
    ARROWS[_name] = ("cli-session",)
ARROWS["trace.overhead_ratio"] = WORKLOADS


def layer_unit(name):
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.

    The host's CPUs run at different and changing speeds; on one CPU the
    speed samples of a worker are taken where its jobs, and the CLI
    processes it starts, run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_pass(workload, seed, traced, deadline):
    """One fresh worker process; returns its report plus set-up time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"worker for {workload} failed during set-up")
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the run budget") from exc
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = setup
    return report


def tail(values, beyond=TAIL_BEYOND):
    """Value at the highest percentile with >= `beyond` samples above it.

    Returns (value, percentile, sample count).  With too few samples the
    maximum is returned at percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n


def slice_points(xs, k=TAIL_SLICES):
    """The midpoints of k equal slices of the distribution of xs."""
    cuts = statistics.quantiles(xs, n=2 * k, method="inclusive")
    return cuts[::2]


def end_to_end(passes):
    """End-to-end values of a run from its untraced passes.

    Every pass runs the same job list cold, so job j of one pass repeats
    job j of the others.  Latencies are in reference seconds (speed.py),
    which takes the host's speed phases out.  A job's latency is its
    median over the passes.  The tail needs more samples than there are
    jobs: each job gives TAIL_SLICES of them, the midpoints of as many
    equal slices of its latency distribution over the passes, so the
    number of samples, and the percentile, do not depend on how many
    passes fitted in the run.
    """
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for job in p["jobs"] if not job[2])
    jobs = range(len(passes[0]["jobs"]))
    per_job = [statistics.median(p["jobs"][j][4] for p in passes)
               for j in jobs]
    t, pct, n = tail([x for j in jobs for x in slice_points(
        [p["jobs"][j][4] for p in passes])])
    values = {
        "wall_s": sum(per_job),
        "job_s.p50": statistics.median(per_job),
        "job_s.tail": t,
        "ops_ok_ratio": 1.0 - failed / attempted,
        "setup_s": statistics.median(speed.to_ref(p["setup_s"], p["speed"])
                                     for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    kernel = statistics.median(x for p in passes for x in p["speed"])
    info = {"passes": len(passes), "jobs": attempted, "failed": failed,
            "list": len(per_job), "tail_pct": pct, "tail_n": n,
            "raw_wall_s": statistics.median(sum(job[1] for job in p["jobs"])
                                            for p in passes),
            "raw_setup_s": statistics.median(p["setup_s"] for p in passes),
            "slowdown": kernel / speed.REF_S}
    return values, info


def per_layer(passes, traced):
    values = tracing.layer_metrics(traced["trace"])
    cli = traced["cli"]
    values["cli.process_s"] = cli["process_s"]
    values["cli.run_command.s"] = cli["run_command_s"]
    values["cli.startup_s"] = cli["process_s"] - cli["run_command_s"]
    values["cli.import_s"] = cli["import_s"]
    plain = traced.get("untraced_job_s")
    if plain is None:
        plain = statistics.median(sum(j[4] for j in p["jobs"])
                                  for p in passes)
    values["trace.overhead_ratio"] = traced["traced_job_s"] / plain
    return values


def run_workload(workload, seed, seconds, trace):
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes = []
    last = 0.0
    # start another pass while it would end less than half a pass late
    while (len(passes) < MIN_PASSES
           or time.monotonic() - start + last / 2 < seconds):
        t0 = time.monotonic()
        passes.append(run_pass(workload, seed, False, deadline))
        last = time.monotonic() - t0
    values, info = end_to_end(passes)
    traced = None
    if trace:
        traced = run_pass(workload, seed, True, deadline)
        info["failed"] += sum(1 for j in traced["jobs"] if not j[2])
        info["jobs"] += len(traced["jobs"])
        values = per_layer(passes, traced)
    failures = sorted({j[3] for p in passes + [traced or {"jobs": []}]
                       for j in p["jobs"] if not j[2]})
    return values, info, failures


def print_report(workload, seed, values, info, failures, trace):
    print(f"workload {workload}  seed {seed}  passes {info['passes']}  "
          f"jobs {info['jobs']}  failed {info['failed']}")
    if trace:
        for name in sorted(values):
            mark = ""
            if workload in ARROWS.get(name, ()) and not values[name]:
                mark = "   <- zero on a workload it should move"
            print(f"  {name:40s} {values[name]:14.6g} "
                  f"{layer_unit(name)}{mark}")
    else:
        units = dict(END_TO_END)
        ref = "reference s"
        notes = {
            "wall_s": f"{ref}; sum over {info['list']} jobs of each job's "
                      f"median of {info['passes']} passes; wall "
                      f"{info['raw_wall_s']:.4g} s per pass",
            "job_s.p50": f"{ref}; n={info['list']} per-job medians",
            "job_s.tail": f"{ref}; p{info['tail_pct']:.1f}, "
                          f"n={info['tail_n']}, {TAIL_SLICES} slice "
                          f"midpoints per job, {TAIL_BEYOND} beyond",
            "ops_ok_ratio": "ops_failed_ratio="
                            f"{info['failed'] / info['jobs']:.4g} "
                            f"({info['failed']}/{info['jobs']})",
            "setup_s": f"{ref}; median of {info['passes']} launches; wall "
                       f"{info['raw_setup_s']:.4g} s",
            "peak_rss_mb": ("max over CLI child processes"
                            if workload == "cli-session"
                            else "max over passes"),
        }
        print(f"  host slowdown {info['slowdown']:.4g} (speed kernel "
              f"median / {speed.REF_S * 1000:g} ms)")
        for name, _unit in END_TO_END:
            print(f"  {name:14s} {values[name]:12.6g} {units[name]:5s}  "
                  f"({notes[name]})")
    for note in failures:
        print(f"  failure: {note}")


def result_json(values, info, trace):
    units = {name: layer_unit(name) for name in values} if trace \
        else dict(END_TO_END)
    return {"correct": info["failed"] == 0, "attempted": info["jobs"],
            "failed": info["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in values}}


def steadiness(workloads, seed, k, seconds, trace):
    for workload in workloads:
        samples = {}
        for i in range(k):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(seed + i), "--seconds",
                   str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=RUN_BUDGET_S + 30)
            if proc.returncode != 0:
                raise BenchError(f"{workload} seed {seed + i} failed:\n"
                                 + proc.stderr[-2000:])
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"  seed {seed + i}: " + " ".join(
                f"{name}={m['value']:.6g}"
                for name, m in res["metrics"].items()), flush=True)
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
        print(f"steadiness {workload}: {k} runs, seeds {seed}..{seed + k - 1}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'max/min':>8s}")
        for name, xs in samples.items():
            med = statistics.median(xs)
            q1, _q2, q3 = (statistics.quantiles(xs, n=4) if len(xs) > 1
                           else (xs[0], xs[0], xs[0]))
            spread = (q3 - q1) / med if med else 0.0
            ratio = max(xs) / min(xs) if min(xs) > 0 else float("inf")
            print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {ratio:8.4f}")


def main():
    ap = argparse.ArgumentParser(description="vcarlitz benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K", default=0)
    ns = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "vcarlitz",
                                       "__init__.py")):
        print(f"error: no src/vcarlitz under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if ns.workload == "all" else (ns.workload,)
    pin_to_one_cpu()
    try:
        if ns.steadiness:
            steadiness(workloads, ns.seed, ns.steadiness, ns.seconds,
                       ns.trace)
            return 0
        for workload in workloads:
            values, info, failures = run_workload(workload, ns.seed,
                                                  ns.seconds, ns.trace)
            print_report(workload, ns.seed, values, info, failures, ns.trace)
            print(json.dumps(result_json(values, info, ns.trace)), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
