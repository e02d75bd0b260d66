"""Benchmark of belltol: one workload per run, in a single process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; belltol is imported from ./src.
Set-up (imports, input generation from the seed, warm-up) is timed, then
whole passes over the workload's fixed job list repeat: as many as bring
the nominal length of a pass (job and calibration time at reference speed)
nearest to S seconds. Calibration units after each job give the machine's
speed around it (see calibrate.py), and the end-to-end times are divided by
it. Outputs are checked against independent computations after the timed
passes. The last line of stdout is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones.
With --trace 1, untraced and traced passes alternate until both together
have measured S seconds; the traced passes give the per-layer metrics, and
every span goes to a trace file in .bench_out/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, set before numpy loads, keeps timings independent of the
# core count and of how threads are scheduled beside other work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "top_rung_s": "s", "peak_rss_mb": "MB"}


def _import_belltol():
    if not os.path.isfile(os.path.join(SRC, "belltol", "__init__.py")):
        sys.exit(f"bench: no belltol sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import belltol

    if not os.path.abspath(belltol.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported belltol from {belltol.__file__}, not from {SRC}")


def run_pass(plan, tracer=None, calibration=None) -> dict:
    """One pass over plan.jobs; with a tracer, also its per-layer metrics.
    With a calibration, its units follow every job, untimed as job time."""
    outputs = {}
    job_times = []
    spans = []
    tops = []  # indices of the top-rung jobs that did not fail
    failed = 0
    errors = []
    if tracer is not None:
        tracer.reset()
    for i, job in enumerate(plan.jobs):
        if tracer is not None:
            tracer.job = i
            tracer.active = True
        start = time.perf_counter()
        try:
            result = job.call()
            ok = True
        except Exception as exc:  # a failing job is counted, and the run goes on
            ok = False
            print(f"bench: job failed: {job.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            # only the known faults may fail, and only with their own error
            expected = plan.known_faults.get(job.name)
            if expected is None or not isinstance(exc, expected):
                errors.append(f"{job.name}: unexpected {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        job_times.append(end - start)
        spans.append((start, end))
        if calibration is not None:
            calibration.follow(end - start)
        if ok and job.name in plan.top_rungs:
            tops.append(i)
        if ok:
            outputs[job.name] = job.digest(result)
            del result
        else:
            failed += 1
    return {"wall": sum(job_times), "job_times": job_times, "spans": spans, "tops": tops,
            "attempted": len(plan.jobs), "failed": failed, "errors": errors,
            "outputs": outputs,
            "layers": tracer.layer_metrics() if tracer is not None else None}


def measured(passes) -> float:
    return sum(p["wall"] for p in passes)


def end_to_end(passes, times, setup_s) -> dict:
    """The end-to-end times from per-pass job times (raw or calibrated)."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(ts) for ts in times),
        "job_p50_s": statistics.median(t for ts in times for t in ts),
        # a failed top rung is an error of the run; 0 then marks the missing time
        "top_rung_s": statistics.median(
            [ts[i] for p, ts in zip(passes, times) for i in p["tops"]] or [0.0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_belltol()
    import calibrate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    imports_s = time.perf_counter() - _T0

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = workloads.WORKLOADS[args.workload](args.seed)
        plan.warmup()
        setup_times.append(time.perf_counter() - start)

    plain, traced = [], []
    if args.trace:
        # untraced and traced passes alternate, so each difference is taken
        # between neighbours in time and the machine's drift cancels
        tracer = tracing.Tracer()
        while not traced or measured(plain) + measured(traced) < args.seconds:
            plain.append(run_pass(plan))
            tracer.install()
            traced.append(run_pass(plan, tracer))
            tracer.uninstall()
    else:
        # the number of passes is fixed by the workload's nominal pass length,
        # so it follows neither the machine nor the seed
        calibration = calibrate.Calibration()
        for _ in range(max(1, round(args.seconds / plan.pass_s))):
            plain.append(run_pass(plan, calibration=calibration))
    passes = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks run after the timed passes and the memory reading, so neither
    # their time nor scipy's memory is measured
    errors = [e for p in passes for e in p["errors"] + plan.check(p["outputs"])]
    for e in errors:
        print(f"bench: check failed: {e}", file=sys.stderr)

    if args.trace:
        layers = [p["layers"] for p in traced]
        metrics = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(
            t["wall"] - u["wall"] for u, t in zip(plain, traced))
        units = {key: _layer_unit(key) for key in metrics}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "jobs": [job.name for job in plan.jobs],
                       "untraced_pass_s": [p["wall"] for p in plain],
                       "traced_pass_s": [p["wall"] for p in traced],
                       "per_pass": layers, **tracer.dump()}, fh)
        print(f"bench: trace written to {path}", file=sys.stderr)
    else:
        setup_s = imports_s + statistics.median(setup_times)
        raw = end_to_end(plain, [p["job_times"] for p in plain], setup_s)
        print(f"bench: {len(plain)} passes, {len(calibration.units)} calibration units; "
              f"uncalibrated: {json.dumps(raw)}", file=sys.stderr)
        # each job divided by the machine's speed around it, set-up by the
        # run's mean speed
        calibrated = [[t / calibration.factor(a, b) for t, (a, b) in zip(p["job_times"], p["spans"])]
                      for p in plain]
        metrics = end_to_end(plain, calibrated, setup_s / calibration.factor())
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS

    result = {
        "correct": not errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_mb"):
        return "MB"
    if key.endswith("_bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
