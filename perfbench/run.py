"""lumaflux benchmark: three workloads that drive `lumaflux.cli.main` in-process.

Run from the repository root:

    python3 perfbench/run.py --workload synth --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py                 # synth, reconstruct and analyze, one table
    python3 perfbench/run.py --trace 1       # per-layer metrics from traced passes
    python3 perfbench/run.py --smoke         # self-test on tiny frames

Workloads (closed loop, one client; LUMAFLUX_THREADS = nproc and
OPENBLAS_NUM_THREADS = 1, so the program's frame pool is the only
parallelism):

- synth: `synthesize` on one 960x540 PQ frame, 24 SDR frames out. Bound
  by the codec proxy and by decoding the same input 24 times; the only
  workload that uses the thread pool and writes many PFMs.
- reconstruct: `fit-expand` on a 1920x1080 Reinhard CRF-23 pair, then
  `metrics` on the result. Bound by the spline fit, then by full-frame
  expand, chroma refine and metric stages.
- analyze: `features` on eight 960x540 CRF-31 SDR frames, one per tone
  operator; one pass is one `features` call, and passes cycle through the
  frames. Bound by the 3x3 convolution, the FFT and PFM reads.
  `adapter-demo` is not part of it: its gradient self-check exits 4 on
  some seeds, and every operation of a workload has to succeed.

Set-up writes the inputs and starts the pass process; it is repeated
SETUP_REPS times and setup_s is the median. Passes run for --seconds in a
separate process, so peak_rss_mb is the passes' own. With --trace 1 the
run alternates traced and untraced passes and reports per-layer metrics
only. For a single workload the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import select
import shutil
import subprocess
import sys
import time

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
READY_TIMEOUT_S = 120
PASS_TIMEOUT_S = 100  # beyond --seconds, for the pass that is running when time is up


class BenchError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def environment():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": nproc(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "LUMAFLUX_THREADS": os.environ.get("LUMAFLUX_THREADS")}


def start_worker(workload, in_dir, scratch, seconds, trace, spans):
    """Start the pass process; returns (process, seconds until it is warm)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", in_dir, "--scratch", scratch, "--seconds", str(seconds),
           "--trace", str(trace), "--spans", spans, "--src", SRC]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"pass process for {workload} did not get ready")
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.communicate()


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"pass process ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}")
    return out


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Set up SETUP_REPS times, run passes after the last; returns the raw result."""
    import inputs

    tmp = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    spans = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
    in_dir = os.path.join(tmp, "inputs")
    scratch = os.path.join(tmp, "scratch")
    shutil.rmtree(tmp, ignore_errors=True)
    setup = []
    proc = None
    try:
        for rep in range(SETUP_REPS):
            shutil.rmtree(in_dir, ignore_errors=True)
            os.makedirs(scratch, exist_ok=True)
            t0 = time.perf_counter()
            manifest = inputs.build(workload, seed, in_dir, scale)
            generate = time.perf_counter() - t0
            last = rep == SETUP_REPS - 1
            proc, ready = start_worker(workload, in_dir, scratch, seconds if last else 0,
                                       trace, spans)
            setup.append(generate + ready)
            out = finish(proc, seconds + PASS_TIMEOUT_S if last else READY_TIMEOUT_S)
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        if proc is not None:
            stop(proc)
        shutil.rmtree(tmp, ignore_errors=True)
    result.update(setup_s=setup, manifest=manifest, spans=spans if trace else None)
    return result


def summarize(workload, result, trace):
    """Samples per metric, the contract's metrics dict, and the absent layers."""
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    samples = {
        "setup_s": result["setup_s"],
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "peak_rss_mb": [result["peak_rss_mb"]],
        "fail_ratio": [p["failed"] / p["ops"] for p in passes],
    }
    for name, _, _ in catalog.TABLE_EXTRA[1:]:
        samples[name] = [p["quality"][name] for p in passes if p["quality"].get(name) is not None]
    metrics, absent = {}, {}
    if not trace:
        for name, unit, _ in catalog.END_TO_END:
            metrics[name] = {"value": catalog.median_quartiles(samples[name])[0], "unit": unit}
    else:
        for name, unit, _ in catalog.PER_LAYER:
            if name == "trace.overhead_frac":
                value = (catalog.median_quartiles([p["wall_s"] for p in traced])[0]
                         / catalog.median_quartiles(samples["wall_s"])[0] - 1.0)
            else:
                values = [catalog.layer_value(name, p["layers"], p) for p in traced]
                values = [v for v in values if v is not None]
                value = catalog.median_quartiles(values)[0] if values else 0.0
                if not values:
                    absent[name] = (f"{catalog.source_span(name)} is not called "
                                    f"by the {workload} workload")
            metrics[name] = {"value": value, "unit": unit}
    return samples, metrics, absent


def _cell(values):
    if not values:
        return "n/a"
    med, q1, q3 = catalog.median_quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def print_report(rows, trace):
    """rows: [(workload, result, samples, metrics, absent)]."""
    names = catalog.END_TO_END + catalog.TABLE_EXTRA
    print("end-to-end: median [q1, q3] n=samples" + (" (untraced passes)" if trace else ""))
    print("workload     " + " | ".join(f"{n} ({u}, {b})" for n, u, b in names))
    for workload, _, samples, _, _ in rows:
        print(f"{workload:<12} " + " | ".join(_cell(samples[n]) for n, _, _ in names))
    for workload, result, _, metrics, absent in rows:
        m = result["manifest"]
        print(f"{workload}: seed {m['seed']}, frames {m['width']}x{m['height']}, "
              f"input {m['input_bytes']} bytes, {len(result['passes'])} passes")
        if result.get("digest"):
            print(f"{workload}: output tree sha256 {result['digest']}")
        for p in result["passes"]:
            for problem in p["problems"]:
                print(f"{workload}: pass {p['pass']}: {problem}")
        if trace:
            print(f"{workload}: per-layer metrics (median over traced passes)")
            for name, unit, _ in catalog.PER_LAYER:
                note = f"  absent: {absent[name]}" if name in absent else ""
                print(f"  {name:<40} {metrics[name]['value']:>12.6g} {unit}{note}")


def run(args):
    workloads = catalog.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        rows.append((workload, result) + summarize(workload, result, args.trace))
    print("env " + json.dumps(environment(), sort_keys=True))
    print_report(rows, args.trace)
    attempted = sum(p["ops"] for r in rows for p in r[1]["passes"])
    failed = sum(p["failed"] for r in rows for p in r[1]["passes"])
    correct = failed == 0
    if len(rows) == 1:
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": rows[0][3]}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=catalog.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="measured time per workload; passes start until it is used")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="self-test on tiny frames")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lumaflux", "__init__.py")):
        print(f"lumaflux sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["LUMAFLUX_THREADS"] = str(nproc())
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.smoke:
            import smoke
            return smoke.main(run_workload, summarize)
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
