"""Self-test of the benchmark on tiny frames (`python3 perfbench/run.py --smoke`).

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that no span's self time exceeds its own or its parent's
duration and that children lie inside their parent, and that each output
check rejects an injected fault: a NaN sample, a missing frame and a
report at the 99 dB identical-image sentinel.
"""

import json
import math
import os
import shutil

import catalog
import checks
import inputs
import tracing
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EPS = 1e-9


def check_emitted(workload, trace, metrics, declared):
    problems = []
    if set(metrics) != {d["name"] for d in declared}:
        problems.append(f"emitted {sorted(set(metrics) ^ {d['name'] for d in declared})} "
                        "differ from BENCHMARK.json")
    for d in declared:
        got = metrics.get(d["name"])
        if got is None or got["unit"] != d["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{d['name']}: emitted {got}, declared unit {d['unit']}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def check_spans(workload, path):
    """Children inside their parent, self time within [0, own and parent duration]."""
    with open(path) as fh:
        rows = json.load(fh)
    spans = []
    for name, start, end, parent, pass_id, thread, _ in rows:
        s = tracing.Span(name, start, spans[parent] if parent >= 0 else None, pass_id, thread)
        s.end = end
        spans.append(s)
    own = tracing.self_times(spans, catalog.TIMED_SPANS)
    problems = []
    for s in spans:
        dur = s.end - s.start
        if s.name in catalog.TIMED_SPANS and not -EPS <= own[id(s)] <= dur + EPS:
            problems.append(f"{s.name}: self {own[id(s)]:.3g} s outside [0, {dur:.3g}]")
        p = s.parent
        if p is None:
            continue
        if s.start < p.start - EPS or s.end > p.end + EPS:
            problems.append(f"{s.name} runs outside its parent {p.name}")
        if own.get(id(s), 0.0) > p.end - p.start + EPS:
            problems.append(f"{s.name}: self time exceeds parent {p.name}")
    if workload == "synth":
        degrades = [s for s in spans if s.name == "tonemap.degrade"]
        if not degrades or any(s.parent is None or s.parent.name != "cli.synthesize"
                               for s in degrades):
            problems.append("pool-thread degrade spans are not children of cli.synthesize")
    return [f"{workload} spans: {p}" for p in problems[:5]]


def check_faults(scratch):
    """Each output check must reject an output with an injected fault."""
    from lumaflux import cli, metrics

    m = inputs.build("synth", 0, os.path.join(scratch, "in"), "smoke")
    good = os.path.join(scratch, "good")
    rc, out, _ = worker.call(cli, ["synthesize", m["hdr"], "--output-dir", good])
    problems = [f"clean synthesize output rejected: {p}"
                for p in checks.check_synthesize(rc, out, good)]

    nan_dir = os.path.join(scratch, "nan")
    shutil.copytree(good, nan_dir)
    victim = os.path.join(nan_dir, sorted(f for f in os.listdir(nan_dir) if f.endswith(".pfm"))[0])
    with open(victim, "r+b") as fh:
        header = b"".join(fh.readline() for _ in range(3))
        fh.seek(len(header))
        fh.write(b"\x00\x00\xc0\x7f")  # little-endian float32 NaN
    if not checks.check_synthesize(rc, out, nan_dir):
        problems.append("NaN sample in an output frame not detected")

    missing = os.path.join(scratch, "missing")
    shutil.copytree(good, missing)
    os.remove(os.path.join(missing, sorted(f for f in os.listdir(missing)
                                           if f.endswith(".pfm"))[-1]))
    if not checks.check_synthesize(rc, out, missing):
        problems.append("missing output frame not detected")

    rc, out, _ = worker.call(cli, ["metrics", m["hdr"], m["hdr"]])
    if json.loads(out).get("psnr_pu21") != checks.PSNR_SENTINEL_DB:
        problems.append("identical images did not score the 99 dB sentinel")
    if not checks.check_metrics(rc, out, metrics.validate_report):
        problems.append("report at the 99 dB sentinel not detected")
    return problems


def main(run_workload, summarize):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 0, 1e-3, trace, scale="smoke")
            _, metrics, _ = summarize(workload, result, trace)
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            problems += check_emitted(workload, trace, metrics, declared)
            problems += [f"{workload}: {p}" for r in result["passes"] for p in r["problems"]]
            if trace:
                problems += check_spans(workload, result["spans"])
        print(f"smoke: {workload} done", flush=True)
    scratch = os.path.join(ROOT, ".perfbench", f"smoke-{os.getpid()}")
    try:
        problems += check_faults(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0
