"""Pass runner: one process that imports lumaflux, warms up, then times passes.

run.py starts it after writing the inputs, so the peak RSS it reports
belongs to the passes and not to input generation. It prints `ready`
once import and warm-up are done, then one JSON line with every pass.
Each pass drives `lumaflux.cli.main(argv)` in-process, closed loop, one
client; the output checks run after the timed region.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def call(cli, argv):
    """One CLI call in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the pass loop must survive any program fault and count it
        rc = 1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def plan(workload, m, out_dir, session, index):
    """The CLI calls of pass `index`: [(label, argv, check(rc, stdout) -> problems)].

    An analyze pass is one `features` call; passes cycle through its frames.
    """
    import checks
    from lumaflux import metrics

    if workload == "synth":
        def synth_check(rc, stdout):
            problems = checks.check_synthesize(rc, stdout, out_dir)
            if not problems:
                digest = checks.tree_digest(out_dir)
                session.setdefault("digest", digest)
                if digest != session["digest"]:
                    problems.append(f"output digest {digest[:12]} != {session['digest'][:12]}")
            return problems
        return [("synthesize", ["synthesize", m["hdr"], "--output-dir", out_dir], synth_check)]
    if workload == "reconstruct":
        expanded = os.path.join(out_dir, "expanded.pfm")
        return [
            ("fit-expand", ["fit-expand", m["sdr"], m["hdr"], "--output", expanded],
             lambda rc, out: checks.check_fit_expand(rc, out, expanded)),
            ("metrics", ["metrics", m["hdr"], expanded],
             lambda rc, out: checks.check_metrics(rc, out, metrics.validate_report)),
        ]
    f = m["frames"][index % len(m["frames"])]
    return [(f"features {os.path.basename(f['path'])}", ["features", f["path"]],
             lambda rc, out: checks.check_features(rc, out, f["mean_y2"]))]


def warm_up(cli, workload, m, scratch):
    """Fill lazy state (imports, first-call costs, heaps), untimed."""
    warm = m["warm"]
    out = os.path.join(scratch, "warm")
    os.makedirs(out, exist_ok=True)
    if workload == "synth":
        call(cli, ["synthesize", m["hdr"], "--output-dir", out, "--config", warm["synth_config"]])
    elif workload == "reconstruct":
        expanded = os.path.join(out, "expanded.pfm")
        call(cli, ["fit-expand", warm["sdr"], warm["hdr"], "--output", expanded,
                   "--config", warm["fit_config"]])
        call(cli, ["metrics", warm["hdr"], expanded])
    else:
        call(cli, ["features", warm["sdr"]])
    shutil.rmtree(out)


def quality(label, stdout):
    """End-to-end quality numbers a reconstruct pass prints."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return {}
    if label == "fit-expand":
        return {"fit_final_loss": doc.get("final_loss")}
    if label == "metrics":
        return {"psnr_pu21_db": doc.get("psnr_pu21"), "psnr_y_pu21_db": doc.get("psnr_y_pu21"),
                "delta_e_itp": doc.get("delta_e_itp_mean")}
    return {}


def peak_rss_mb():
    # VmHWM belongs to this address space; ru_maxrss would also carry the
    # parent's resident size at fork time across the exec
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(cli, rqs, workload, m, out_dir, session, tracer, pass_id, index):
    os.makedirs(out_dir)
    ops = plan(workload, m, out_dir, session, index)
    clamps0 = rqs.clamp_counter["count"]
    gc.collect()
    if tracer is not None:
        tracer.install(pass_id)
    results = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for label, argv, _ in ops:
        results.append(call(cli, argv))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.uninstall()
    rec = {"pass": pass_id, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
           "ops": len(ops), "failed": 0, "problems": [], "quality": {},
           "clamped_inputs": rqs.clamp_counter["count"] - clamps0}
    for (label, _, check), (rc, stdout, stderr) in zip(ops, results):
        try:
            problems = check(rc, stdout)
        except Exception as exc:  # a malformed output must not stop the run
            problems = [f"check raised {exc!r}"]
        rec["quality"].update(quality(label, stdout))
        if problems:
            rec["failed"] += 1
            tail = stderr.strip().splitlines()[-1:] if stderr.strip() else []
            rec["problems"].append(f"{label}: {'; '.join(problems + tail)}")
    shutil.rmtree(out_dir)
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="directory holding manifest.json")
    ap.add_argument("--scratch", required=True, help="directory for pass outputs")
    ap.add_argument("--seconds", type=float, required=True, help="0 stops after warm-up")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--src", required=True, help="directory that holds the lumaflux package")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from lumaflux import cli, rqs

    with open(os.path.join(args.inputs, "manifest.json")) as fh:
        m = json.load(fh)
    warm_up(cli, args.workload, m, args.scratch)
    print("ready", flush=True)
    if args.seconds <= 0:
        return 0

    tracer = None
    if args.trace:
        import catalog
        import tracing
        tracer = tracing.Tracer()
    session = {}
    passes = []
    t_start = time.perf_counter()
    while True:
        k = len(passes)
        # a traced run alternates traced and untraced passes on the same
        # inputs; the untraced ones only give the base of trace.overhead_frac
        traced = tracer is not None and k % 2 == 0
        rec = run_pass(cli, rqs, args.workload, m, os.path.join(args.scratch, f"pass-{k}"),
                       session, tracer if traced else None, k, k // 2 if tracer else k)
        if traced:
            rec["layers"] = tracing.pass_layers(tracer, k, catalog.TIMED_SPANS)
        passes.append(rec)
        if time.perf_counter() - t_start >= args.seconds and (tracer is None or k >= 1):
            break
    if tracer is not None and args.spans:
        with open(args.spans, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps({"passes": passes, "peak_rss_mb": peak_rss_mb(),
                      "digest": session.get("digest")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
