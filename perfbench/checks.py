"""Output checks, one per CLI call. Each returns a list of problems; empty means pass.

The checks read outputs with their own PFM parser, so a fault in the
program's reader cannot hide a fault in its writer.
"""

import hashlib
import json
import math
import os

import numpy as np

SYNTH_FRAMES = 24
SDR_TAG = {"primaries": "BT709", "transfer": "Gamma709", "peak_nits": 100.0}
PSNR_SENTINEL_DB = 99.0
PARSEVAL_RTOL = 1e-6


def read_pfm_samples(path):
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"PF":
            raise ValueError("not a 3-channel PFM")
        w, h = (int(v) for v in fh.readline().split())
        scale = float(fh.readline())
        data = np.frombuffer(fh.read(), dtype="<f4" if scale < 0 else ">f4")
    if data.size != w * h * 3:
        raise ValueError(f"{data.size} samples for a {w}x{h} frame")
    return data


def tree_digest(root):
    """SHA-256 over the sorted file names and bytes of a directory."""
    acc = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            acc.update(name.encode())
            acc.update(fh.read())
    return acc.hexdigest()


def _json(stdout):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _exit(rc):
    return [] if rc == 0 else [f"exit {rc}"]


def check_synthesize(rc, stdout, out_dir):
    """24 tagged SDR frames with sidecars, every sample finite and in [0, 1]."""
    problems = _exit(rc)
    if problems:
        return problems
    frames = sorted(f for f in os.listdir(out_dir) if f.endswith(".pfm"))
    if len(frames) != SYNTH_FRAMES:
        problems.append(f"{len(frames)} frames, expected {SYNTH_FRAMES}")
    for name in frames:
        path = os.path.join(out_dir, name)
        try:
            px = read_pfm_samples(path)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if not np.all(np.isfinite(px)):
            problems.append(f"{name}: non-finite samples")
        elif px.min() < 0.0 or px.max() > 1.0:
            problems.append(f"{name}: samples outside [0, 1]")
        try:
            with open(os.path.splitext(path)[0] + ".json") as fh:
                side = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: sidecar {exc}")
            continue
        if side.get("tag") != SDR_TAG:
            problems.append(f"{name}: tag {side.get('tag')}")
        if "degradation" not in side:
            problems.append(f"{name}: sidecar lacks degradation")
    return problems


def check_fit_expand(rc, stdout, output):
    problems = _exit(rc)
    if problems:
        return problems
    doc, problems = _json(stdout)
    if doc is not None and not math.isfinite(doc.get("final_loss", math.nan)):
        problems.append(f"final_loss {doc.get('final_loss')}")
    if not os.path.exists(output):
        problems.append("no expanded frame written")
    return problems


def check_metrics(rc, stdout, validate_report):
    """Schema-valid report with finite scores below the identical-image sentinel."""
    problems = _exit(rc)
    if problems:
        return problems
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    problems.extend(validate_report(doc))
    for key in ("psnr_pu21", "psnr_y_pu21"):
        val = doc.get(key)
        if not isinstance(val, (int, float)) or not math.isfinite(val) or val >= PSNR_SENTINEL_DB:
            problems.append(f"{key} {val}")
    val = doc.get("delta_e_itp_mean")
    if not isinstance(val, (int, float)) or not math.isfinite(val):
        problems.append(f"delta_e_itp_mean {val}")
    return problems


def check_features(rc, stdout, mean_y2):
    """Finite descriptors whose band energies sum to mean(Y^2) (Parseval)."""
    problems = _exit(rc)
    if problems:
        return problems
    doc, problems = _json(stdout)
    if doc is None:
        return problems
    values = doc["s_g"] + doc["g"] + doc["r"]
    values += [m[k] for m in doc["maps"] for k in ("min", "max", "mean")]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite descriptor")
    err = abs(sum(doc["r"]) - mean_y2) / mean_y2
    if not err <= PARSEVAL_RTOL:
        problems.append(f"Parseval error {err:.2e}")
    return problems

