"""Seeded inputs for the benchmark workloads.

Every frame comes from `synthetic_hdr`, the radial test frame of the
acceptance suite extended to any extent. The workload seed moves the
highlight centre and the chroma ripples, and places a saturated BT.2020
green patch that lies outside BT.709, so the gamut clamp in
`colorimetry.convert_gamut` has real work. SDR inputs are made with the
public `tonemap.degrade` and written with `pfm.write_tagged`, as a user
of the library would make them.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (height, width) per workload; "smoke" keeps the same code paths on tiny frames
SIZES = {
    "full": {"synth": (540, 960), "reconstruct": (1080, 1920), "analyze": (540, 960)},
    "smoke": {"synth": (40, 64), "reconstruct": (48, 64), "analyze": (40, 64)},
}
WARM_SIZE = (32, 48)
ANALYZE_CRF = 31
RECONSTRUCT_CRF = 23


def synthetic_hdr(height, width, seed, peak=1000.0):
    """PQ/BT.2020 frame: radial highlight, chroma ripples, one out-of-BT.709 patch."""
    from lumaflux import colorimetry as cm

    rng = np.random.default_rng(seed)
    cy, cx = 0.5 + rng.uniform(-0.08, 0.08, 2)
    fx, fy = 6.0 + rng.uniform(-1.0, 1.0), 5.0 + rng.uniform(-1.0, 1.0)
    px, py = rng.uniform(0.0, 2.0 * np.pi, 2)
    yy, xx = np.mgrid[0:height, 0:width]
    yy = yy / height
    xx = xx / width
    base = 0.05 + 0.95 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) * 4)
    rgb = np.stack([base * (0.6 + 0.4 * np.sin(fx * xx + px)), base,
                    base * (0.6 + 0.4 * np.cos(fy * yy + py))], axis=-1)
    nits = np.clip(rgb, 1e-4, 1.0) * peak
    ph, pw = max(2, height // 8), max(2, width // 8)
    y0 = int(rng.integers(0, height - ph))
    x0 = int(rng.integers(0, width - pw))
    # near the BT.2020 green primary: negative R and B once converted to BT.709
    nits[y0:y0 + ph, x0:x0 + pw] = np.array([0.01, 0.6, 0.01]) * peak
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(cm.pq_encode(nits), tag)


def _degrade_to(path, hdr, tmo_doc, crf, seed):
    from lumaflux import pfm
    from lumaflux import tonemap as tm

    spec = tm.DegradationSpec(tmo=tm.ToneOperator.from_json(tmo_doc), crf=crf, seed=seed)
    pfm.write_tagged(path, tm.degrade(hdr, spec), seed=seed, extra={"degradation": spec.to_json()})


def _mean_y2(path):
    # Parseval target for `features`: the band energies must sum to mean(Y^2)
    # of the luminance the program derives from the frame as stored on disk
    from lumaflux import colorimetry as cm
    from lumaflux import features as ft
    from lumaflux import pfm

    y = cm.luma2020(ft.linearize_sdr(pfm.read_tagged(path)))
    return float(np.mean(y * y))


def _write_warm(root, seed):
    """Tiny frames and short configs that touch every code path once."""
    from lumaflux import cli
    from lumaflux import pfm

    os.makedirs(root, exist_ok=True)
    hdr = synthetic_hdr(*WARM_SIZE, seed)
    hdr_path = os.path.join(root, "hdr.pfm")
    sdr_path = os.path.join(root, "sdr.pfm")
    pfm.write_tagged(hdr_path, hdr, seed=seed)
    _degrade_to(sdr_path, hdr, cli.DEFAULT_CONFIG["tmos"][0], ANALYZE_CRF, seed)
    fit_config = os.path.join(root, "fit.json")
    with open(fit_config, "w") as fh:
        json.dump({"fit_iterations": 10}, fh)
    # one full-size frame per pool thread: the threads' heaps grow on their
    # first full-size frame, which otherwise lands in the first timed pass
    synth_config = os.path.join(root, "synth.json")
    with open(synth_config, "w") as fh:
        json.dump({"tmos": cli.DEFAULT_CONFIG["tmos"][:len(os.sched_getaffinity(0))],
                   "crfs": cli.DEFAULT_CONFIG["crfs"][:1]}, fh)
    return {"hdr": hdr_path, "sdr": sdr_path, "fit_config": fit_config,
            "synth_config": synth_config}


def build(workload, seed, root, scale="full"):
    """Write the inputs of one workload under root; returns the manifest dict."""
    from lumaflux import cli
    from lumaflux import pfm

    height, width = SIZES[scale][workload]
    os.makedirs(root, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "height": height, "width": width,
                "warm": _write_warm(os.path.join(root, "warm"), seed)}
    hdr = synthetic_hdr(height, width, seed)
    if workload in ("synth", "reconstruct"):
        manifest["hdr"] = os.path.join(root, "hdr.pfm")
        pfm.write_tagged(manifest["hdr"], hdr, seed=seed)
    if workload == "reconstruct":
        manifest["sdr"] = os.path.join(root, "sdr.pfm")
        _degrade_to(manifest["sdr"], hdr, cli.DEFAULT_CONFIG["tmos"][0], RECONSTRUCT_CRF, seed)
    if workload == "analyze":
        def make(job):
            i, tmo_doc = job
            path = os.path.join(root, f"sdr_{i}.pfm")
            _degrade_to(path, hdr, tmo_doc, ANALYZE_CRF, seed ^ i)
            return {"path": path, "mean_y2": _mean_y2(path)}

        # one worker per core, as the program's own frame pool uses
        with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
            manifest["frames"] = list(pool.map(make, enumerate(cli.DEFAULT_CONFIG["tmos"])))
    manifest["input_bytes"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root) if not d.endswith("warm") for f in files)
    with open(os.path.join(root, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
