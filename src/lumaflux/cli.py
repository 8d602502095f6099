"""Command-line surface: synthesize, fit-expand, metrics, features, adapter-demo.

Exit codes: 0 ok, 2 I/O failure (a missing or malformed input, a frame
tagged with another transfer or primaries than the command reads, frames
of different extents, an unwritable output), 3 invalid config (malformed
JSON, an unknown key, a value of the wrong type or range, an unknown
tone-operator parameter), 4 numerical failure. `main` alone maps
exceptions to codes: OSError -> 2, LumaFluxError -> its `exit_code`.
`--config` takes a JSON object whose keys are those of DEFAULT_CONFIG.

LUMAFLUX_THREADS caps how many tone operators `synthesize` runs at once;
the CRF variants of one operator share one decode-to-quantize chain.
Outputs are independent of the worker count because every frame derives
its own seed.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import adapters as ad
from . import colorimetry as cm
from . import features as ft
from . import metrics as mt
from . import pfm
from . import rqs
from . import tonemap as tm
from .errors import ConfigError, FitError, FrameFormatError, LumaFluxError

DEFAULT_CONFIG = {
    "tmos": [
        {"kind": "Reinhard", "params": {"peak_in_nits": 1000.0}},
        {"kind": "BT2446A", "params": {}},
        {"kind": "BT2446C_GM", "params": {}},
        {"kind": "HardClipGM", "params": {}},
        {"kind": "BT2390EETF_GM", "params": {}},
        {"kind": "LogC", "params": {}},
        {"kind": "ExpertStub", "params": {"gamma": 0.85}},
        {"kind": "ExpertStub", "params": {"gamma": 1.1, "mix": 0.35}},
    ],
    "crfs": [23, 31, 39],
    "seed": 0,
    "spline_knots": 8,
    "k_bands": 8,
    "peak_nits": 1000.0,
    "lambda_smooth": 1e-2,
    "fit_iterations": 800,
    "fit_samples": 16384,
    "feature_seed": 7,
}


# lower bounds beyond the type check; a spline and a band split need two bins
_AT_LEAST = {"spline_knots": 2, "k_bands": 2, "fit_iterations": 1,
             "fit_samples": rqs.MIN_SAMPLES, "feature_seed": 0, "lambda_smooth": 0}


def _conforms(val, like):
    """True when `val` has the JSON type of `like`; an int may stand for a float."""
    if isinstance(like, list):
        return isinstance(val, list) and bool(val) and all(_conforms(v, like[0]) for v in val)
    if isinstance(like, float):
        return cm.is_finite_number(val)
    return isinstance(val, type(like)) and not isinstance(val, bool)


def load_config(path=None, overrides=None):
    """DEFAULT_CONFIG, then the JSON object at `path`, then `overrides`; checked, not rewritten."""
    cfg = dict(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        cfg.update(doc)
    cfg.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    for key, val in cfg.items():
        like = DEFAULT_CONFIG.get(key)
        if like is None:
            raise ConfigError(f"unknown config key {key!r}")
        if not _conforms(val, like):
            sample = like[:1] if isinstance(like, list) else like
            raise ConfigError(f"{key}: expected a value like {json.dumps(sample)}, got {val!r}")
        if key in _AT_LEAST and val < _AT_LEAST[key]:
            raise ConfigError(f"{key} must be >= {_AT_LEAST[key]}, got {val!r}")
    if cfg["spline_knots"] > rqs.MAX_BINS:
        raise ConfigError(f"spline_knots must be <= {rqs.MAX_BINS}, got {cfg['spline_knots']!r}")
    if not 0 < cfg["peak_nits"] <= cm.PQ_PEAK_NITS:
        raise ConfigError(f"peak_nits must be in (0, 10000], got {cfg['peak_nits']!r}")
    for doc in cfg["tmos"]:
        tm.ToneOperator.from_json(doc)
    return cfg


def _max_workers():
    """LUMAFLUX_THREADS (default 4); anything but an integer >= 1 is a config error."""
    text = os.environ.get("LUMAFLUX_THREADS", "4")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"LUMAFLUX_THREADS must be an integer >= 1, got {text!r}")
    return workers


HDR_FORMAT = (cm.Transfer.PQ, cm.Primaries.BT2020)
SDR_FORMAT = (cm.Transfer.GAMMA709, cm.Primaries.BT709)


def _read_frame(path, fmt):
    """Read a tagged frame whose (transfer, primaries) must be `fmt`; a mismatch exits 2."""
    img = pfm.read_tagged(path)
    got = (img.tag.transfer, img.tag.primaries)
    if got != fmt:
        raise FrameFormatError(f"{path}: expected a {fmt[0].value}/{fmt[1].value} frame, "
                               f"got {got[0].value}/{got[1].value}")
    return img


def _read_pair(path_a, fmt_a, path_b, fmt_b):
    """Two frames read as `_read_frame` reads them, which must share one extent."""
    a = _read_frame(path_a, fmt_a)
    b = _read_frame(path_b, fmt_b)
    if a.pixels.shape != b.pixels.shape:
        raise FrameFormatError(f"{path_a}: extent {a.pixels.shape} differs from "
                               f"{path_b} {b.pixels.shape}")
    return a, b


def cmd_synthesize(args):
    cfg = load_config(args.config, {"seed": args.seed})
    workers = _max_workers()
    # one job per tone operator: its CRF variants share one chain up to the codec
    jobs = []
    idx = 0
    for tmo_doc in cfg["tmos"]:
        op = tm.ToneOperator.from_json(tmo_doc)
        specs = []
        for crf in cfg["crfs"]:
            specs.append((idx, tm.DegradationSpec(tmo=op, crf=crf, seed=cfg["seed"] ^ idx)))
            idx += 1
        jobs.append((op, specs))
    hdr = _read_frame(args.hdr_input, HDR_FORMAT)
    os.makedirs(args.output_dir, exist_ok=True)

    def run(job):
        op, specs = job
        encoded = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None))
        paths = []
        for idx, spec in specs:
            sdr = tm.codec_proxy(encoded, spec.crf)
            name = f"sdr_{idx:03d}_{spec.tmo.kind.value}_crf{spec.crf}.pfm"
            path = os.path.join(args.output_dir, name)
            pfm.write_tagged(path, sdr, seed=spec.seed, config=cfg,
                             extra={"degradation": spec.to_json()})
            paths.append(path)
        return paths

    with ThreadPoolExecutor(max_workers=workers) as pool:
        paths = [path for batch in pool.map(run, jobs) for path in batch]
    print(json.dumps({"frames": sorted(paths)}, indent=2))
    return 0


def expand_sdr(wide, params, peak_nits):
    """Apply a fitted tone spline to a linearized SDR frame; returns linear BT.2020 nits."""
    y_sdr = cm.luma2020(wide)
    y_hat = rqs.rqs_forward(params, y_sdr)
    ratio = np.where(y_sdr > 1e-8, y_hat / np.maximum(y_sdr, 1e-8), 0.0)
    rgb = wide.pixels * ratio[..., None]
    nits = np.clip(rgb * peak_nits, 0.0, cm.PQ_PEAK_NITS)
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(nits, tag)


def refine_chroma(expanded, ref_linear):
    """Least-squares 1x1 mix of the color-difference channels against the reference."""
    wr, wg, wb = cm.LUMA_WEIGHTS_2020
    def to_yuv(px):
        y = px @ cm.LUMA_WEIGHTS_2020
        return y, px[..., 2] - y, px[..., 0] - y

    ye, ue, ve = to_yuv(expanded.pixels)
    _, ur, vr = to_yuv(ref_linear.pixels)
    a = np.stack([ue.reshape(-1), ve.reshape(-1), np.ones(ue.size)], axis=1)
    coef, *_ = np.linalg.lstsq(a, np.stack([ur.reshape(-1), vr.reshape(-1)], axis=1), rcond=None)
    mixed = a @ coef
    u2 = mixed[:, 0].reshape(ue.shape)
    v2 = mixed[:, 1].reshape(ve.shape)
    r = ye + v2
    b = ye + u2
    g = (ye - wr * r - wb * b) / wg
    px = np.clip(np.stack([r, g, b], axis=-1), 0.0, cm.PQ_PEAK_NITS)
    return expanded.with_pixels(px)


def cmd_fit_expand(args):
    cfg = load_config(args.config)
    sdr, ref = _read_pair(args.sdr, SDR_FORMAT, args.hdr_ref, HDR_FORMAT)
    if sdr.pixels.shape[0] * sdr.pixels.shape[1] < rqs.MIN_SAMPLES:
        raise FrameFormatError(f"{args.sdr}: extent {sdr.pixels.shape} has fewer than "
                               f"{rqs.MIN_SAMPLES} pixels to fit a tone spline on")
    peak = cfg["peak_nits"]
    wide = ft.linearize_sdr(sdr)
    y_sdr = cm.luma2020(wide).reshape(-1)
    ref_linear = cm.apply_transfer(ref)
    y_ref = np.clip(cm.luma2020(ref_linear).reshape(-1) / peak, 0.0, 1.0)
    stride = max(1, y_sdr.size // cfg["fit_samples"])
    fit_cfg = rqs.FitConfig(lambda_smooth=cfg["lambda_smooth"], iterations=cfg["fit_iterations"])
    try:
        params, raw, trace = rqs.fit_rqs(
            y_sdr[::stride], y_ref[::stride], K=cfg["spline_knots"], cfg=fit_cfg
        )
    except FitError as exc:
        trace_path = args.output + ".trace.csv"
        np.savetxt(trace_path, getattr(exc, "trace", np.array([])),
                   header="loss", comments="")
        print(f"fit diverged, loss trace at {trace_path}", file=sys.stderr)
        raise
    expanded = expand_sdr(wide, params, peak)
    refined = refine_chroma(expanded, ref_linear)
    out_pq = cm.encode_transfer(refined, cm.Transfer.PQ)
    pfm.write_tagged(args.output, out_pq, seed=cfg["seed"], config=cfg)
    rqs.save_fit(args.output + ".rqs.json", params, raw, fit_cfg)
    np.savetxt(args.output + ".trace.csv", trace, header="loss", comments="")
    print(json.dumps({"output": args.output, "final_loss": float(trace[-1])}, indent=2))
    return 0


def cmd_metrics(args):
    ref, test = _read_pair(args.ref, HDR_FORMAT, args.test, HDR_FORMAT)
    report = mt.metric_report(ref, test)
    doc = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc + "\n")
    print(doc)
    return 0


def feature_weights(cfg):
    """Seeded weights of the global-stats MLP: 4 stats -> 16 hidden -> 4 outputs."""
    rng = np.random.default_rng(cfg["feature_seed"])
    return (
        rng.normal(0.0, 0.3, (16, 4)), np.zeros(16),
        rng.normal(0.0, 0.3, (4, 16)), np.zeros(4),
    )


def _map_summary(name, arr):
    return {
        "name": name,
        "min": float(np.min(arr)),
        "max": float(np.max(arr)),
        "mean": float(np.mean(arr)),
    }


def cmd_features(args):
    cfg = load_config(args.config)
    sdr = _read_frame(args.frame, SDR_FORMAT)
    feats = ft.extract_phys(sdr)
    desc = ft.spectral_descriptor(feats.y_map, cfg["k_bands"])
    doc = {
        "s_g": feats.s_g.tolist(),
        "g": ft.global_mlp(feats.s_g, *feature_weights(cfg)).tolist(),
        "r": desc.r.tolist(),
        "maps": [
            _map_summary("y", feats.y_map),
            _map_summary("loggrad", feats.loggrad_map),
            _map_summary("sat", feats.sat_map),
        ],
    }
    print(json.dumps(doc, indent=2))
    if args.dump_maps:
        base = os.path.splitext(args.frame)[0]
        stack = np.stack([feats.y_map, feats.loggrad_map, feats.sat_map], axis=-1)
        pfm.write_pfm(base + ".features.pfm", stack)
    return 0


def cmd_adapter_demo(args):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = ad.ToyBlockConfig(d=args.width, n_tokens=args.tokens, rank=args.rank)
    backbone = ad.BackboneWeights.seeded(cfg, seed=args.seed)
    state = ad.AdapterState.seeded(cfg, seed=args.seed + 1)
    inputs = ad.demo_inputs(cfg, seed=args.seed + 2)
    z = inputs[0]

    null_state = ad.AdapterState.null(cfg)
    adapted, _ = ad.block_forward(z, *inputs[1:], backbone, null_state, cfg, t=0.5, layer=0)
    vanilla = ad.vanilla_block_forward(z, backbone)
    preservation = bool(np.array_equal(adapted, vanilla))

    tail = ad.low_rank_svd_tail(state, cfg)
    rank_ok = tail <= 1e-9

    report = ad.grad_check_adapters(backbone, state, cfg, inputs)
    doc = {
        "backbone_preservation": preservation,
        "svd_tail_beyond_rank": tail,
        "rank_ok": rank_ok,
        "gradients": report,
        "version": __version__,
    }
    print(json.dumps(doc, indent=2))
    ok = preservation and rank_ok and report["passed"]
    return 0 if ok else 4


def build_parser():
    parser = argparse.ArgumentParser(prog="lumaflux", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="degrade an HDR frame into SDR variants")
    p.add_argument("hdr_input")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("fit-expand", help="fit a tone spline and expand SDR to HDR")
    p.add_argument("sdr")
    p.add_argument("hdr_ref")
    p.add_argument("--output", default="expanded.pfm")
    p.add_argument("--config")
    p.set_defaults(func=cmd_fit_expand)

    p = sub.add_parser("metrics", help="full-reference HDR metric report")
    p.add_argument("ref")
    p.add_argument("test")
    p.add_argument("--output")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("features", help="dump physical feature descriptors")
    p.add_argument("frame")
    p.add_argument("--config")
    p.add_argument("--dump-maps", action="store_true")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("adapter-demo", help="run adapter preservation/rank/gradient suites")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_adapter_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract reserves 2 for I/O
        if exc.code not in (0, None):
            raise SystemExit(3)
        raise
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2
    except LumaFluxError as exc:
        label = {2: "cannot read", 3: "config error"}.get(exc.exit_code, "numerical failure")
        print(f"{label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
