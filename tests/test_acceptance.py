"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Every tolerance here is pinned; loosening any of them is a contract change.
"""

import contextlib
import hashlib
import io
import os

import numpy as np

from lumaflux import adapters as ad
from lumaflux import cli
from lumaflux import colorimetry as cm
from lumaflux import features as ft
from lumaflux import metrics as mt
from lumaflux import pfm
from lumaflux import rqs
from lumaflux import tensorcore as tc
from lumaflux import tonemap as tm


def report(name, checks, capsys=None):
    """checks: list of (label, ok, detail). Prints one line, then asserts."""
    ok = all(c[1] for c in checks)
    worst = "; ".join(f"{label}={detail}" for label, good, detail in checks)
    ctx = capsys.disabled() if capsys is not None else contextlib.nullcontext()
    with ctx:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({worst})", flush=True)
    failed = [label for label, good, _ in checks if not good]
    assert not failed, f"{name} failed: {failed}"


def synthetic_hdr(size=256, peak=1000.0, seed=7):
    yy, xx = np.mgrid[0:size, 0:size] / size
    base = 0.05 + 0.95 * np.exp(-((yy - 0.5) ** 2 + (xx - 0.5) ** 2) * 4)
    rgb = np.stack([base * (0.6 + 0.4 * np.sin(6 * xx)), base,
                    base * (0.6 + 0.4 * np.cos(5 * yy))], axis=-1)
    nits = np.clip(rgb, 1e-4, 1.0) * peak
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    return cm.TaggedImage(cm.pq_encode(nits), tag)


def test_a1_colorimetry_round_trips(capsys):
    nits = np.linspace(0.0, cm.PQ_PEAK_NITS, 100000)
    rel_fwd = float(np.max(np.abs(cm.pq_decode(cm.pq_encode(nits)) - nits)
                           / np.maximum(nits, 1.0)))
    sig = np.linspace(0.0, 1.0, 100000)
    err_bwd = float(np.max(np.abs(cm.pq_encode(cm.pq_decode(sig)) - sig)))
    gamut_worst = 0.0
    for a in cm.Primaries:
        for b in cm.Primaries:
            m = cm.gamut_matrix(a, b) @ cm.gamut_matrix(b, a)
            gamut_worst = max(gamut_worst, float(np.max(np.abs(m - np.eye(3)))))
    peak_err = abs(float(cm.pq_decode(np.array(1.0))) - 1e4)
    report("A1", checks=[
        ("pq_fwd_rel", rel_fwd <= 1e-6, f"{rel_fwd:.2e}"),
        ("pq_bwd", err_bwd <= 1e-6, f"{err_bwd:.2e}"),
        ("gamut_pairs", gamut_worst <= 1e-9, f"{gamut_worst:.2e}"),
        ("pq_peak", peak_err <= 1e-9, f"{peak_err:.2e}"),
    ], capsys=capsys)


def test_a2_rqs_suite(capsys):
    grid = np.linspace(0.0, 1.0, 4096)
    p_id = rqs.identity_params(8)
    id_err = float(np.max(np.abs(rqs.rqs_forward(p_id, grid) - grid)))

    rng = np.random.default_rng(0)
    mono_ok = True
    inv_err = 0.0
    for _ in range(100):
        p = rqs.constrain(rng.normal(0.0, 1.0, 25), 8)
        f = rqs.rqs_forward(p, grid)
        mono_ok = mono_ok and bool(np.all(np.diff(f) > 0))
        inv_err = max(inv_err, float(np.max(np.abs(rqs.rqs_inverse(p, f) - grid))))

    x = np.linspace(0.0, 1.0, 256)
    tgt = x**2
    cfg = rqs.FitConfig()
    grad_err = 0.0
    for _ in range(3):
        theta = rng.normal(0.0, 0.5, 19)
        g = rqs.fit_loss_and_grad(theta, 6, x, tgt, cfg)[1]()
        fd = tc.finite_diff_grad(
            lambda th: rqs.fit_loss_and_grad(th, 6, x, tgt, cfg)[0], theta, 1e-6)
        grad_err = max(grad_err, float(np.max(
            np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1e-8))))

    x512 = np.linspace(0.0, 1.0, 512)
    p_fit, _, _ = rqs.fit_rqs(x512, x512**2, K=6)
    fit_err = float(np.max(np.abs(rqs.rqs_forward(p_fit, x512) - x512**2)))

    report("A2", checks=[
        ("identity", id_err <= 1e-12, f"{id_err:.2e}"),
        ("monotone_100", mono_ok, mono_ok),
        ("inverse", inv_err <= 1e-9, f"{inv_err:.2e}"),
        ("fit_grads", grad_err <= 1e-5, f"{grad_err:.2e}"),
        ("square_fit", fit_err <= 1e-3, f"{fit_err:.2e}"),
    ], capsys=capsys)


def test_a3_end_to_end_tone_recovery(capsys):
    peak = 1000.0
    hdr = synthetic_hdr(size=256, peak=peak)
    ref_lin = cm.apply_transfer(hdr)
    op = tm.ToneOperator(tm.ToneKind.REINHARD, {"peak_in_nits": peak})
    sdr = tm.degrade(hdr, tm.DegradationSpec(tmo=op, crf=None, seed=0))

    wide = ft.linearize_sdr(sdr)
    y_sdr = cm.luma2020(wide).reshape(-1)
    y_ref = np.clip(cm.luma2020(ref_lin).reshape(-1) / peak, 0.0, 1.0)
    stride = max(1, y_sdr.size // 8192)
    params, _, _ = rqs.fit_rqs(y_sdr[::stride], y_ref[::stride], K=8,
                               cfg=rqs.FitConfig(iterations=400))
    expanded = cli.refine_chroma(cli.expand_sdr(wide, params, peak), ref_lin)

    l1 = float(np.mean(np.abs(cm.luma2020(expanded) - cm.luma2020(ref_lin))))
    de_fit = cm.delta_e_itp(ref_lin, expanded)

    # closed-form Reinhard inverse oracle on the same degraded SDR
    y_map = cm.luma2020(wide)
    inv = peak * y_map / (1.0 - np.minimum(y_map, 0.999))
    ratio = np.where(y_map > 1e-8, (inv / peak) / np.maximum(y_map, 1e-8), 0.0)
    oracle = cm.TaggedImage(
        np.clip(wide.pixels * ratio[..., None] * peak, 0.0, cm.PQ_PEAK_NITS),
        cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.LINEAR, cm.PQ_PEAK_NITS))
    de_oracle = cm.delta_e_itp(ref_lin, oracle)

    report("A3", checks=[
        ("luma_l1_pct", l1 <= 0.02 * peak, f"{100 * l1 / peak:.3f}%"),
        ("dE_vs_oracle", de_fit <= 1.2 * de_oracle,
         f"{de_fit:.3f} vs {de_oracle:.3f}*1.2"),
    ], capsys=capsys)


def test_a4_adapter_mechanics(capsys):
    cfg = ad.ToyBlockConfig(d=8, n_tokens=8, rank=4)
    backbone = ad.BackboneWeights.seeded(cfg, seed=0)
    inputs = ad.demo_inputs(cfg, seed=2)
    z = inputs[0]

    null = ad.AdapterState.null(cfg)
    adapted, _ = ad.block_forward(z, *inputs[1:], backbone, null, cfg, t=0.5, layer=0)
    preserved = bool(np.array_equal(adapted, ad.vanilla_block_forward(z, backbone)))

    state = ad.AdapterState.seeded(cfg, seed=1)
    tail = ad.low_rank_svd_tail(state, cfg)

    mod, _ = ad.psi(0.4, 0, state)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(cfg.n_tokens, cfg.d))
    t_perc = rng.normal(size=(cfg.n_tokens, ad.D_P))
    a, _ = ad.pcm_film(h, t_perc, state, mod)
    b, _ = ad.pcm_film(10.0 * h, t_perc, state, mod)
    scale_inv = float(np.max(np.abs(a - b)))  # limited only by LN eps

    mod0 = ad.ModulationParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    out, _ = ad.coupler(z, inputs[1], rng.normal(size=(cfg.n_tokens, cfg.d)),
                        state, mod0)
    passthrough = bool(np.array_equal(out, z))

    grad_report = ad.grad_check_adapters(backbone, state, cfg, inputs=inputs)
    worst_grad = max(v["max_rel_error"] for v in grad_report["groups"].values())

    report("A4", checks=[
        ("null_preserved", preserved, preserved),
        ("svd_tail", tail <= 1e-9, f"{tail:.2e}"),
        ("pcm_scale_inv", scale_inv <= 1e-4, f"{scale_inv:.2e}"),
        ("coupler_passthrough", passthrough, passthrough),
        ("grad_groups", worst_grad <= 1e-4, f"{worst_grad:.2e}"),
    ], capsys=capsys)


def test_a5_degradation_chain(tmp_path, capsys):
    hdr = synthetic_hdr(size=64)
    src = str(tmp_path / "hdr.pfm")
    pfm.write_tagged(src, hdr, seed=7)

    def digest(root):
        acc = hashlib.sha256()
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as fh:
                acc.update(name.encode())
                acc.update(fh.read())
        return acc.hexdigest()

    digests = []
    counts = []
    for i, threads in enumerate(("1", "4", "4")):
        out = str(tmp_path / f"out_{i}")
        os.environ["LUMAFLUX_THREADS"] = threads
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["synthesize", src, "--output-dir", out]) == 0
        finally:
            os.environ.pop("LUMAFLUX_THREADS", None)
        digests.append(digest(out))
        counts.append(len([f for f in os.listdir(out) if f.endswith(".pfm")]))

    tag = cm.ColorSpaceTag(cm.Primaries.BT709, cm.Transfer.GAMMA709, 100.0)
    textured = cm.TaggedImage(
        np.random.default_rng(5).uniform(0.0, 1.0, (64, 64, 3)), tag)
    maes = [float(np.abs(tm.codec_proxy(textured, crf).pixels
                         - textured.pixels).mean()) for crf in tm.VALID_CRF]

    report("A5", checks=[
        ("byte_exact", digests[0] == digests[1] == digests[2],
         digests[0][:12]),
        ("mae_monotone", maes[0] < maes[1] < maes[2],
         "/".join(f"{m:.2e}" for m in maes)),
        ("24_outputs", counts == [24, 24, 24], counts),
    ], capsys=capsys)


def test_a6_spectral_features(capsys):
    rng = np.random.default_rng(11)
    parseval_worst = 0.0
    for _ in range(10):
        y = rng.normal(size=(32, 32))
        r = ft.spectral_descriptor(y, 8).r
        ms = float(np.mean(y**2))
        parseval_worst = max(parseval_worst, abs(float(r.sum()) - ms) / ms)

    r_flat = ft.spectral_descriptor(np.full((16, 16), 3.0), 8).r
    flat_ok = bool(r_flat[0] > 0 and np.all(r_flat[1:] <= 1e-12 * r_flat[0]))

    s = ft.global_stats(np.arange(100, dtype=np.float64).reshape(10, 10))
    pct_err = max(abs(s[2] - 94.05), abs(s[3] - 98.01))

    report("A6", checks=[
        ("parseval", parseval_worst <= 1e-6, f"{parseval_worst:.2e}"),
        ("flat_band0", flat_ok, flat_ok),
        ("percentiles", pct_err <= 1e-12, f"{pct_err:.2e}"),
    ], capsys=capsys)


def test_a7_metrics_sanity(capsys):
    tag = cm.ColorSpaceTag(cm.Primaries.BT2020, cm.Transfer.PQ, cm.PQ_PEAK_NITS)
    rng = np.random.default_rng(13)
    base = rng.uniform(10.0, 900.0, (16, 16, 3))
    x = cm.TaggedImage(cm.pq_encode(base), tag)
    y = cm.TaggedImage(cm.pq_encode(rng.uniform(10.0, 900.0, (16, 16, 3))), tag)
    x_lin = cm.apply_transfer(x)
    y_lin = cm.apply_transfer(y)
    de_self = cm.delta_e_itp(x_lin, x_lin)
    de_sym = abs(cm.delta_e_itp(x_lin, y_lin) - cm.delta_e_itp(y_lin, x_lin))

    # constant PU21 offset: two flat fields whose PU21 values differ by a
    # known constant c give PSNR = 20 log10(range / c) exactly
    la, lb = 100.0, 400.0
    c = float(cm.pu21_encode(lb) - cm.pu21_encode(la))
    flat_a = cm.TaggedImage(cm.pq_encode(np.full((8, 8, 3), la)), tag)
    flat_b = cm.TaggedImage(cm.pq_encode(np.full((8, 8, 3), lb)), tag)
    expected = 20.0 * np.log10(mt.pu21_range() / c)
    psnr_err = abs(mt.psnr_pu21(flat_a, flat_b) - expected)

    scores = []
    for amp in (5.0, 20.0, 80.0):
        noisy = np.clip(base + rng.normal(0.0, amp, base.shape), 0.0, 1e4)
        scores.append(mt.psnr_pu21(x, cm.TaggedImage(cm.pq_encode(noisy), tag)))

    report("A7", checks=[
        ("dE_self", de_self == 0.0, de_self),
        ("dE_symmetry", de_sym <= 1e-12, f"{de_sym:.2e}"),
        ("pu21_offset", psnr_err <= 1e-9, f"{psnr_err:.2e}"),
        ("noise_ordering", scores[0] > scores[1] > scores[2],
         "/".join(f"{s:.1f}" for s in scores)),
    ], capsys=capsys)
