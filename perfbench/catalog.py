"""Names, units and derivations of every metric the benchmark reports.

End-to-end metrics come from untraced passes. Per-layer metrics come
from traced passes: `<span>.s` is self time per pass (time in the span
less the time in nested spans that have a `.s` metric), `<span>.calls`,
`.mpix` and `.mb` are per-pass counts, and `.gflop_s` is a computed
operation count divided by the span's self time. A layer a workload
never calls reads 0 and is listed as absent with the reason.
"""

import statistics

WORKLOADS = ("synth", "reconstruct", "analyze")

# (name, unit, better); these four are in BENCHMARK.json, which needs
# metrics every workload has and none that can read 0
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# printed in the end-to-end table as well; fail_ratio reads 0 and the
# quality scores exist only on reconstruct, so BENCHMARK.json carries
# them as per-layer metrics (quality.*, ops.fail_ratio)
TABLE_EXTRA = [
    ("fail_ratio", "ratio", "lower"),
    ("psnr_pu21_db", "dB", "higher"),
    ("psnr_y_pu21_db", "dB", "higher"),
    ("delta_e_itp", "dE_ITP", "lower"),
    ("fit_final_loss", "loss", "lower"),
]

_S = "s"
PER_LAYER = [
    ("tonemap.codec_proxy.s", _S, "lower"),
    ("tonemap.codec_proxy.gflop_s", "GFLOP/s", "higher"),
    ("tonemap.degrade.s", _S, "lower"),
    ("tonemap.tone_map.s", _S, "lower"),
    ("tonemap.quantize.s", _S, "lower"),
    ("colorimetry.pq_decode.calls", "count", "lower"),
    ("colorimetry.pq_decode.mpix", "Mpix", "lower"),
    ("colorimetry.pq_decode.s", _S, "lower"),
    ("colorimetry.pu21_encode.calls", "count", "lower"),
    ("colorimetry.pu21_encode.s", _S, "lower"),
    ("colorimetry.pq_encode.s", _S, "lower"),
    ("colorimetry.convert_gamut.s", _S, "lower"),
    ("colorimetry.convert_gamut.clamp_frac", "fraction", "lower"),
    ("colorimetry.delta_e_itp.s", _S, "lower"),
    ("rqs.fit_rqs.s", _S, "lower"),
    ("rqs.iterations", "count", "lower"),
    ("rqs.loss_evals", "count", "lower"),
    ("rqs.accept_ratio", "ratio", "higher"),
    ("rqs.fit_loss_and_grad.s", _S, "lower"),
    ("rqs.forward_param_grad.s", _S, "lower"),
    ("rqs.warm_start_raw.s", _S, "lower"),
    ("rqs.clamped_inputs", "count", "lower"),
    ("features.conv3x3.s", _S, "lower"),
    ("features.conv3x3.gflop_s", "GFLOP/s", "higher"),
    ("features.extract_phys.s", _S, "lower"),
    ("features.gradient_magnitude.s", _S, "lower"),
    ("features.spectral_descriptor.s", _S, "lower"),
    ("features.linearize_sdr.s", _S, "lower"),
    ("tensorcore.rfft2.s", _S, "lower"),
    ("cli.expand_sdr.s", _S, "lower"),
    ("cli.refine_chroma.s", _S, "lower"),
    ("cli.pool.busy_frac", "fraction", "higher"),
    ("cli.pool.queue_wait_s", _S, "lower"),
    ("cli.synthesize.s", _S, "lower"),
    ("cli.fit-expand.s", _S, "lower"),
    ("cli.metrics.s", _S, "lower"),
    ("cli.features.s", _S, "lower"),
    ("metrics.metric_report.s", _S, "lower"),
    ("metrics.psnr_pu21.calls", "count", "lower"),
    ("metrics.psnr_pu21.s", _S, "lower"),
    ("pfm.write_tagged.calls", "count", "lower"),
    ("pfm.write_tagged.mb", "MB", "lower"),
    ("pfm.write_tagged.s", _S, "lower"),
    ("pfm.read_tagged.calls", "count", "lower"),
    ("pfm.read_tagged.mb", "MB", "lower"),
    ("pfm.read_tagged.s", _S, "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("quality.psnr_pu21_db", "dB", "higher"),
    ("quality.psnr_y_pu21_db", "dB", "higher"),
    ("quality.delta_e_itp", "dE_ITP", "lower"),
    ("quality.fit_final_loss", "loss", "lower"),
    ("ops.fail_ratio", "ratio", "lower"),
]

# spans that own a self time; any other traced call adds its time to its caller
TIMED_SPANS = frozenset(name[:-2] for name, _, _ in PER_LAYER if name.endswith(".s"))

# metrics not named <span>.<field>: the span whose absence makes them absent
_SOURCE_SPAN = {
    "rqs.iterations": "rqs.fit_rqs",
    "rqs.loss_evals": "rqs.fit_loss_and_grad",
    "rqs.accept_ratio": "rqs.fit_rqs",
    "rqs.clamped_inputs": "rqs.fit_rqs",
    "cli.pool.busy_frac": "cli.pool",
    "cli.pool.queue_wait_s": "cli.pool",
    "quality.psnr_pu21_db": "cli.metrics",
    "quality.psnr_y_pu21_db": "cli.metrics",
    "quality.delta_e_itp": "cli.metrics",
    "quality.fit_final_loss": "cli.fit-expand",
}


def median_quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def source_span(name):
    return _SOURCE_SPAN.get(name, name.rsplit(".", 1)[0])


def layer_value(name, layers, rec):
    """One per-layer metric for one traced pass; None when its layer did not run."""
    if name == "ops.fail_ratio":
        return rec["failed"] / rec["ops"]
    field = name.rsplit(".", 1)[1]
    agg = layers.get(source_span(name))
    if agg is None:
        return None
    if name.startswith("quality."):
        return rec["quality"].get(field)
    if name == "rqs.iterations":
        return agg["iterations"]
    if name == "rqs.loss_evals":
        return agg["calls"]
    if name == "rqs.accept_ratio":
        return agg["iterations"] / layers["rqs.fit_loss_and_grad"]["calls"]
    if name == "rqs.clamped_inputs":
        return rec["clamped_inputs"]
    if field == "gflop_s":
        return agg["gflop"] / agg["s"] if agg["s"] > 0 else 0.0
    if field == "clamp_frac":
        return agg["clamp_frac"] / agg["calls"]
    return agg.get(field)
