"""Single-clip fitting loop, trace analysis, and the comparison harness."""

import math

import numpy as np
import pytest

from audioinr.inr import ARCHS, InrConfig, InrModel, param_count
from audioinr.loss import StftResolution
from audioinr.metrics import METRIC_COLUMNS
from audioinr.tensor import ContractError
from audioinr.toydata import sine_mixture, toy_clips
from audioinr.trainer import (
    DEFAULT_KAN_LR,
    DEFAULT_MLP_LR,
    TrainConfig,
    compare_archs,
    evaluate,
    fit_inr,
    resolve_lr,
)
from audioinr.wavio import AudioClip, wav_write
from audioinr.inr import flatten_params
from audioinr import tensor as T
from memory import traced
from unfused_ops import stored_z_gabor_layer, stored_z_linear
from trace_stats import fraction_nonincreasing, moving_average

FAST = (StftResolution(64, 16, 64),)


def quick_config(**over):
    kw = dict(steps=5, lam_f=0.0)
    kw.update(over)
    return TrainConfig(**kw)


def small_inr(arch="siren", **over):
    kw = dict(hidden=(8,), encoding_length=3, rff_features=4,
              grid_size=4, spline_order=2, seed=1)
    kw.update(over)
    return InrConfig(arch, **kw)


def toy_clip(n=256):
    return AudioClip(22050, sine_mixture(n))


# -- config --------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(steps=0)
    with pytest.raises(ContractError):
        TrainConfig(lr=0.0)
    with pytest.raises(ContractError):
        TrainConfig(precision="float16")
    for lr in (math.nan, math.inf, -math.inf, -1e-3):
        with pytest.raises(ContractError, match="lr"):
            TrainConfig(lr=lr)
    for name in ("lam_t", "lam_f", "weight_decay"):
        for v in (math.nan, math.inf, -1.0):
            with pytest.raises(ContractError, match=name):
                TrainConfig(**{name: v})


def test_resolve_lr_defaults():
    tc = TrainConfig()
    assert resolve_lr(tc, "kan") == DEFAULT_KAN_LR
    assert resolve_lr(tc, "siren") == DEFAULT_MLP_LR
    assert resolve_lr(TrainConfig(lr=0.42), "kan") == 0.42


# -- fitting --------------------------------------------------------------------


def test_fit_returns_trace_and_metrics():
    res = fit_inr(toy_clip(), small_inr(), quick_config())
    assert isinstance(res.model, InrModel)
    assert res.loss_trace.shape == (5,)
    assert np.all(np.isfinite(res.loss_trace))
    assert res.seconds > 0.0
    assert {"mse", "psnr", "sisnr", "wd"} <= set(res.metrics)


def test_fit_is_deterministic():
    a = fit_inr(toy_clip(), small_inr(), quick_config())
    b = fit_inr(toy_clip(), small_inr(), quick_config())
    np.testing.assert_array_equal(a.loss_trace, b.loss_trace)
    np.testing.assert_array_equal(flatten_params(a.model), flatten_params(b.model))
    assert a.metrics == b.metrics


def test_fit_uses_combined_loss():
    tc = quick_config(lam_f=1.0, resolutions=FAST, n_mels=8)
    res = fit_inr(toy_clip(), small_inr(), tc)
    l1_only = fit_inr(toy_clip(), small_inr(), quick_config())
    assert res.loss_trace[0] > l1_only.loss_trace[0]


def test_fit_float32_precision():
    tc = quick_config(precision="float32")
    res = fit_inr(toy_clip(), small_inr(), tc)
    assert res.model.params[0].data.dtype == np.float32
    assert np.all(np.isfinite(res.loss_trace))


def test_fit_empty_clip_rejected():
    with pytest.raises(ContractError, match="empty clip"):
        fit_inr(AudioClip(22050, np.zeros(0)), small_inr(), quick_config())


def test_fit_aborts_on_divergence():
    cfg = small_inr("nerf", hidden=(16, 16))
    tc = quick_config(steps=50, lr=1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ContractError, match="non-finite loss at step"):
            fit_inr(toy_clip(), cfg, tc)


@pytest.mark.parametrize("arch", ARCHS)
def test_fit_drives_loss_down_on_silence(arch):
    # a pure-L1 fit of the zero signal should reach a small loss quickly;
    # the exact floor depends on the Adam step-size oscillation
    lrs = {"nerf": 3e-3, "rff": 1e-3, "wire": 1e-3}
    cfg = InrConfig(arch, hidden=(12, 6) if arch == "kan" else (16, 16), seed=0)
    tc = TrainConfig(steps=200, lr=lrs.get(arch), lam_f=0.0)
    res = fit_inr(AudioClip(22050, np.zeros(256)), cfg, tc)
    assert res.loss_trace.min() < 2e-2, f"{arch} floor {res.loss_trace.min():.3e}"


@pytest.mark.parametrize("arch", ["kan", "wire"])
def test_fit_peak_memory_does_not_grow_with_steps(arch):
    # each step's graph and gradients are freed before the next forward, so
    # three steps peak where one does
    clip = toy_clip(4096)
    fit_inr(clip, InrConfig(arch), TrainConfig(steps=1))   # warm the loss caches

    def peak(steps):
        res, _, peak = traced(fit_inr, clip, InrConfig(arch), TrainConfig(steps=steps))
        assert all(p.grad is None for p in res.model.params)
        return peak

    one, three = peak(1), peak(3)
    assert three <= 1.05 * one, three / one


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("arch", ["siren", "finer", "wire"])
def test_recomputed_z_fit_matches_stored_z_fit(arch, precision, monkeypatch):
    # the sin, FINER and Gabor backward recomputes z; a fit whose nodes keep
    # z instead is bitwise the same
    clip, cfg = toy_clip(2048), TrainConfig(steps=3, precision=precision)
    got = fit_inr(clip, InrConfig(arch), cfg)
    monkeypatch.setattr(T, "linear", stored_z_linear)
    monkeypatch.setattr(T, "gabor_layer", stored_z_gabor_layer)
    want = fit_inr(clip, InrConfig(arch), cfg)
    assert got.loss_trace.dtype == want.loss_trace.dtype
    assert np.array_equal(got.loss_trace, want.loss_trace)
    got_flat, want_flat = flatten_params(got.model), flatten_params(want.model)
    assert got_flat.dtype == want_flat.dtype == np.dtype(precision)
    assert np.array_equal(got_flat, want_flat)
    assert got.metrics == want.metrics


def test_evaluate_matches_fit_metrics():
    clip = toy_clip()
    res = fit_inr(clip, small_inr(), quick_config())
    again = evaluate(res.model, clip)
    assert set(again) == set(res.metrics)
    for k in res.metrics:
        np.testing.assert_allclose(again[k], res.metrics[k], rtol=1e-12)


@pytest.mark.parametrize("arch", ["siren", "kan"])
def test_evaluate_reproduces_float32_fit_metrics(arch):
    # a float32 fit is scored in float32; evaluate once rendered it with
    # float64 times (siren mse 0.1077799192 from the fit, ...189 again)
    clip = toy_clip()
    res = fit_inr(clip, small_inr(arch), quick_config(precision="float32"))
    assert evaluate(res.model, clip) == res.metrics


def test_evaluate_empty_clip_rejected():
    model = fit_inr(toy_clip(), small_inr(), quick_config()).model
    with pytest.raises(ContractError):
        evaluate(model, AudioClip(22050, np.zeros(0)))


def test_degenerate_reference_omits_metrics():
    # fitting silence: SI-SNR and the spectral distance are undefined
    res = fit_inr(AudioClip(22050, np.zeros(256)), small_inr(), quick_config())
    assert "sisnr" not in res.metrics
    assert "wd" not in res.metrics
    assert "mse" in res.metrics


# -- trace analysis ----------------------------------------------------------------


def test_moving_average_values():
    ma = moving_average(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    np.testing.assert_allclose(ma, [1.5, 2.5, 3.5], atol=1e-15)
    np.testing.assert_allclose(moving_average(np.arange(3.0), 3), [1.0], atol=1e-15)
    with pytest.raises(ContractError):
        moving_average(np.arange(3.0), 4)
    with pytest.raises(ContractError):
        moving_average(np.arange(3.0), 0)


def test_fraction_nonincreasing_extremes():
    down = np.linspace(1.0, 0.0, 300)
    up = np.linspace(0.0, 1.0, 300)
    assert fraction_nonincreasing(down) == 1.0
    assert fraction_nonincreasing(up) == 0.0
    assert fraction_nonincreasing(np.ones(100)) == 1.0   # single window


def test_fraction_nonincreasing_smooths_noise(rng):
    trace = np.linspace(1.0, 0.0, 500) + 0.001 * rng.standard_normal(500)
    assert fraction_nonincreasing(trace, window=100) > 0.9


# -- comparison harness ---------------------------------------------------------------


def test_compare_archs_counts_and_aggregates():
    clips = toy_clips(2, n=256)
    configs = [small_inr("siren"), small_inr("kan")]
    report = compare_archs(clips, configs, quick_config())
    assert len(report.rows) == 4
    assert report.archs() == ["siren", "kan"]
    agg = report.aggregate()
    for arch, cfg in zip(("siren", "kan"), configs):
        rows = [r for r in report.rows if r["arch"] == arch]
        assert all(r["params"] == param_count(cfg) for r in rows)
        for m in METRIC_COLUMNS:
            vals = [r[m] for r in rows]
            np.testing.assert_allclose(agg[arch][m][0], np.mean(vals), rtol=1e-12)


def test_compare_archs_writes_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    compare_archs(toy_clips(1, n=256), [small_inr()], quick_config(), out_csv=out)
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("clip_id,arch,params,")
    assert len([l for l in lines if l.startswith("toy0,")]) == 1


def test_compare_archs_directory_mode_skips_bad_files(tmp_path):
    wav_write(tmp_path / "good.wav", toy_clip())
    (tmp_path / "bad.wav").write_bytes(b"not a wav at all")
    report = compare_archs(tmp_path, [small_inr()], quick_config())
    assert len(report.rows) == 1
    assert any("skipped" in w for w in report.warnings)


def test_compare_archs_warns_on_undefined_metrics():
    silent = [AudioClip(22050, np.zeros(256), source_id="quiet")]
    report = compare_archs(silent, [small_inr()], quick_config())
    assert any("undefined" in w for w in report.warnings)
    assert np.isnan(report.rows[0]["sisnr"])


def test_compare_archs_empty_inputs(tmp_path):
    with pytest.raises(ContractError):
        compare_archs([], [small_inr()], quick_config())
    (tmp_path / "bad.wav").write_bytes(b"junk")
    with pytest.raises(ContractError, match="no readable clips"):
        compare_archs(tmp_path, [small_inr()], quick_config())
