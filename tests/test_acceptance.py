"""End-to-end acceptance checks, one per shipped guarantee.

Each check prints a single ``criterion NN <name>: PASS/FAIL`` line and
the conftest terminal hook echoes the collected lines after the run, so
they are visible without -s.  Slow cases (whole fits, meta-training)
live here rather than in the per-module tests.
"""

import time
from contextlib import redirect_stdout
from io import StringIO

import numpy as np

from audioinr import cli
from audioinr.fewsound import (FewSoundConfig, adapt, adapted_flat, build_state,
                               crossfade_window, encode_audio, encode_weights, meta_train,
                               overlap_add_weights, predict_update,
                               reconstruct_long)
from audioinr.bspline import make_grid, spline_bases
from audioinr.inr import ARCHS, InrConfig, build, flatten_params, param_count
from audioinr.loss import make_combined_loss
from audioinr.metrics import (SI_SNR_CAP, lsd, mse_psnr, si_snr,
                              spectral_wasserstein, squared_index_support,
                              wasserstein_1d)
from audioinr.optim import AdamW, OneCycleSchedule, one_cycle_lr
from audioinr.serialize import load_model, save_model
from audioinr.tensor import Tensor, backward, grad_check
from audioinr.toydata import sine_mixture, toy_clips
from audioinr.trainer import TrainConfig, compare_archs, fit_inr
from audioinr.wavio import AudioClip, resample, wav_read, wav_write
from test_bspline import naive_bases
from test_metrics import brute_force_wasserstein
from trace_stats import fraction_nonincreasing

RESULT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    RESULT_LINES.append(line)
    print(line)
    assert ok, line


# -- 1: parameter-count table ------------------------------------------------------

KAN_COUNT_TABLE = (
    (dict(encoding_length=10), 33768),
    (dict(), 31080),
    (dict(hidden=(24, 12, 6)), 10500),
    (dict(scale_spline=False), 28860),
    (dict(spline_order=1), 28860),
    (dict(spline_order=3), 33300),
    (dict(spline_order=5), 37740),
    (dict(spline_order=7), 42180),
    (dict(grid_size=1), 11100),
    (dict(grid_size=5), 19980),
    (dict(grid_size=12), 35520),
    (dict(grid_size=17), 46620),
    (dict(encoding_length=2), 23016),
    (dict(encoding_length=4), 25704),
    (dict(encoding_length=12), 36456),
    (dict(encoding_length=16), 41832),
    (dict(encoding_length=24), 52584),
)


def test_parameter_count_table():
    bad = []
    for overrides, want in KAN_COUNT_TABLE:
        got = param_count(InrConfig("kan", **overrides))
        if got != want:
            bad.append(f"{overrides} -> {got}, want {want}")
    out = StringIO()
    with redirect_stdout(out):
        code = cli.main(["paramcount", "--arch", "kan"])
    cli_ok = code == 0 and out.getvalue().strip() == "31080"
    _report(1, "parameter counts", not bad and cli_ok,
            "; ".join(bad) or f"{len(KAN_COUNT_TABLE)} table cells exact, CLI agrees")


# -- 2: analytic gradients vs central differences ----------------------------------


def test_gradients_match_finite_differences():
    t0 = time.time()
    target = sine_mixture(2048)
    # Scattered sample times keep every architecture's output spectrally
    # broadband, so no mel band sits at the log floor where the loss
    # curvature defeats h=1e-6 central differences.
    times = np.random.Generator(np.random.PCG64(3)).uniform(-1.0, 1.0, 2048)
    loss_fn = make_combined_loss(target)
    errs = {}
    for arch in ARCHS:
        model = build(InrConfig(arch, hidden=(16, 8), seed=7))

        def f(*params):
            return loss_fn(model.forward(times))

        # The difference quotient of a loss of size O(1) at h=1e-6 carries
        # about 1e-9 of rounding noise, so coordinates whose true gradient
        # is below 1e-4 are compared on that absolute scale instead.
        errs[arch] = grad_check(f, model.params, h=1e-6, n_samples=10,
                                seed=5, denom_floor=1e-4)
    worst = max(errs, key=errs.get)
    ok = all(e <= 1e-4 for e in errs.values()) and time.time() - t0 < 120
    _report(2, "gradient agreement", ok,
            f"worst {worst} rel err {errs[worst]:.2e}, six archs, h=1e-6")


# -- 3: B-spline basis properties ---------------------------------------------------


def test_bspline_basis_properties():
    t0 = time.time()
    worst_pu = 0.0
    worst_support = 0
    worst_oracle = 0.0
    x_dense = np.linspace(-1.0, 1.0, 1000)
    x_few = np.linspace(-1.0, 1.0, 200)
    coeff_rng = np.random.Generator(np.random.PCG64(17))
    for grid_size in range(1, 21):
        for order in range(0, 8):
            grid = make_grid(grid_size, order)
            mat = spline_bases(Tensor(x_dense), grid).data
            worst_pu = max(worst_pu, np.abs(mat.sum(axis=1) - 1.0).max())
            worst_support = max(worst_support,
                                int(np.count_nonzero(mat, axis=1).max()) - (order + 1))
            ref = naive_bases(grid, x_few)
            coeffs = coeff_rng.standard_normal(grid_size + order)
            got = spline_bases(Tensor(x_few), grid).data @ coeffs
            worst_oracle = max(worst_oracle, np.abs(got - ref @ coeffs).max())
    ok = worst_pu <= 1e-9 and worst_support <= 0 and worst_oracle <= 1e-12
    ok = ok and time.time() - t0 < 30
    _report(3, "b-spline basis", ok,
            f"partition {worst_pu:.1e}, support excess {worst_support}, "
            f"oracle {worst_oracle:.1e}")


# -- 4: desk-scale KAN fit ----------------------------------------------------------


def test_kan_fit_reaches_target_quality():
    t0 = time.time()
    clip = AudioClip(22050, sine_mixture(), "mix3")
    result = fit_inr(clip, InrConfig("kan", seed=42),
                     TrainConfig(steps=400, lr=5e-4, lam_f=0.0))
    psnr = result.metrics["psnr"]
    frac = fraction_nonincreasing(result.loss_trace, 100)
    elapsed = time.time() - t0
    ok = psnr > 30.0 and frac >= 0.9 and elapsed < 300
    _report(4, "kan desk fit", ok,
            f"psnr {psnr:.2f} dB, nonincreasing windows {frac:.3f}, {elapsed:.0f}s")


# -- 5: comparison harness beats the zero predictor ---------------------------------


def test_architecture_comparison_beats_zero_predictor(tmp_path):
    t0 = time.time()
    clips = toy_clips(3)
    configs = [InrConfig(arch, seed=1) for arch in ARCHS]
    out = tmp_path / "table.csv"
    report = compare_archs(clips, configs, TrainConfig(steps=300, lam_f=0.0),
                           out_csv=out)
    zero_mse = {c.source_id: float(np.mean(c.samples ** 2)) for c in clips}
    beats = [r["mse"] < zero_mse[r["clip_id"]] for r in report.rows]
    numbers = []
    for line in out.read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        numbers.extend(float(v) for v in line.split(",")[2:])
    elapsed = time.time() - t0
    ok = (len(report.rows) == 18 and all(beats)
          and np.isfinite(numbers).all() and elapsed < 1800)
    _report(5, "architecture comparison", ok,
            f"{sum(beats)}/{len(beats)} fits beat the zero predictor, "
            f"{len(numbers)} finite csv values, {elapsed:.0f}s")


# -- 6: metric hand values ----------------------------------------------------------


def test_metric_hand_values():
    checks = {}
    rng = np.random.Generator(np.random.PCG64(99))

    mse, psnr = mse_psnr(np.zeros(64), np.full(64, np.sqrt(0.5)))
    checks["psnr 3.0103"] = abs(mse - 0.5) < 1e-15 and abs(psnr - 3.0103) < 1e-4

    x = rng.standard_normal(128)
    xhat = x + 0.1 * rng.standard_normal(128)
    checks["si-snr scale invariant"] = abs(si_snr(x, xhat) - si_snr(x, 7.0 * xhat)) < 1e-9
    checks["si-snr cap"] = si_snr(x, 0.25 * x) == SI_SNR_CAP
    ref = np.array([1.0, -1.0, 1.0, -1.0])
    err = np.array([1.0, 1.0, -1.0, -1.0])
    checks["si-snr orthogonal 0 dB"] = abs(si_snr(ref, ref + err)) < 1e-12

    sig = rng.standard_normal(4096)
    checks["lsd identity"] = lsd(sig, sig.copy()) == 0.0
    checks["lsd gain 2.0"] = abs(lsd(sig, 10.0 * sig) - 2.0) < 1e-9

    support = squared_index_support(32)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.0, 1.0, 32)
        q = rng.uniform(0.0, 1.0, 32)
        p /= p.sum()
        q /= q.sum()
        worst = max(worst, abs(wasserstein_1d(p, q, support)
                               - brute_force_wasserstein(p, q, support)))
    checks["wasserstein oracle"] = worst <= 1e-9
    checks["wasserstein symmetry"] = (wasserstein_1d(p, q, support)
                                      == wasserstein_1d(q, p, support))
    a, b = rng.standard_normal(64), rng.standard_normal(64)
    checks["wasserstein axioms"] = (spectral_wasserstein(a, a) == 0.0
                                    and spectral_wasserstein(a, b) >= 0.0
                                    and spectral_wasserstein(a, b)
                                    == spectral_wasserstein(b, a))

    bad = [k for k, v in checks.items() if not v]
    _report(6, "metric hand values", not bad,
            "; ".join(bad) or f"{len(checks)} hand cases, cdf oracle gap {worst:.1e}")


# -- 7: optimizer hand values -------------------------------------------------------


def test_optimizer_hand_values():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    AdamW([("p", p)], lr=0.1, weight_decay=0.01).step()
    want = 1.0 - 0.1 * 0.01 * 1.0 - 0.1 / (1.0 + 1e-8)
    step_ok = abs(p.data[0] - want) <= 1e-12

    sched = OneCycleSchedule(max_lr=1.0, total_steps=100, warmup_fraction=0.3,
                             div_factor=25.0, final_div_factor=1e4)
    bounds_ok = (one_cycle_lr(sched, 0) == 1.0 / 25.0
                 and one_cycle_lr(sched, 30) == 1.0
                 and one_cycle_lr(sched, 100) == 1.0 / 1e4)
    mid = (1.0 / 25.0 + 1.0) / 2.0
    cosine_ok = abs(one_cycle_lr(sched, 15) - mid) < 1e-12
    _report(7, "optimizer hand values", step_ok and bounds_ok and cosine_ok,
            f"first-step gap {abs(p.data[0] - want):.1e}, boundaries exact")


# -- 8: hypernetwork desk scale -----------------------------------------------------


def _theta_flat(state) -> np.ndarray:
    return np.concatenate([p.data.reshape(-1) for p in state.groups()["theta"]])


def test_hypernetwork_desk_scale():
    t0 = time.time()
    parts = {}

    # (a) freshly built state leaves the shared weights untouched
    cfg = FewSoundConfig(target=InrConfig("siren", hidden=(6, 4), seed=3),
                         window=256, embed_dim=8, conv0_channels=4,
                         encoder_channels=(4, 8), weight_enc_hidden=16,
                         hyper_hidden=(16,), lam_f=0.0, seed=11)
    state = build_state(cfg)
    times = np.linspace(-1.0, 1.0, cfg.window)
    from audioinr.inr import unflatten_params
    universal = unflatten_params(cfg.target, _theta_flat(state)).forward(times).data
    rng = np.random.Generator(np.random.PCG64(21))
    identical = []
    for _ in range(10):
        clip = 0.3 * rng.standard_normal(cfg.window)
        identical.append(np.array_equal(adapt(state, clip).forward(times).data,
                                        universal)
                         and np.array_equal(adapted_flat(state, clip).data,
                                            _theta_flat(state)))
    parts["identity"] = all(identical)

    # (b) the zero output layer gates the encoders until the first update
    leaves = [p for _, p in state.named_params()]
    window = sine_mixture(cfg.window)

    def groups_with_grad():
        flat = adapted_flat(state, window)
        from audioinr.inr import forward_from_flat
        pred = forward_from_flat(cfg.target, flat, times, state.target_embedding)
        loss = (pred - Tensor(window)).square().mean()
        backward(loss, leaves=leaves)
        return {g: any(np.any(p.grad != 0.0) for p in ps)
                for g, ps in state.groups().items()}

    before = groups_with_grad()
    AdamW(state.named_params(), lr=1e-3).step()
    after = groups_with_grad()
    parts["gradient reach"] = (before == {"encoder": False, "weight_enc": False,
                                          "hyper": True, "theta": True}
                               and all(after.values()))

    # (c) meta-training halves the epoch loss on a toy corpus
    train_cfg = FewSoundConfig(target=InrConfig("kan", hidden=(12, 6), seed=0),
                               window=2048, embed_dim=32, conv0_channels=8,
                               encoder_channels=(16, 16, 32, 32),
                               weight_enc_hidden=64, hyper_hidden=(128,),
                               lam_f=0.0, epochs=300, lr=1e-3, seed=0)
    _, trace = meta_train(toy_clips(16, n=2048, seed=5), train_cfg)
    ratio = float(trace[-1] / trace[0])
    parts["learning"] = ratio < 0.5

    # (d) the predicted update spans every target parameter
    sizes = []
    for c in (cfg, FewSoundConfig(target=InrConfig("kan"), window=64,
                                  embed_dim=4, conv0_channels=2,
                                  encoder_channels=(2, 2), weight_enc_hidden=4,
                                  hyper_hidden=(2,), seed=0)):
        st = build_state(c)
        delta = predict_update(st, encode_audio(st, np.zeros(c.window)),
                               encode_weights(st))
        sizes.append(delta.data.size == param_count(c.target))
    parts["update length"] = all(sizes) and param_count(InrConfig("kan")) == 31080

    elapsed = time.time() - t0
    bad = [k for k, v in parts.items() if not v]
    _report(8, "hypernetwork desk scale", not bad and elapsed < 900,
            "; ".join(bad) or f"loss ratio {ratio:.3f}, {elapsed:.0f}s")


# -- 9: overlap-add reconstruction --------------------------------------------------


def test_overlap_add_partition():
    window = 32768
    worst_sum = 0.0
    worst_rec = 0.0
    rng = np.random.Generator(np.random.PCG64(31))
    fade = crossfade_window(window)
    for n in (32768, 49152, 100000):
        starts, norm = overlap_add_weights(n, window)
        total = np.zeros(norm.size)
        for s in starts:
            total[s:s + window] += fade / norm[s:s + window]
        worst_sum = max(worst_sum, np.abs(total - 1.0).max())
        x = rng.standard_normal(n)
        rec = reconstruct_long(None, x, render_fn=lambda seg: seg, window=window)
        worst_rec = max(worst_rec, np.abs(rec - x).max())
    ok = worst_sum <= 1e-9 and worst_rec <= 1e-12
    _report(9, "overlap-add", ok,
            f"weight-sum gap {worst_sum:.1e}, identity render gap {worst_rec:.1e}")


# -- 10: persistence and determinism -------------------------------------------------


def test_persistence_and_determinism(tmp_path):
    parts = {}

    model = build(InrConfig("siren", hidden=(8, 4), seed=2))
    save_model(tmp_path / "m.bin", model)
    loaded = load_model(tmp_path / "m.bin")
    parts["model roundtrip"] = (loaded.config == model.config
                                and np.array_equal(flatten_params(loaded),
                                                   flatten_params(model)))

    state = build_state(FewSoundConfig(target=InrConfig("siren", hidden=(4,), seed=3),
                                       window=64, embed_dim=4, conv0_channels=2,
                                       encoder_channels=(2, 2), weight_enc_hidden=4,
                                       hyper_hidden=(8,), seed=9))
    from audioinr.fewsound import state_flatten
    save_model(tmp_path / "s.bin", state)
    loaded_state = load_model(tmp_path / "s.bin")
    parts["state roundtrip"] = (loaded_state.config == state.config
                                and np.array_equal(state_flatten(loaded_state),
                                                   state_flatten(state)))

    rng = np.random.Generator(np.random.PCG64(41))
    samples = rng.uniform(-1.0, 1.0, 1000).astype(np.float32).astype(np.float64)
    wav_write(tmp_path / "x.wav", AudioClip(22050, samples))
    parts["wav roundtrip"] = np.array_equal(wav_read(tmp_path / "x.wav").samples,
                                            samples)

    sr_in, sr_out, freq = 8000, 24000, 3000.0
    t = np.arange(sr_in) / sr_in
    out = resample(AudioClip(sr_in, 0.5 * np.sin(2.0 * np.pi * freq * t)), sr_out)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(out.samples.size)))
    freqs = np.arange(spec.size) * sr_out / out.samples.size
    peak_hz = freqs[np.argmax(spec)]
    image_ceiling = spec[freqs > 3600.0].max()
    parts["resampler"] = (abs(peak_hz - freq) < 2.0
                          and image_ceiling < 1e-3 * spec.max())

    clips = toy_clips(2)
    configs = [InrConfig("nerf", seed=1), InrConfig("kan", seed=1)]
    for name in ("a.csv", "b.csv"):
        compare_archs(clips, configs, TrainConfig(steps=20, lam_f=0.0),
                      out_csv=tmp_path / name)
    parts["bitwise csv"] = ((tmp_path / "a.csv").read_bytes()
                            == (tmp_path / "b.csv").read_bytes())

    bad = [k for k, v in parts.items() if not v]
    _report(10, "persistence and determinism", not bad,
            "; ".join(bad) or f"peak {peak_hz:.0f} Hz, images "
            f"{image_ceiling / spec.max():.1e} of signal")
