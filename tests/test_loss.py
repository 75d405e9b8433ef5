"""Spectral loss stack: windows, STFT, mel filterbank, combined objective."""

import math

import numpy as np
import pytest

from audioinr.loss import (
    DEFAULT_RESOLUTIONS,
    LOG_EPS,
    MelFilterbank,
    StftResolution,
    hann_window,
    hz_to_mel,
    make_combined_loss,
    make_mel_filterbank,
    mel_project,
    stft_mag,
)
from audioinr import loss as loss_mod
from audioinr import tensor as T
from audioinr.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    default_dtype,
    grad_check,
)
from unfused_ops import bins, chain_stft_mag, matmul

FAST = (StftResolution(64, 16, 64),)


# -- window and DFT ------------------------------------------------------------


def test_hann_window_values():
    n = 16
    w = hann_window(n)
    k = np.arange(n)
    np.testing.assert_allclose(w, 0.5 - 0.5 * np.cos(2.0 * math.pi * k / n),
                               atol=1e-15)
    assert w[0] == 0.0
    assert w[n // 2] == 1.0
    np.testing.assert_allclose(w[1:], w[1:][::-1], atol=1e-15)


def naive_dft_mag(x: np.ndarray) -> np.ndarray:
    """O(n^2) loop DFT magnitude, bins 0..n//2."""
    n = x.size
    out = np.zeros(n // 2 + 1)
    for k in range(n // 2 + 1):
        re = sum(x[t] * math.cos(2.0 * math.pi * k * t / n) for t in range(n))
        im = sum(-x[t] * math.sin(2.0 * math.pi * k * t / n) for t in range(n))
        out[k] = math.hypot(re, im)
    return out


def test_dft_matrices_against_naive_loop(rng):
    n = 32
    x = rng.standard_normal(n)
    mag = stft_mag(Tensor(x), StftResolution(n, n, n)).data
    assert mag.shape == (1, n // 2 + 1)
    xw = x * hann_window(n)
    np.testing.assert_allclose(mag[0], naive_dft_mag(xw), atol=1e-10)
    np.testing.assert_allclose(mag[0], np.abs(np.fft.rfft(xw)), atol=1e-10)


def test_loss_constants_cached_per_dtype(rng):
    target = rng.standard_normal(2048)
    pred = rng.standard_normal(2048)
    first = {}
    for _ in range(3):
        for dt in (np.float32, np.float64):
            with default_dtype(dt):
                got = make_combined_loss(target, n_mels=16)(Tensor(pred.astype(dt))).data
            assert got.dtype == dt
            assert got.tobytes() == first.setdefault(dt, got).tobytes()
    for dt in (np.float32, np.float64):
        c = make_mel_filterbank(16, 22050, 512, dtype=dt).matrix
        assert c.dtype == dt
        np.testing.assert_array_equal(c, make_mel_filterbank(16, 22050, 512).matrix.astype(dt))
        with pytest.raises(ValueError):
            c[0, 0] = 0.5
        assert make_mel_filterbank(16, 22050, 512, dtype=dt).matrix is c


# -- stft ----------------------------------------------------------------------


def test_stft_frame_layout(rng):
    res = StftResolution(32, 8, 32)
    x = rng.standard_normal(96)
    mag = stft_mag(Tensor(x), res).data
    assert mag.shape == ((96 - 32) // 8 + 1, 17)
    win = hann_window(32)
    for f in range(mag.shape[0]):
        frame = x[8 * f: 8 * f + 32] * win
        np.testing.assert_allclose(mag[f], np.abs(np.fft.rfft(frame)), atol=1e-10)


def test_stft_zero_pads_short_window(rng):
    res = StftResolution(64, 16, 32)
    x = rng.standard_normal(64)
    mag = stft_mag(Tensor(x), res).data
    win = hann_window(32)
    want = np.abs(np.fft.rfft(x[:32] * win, 64))
    np.testing.assert_allclose(mag[0], want, atol=1e-10)


def test_stft_pure_tone_peak_bin():
    n = 256
    k0 = 19
    t = np.arange(n)
    x = np.cos(2.0 * math.pi * k0 * t / n)
    mag = stft_mag(Tensor(x), StftResolution(n, n, n)).data[0]
    assert int(np.argmax(mag)) == k0
    # Hann windowing leaves exactly N/4 at the tone bin for interior bins
    np.testing.assert_allclose(mag[k0], n / 4.0, atol=1e-9)


def test_stft_parseval_energy(rng):
    n = 128
    x = rng.standard_normal(n)
    win = hann_window(n)
    mag = stft_mag(Tensor(x), StftResolution(n, n, n)).data[0]
    # rebuild the full-spectrum energy from the one-sided bins
    full = mag[0] ** 2 + 2.0 * np.sum(mag[1:-1] ** 2) + mag[-1] ** 2
    np.testing.assert_allclose(full / n, np.sum((x * win) ** 2), rtol=1e-12)


def test_stft_gradient(rng):
    x = Tensor(rng.standard_normal(48), requires_grad=True)
    w = rng.standard_normal((3, 9))

    def f(xt):
        return (stft_mag(xt, StftResolution(16, 16, 16)) * Tensor(w)).sum()

    assert grad_check(f, [x], n_samples=30, seed=1) < 1e-6


def test_stft_input_validation(rng):
    with pytest.raises(ShapeError):
        stft_mag(Tensor(np.zeros((4, 4))), StftResolution(4, 2, 4))
    with pytest.raises(ContractError):
        stft_mag(Tensor(np.zeros(8)), StftResolution(16, 4, 16))


def test_resolution_validation():
    with pytest.raises(ContractError):
        StftResolution(16, 0, 16)
    with pytest.raises(ContractError):
        StftResolution(16, 4, 32)      # window larger than fft
    with pytest.raises(ContractError):
        StftResolution(16, 20, 16)     # hop larger than window


# -- mel -----------------------------------------------------------------------


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def test_mel_scale_roundtrip():
    f = np.array([0.0, 440.0, 1000.0, 11025.0])
    np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)
    np.testing.assert_allclose(hz_to_mel(1000.0), 2595.0 * math.log10(1.0 + 1000.0 / 700.0))


def test_filterbank_shape_and_range():
    fb = make_mel_filterbank(20, 22050, 256)
    assert isinstance(fb, MelFilterbank)
    assert fb.matrix.shape == (20, 129)
    assert fb.matrix.min() >= 0.0
    assert fb.matrix.max() <= 1.0


def test_filterbank_slopes_sum_to_one():
    # peaks sit at both edges, so every bin is covered and columns sum to 1
    fb = make_mel_filterbank(40, 22050, 512)
    np.testing.assert_allclose(fb.matrix.sum(axis=0), 1.0, atol=1e-9)


def test_filterbank_band_limits():
    fb = make_mel_filterbank(10, 16000, 128, f_min=500.0, f_max=4000.0)
    freqs = np.arange(65) * (16000 / 128)
    outside = (freqs < 500.0) | (freqs > 4000.0)
    assert np.all(fb.matrix[:, outside] == 0.0)
    inside = ~outside
    np.testing.assert_allclose(fb.matrix[:, inside].sum(axis=0), 1.0, atol=1e-9)


def test_filterbank_cached_and_validated():
    assert make_mel_filterbank(12, 8000, 64) is make_mel_filterbank(12, 8000, 64)
    with pytest.raises(ContractError):
        make_mel_filterbank(1, 8000, 64)


def test_mel_project_matches_numpy(rng):
    fb = make_mel_filterbank(8, 22050, 64)
    mag = rng.uniform(0.0, 2.0, (5, 33))
    got = mel_project(Tensor(mag), fb).data
    np.testing.assert_allclose(got, mag @ fb.matrix.T, atol=1e-14)
    with pytest.raises(ShapeError):
        mel_project(Tensor(np.zeros((5, 20))), fb)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mel_project_bitwise_equal_to_matmul_graph(dtype, rng):
    # the linear node makes the same product, forward and backward, as a
    # matmul against the transposed filterbank
    fb = make_mel_filterbank(16, 22050, 256, dtype=dtype)
    mag = rng.uniform(0.0, 2.0, (40, 129)).astype(dtype)
    up = rng.standard_normal((40, 16)).astype(dtype)
    got = {}
    for name, project in (("linear", mel_project),
                          ("matmul", lambda m, f: matmul(m, Tensor(f.matrix.T)))):
        x = Tensor(mag.copy(), requires_grad=True)
        out = project(x, fb)
        backward((out * Tensor(up)).sum())
        got[name] = (out.data, x.grad)
    for a, b in zip(got["linear"], got["matmul"]):
        assert a.dtype == dtype
        np.testing.assert_array_equal(a, b)


# -- losses --------------------------------------------------------------------


def spectral(x, xh, resolutions=FAST) -> float:
    """The combined loss with the L1 term off."""
    return make_combined_loss(x, lam_t=0.0, resolutions=resolutions,
                              n_mels=8)(Tensor(xh)).item()


def test_spectral_loss_zero_on_identical(rng):
    x = rng.standard_normal(128)
    assert spectral(x, x.copy()) == 0.0


def test_spectral_loss_matches_hand_formula(rng):
    x, xh = rng.standard_normal(128), rng.standard_normal(128)
    res = FAST[0]
    fb = make_mel_filterbank(8, 22050, res.fft_size)
    win = hann_window(res.window_size)

    def mel(sig):
        frames = np.stack([sig[i * res.hop_size: i * res.hop_size + res.window_size]
                           for i in range((128 - res.window_size) // res.hop_size + 1)])
        return np.abs(np.fft.rfft(frames * win, res.fft_size)) @ fb.matrix.T

    mx, mh = mel(x), mel(xh)
    sc = np.linalg.norm(mx - mh) / np.linalg.norm(mx)
    log_l1 = np.abs(np.log(mx + LOG_EPS) - np.log(mh + LOG_EPS)).mean()
    np.testing.assert_allclose(spectral(x, xh), sc + log_l1, rtol=1e-10)


def test_spectral_loss_averages_resolutions(rng):
    x, xh = rng.standard_normal(256), rng.standard_normal(256)
    r1 = (StftResolution(64, 16, 64),)
    r2 = (StftResolution(128, 32, 128),)
    a = spectral(x, xh, r1)
    b = spectral(x, xh, r2)
    ab = spectral(x, xh, r1 + r2)
    np.testing.assert_allclose(ab, (a + b) / 2.0, rtol=1e-12)


def test_spectral_loss_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        make_combined_loss(np.zeros(128), lam_t=0.0, resolutions=FAST)(Tensor(np.zeros(127)))


def test_combined_loss_weights(rng):
    x, xh = rng.standard_normal(128), rng.standard_normal(128)
    l1 = np.abs(x - xh).mean()
    t_only = make_combined_loss(x, lam_t=2.0, lam_f=0.0, resolutions=FAST, n_mels=8)
    np.testing.assert_allclose(t_only(Tensor(xh)).item(), 2.0 * l1, rtol=1e-12)
    both = make_combined_loss(x, lam_t=1.0, lam_f=0.5, resolutions=FAST, n_mels=8)
    np.testing.assert_allclose(both(Tensor(xh)).item(), l1 + 0.5 * spectral(x, xh),
                               rtol=1e-12)


def test_combined_loss_rejects_negative_weights():
    with pytest.raises(ContractError):
        make_combined_loss(np.zeros(128), lam_t=-1.0)
    with pytest.raises(ContractError):
        make_combined_loss(np.zeros(128), lam_f=-0.5)
    # nan once passed a plain `< 0` test: lam_f=nan dropped the spectral
    # term (nan > 0 is False) and lam_t=nan made every loss nan
    for weights in (dict(lam_t=math.nan), dict(lam_f=math.nan), dict(lam_t=math.inf),
                    dict(lam_f=math.inf), dict(lam_f=-math.inf)):
        with pytest.raises(ContractError, match="finite"):
            make_combined_loss(np.zeros(128), **weights)


def per_step_loss(x, xh: Tensor, resolutions) -> Tensor:
    """The combined loss (lam_t = lam_f = 1, 8 mels) as a graph that
    recomputes the target's norm and log magnitudes on every call."""
    tgt = Tensor(x.astype(xh.data.dtype))
    out = (tgt - xh).abs().mean().scale(1.0)
    total = None
    for res in resolutions:
        mx = Tensor(loss_mod._mel_mag(tgt, res, 22050, 8).data)
        mh = loss_mod._mel_mag(xh, res, 22050, 8)
        ref_norm = mx.square().sum().sqrt().clamp(loss_mod.NORM_GUARD, math.inf)
        term = (mx - mh).square().sum().sqrt() / ref_norm \
            + (mx.shift(LOG_EPS).log() - mh.shift(LOG_EPS).log()).abs().mean()
        total = term if total is None else total + term
    return out + total.scale(1.0 / len(resolutions))


def test_combined_loss_gradient(rng):
    x = rng.standard_normal(96)
    xh = Tensor(rng.standard_normal(96), requires_grad=True)
    fn = make_combined_loss(x, resolutions=FAST, n_mels=8)
    assert grad_check(fn, [xh], n_samples=40, seed=2) < 1e-5
    # the target's terms, computed once up front, leave the loss and its
    # gradient bitwise equal to recomputing them on every call
    resolutions = FAST + (StftResolution(32, 8, 24),)
    pred = rng.standard_normal(96)
    for dt in ("float64", "float32"):
        with default_dtype(dt):
            fn = make_combined_loss(x, resolutions=resolutions, n_mels=8)
            got = []
            for loss_of in (fn, lambda xh: per_step_loss(x, xh, resolutions)):
                xh = Tensor(pred.astype(dt), requires_grad=True)
                loss = loss_of(xh)
                backward(loss)
                got.append((loss.data, xh.grad))
        (lc, gc), (lr, gr) = got
        assert lc.dtype == dt and lc.tobytes() == lr.tobytes()
        assert gc.dtype == dt and gc.tobytes() == gr.tobytes()


def test_combined_loss_matches_dft_matrix_chain(rng, monkeypatch):
    n = 4096
    target = 0.3 * rng.standard_normal(n)
    pred = 0.3 * rng.standard_normal(n)
    resolutions = DEFAULT_RESOLUTIONS + (StftResolution(512, 96, 400),)
    got = {}
    for name in ("op", "chain"):
        if name == "chain":
            monkeypatch.setattr(loss_mod, "stft_mag", chain_stft_mag)
        xh = Tensor(pred.copy(), requires_grad=True)
        loss = make_combined_loss(target, resolutions=resolutions)(xh)
        backward(loss)
        got[name] = (loss.item(), xh.grad)
    (lo, go), (lc, gc) = got["op"], got["chain"]
    np.testing.assert_allclose(lo, lc, rtol=1e-12)
    assert np.abs(go - gc).max() <= 1e-10 * np.abs(gc).max()


def _dft_oracle(x: np.ndarray, res: StftResolution):
    """Windowed frames and explicit cos/-sin matrices of the window's rows."""
    n_frames = (x.size - res.window_size) // res.hop_size + 1
    win = hann_window(res.window_size)
    frames = np.stack([x[f * res.hop_size: f * res.hop_size + res.window_size] * win
                       for f in range(n_frames)])
    ang = np.zeros((res.window_size, bins(res)))
    for t in range(res.window_size):
        for k in range(bins(res)):
            ang[t, k] = 2.0 * math.pi * ((t * k) % res.fft_size) / res.fft_size
    return frames, np.cos(ang), -np.sin(ang), win


@pytest.mark.parametrize("res", [StftResolution(64, 16, 40), StftResolution(63, 12, 40),
                                 StftResolution(32, 8, 32)])
def test_stft_mag_matches_dft_matrix_oracle(res, rng):
    x = rng.standard_normal(200)
    frames, c, s, win = _dft_oracle(x, res)
    re, im = frames @ c, frames @ s
    mag = np.hypot(re, im)
    w = rng.standard_normal(mag.shape)
    xt = Tensor(x, requires_grad=True)
    out = stft_mag(xt, res)
    np.testing.assert_allclose(out.data, mag, rtol=1e-10)
    backward((out * Tensor(w)).sum())
    # d/dframe of sum(w * |X|) is (w re/|X|) C^T + (w im/|X|) S^T, then the
    # window, then each frame's samples add back at their offsets
    gf = ((w * re / mag) @ c.T + (w * im / mag) @ s.T) * win
    want = np.zeros_like(x)
    for f in range(gf.shape[0]):
        want[f * res.hop_size: f * res.hop_size + res.window_size] += gf[f]
    np.testing.assert_allclose(xt.grad, want, rtol=1e-10)


def test_stft_mag_grad_check(rng):
    res = StftResolution(64, 16, 32)
    x = Tensor(rng.standard_normal(112), requires_grad=True)
    w = Tensor(rng.standard_normal(stft_mag(x, res).shape))
    assert grad_check(lambda xt: (stft_mag(xt, res) * w).sum(), [x]) < 1e-6


@pytest.mark.parametrize("res", DEFAULT_RESOLUTIONS + (StftResolution(64, 16, 32),))
def test_stft_mag_float32_gradients(res, rng):
    x = rng.standard_normal(4096).astype(np.float32)
    w = rng.standard_normal(stft_mag(Tensor(x), res).shape).astype(np.float32)
    grads = {}
    for dt in (np.float32, np.float64):
        xt = Tensor(x.astype(dt), requires_grad=True)
        out = stft_mag(xt, res)
        assert out.data.dtype == dt
        backward((out * Tensor(w.astype(dt))).sum())
        assert xt.grad.dtype == dt
        grads[dt] = xt.grad
    ref = grads[np.float64]
    assert np.abs(grads[np.float32] - ref).max() <= 1e-5 * np.abs(ref).max()


def test_combined_loss_holds_one_stft_node_per_resolution(rng):
    n = 4096
    fn = make_combined_loss(rng.standard_normal(n), n_mels=16)
    pred = Tensor(rng.standard_normal(n), requires_grad=True)
    nodes = T._reachable(fn(pred))
    widths = {bins(r) for r in DEFAULT_RESOLUTIONS}
    # nodes with parents only: the constant (n_mels, bins) filterbank is a leaf
    spectra = sorted(nd.shape for nd in nodes
                     if nd._parents and nd.data.ndim == 2 and nd.shape[1] in widths)
    want = sorted(((n - r.window_size) // r.hop_size + 1, bins(r)) for r in DEFAULT_RESOLUTIONS)
    assert spectra == want
    # the prediction feeds the L1 difference and one stft_mag per resolution
    users = [nd for nd in nodes if any(p is pred for p in nd._parents)]
    assert len(users) == 1 + len(DEFAULT_RESOLUTIONS)


def test_loss_closure_gradient_flows(rng):
    x = rng.standard_normal(128)
    fn = make_combined_loss(x, resolutions=FAST, n_mels=8)
    xh = Tensor(rng.standard_normal(128), requires_grad=True)
    backward(fn(xh))
    assert xh.grad is not None and np.any(xh.grad != 0.0)
    with pytest.raises(ShapeError):
        fn(Tensor(np.zeros(64)))


def test_default_resolutions_values():
    got = [(r.fft_size, r.hop_size, r.window_size) for r in DEFAULT_RESOLUTIONS]
    assert got == [(512, 128, 512), (1024, 256, 1024), (2048, 512, 2048)]
