"""Evaluation metrics, spectrogram export, and report aggregation."""

import math

import numpy as np
import pytest

from audioinr.loss import StftResolution, hann_window
from audioinr.metrics import (
    DEFAULT_METRIC_RES,
    LSD_EPS,
    METRIC_COLUMNS,
    MetricsReport,
    PSNR_SENTINEL,
    SI_SNR_CAP,
    compute_all,
    lsd,
    mse_psnr,
    si_snr,
    spectral_wasserstein,
    spectrogram_export,
    squared_index_support,
    wasserstein_1d,
)
from audioinr.tensor import ContractError, DomainError, ShapeError

RES = StftResolution(256, 64, 256)


# -- mse / psnr ------------------------------------------------------------------


def test_mse_psnr_known_values():
    x = np.zeros(100)
    mse, psnr = mse_psnr(x, np.full(100, 0.5))
    assert mse == 0.25
    np.testing.assert_allclose(psnr, 10.0 * math.log10(4.0), rtol=1e-12)


def test_psnr_gains_six_db_per_halving(rng):
    x = rng.standard_normal(256)
    e = rng.standard_normal(256)
    _, p1 = mse_psnr(x, x + e)
    _, p2 = mse_psnr(x, x + 0.5 * e)
    np.testing.assert_allclose(p2 - p1, 20.0 * math.log10(2.0), rtol=1e-12)


def test_psnr_sentinel_on_exact_match(rng):
    x = rng.standard_normal(64)
    assert mse_psnr(x, x.copy()) == (0.0, PSNR_SENTINEL)


def test_pair_validation():
    with pytest.raises(ShapeError):
        mse_psnr(np.zeros(4), np.zeros(5))
    with pytest.raises(ShapeError):
        mse_psnr(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ContractError):
        mse_psnr(np.zeros(0), np.zeros(0))


# -- si-snr ----------------------------------------------------------------------


def test_si_snr_orthogonal_error_is_zero_db():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    e = np.array([1.0, 1.0, -1.0, -1.0])     # zero-mean, orthogonal, same power
    np.testing.assert_allclose(si_snr(x, x + e), 0.0, atol=1e-12)


def test_si_snr_scale_invariant_in_estimate(rng):
    x = rng.standard_normal(128)
    xhat = x + 0.1 * rng.standard_normal(128)
    np.testing.assert_allclose(si_snr(x, xhat), si_snr(x, 7.0 * xhat), atol=1e-9)


def test_si_snr_perfect_scaled_copy_hits_cap(rng):
    x = rng.standard_normal(64)
    assert si_snr(x, 0.25 * x) == SI_SNR_CAP


def test_si_snr_cap_on_tiny_error():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    e = np.array([1.0, 1.0, -1.0, -1.0]) * 1e-9
    assert si_snr(x, x + e) == SI_SNR_CAP


def test_si_snr_constant_reference_rejected():
    with pytest.raises(DomainError):
        si_snr(np.full(16, 0.3), np.zeros(16))


# -- lsd -------------------------------------------------------------------------


def test_lsd_zero_on_identical(rng):
    x = rng.standard_normal(512)
    assert lsd(x, x.copy(), RES) == 0.0


def test_lsd_constant_gain(rng):
    # power gain of 100 shifts every log10 power bin by 2
    x = rng.standard_normal(512) * 3.0
    np.testing.assert_allclose(lsd(x, 10.0 * x, RES), 2.0, atol=1e-2)


def test_lsd_short_signal_rejected():
    with pytest.raises(ContractError):
        lsd(np.zeros(100), np.zeros(100), RES)


@pytest.mark.parametrize("res", [RES, DEFAULT_METRIC_RES, StftResolution(256, 48, 200)])
def test_lsd_bitwise_equals_numpy_formula(res, rng):
    x = rng.standard_normal(4000)
    xhat = x + 0.1 * rng.standard_normal(4000)

    def mag(sig):
        n_frames = (sig.size - res.window_size) // res.hop_size + 1
        idx = res.hop_size * np.arange(n_frames)[:, None] + np.arange(res.window_size)
        return np.abs(np.fft.rfft(sig[idx] * hann_window(res.window_size),
                                  n=res.fft_size, axis=1))

    px = np.log10(mag(x) ** 2 + LSD_EPS)
    ph = np.log10(mag(xhat) ** 2 + LSD_EPS)
    want = float(np.mean(np.sqrt(np.mean((px - ph) ** 2, axis=1))))
    assert np.array_equal(lsd(x, xhat, res), want)


# -- wasserstein -----------------------------------------------------------------


def test_wasserstein_point_masses():
    support = np.array([0.0, 1.0, 2.0, 3.0])
    p = np.array([1.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 0.0, 0.0, 1.0])
    assert wasserstein_1d(p, q, support) == 3.0
    assert wasserstein_1d(q, p, support) == 3.0
    assert wasserstein_1d(p, p, support) == 0.0


def test_wasserstein_split_mass():
    support = np.array([0.0, 0.5, 1.0])
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.5, 0.0, 0.5])            # half the mass moves distance 1
    np.testing.assert_allclose(wasserstein_1d(p, q, support), 0.5, atol=1e-15)


def brute_force_wasserstein(p, q, support):
    """Integrate |CDF difference| segment by segment, scalar loop."""
    total = 0.0
    cp = cq = 0.0
    for i in range(len(support) - 1):
        cp += p[i]
        cq += q[i]
        total += abs(cp - cq) * (support[i + 1] - support[i])
    return total


def test_wasserstein_matches_brute_force(rng):
    for _ in range(10):
        p = rng.uniform(0.0, 1.0, 32)
        q = rng.uniform(0.0, 1.0, 32)
        p, q = p / p.sum(), q / q.sum()
        support = np.sort(rng.uniform(0.0, 10.0, 32))
        got = wasserstein_1d(p, q, support)
        np.testing.assert_allclose(got, brute_force_wasserstein(p, q, support),
                                   atol=1e-12)


def test_wasserstein_shape_check():
    with pytest.raises(ShapeError):
        wasserstein_1d(np.zeros(4), np.zeros(5), np.zeros(4))


def test_squared_index_support():
    np.testing.assert_array_equal(squared_index_support(5), [0.0, 1.0, 4.0, 9.0, 16.0])


def test_spectral_wasserstein_two_tones():
    n = 64
    k1, k2 = 5, 9
    t = np.arange(n)
    x = np.cos(2.0 * math.pi * k1 * t / n)
    y = np.cos(2.0 * math.pi * k2 * t / n)
    # each tone is two half masses, at k^2 and (n-k)^2 on the squared support
    want = (0.5 * (k2 ** 2 - k1 ** 2)
            + 0.5 * ((n - k1) ** 2 - (n - k2) ** 2)) / n
    np.testing.assert_allclose(spectral_wasserstein(x, y), want, atol=1e-9)
    assert spectral_wasserstein(x, x) == 0.0


def test_spectral_wasserstein_symmetric(rng):
    x, y = rng.standard_normal(128), rng.standard_normal(128)
    np.testing.assert_allclose(spectral_wasserstein(x, y),
                               spectral_wasserstein(y, x), atol=1e-15)


def test_spectral_wasserstein_zero_signal_rejected():
    with pytest.raises(DomainError):
        spectral_wasserstein(np.zeros(32), np.ones(32))


# -- compute_all -----------------------------------------------------------------


def test_compute_all_matches_parts(rng):
    x = rng.standard_normal(512)
    xhat = x + 0.05 * rng.standard_normal(512)
    got = compute_all(x, xhat, RES)
    assert set(got) == set(METRIC_COLUMNS)
    mse, psnr = mse_psnr(x, xhat)
    assert got["mse"] == mse and got["psnr"] == psnr
    assert got["lsd"] == lsd(x, xhat, RES)
    assert got["sisnr"] == si_snr(x, xhat)
    assert got["wd"] == spectral_wasserstein(x, xhat)


def test_compute_all_omits_undefined_metrics(rng):
    # silence has no SI-SNR and no spectral distribution
    got = compute_all(np.zeros(512), np.zeros(512), RES)
    assert set(got) == {"mse", "psnr", "lsd"}
    assert got["mse"] == 0.0 and got["psnr"] == PSNR_SENTINEL and got["lsd"] == 0.0
    # a pair shorter than one frame has no LSD
    x = rng.standard_normal(100)
    assert set(compute_all(x, 0.5 * x, RES)) == {"mse", "psnr", "sisnr", "wd"}
    with pytest.raises(ShapeError):
        compute_all(np.zeros(4), np.zeros(5), RES)


# -- spectrogram export ------------------------------------------------------------


def test_spectrogram_export_files(tmp_path, rng):
    x = rng.standard_normal(512)
    csv_path, pgm_path = spectrogram_export(x, tmp_path / "spec", RES)
    assert csv_path.endswith(".csv") and pgm_path.endswith(".pgm")

    rows = [line.split(",") for line in
            open(csv_path).read().strip().split("\n")]
    n_frames = (512 - RES.window_size) // RES.hop_size + 1
    assert len(rows) == n_frames
    assert len(rows[0]) == RES.bins

    data = open(pgm_path, "rb").read()
    header = f"P5\n{n_frames} {RES.bins}\n255\n".encode()
    assert data.startswith(header)
    img = np.frombuffer(data[len(header):], dtype=np.uint8)
    assert img.size == n_frames * RES.bins
    assert img.min() == 0 and img.max() == 255


def test_spectrogram_export_strips_suffix(tmp_path, rng):
    x = rng.standard_normal(512)
    csv_path, pgm_path = spectrogram_export(x, tmp_path / "s.csv", RES)
    assert csv_path == str(tmp_path / "s.csv")
    assert pgm_path == str(tmp_path / "s.pgm")


def test_spectrogram_export_csv_values(tmp_path, rng):
    x = rng.standard_normal(512)
    csv_path, _ = spectrogram_export(x, tmp_path / "v", RES)
    got = np.loadtxt(csv_path, delimiter=",")
    win = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(256) / 256)
    frames = np.stack([x[64 * i: 64 * i + 256] * win for i in range(5)])
    want = 20.0 * np.log10(np.abs(np.fft.rfft(frames, axis=1)) + 1e-7)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_spectrogram_export_flat_signal(tmp_path):
    csv_path, pgm_path = spectrogram_export(np.zeros(512), tmp_path / "z", RES)
    data = open(pgm_path, "rb").read()
    img = np.frombuffer(data.split(b"255\n", 1)[1], dtype=np.uint8)
    assert np.all(img == 0)


# -- report ------------------------------------------------------------------------


def _fake_values(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return {m: float(rng.uniform(0.0, 10.0)) for m in METRIC_COLUMNS}


def test_report_aggregate():
    rep = MetricsReport()
    a1, a2 = _fake_values(1), _fake_values(2)
    rep.add("c0", "siren", 100, a1)
    rep.add("c1", "siren", 100, a2)
    rep.add("c0", "kan", 200, _fake_values(3))
    agg = rep.aggregate()
    assert list(agg) == ["siren", "kan"]
    for m in METRIC_COLUMNS:
        both = np.array([a1[m], a2[m]])
        np.testing.assert_allclose(agg["siren"][m][0], both.mean(), rtol=1e-12)
        np.testing.assert_allclose(agg["siren"][m][1], both.std(), rtol=1e-12)
        assert agg["kan"][m][1] == 0.0


def test_report_csv_layout(tmp_path):
    rep = MetricsReport()
    rep.add("c0", "siren", 100, _fake_values(1))
    rep.add("c1", "siren", 100, _fake_values(2))
    rep.warn("one clip skipped")
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "clip_id,arch,params," + ",".join(METRIC_COLUMNS)
    assert lines[1].startswith("c0,siren,100,")
    assert lines[3].startswith("mean,siren,100,")
    assert lines[4].startswith("std,siren,100,")
    assert lines[5] == "# warning: one clip skipped"

    rep.write_csv(tmp_path / "report.csv")
    assert open(tmp_path / "report.csv").read() == text
