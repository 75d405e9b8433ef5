"""End-to-end command-line runs against temp files."""

import ctypes
import glob
import os
import re
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

import audioinr
from audioinr import cli, fewsound, inr, trainer
from audioinr.cli import main
from audioinr.fewsound import FewSoundConfig
from audioinr.inr import ARCHS, InrConfig, param_count
from audioinr.serialize import save_model
from audioinr.toydata import sine_mixture, toy_clips
from audioinr.wavio import AudioClip, wav_read, wav_write

FIT_FAST = ["--arch", "siren", "--layers", "8", "--encoding-length", "3",
            "--steps", "3", "--lambda-f", "0"]


@pytest.fixture
def clip_path(tmp_path):
    path = tmp_path / "clip.wav"
    wav_write(path, AudioClip(22050, sine_mixture(256)))
    return str(path)


@pytest.fixture
def dataset_dir(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    for clip in toy_clips(2, n=300):
        wav_write(d / f"{clip.source_id}.wav", clip)
    return str(d)


def metric_lines(text):
    return {line.split("=")[0]: line for line in text.strip().split("\n")
            if "=" in line and " " not in line}


# -- paramcount ------------------------------------------------------------------


def test_paramcount_default_kan(capsys):
    assert main(["paramcount"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == str(param_count(InrConfig("kan")))
    assert out == "31080"


def test_paramcount_custom_layers(capsys):
    rc = main(["paramcount", "--arch", "nerf", "--layers", "32,16",
               "--encoding-length", "4"])
    assert rc == 0
    want = param_count(InrConfig("nerf", hidden=(32, 16), encoding_length=4))
    assert capsys.readouterr().out.strip() == str(want)


# -- fit / eval ---------------------------------------------------------------------


def test_fit_then_eval_reproduces_metrics(tmp_path, clip_path, capsys):
    model = str(tmp_path / "m.bin")
    assert main(["fit", clip_path, "--out", model] + FIT_FAST) == 0
    fit_out = capsys.readouterr().out
    assert "saved" in fit_out

    assert main(["eval", model, clip_path]) == 0
    eval_out = capsys.readouterr().out
    assert metric_lines(eval_out) == metric_lines(fit_out)


def test_fit_writes_trace_and_report(tmp_path, clip_path, capsys):
    model = str(tmp_path / "m.bin")
    trace = tmp_path / "trace.csv"
    report = tmp_path / "report.csv"
    rc = main(["fit", clip_path, "--out", model,
               "--trace", str(trace), "--report", str(report)] + FIT_FAST)
    assert rc == 0
    capsys.readouterr()

    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "step,loss,lr"
    assert len(lines) == 1 + 3
    assert all(len(l.split(",")) == 3 for l in lines[1:])

    rep = report.read_text().strip().split("\n")
    assert rep[0].startswith("clip_id,arch,params,")
    assert rep[1].startswith("clip.wav,siren,")


def test_fit_trace_is_written_atomically(tmp_path, clip_path, capsys, monkeypatch):
    written = {}
    real = cli.atomic_write_bytes

    def record(path, data):
        written[str(path)] = data
        real(path, data)

    monkeypatch.setattr(cli, "atomic_write_bytes", record)
    trace = tmp_path / "trace.csv"
    rc = main(["fit", clip_path, "--out", str(tmp_path / "m.bin"),
               "--trace", str(trace)] + FIT_FAST)
    assert rc == 0
    capsys.readouterr()
    data = trace.read_bytes()
    assert written[str(trace)] == data
    lr = "0.0001"                                   # the siren default
    rows = data.decode().split("\n")
    assert rows[0] == "step,loss,lr" and rows[-1] == ""
    assert [r.split(",")[0] for r in rows[1:-1]] == ["0", "1", "2"]
    assert all(r.endswith("," + lr) for r in rows[1:-1])
    assert glob.glob(str(tmp_path / ".tmp-*")) == []


def test_fit_is_reproducible_bytewise(tmp_path, clip_path, capsys):
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    assert main(["fit", clip_path, "--out", a] + FIT_FAST) == 0
    assert main(["fit", clip_path, "--out", b] + FIT_FAST) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


# -- compare -----------------------------------------------------------------------


def test_compare_writes_csv(tmp_path, dataset_dir, capsys):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", dataset_dir, "--out", str(out),
               "--archs", "siren,kan", "--layers", "6", "--encoding-length", "3",
               "--grid-size", "4", "--steps", "2", "--lambda-f", "0"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "wrote" in printed and "siren:" in printed and "kan:" in printed

    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("clip_id,arch,params,")
    clip_rows = [l for l in lines if l.startswith("toy")]
    assert len(clip_rows) == 4            # 2 clips x 2 archs
    assert sum(l.startswith("mean,") for l in lines) == 2
    assert sum(l.startswith("std,") for l in lines) == 2


def test_compare_rejects_unknown_arch(tmp_path, dataset_dir, capsys):
    rc = main(["compare", dataset_dir, "--out", str(tmp_path / "x.csv"),
               "--archs", "siren,transformer"])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err


# -- meta-train / reconstruct ----------------------------------------------------------


META_FAST = ["--window", "64", "--conv0-channels", "2", "--encoder-channels", "2,2",
             "--embed-dim", "4", "--weight-enc-hidden", "4", "--hyper-hidden", "8",
             "--epochs", "1", "--lambda-f", "0",
             "--arch", "siren", "--layers", "4", "--encoding-length", "3"]


def test_meta_train_then_reconstruct(tmp_path, dataset_dir, clip_path, capsys):
    state = str(tmp_path / "state.bin")
    rc = main(["meta-train", dataset_dir, "--out", state] + META_FAST)
    assert rc == 0
    assert "saved" in capsys.readouterr().out

    out_wav = str(tmp_path / "rec.wav")
    assert main(["reconstruct", state, clip_path, "--out", out_wav]) == 0
    capsys.readouterr()
    rec = wav_read(out_wav)
    assert len(rec) == 256
    assert np.all(np.isfinite(rec.samples))


def test_model_kind_checks(tmp_path, dataset_dir, clip_path, capsys):
    model = str(tmp_path / "m.bin")
    state = str(tmp_path / "s.bin")
    assert main(["fit", clip_path, "--out", model] + FIT_FAST) == 0
    assert main(["meta-train", dataset_dir, "--out", state] + META_FAST) == 0
    capsys.readouterr()

    assert main(["eval", state, clip_path]) == 2
    assert "hypernetwork state" in capsys.readouterr().err
    assert main(["reconstruct", model, clip_path,
                 "--out", str(tmp_path / "r.wav")]) == 2
    assert "single-network model" in capsys.readouterr().err


@pytest.mark.parametrize("flags,field", [(["--epochs", "0"], "epochs"),
                                         (["--batch-size", "0"], "batch_size"),
                                         (["--batch-size", "-1"], "batch_size"),
                                         (["--sample-rate", "0"], "sample_rate"),
                                         (["--seed", "-1"], "seed"),
                                         (["--seed", str(2 ** 63)], "seed"),
                                         (["--batch-size", str(2 ** 64), "--epochs", "1"],
                                          "batch_size"),
                                         (["--epochs", str(2 ** 32)], "epochs"),
                                         (["--conv0-channels", str(2 ** 32)],
                                          "conv0_channels"),
                                         (["--layers", f"4,{2 ** 32}"], "hidden")])
def test_meta_train_bad_counts_exit_two_before_reading(tmp_path, flags, field, capsys):
    # the dataset does not exist: the config is refused before it is read
    state = tmp_path / "state.bin"
    rc = main(["meta-train", str(tmp_path / "missing"), "--out", str(state)]
              + META_FAST + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err and "Traceback" not in err
    assert not state.exists()


def test_meta_train_out_of_memory_exits_two(tmp_path, dataset_dir, capsys, monkeypatch):
    def no_memory(config):
        raise MemoryError("Unable to allocate 224. GiB for an array")

    monkeypatch.setattr(fewsound, "build_state", no_memory)
    state = tmp_path / "state.bin"
    assert main(["meta-train", dataset_dir, "--out", str(state)] + META_FAST) == 2
    err = capsys.readouterr().err
    assert "error: Unable to allocate" in err and "Traceback" not in err
    assert not state.exists()


# -- spectrogram ------------------------------------------------------------------------


def test_spectrogram_writes_both_files(tmp_path, clip_path, capsys):
    stem = tmp_path / "spec"
    rc = main(["spectrogram", clip_path, "--out", str(stem),
               "--fft", "128", "--hop", "32", "--window", "128"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "spec.csv").exists()
    assert (tmp_path / "spec.pgm").exists()


# -- exit codes ---------------------------------------------------------------------------


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out


def test_usage_errors_exit_one(tmp_path, clip_path, capsys):
    assert main(["fit", clip_path]) == 1                     # missing --out
    assert "usage error" in capsys.readouterr().err
    assert main(["fit", clip_path, "--out", str(tmp_path / "m.bin"),
                 "--layers", "a,b"]) == 1                    # bad int list
    assert "usage error" in capsys.readouterr().err
    assert main(["bogus-command"]) == 1
    capsys.readouterr()


def test_runtime_errors_exit_two(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "missing.wav"),
                 "--out", str(tmp_path / "m.bin")] + FIT_FAST) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["eval", str(tmp_path / "missing.bin"),
                 str(tmp_path / "missing.wav")]) == 2
    capsys.readouterr()


def test_invalid_config_exits_two(tmp_path, clip_path, capsys):
    rc = main(["fit", clip_path, "--out", str(tmp_path / "m.bin"),
               "--arch", "kan", "--grid-size", "0", "--steps", "1",
               "--lambda-f", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_out_of_range_seed_exits_two_before_any_work(tmp_path, clip_path, monkeypatch,
                                                      capsys):
    # PCG64 refuses negative seeds and the model file stores an i64: a seed
    # of 2**63 once trained every step, then failed to save with a traceback
    def no_fit(*args):
        raise AssertionError("fit_inr ran")

    monkeypatch.setattr(trainer, "fit_inr", no_fit)
    assert main(["paramcount", "--seed", "-2"]) == 2
    assert "error: seed must be" in capsys.readouterr().err
    assert main(["fit", clip_path, "--out", str(tmp_path / "m.bin"),
                 "--seed", str(2 ** 63)]) == 2
    assert "error: seed must be" in capsys.readouterr().err


# -- flags to configs ----------------------------------------------------------------


INR_FLAGS = ["--layers", "7,5", "--encoding-length", "3", "--rff-features", "9",
             "--rff-sigma", "2.5", "--omega0", "12", "--s0", "4", "--finer-bias-bound", "0.5",
             "--grid-size", "6", "--spline-order", "3", "--no-scale-spline", "--seed", "17"]
INR_SET = dict(hidden=(7, 5), encoding_length=3, rff_features=9, rff_sigma=2.5, omega0=12.0,
               s0=4.0, finer_bias_bound=0.5, grid_size=6, spline_order=3, scale_spline=False,
               seed=17)
TRAIN_FLAGS = ["--steps", "5", "--lr", "0.002", "--lambda-t", "0.3", "--lambda-f", "0.7",
               "--precision", "float32", "--weight-decay", "0.2", "--n-mels", "40"]
TRAIN_SET = dict(steps=5, lr=0.002, lam_t=0.3, lam_f=0.7, precision="float32",
                 weight_decay=0.2, n_mels=40)
META_FLAGS = ["--window", "128", "--sample-rate", "16000", "--embed-dim", "8",
              "--conv0-channels", "3", "--encoder-channels", "4,4", "--weight-enc-hidden", "12",
              "--hyper-hidden", "9,7", "--epochs", "3", "--lr", "0.001", "--lambda-t", "0.4",
              "--lambda-f", "0.6", "--batch-size", "2"]
META_SET = dict(window=128, sample_rate=16000, embed_dim=8, conv0_channels=3,
                encoder_channels=(4, 4), weight_enc_hidden=12, hyper_hidden=(9, 7), epochs=3,
                lr=0.001, lam_t=0.4, lam_f=0.6, batch_size=2, seed=17)

CONFIG_CASES = {
    "fit-defaults": ["fit", "CLIP", "--out", "m.bin"],
    "fit-all": ["fit", "CLIP", "--out", "m.bin", "--arch", "rff"] + INR_FLAGS + TRAIN_FLAGS,
    "compare-defaults": ["compare", "DATA", "--out", "c.csv"],
    "compare-all": ["compare", "DATA", "--out", "c.csv", "--archs", "siren,kan"]
                   + INR_FLAGS + TRAIN_FLAGS,
    "meta-train-defaults": ["meta-train", "DATA", "--out", "s.bin"],
    "meta-train-all": ["meta-train", "DATA", "--out", "s.bin", "--arch", "wire"]
                      + META_FLAGS + INR_FLAGS,
    "paramcount-defaults": ["paramcount"],
    "paramcount-all": ["paramcount", "--arch", "finer"] + INR_FLAGS,
}


def dataclass_configs(case: str) -> list:
    """The configs a CONFIG_CASES argv should pass on, built directly."""
    every = case.endswith("-all")
    inr_kw = INR_SET if every else {}
    train = trainer.TrainConfig(**TRAIN_SET) if every else trainer.TrainConfig()
    if case.startswith("fit"):
        return [InrConfig("rff" if every else "kan", **inr_kw), train]
    if case.startswith("compare"):
        return [[InrConfig(a, **inr_kw) for a in (("siren", "kan") if every else ARCHS)], train]
    if case.startswith("meta-train"):
        target = InrConfig("wire" if every else "kan", **inr_kw)
        return [FewSoundConfig(target, **(META_SET if every else {}))]
    return [InrConfig("finer" if every else "kan", **inr_kw)]


class Captured(Exception):
    """Raised by a stub once it has recorded the configs it was given."""


@pytest.mark.parametrize("case", CONFIG_CASES)
def test_flags_reach_the_dataclass_configs(case, tmp_path, clip_path, monkeypatch):
    """With no optional flag every config field keeps its dataclass
    default; with every flag set, each flag reaches its own field."""
    got, prepared = [], []

    def record(*args, **kwargs):
        got.extend(args[1:])            # everything after the clip or dataset
        raise Captured

    monkeypatch.setattr(trainer, "fit_inr", record)
    monkeypatch.setattr(trainer, "compare_archs", record)
    monkeypatch.setattr(fewsound, "meta_train", record)
    monkeypatch.setattr(inr, "param_count", lambda cfg: got.append(cfg) or 0)
    monkeypatch.setattr(cli, "prepare_dataset",
                        lambda *args, **kwargs: prepared.append((args, kwargs)) or [])
    argv = [{"CLIP": clip_path, "DATA": str(tmp_path)}.get(a, a) for a in CONFIG_CASES[case]]
    if case.startswith("paramcount"):
        assert main(argv) == 0
    else:
        with pytest.raises(Captured):
            main(argv)
    want = dataclass_configs(case)
    assert got == want
    if case.startswith("meta-train"):
        (cfg,) = want
        assert prepared == [((str(tmp_path), cfg.window),
                             dict(seed=cfg.seed, target_sr=cfg.sample_rate))]


def options(argv: list[str]) -> list[str]:
    return [a for a in argv if a.startswith("--")]


HELP_FLAGS = {
    "fit": ["--out", "--sample-rate", "--report", "--trace", "--arch", "--scale-spline"]
           + options(INR_FLAGS + TRAIN_FLAGS),
    "eval": ["--sample-rate"],
    "compare": ["--out", "--archs", "--scale-spline"] + options(INR_FLAGS + TRAIN_FLAGS),
    "meta-train": ["--out", "--arch", "--scale-spline"] + options(META_FLAGS + INR_FLAGS),
    "reconstruct": ["--out", "--pcm16"],
    "spectrogram": ["--out", "--sample-rate", "--fft", "--hop", "--window"],
    "paramcount": ["--arch", "--scale-spline"] + options(INR_FLAGS),
}


@pytest.mark.parametrize("command", HELP_FLAGS)
def test_help_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as e:
        main([command, "--help"])
    assert e.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z0-9-]+", text)) == {"--help", *HELP_FLAGS[command]}
    if "--lambda-t" in HELP_FLAGS[command]:
        assert "--lambda-t LAMBDA_T" in text and "--lambda-f LAMBDA_F" in text


# -- runtime dependencies ------------------------------------------------------------


def test_runtime_paths_import_no_scipy(tmp_path):
    """A float32 KAN fit from a 44.1 kHz WAV (read, resample, save) and a
    WAV write/read leave scipy unimported: the package runs on numpy alone."""
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        import audioinr
        from audioinr import cli, fewsound
        from audioinr.toydata import sine_mixture
        from audioinr.wavio import AudioClip, resample, wav_read, wav_write
        src = AudioClip(44100, sine_mixture(8192))
        assert resample(src, 22050).samples.size == 4096
        wav_write({str(tmp_path / "in.wav")!r}, src)
        assert np.array_equal(wav_read({str(tmp_path / "in.wav")!r}).samples,
                              src.samples.astype(np.float32))
        rc = cli.main(["fit", {str(tmp_path / "in.wav")!r},
                       "--out", {str(tmp_path / "m.bin")!r}, "--arch", "kan",
                       "--steps", "1", "--precision", "float32"])
        assert rc == 0, rc
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert run_python(script) == "[]"


def run_python(script: str, *args: str) -> str:
    """Run script in a fresh interpreter that imports this audioinr; returns
    the last line of its standard output."""
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(audioinr.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip().splitlines()[-1]


def test_reconstruct_output_ignores_blas_thread_count(monkeypatch):
    # a default-width SIREN target with a non-zero update head: with BLAS
    # free to split its products, 1 and 2 threads rounded differently
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from audioinr import fewsound
        from audioinr.inr import InrConfig
        cfg = fewsound.FewSoundConfig(InrConfig("siren"), window=1024, embed_dim=16,
                                      conv0_channels=4, encoder_channels=(4, 4),
                                      weight_enc_hidden=64, hyper_hidden=(64,))
        state = fewsound.build_state(cfg)
        rng = np.random.Generator(np.random.PCG64(4))
        _, head = state.hyper[-2]
        head.data = 1e-3 * rng.standard_normal(head.data.shape)
        out = fewsound.reconstruct_long(state, rng.uniform(-0.5, 0.5, 3000))
        print(hashlib.sha256(out.tobytes()).hexdigest())
    """)
    digests = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        digests.append(run_python(script))
    assert digests[0] == digests[1]


# -- allocator policy ------------------------------------------------------------


def record_mallopt(monkeypatch) -> list:
    """Stub libc.so.6 behind ctypes.CDLL in cli; returns the list of its
    (name,) loads and the (param, value) mallopt calls made through it.
    Other libraries load as usual: reconstruct loads numpy's to reach
    OpenBLAS's thread count."""
    calls = []
    load = ctypes.CDLL

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name, *args, **kwargs):
        if name != "libc.so.6":
            return load(name, *args, **kwargs)
        calls.append((name,))
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    return calls


def test_training_command_sets_both_malloc_thresholds(tmp_path, clip_path, monkeypatch, capsys):
    calls = record_mallopt(monkeypatch)
    assert main(["fit", clip_path, "--out", str(tmp_path / "m.bin")] + FIT_FAST) == 0
    # M_TRIM_THRESHOLD to 1 GiB, M_MMAP_THRESHOLD to 64 MiB
    assert calls == [("libc.so.6",), (-1, 1 << 30), (-3, 64 << 20)]


def test_rendering_commands_set_no_allocator_policy(tmp_path, clip_path, monkeypatch, capsys):
    cfg = fewsound.FewSoundConfig(InrConfig("siren", hidden=(4,), encoding_length=3),
                                  window=64, conv0_channels=2, encoder_channels=(2,),
                                  embed_dim=4, weight_enc_hidden=4, hyper_hidden=(8,))
    state = str(tmp_path / "state.bin")
    save_model(state, fewsound.build_state(cfg))
    calls = record_mallopt(monkeypatch)
    assert main(["paramcount"]) == 0
    assert main(["reconstruct", state, clip_path, "--out", str(tmp_path / "rec.wav")]) == 0
    assert calls == []


@pytest.mark.parametrize("libc", ["unloadable", "no-mallopt"])
def test_main_runs_without_mallopt(libc, tmp_path, clip_path, monkeypatch, capsys):
    def cdll(name):
        if libc == "unloadable":
            raise OSError(f"{name}: cannot open shared object file")
        return types.SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main(["fit", clip_path, "--out", str(tmp_path / "m.bin")] + FIT_FAST) == 0
    assert "saved" in capsys.readouterr().out


def test_import_sets_no_allocator_policy():
    script = textwrap.dedent("""
        import ctypes
        calls = []
        ctypes.CDLL = lambda *a, **k: calls.append(a)
        import audioinr, audioinr.cli
        print(calls)
    """)
    assert run_python(script) == "[]"


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="libc.so.6 has no mallopt (not glibc)")
def test_repeated_fit_faults_in_no_freed_heap(tmp_path):
    # the second of two CLI fits in one process reuses the first one's
    # freed heap; with the policy replaced by a no-op, glibc returns that
    # memory to the OS after each step and the next step faults it in
    clip, model = str(tmp_path / "clip.wav"), str(tmp_path / "m.bin")
    script = textwrap.dedent(f"""
        import contextlib, io, resource, sys
        from audioinr import cli, fewsound
        from audioinr.toydata import sine_mixture
        from audioinr.wavio import AudioClip, wav_write
        if sys.argv[1] == "off":
            cli._keep_freed_heap = lambda: None
        wav_write({clip!r}, AudioClip(22050, sine_mixture(4096)))
        argv = ["fit", {clip!r}, "--out", {model!r}, "--arch", "siren", "--steps", "2"]
        for _ in range(2):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    off, on = (int(run_python(script, arm)) for arm in ("off", "on"))
    assert on <= 0.1 * off, (on, off)
