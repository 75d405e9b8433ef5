"""The four benchmark workloads.

Each workload writes its inputs in ``setup`` (seeded toy mixtures saved
as WAV files, plus a state file where the CLI path reads one), loads
them once in ``load`` together with an independent reference, then runs
one operation per ``op`` call.  ``check`` returns the problems found in
an operation's output; it uses tolerances, never a digest, so rewrites
that change rounding still pass.

``loads`` names the layers (audioinr modules) a workload is meant to
exercise and ``idle`` the ones it should leave alone, so a change can be
stated as "moves X on W, no change on V".
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from audioinr import cli, fewsound, inr, serialize, toydata, trainer, wavio
from audioinr import tensor as T
from audioinr.inr import InrConfig
from audioinr.loss import make_combined_loss
from audioinr.metrics import METRIC_COLUMNS
from audioinr.trainer import TrainConfig

SR = 22050
ARCHS = inr.ARCHS
IN_RATE = 44100             # reconstruct-long's input is stored at this rate
META_WEIGHT_DECAY = 0.01    # passed to meta_train, so its check knows AdamW's bound


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def _gradient_problems(loss_of, leaves, seed: int = 0, h: float = 1e-6,
                       rtol: float = 1e-4) -> tuple[float, list[str]]:
    """Check ``T.backward`` on ``loss_of()`` independently of the program.

    Compares the gradient along a fixed random unit direction over
    ``leaves`` with a central difference of the loss (two more forward
    passes).  Returns the unperturbed loss and the problems found.
    """
    loss = loss_of()
    value = float(loss.data)
    T.backward(loss, leaves=leaves)
    del loss
    rng = np.random.Generator(np.random.PCG64(seed))
    dirs = [rng.standard_normal(p.data.shape) for p in leaves]
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in dirs))
    dirs = [d / norm for d in dirs]
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(leaves, dirs))
    original = [p.data for p in leaves]

    def shifted(step: float) -> float:
        for p, o, d in zip(leaves, original, dirs):
            p.data = (o + step * d).astype(o.dtype)
        return float(loss_of().data)

    try:
        numeric = (shifted(h) - shifted(-h)) / (2.0 * h)
    finally:
        for p, o in zip(leaves, original):
            p.data, p.grad = o, None
    if not abs(analytic - numeric) <= rtol * max(abs(analytic), abs(numeric)):
        return value, [f"backward's directional derivative {analytic!r} != central "
                       f"difference {numeric!r}"]
    return value, []


def _write_clips(clips, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for clip in clips:
        wavio.wav_write(os.path.join(directory, f"{clip.source_id}.wav"), clip)


class FitKan:
    name = "fit-kan"
    why = ("The paper's headline network at paper scale (32768 samples, KAN 48-24-12, "
           "grid 10, order 2, float64): arrays are large enough that compute dominates, "
           "and bspline.spline_bases does most of its work here.")
    loads = ("bspline", "tensor", "inr", "loss", "optim", "trainer", "metrics")
    idle = ("fewsound", "serialize")

    def __init__(self, n: int = 32768, steps: int = 2, hidden=None):
        self.n, self.steps = n, steps
        self.config = InrConfig("kan", hidden=hidden)
        self.train = TrainConfig(steps=steps)
        self.samples_per_op = n * steps

    def setup(self, seed: int, directory: str) -> None:
        _write_clips(toydata.toy_clips(1, self.n, SR, seed=seed), directory)

    def load(self, directory: str) -> dict:
        clip = wavio.resample(wavio.wav_read(os.path.join(directory, "toy0.wav")), SR)
        # Reference for step 0: the freshly built network's combined loss.
        # Its gradient is checked once here; each op's check then asks that
        # the returned parameters moved away from the initial ones.
        model = inr.build(self.config)
        times = np.linspace(-1.0, 1.0, clip.samples.size)
        loss_fn = make_combined_loss(clip.samples, sample_rate=SR)
        ref, problems = _gradient_problems(lambda: loss_fn(model.forward(times)),
                                           model.params)
        if problems:
            raise RuntimeError(f"{self.name}: {problems[0]}")
        return {"clip": clip, "loss0": ref, "params0": inr.flatten_params(model)}

    def op(self, inputs: dict, scratch: str):
        return trainer.fit_inr(inputs["clip"], self.config, self.train)

    def check(self, result, inputs: dict) -> list[str]:
        trace = np.asarray(result.loss_trace)
        problems = []
        if trace.shape != (self.steps,) or not np.all(np.isfinite(trace)):
            problems.append(f"loss trace {trace!r} is not {self.steps} finite values")
        elif not _rel_close(float(trace[0]), inputs["loss0"], 1e-9):
            problems.append(f"step-0 loss {trace[0]!r} != reference {inputs['loss0']!r}")
        if not math.isfinite(result.metrics.get("psnr", math.nan)):
            problems.append(f"psnr not finite: {result.metrics}")
        # With zero gradients AdamW only decays the weights; each step with
        # a gradient moves a parameter by about lr.
        params = inr.flatten_params(result.model)
        lr = trainer.resolve_lr(self.train, self.config.arch)
        decayed = inputs["params0"] * (1.0 - lr * self.train.weight_decay) ** self.steps
        if not np.all(np.isfinite(params)):
            problems.append("fitted parameters are not finite")
        elif not np.max(np.abs(params - decayed)) > 0.1 * lr:
            problems.append("fitted parameters moved by weight decay alone")
        return problems

    def quality(self, result) -> dict:
        return {"final_loss": float(result.loss_trace[-1]),
                "psnr_db": float(result.metrics["psnr"])}


class CompareDesk:
    name = "compare-desk"
    why = ("The `audioinr compare` path at desk scale (2 clips x 4096 samples, all six "
           "archs, float32): per-node tape dispatch costs more than array arithmetic, and "
           "it covers the five MLP-family archs, the float32 path, metrics and wav_read.")
    loads = ("tensor", "inr", "loss", "optim", "trainer", "metrics", "wavio")
    idle = ("fewsound", "serialize", "bspline (little work)")

    def __init__(self, n: int = 4096, clips: int = 2, steps: int = 2, hidden=None):
        self.n, self.clips, self.steps, self.hidden = n, clips, steps, hidden
        self.samples_per_op = n * clips * len(ARCHS) * steps

    def setup(self, seed: int, directory: str) -> None:
        _write_clips(toydata.toy_clips(self.clips, self.n, SR, seed=seed),
                     os.path.join(directory, "clips"))

    def load(self, directory: str) -> dict:
        clips = os.path.join(directory, "clips")
        return {"dir": clips, "ids": sorted(os.listdir(clips))}

    def op(self, inputs: dict, scratch: str):
        out = os.path.join(scratch, "compare.csv")
        argv = ["compare", inputs["dir"], "--out", out, "--steps", str(self.steps),
                "--precision", "float32"]
        if self.hidden is not None:
            argv += ["--layers", ",".join(map(str, self.hidden))]
        # compare_archs keeps only its report; capture each fit's loss trace.
        traces = []
        fit_inr = trainer.fit_inr

        def capture(*args, **kwargs):
            result = fit_inr(*args, **kwargs)
            traces.append(result.loss_trace)
            return result

        trainer.fit_inr = capture
        try:
            rc = cli.main(argv)
        finally:
            trainer.fit_inr = fit_inr
        return {"rc": rc, "csv": out, "traces": traces}

    def check(self, result, inputs: dict) -> list[str]:
        if result["rc"] != 0:
            return [f"compare exited with {result['rc']}"]
        problems = []
        for trace in result["traces"]:
            if trace.shape != (self.steps,) or not np.all(np.isfinite(trace)):
                problems.append(f"loss trace {trace!r} is not {self.steps} finite values")
        if len(result["traces"]) != self.clips * len(ARCHS):
            problems.append(f"{len(result['traces'])} fits, want {self.clips * len(ARCHS)}")
        with open(result["csv"], newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["clip_id"] not in ("mean", "std")]
        want = {(c, a) for c in inputs["ids"] for a in ARCHS}
        if {(r["clip_id"], r["arch"]) for r in rows} != want or len(rows) != len(want):
            problems.append(f"csv rows {[(r['clip_id'], r['arch']) for r in rows]}")
        for r in rows:
            expect = inr.param_count(InrConfig(r["arch"], hidden=self.hidden))
            if int(r["params"]) != expect:
                problems.append(f"{r['arch']} params {r['params']} != {expect}")
            if not all(math.isfinite(float(r[m])) for m in METRIC_COLUMNS):
                problems.append(f"non-finite metrics in row {r}")
        return problems

    def quality(self, result) -> dict:
        with open(result["csv"], newline="") as f:
            rows = [r for r in csv.DictReader(f) if r["clip_id"] not in ("mean", "std")]
        return {"final_loss": float(np.mean([t[-1] for t in result["traces"]])),
                "psnr_db": float(np.mean([float(r["psnr"]) for r in rows]))}


class MetaKan:
    name = "meta-kan"
    why = ("FewSound meta-training with a KAN target and the default hypernetwork "
           "(16.1M state parameters), two clips in one batch: the only workload where "
           "AdamW (optim) and the encoders' backward matter.")
    loads = ("fewsound", "optim", "tensor", "inr", "bspline", "loss")
    idle = ("serialize", "metrics", "trainer")

    def __init__(self, window: int = 8192, clips: int = 2, **fewsound_kw):
        self.window, self.clips = window, clips
        target = InrConfig("kan", hidden=fewsound_kw.pop("hidden", None))
        # One operation is one epoch: with the whole set in one batch, one
        # AdamW step.
        self.config = fewsound.FewSoundConfig(target, window=window, sample_rate=SR,
                                              epochs=1, **fewsound_kw)
        self.samples_per_op = window * clips

    def setup(self, seed: int, directory: str) -> None:
        _write_clips(toydata.toy_clips(self.clips, self.window, SR, seed=seed),
                     os.path.join(directory, "clips"))

    def load(self, directory: str) -> dict:
        cfg = self.config
        clips = wavio.prepare_dataset(os.path.join(directory, "clips"), cfg.window,
                                      target_sr=SR)
        times = np.linspace(-1.0, 1.0, cfg.window)
        losses = [make_combined_loss(c.samples, sample_rate=SR) for c in clips]
        # The update head starts at zero, so epoch 0's loss is the universal
        # network's combined loss, averaged over clips.
        state = fewsound.build_state(cfg)
        universal = inr.unflatten_params(cfg.target, state.theta.data.astype(np.float64))
        pred = universal.forward(times)
        ref = float(np.mean([loss(pred).data for loss in losses]))
        # Check the gradient into theta and the hypernetwork once, on the
        # first clip's adapted loss.
        params0 = fewsound.state_flatten(state)
        _, problems = _gradient_problems(
            lambda: losses[0](inr.forward_from_flat(
                cfg.target, fewsound.adapted_flat(state, clips[0].samples[:cfg.window]),
                times, state.target_embedding)),
            [state.theta, *(p for _, p in state.hyper)])
        if problems:
            raise RuntimeError(f"{self.name}: {problems[0]}")
        return {"clips": clips, "loss0": ref, "params0": params0}

    def op(self, inputs: dict, scratch: str):
        return fewsound.meta_train(inputs["clips"], self.config,
                                   weight_decay=META_WEIGHT_DECAY)

    def check(self, result, inputs: dict) -> list[str]:
        state, trace = result
        trace = np.asarray(trace)
        if trace.shape != (1,) or not np.all(np.isfinite(trace)):
            return [f"epoch trace {trace!r} is not one finite value"]
        problems = []
        if not _rel_close(float(trace[0]), inputs["loss0"], 1e-9):
            problems.append(f"epoch-0 loss {trace[0]!r} != reference {inputs['loss0']!r}")
        params, params0 = fewsound.state_flatten(state), inputs["params0"]
        if not np.all(np.isfinite(params)):
            return problems + ["trained state has non-finite parameters"]
        # AdamW's first step moves each parameter by at most
        # lr * (1 + weight_decay * |p|): the bias-corrected m / sqrt(v) is +-1.
        limit = self.config.lr * (1.0 + META_WEIGHT_DECAY * np.abs(params0))
        worst = float(np.max(np.abs(params - params0) / limit))
        if not worst <= 1.0 + 1e-6:
            problems.append(f"a parameter moved {worst:.6g} times AdamW's first-step bound")
        # The update head's last layer starts at zero; the step must move it.
        if not any(np.any(p.data) for _, p in state.hyper[-2:]):
            problems.append("the update head's last layer is still zero after the step")
        return problems

    def quality(self, result) -> dict:
        return {"final_loss": float(result[1][-1])}


class ReconstructLong:
    name = "reconstruct-long"
    why = ("The `audioinr reconstruct` chain (load_model, wav_read, resample, "
           "reconstruct_long, wav_write) on a 5 s clip stored at 44.1 kHz with an untrained "
           "SIREN state, window 8192: inference only, per-window costs, the dense "
           "overlap-add matrix, a 132 MB model file and the resampler.")
    loads = ("fewsound", "inr", "serialize", "wavio")
    idle = ("bspline", "optim", "trainer", "loss", "tensor.backward")

    def __init__(self, seconds: float = 5.0, window: int = 8192, **fewsound_kw):
        self.n_in = int(seconds * IN_RATE)
        target = InrConfig("siren", hidden=fewsound_kw.pop("hidden", None))
        self.config = fewsound.FewSoundConfig(target, window=window, sample_rate=SR,
                                              **fewsound_kw)
        self.samples_per_op = 0             # output length, known after load

    def setup(self, seed: int, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        clip = toydata.toy_clips(1, self.n_in, IN_RATE, seed=seed)[0]
        wavio.wav_write(os.path.join(directory, "long.wav"), clip)
        serialize.save_model(os.path.join(directory, "state.bin"),
                             fewsound.build_state(self.config))

    def load(self, directory: str) -> dict:
        state_path = os.path.join(directory, "state.bin")
        clip_path = os.path.join(directory, "long.wav")
        n = wavio.resample(wavio.wav_read(clip_path), SR).samples.size
        # With the update head at zero every window renders the universal
        # network; blend those renderings with the crossfade by hand.
        state = serialize.load_model(state_path)
        window = state.config.window
        universal = inr.unflatten_params(state.config.target,
                                         state.theta.data.astype(np.float64))
        y = universal.forward(np.linspace(-1.0, 1.0, window)).data.astype(np.float64)
        fade = fewsound.crossfade_window(window)
        acc = np.zeros(max(n, window))
        weight = np.zeros(max(n, window))
        for s in fewsound.window_plan(n, window):
            acc[s:s + window] += y * fade
            weight[s:s + window] += fade
        self.samples_per_op = n
        return {"state": state_path, "clip": clip_path, "reference": (acc / weight)[:n]}

    def op(self, inputs: dict, scratch: str):
        out = os.path.join(scratch, "rebuilt.wav")
        return {"rc": cli.main(["reconstruct", inputs["state"], inputs["clip"], "--out", out]),
                "wav": out}

    def check(self, result, inputs: dict) -> list[str]:
        if result["rc"] != 0:
            return [f"reconstruct exited with {result['rc']}"]
        got = wavio.wav_read(result["wav"]).samples
        ref = inputs["reference"]
        if got.shape != ref.shape:
            return [f"output has {got.size} samples, want {ref.size}"]
        err = float(np.max(np.abs(got - ref)))
        # The output file is float-32, so allow its rounding.
        if not err <= 1e-6 * max(1.0, float(np.max(np.abs(ref)))):
            return [f"output differs from the overlap-add reference by {err:.3g}"]
        return []

    def quality(self, result) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (FitKan, CompareDesk, MetaKan, ReconstructLong)}
