"""``src/`` holds what the CLI runs: each of the seven commands runs once
at a tiny size under a profile hook, and every function defined in
``src/`` must be entered, except those on the allow-list below.

Lambdas, comprehensions and dataclass-generated methods have no ``def``
in the source and are not counted.  The hook is set for this thread and
for threads started while it is on, so reconstruct's rendering workers
are seen too.
"""

import ast
import os
import sys
import threading

import numpy as np

import audioinr
from audioinr import loss
from audioinr.cli import main
from audioinr.toydata import toy_clips
from audioinr.wavio import AudioClip, wav_write

SRC = os.path.dirname(os.path.abspath(audioinr.__file__))

# Functions in src/ that no CLI command enters, each with its reason.
ALLOWED = {
    # held by benchmark/, which wraps or calls them by name
    "bspline.spline_bases": "benchmark/spans.py traces it",
    "bspline._scatter": "spline_bases' scatter",
    "fewsound.adapt": "benchmark/spans.py traces it",
    "fewsound.state_flatten": "benchmark/workloads.py calls it",
    # oracles and helpers of the tests
    "tensor.Tensor.sin": "unfused activation oracles",
    "tensor.Tensor.__mul__": "tests seed a backward with (out * c).sum()",
    "tensor.Tensor.item": "tests read scalar losses",
    # documented public API
    "tensor.grad_check": "exported from audioinr",
    "toydata.toy_clips": "synthetic corpus for demos",
    "toydata.sine_mixture": "synthetic clip for demos",
    "tensor.Tensor.__repr__": "debugging",
    # error paths, reached by the CLI, fuzz and unit tests
    "cli._Parser.error": "usage errors (test_cli)",
}


def _defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> 'module.qualified.name' for every def in src/;
    the first line is a decorator's where there is one, as in co_firstlineno."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(SRC, name))
            with open(path) as f:
                visit(ast.parse(f.read()), path, name[:-3])
    return found


def _commands(tmp) -> list[list[str]]:
    """Writes the inputs; returns one argv per command."""
    clip = toy_clips(1, n=2048)[0]
    wav_write(os.path.join(tmp, "clip.wav"), clip)
    long_clip = AudioClip(22050, np.tile(clip.samples, 2), "long")
    wav_write(os.path.join(tmp, "long.wav"), long_clip)
    hi = AudioClip(44100, np.repeat(clip.samples, 2), "hi")      # resampled on read
    data = os.path.join(tmp, "data")
    os.mkdir(data)
    wav_write(os.path.join(data, "a.wav"), clip)
    wav_write(os.path.join(data, "hi.wav"), hi)
    mixed = os.path.join(tmp, "mixed")
    os.mkdir(mixed)
    wav_write(os.path.join(mixed, "a.wav"), clip)
    with open(os.path.join(mixed, "broken.wav"), "wb") as f:
        f.write(b"not a wav file")                              # a skipped clip's warning

    tiny = ["--layers", "4", "--encoding-length", "3", "--grid-size", "4"]
    model, state = os.path.join(tmp, "m.bin"), os.path.join(tmp, "s.bin")
    return [
        ["paramcount"],
        ["fit", os.path.join(data, "hi.wav"), "--out", model, "--steps", "1",
         "--report", os.path.join(tmp, "fit.csv"), "--trace", os.path.join(tmp, "trace.csv")]
        + tiny,
        ["eval", model, os.path.join(tmp, "clip.wav")],
        ["compare", mixed, "--out", os.path.join(tmp, "cmp.csv"), "--steps", "1"] + tiny,
        ["meta-train", data, "--out", state, "--window", "2048", "--embed-dim", "4",
         "--conv0-channels", "2", "--encoder-channels", "2,2", "--weight-enc-hidden", "4",
         "--hyper-hidden", "4", "--epochs", "1", "--arch", "siren"] + tiny,
        ["reconstruct", state, os.path.join(tmp, "long.wav"),
         "--out", os.path.join(tmp, "rec.wav")],
        ["spectrogram", os.path.join(tmp, "clip.wav"), "--out", os.path.join(tmp, "spec")],
    ]


def test_cli_enters_every_src_function(tmp_path, capsys, monkeypatch):
    defs, runs = _defs(), _commands(str(tmp_path))
    # an earlier test's filterbanks would spare the CLI building its own
    monkeypatch.setattr(loss, "_fb_cache", {})
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    entered = {(os.path.realpath(path), line) for path, line in entered}
    never = {name for key, name in defs.items() if key not in entered}
    # a function nested in an allow-listed one is allowed with it
    unlisted = {name for name in never
                if not any(name == a or name.startswith(a + ".") for a in ALLOWED)}
    assert unlisted == set(), "functions no CLI command enters"
    assert set(ALLOWED) - never == set(), "allow-listed functions src/ lacks or the CLI enters"
