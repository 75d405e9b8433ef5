"""AdamW update rule and the one-cycle learning-rate curve."""

import math
import weakref

import numpy as np
import pytest

from audioinr import fewsound, optim, trainer
from audioinr.inr import InrConfig
from audioinr.loss import StftResolution
from audioinr.toydata import sine_mixture
from audioinr.wavio import AudioClip
from audioinr.optim import AdamW, OneCycleSchedule, one_cycle_lr, run_steps
from audioinr.tensor import ContractError, ShapeError, Tensor, backward


def leaf(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


def test_first_step_hand_computed():
    p = leaf([1.0])
    p.grad = np.array([1.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.01)
    opt.step()
    # m_hat = v_hat = 1 after bias correction, so the update is 1/(1+eps)
    want = 1.0 - 0.1 * 0.01 * 1.0 - 0.1 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [want], atol=1e-12)
    np.testing.assert_allclose(p.data, [0.8990000010], atol=1e-9)


def reference_adamw(p0, grads, lr, betas=(0.9, 0.999), eps=1e-8, wd=0.01):
    """Scalar-loop oracle for the decoupled-decay update."""
    p = np.array(p0, dtype=np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = betas[0] * m + (1.0 - betas[0]) * g
        v = betas[1] * v + (1.0 - betas[1]) * g * g
        m_hat = m / (1.0 - betas[0] ** t)
        v_hat = v / (1.0 - betas[1] ** t)
        p = p - lr * wd * p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def test_trajectory_matches_reference(rng):
    p0 = rng.standard_normal(7)
    grads = [rng.standard_normal(7) for _ in range(10)]
    p = leaf(p0)
    opt = AdamW([("p", p)], lr=0.05, weight_decay=0.01)
    for g in grads:
        p.grad = g
        opt.step()
    np.testing.assert_allclose(p.data, reference_adamw(p0, grads, 0.05), atol=1e-14)


def whole_array_adamw(p, m, v, g, t, lr, betas=(0.9, 0.999), eps=1e-8, wd=0.01):
    """The update as whole-array expressions, in the order AdamW.step evaluates them."""
    m *= betas[0]
    m += (1.0 - betas[0]) * g
    v *= betas[1]
    v += (1.0 - betas[1]) * g * g
    update = (m / (1.0 - betas[0] ** t)) / (np.sqrt(v / (1.0 - betas[1] ** t)) + eps)
    return p - lr * wd * p - lr * update


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_step_equals_whole_array_expression(dtype, rng):
    n = int(2.5 * optim._BLOCK)                     # ragged last block
    shapes = [(n,), (5, n // 5), (3,)]
    p0 = [rng.standard_normal(s).astype(dtype) for s in shapes]
    params = [Tensor(p.copy(), requires_grad=True) for p in p0]
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=0.05)
    want = [p.copy() for p in p0]
    m = [np.zeros_like(p) for p in p0]
    v = [np.zeros_like(p) for p in p0]
    for t in range(1, 6):
        lr = 0.05 / t
        for i, p in enumerate(params):
            p.grad = rng.standard_normal(p.shape).astype(dtype)
            want[i] = whole_array_adamw(want[i], m[i], v[i], p.grad, t, lr)
        opt.step(lr=lr)
    for p, w in zip(params, want):
        assert p.data.dtype == dtype
        assert np.array_equal(p.data, w)


def test_caller_arrays_are_never_written(rng):
    p0 = rng.standard_normal((4, 3))
    given = p0.copy()
    p = Tensor(p0, requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1)
    for _ in range(2):
        p.grad = rng.standard_normal((4, 3))
        opt.step()
    np.testing.assert_array_equal(p0, given)
    assert not np.array_equal(p.data, given)
    # an array assigned to p.data between steps is copied, not written
    later = rng.standard_normal((4, 3))
    kept = later.copy()
    p.data = later
    p.grad = rng.standard_normal((4, 3))
    opt.step()
    np.testing.assert_array_equal(later, kept)
    assert not np.array_equal(p.data, kept)


def test_adopts_an_array_only_its_tensor_holds(rng):
    p = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    address = p.data.ctypes.data
    opt = AdamW([("p", p)], lr=0.1)
    for _ in range(2):
        p.grad = rng.standard_normal((4, 3))
        opt.step()
    assert p.data.ctypes.data == address
    # a fresh array assigned between steps is adopted the same way
    p.data = rng.standard_normal((4, 3))
    address = p.data.ctypes.data
    p.grad = rng.standard_normal((4, 3))
    opt.step()
    assert p.data.ctypes.data == address


def read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("make", [lambda a: a[:, :3], np.asfortranarray, read_only],
                         ids=["view", "fortran", "read-only"])
def test_copies_an_array_it_cannot_own(make, rng):
    # only p refers to each array (the view through its base), but a view
    # does not own its memory, and AdamW writes only C-contiguous memory
    p = Tensor(make(rng.standard_normal((4, 6))), requires_grad=True)
    given, address = p.data.copy(), p.data.ctypes.data
    opt = AdamW([("p", p)], lr=0.1)
    p.grad = rng.standard_normal(p.shape)
    opt.step()
    assert p.data.ctypes.data != address
    assert p.data.flags.c_contiguous and p.data.flags.writeable
    assert not np.array_equal(p.data, given)


def test_fit_and_meta_train_hand_over_their_arrays(monkeypatch):
    # both build their parameters fresh, so AdamW adopts every one
    kept = []

    class Recording(AdamW):
        def __init__(self, named_params, **kwargs):
            named_params = list(named_params)
            before = [p.data.ctypes.data for _, p in named_params]
            super().__init__(named_params, **kwargs)
            kept.append(before == [p.data.ctypes.data for _, p in named_params])

    monkeypatch.setattr(trainer, "AdamW", Recording)
    monkeypatch.setattr(fewsound, "AdamW", Recording)
    clip = AudioClip(22050, sine_mixture(256))
    trainer.fit_inr(clip, InrConfig("kan", hidden=(4,), grid_size=4),
                    trainer.TrainConfig(steps=1, lam_f=0.0))
    cfg = fewsound.FewSoundConfig(InrConfig("siren", hidden=(4,)), window=64, embed_dim=4,
                                  conv0_channels=2, encoder_channels=(2, 2),
                                  weight_enc_hidden=4, hyper_hidden=(8,), lam_f=0.0,
                                  epochs=1, lr=1e-3)
    fewsound.meta_train([clip.samples], cfg, resolutions=(StftResolution(32, 8, 32),),
                        n_mels=4)
    assert kept == [True, True]


def test_failed_step_writes_nothing():
    a, b = leaf([1.0, 2.0]), leaf([3.0])
    opt = AdamW([("a", a), ("b", b)], lr=0.1)
    a.grad = np.array([1.0, 1.0])
    b.grad = np.array([np.inf])
    with pytest.raises(ContractError, match="'b'"):
        opt.step()
    np.testing.assert_array_equal(a.data, [1.0, 2.0])
    np.testing.assert_array_equal(opt.m[0], [0.0, 0.0])
    assert opt.t == 0


def test_overflowing_gradient_sum_is_not_non_finite():
    p = leaf([0.0, 0.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):              # g * g overflows in v
        opt.step()
    assert opt.t == 1


def test_decay_is_decoupled_from_gradients(rng):
    # zero gradient leaves the moments at zero, so only decay moves the weight
    p = leaf([2.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.5)
    want = 2.0
    for _ in range(3):
        p.grad = np.array([0.0])
        opt.step()
        want *= 1.0 - 0.1 * 0.5
    np.testing.assert_allclose(p.data, [want], atol=1e-15)


def test_zero_decay_zero_grad_is_identity():
    p = leaf([1.5])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.array([0.0])
    opt.step()
    assert p.data[0] == 1.5


def test_missing_grad_treated_as_zero():
    p = leaf([1.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    opt.step()
    assert p.data[0] == 1.0


def test_step_lr_override():
    a, b = leaf([1.0]), leaf([1.0])
    oa = AdamW([("p", a)], lr=123.0, weight_decay=0.0)
    ob = AdamW([("p", b)], lr=0.2, weight_decay=0.0)
    a.grad = np.array([1.0])
    b.grad = np.array([1.0])
    oa.step(lr=0.2)
    ob.step()
    np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("kwargs", [
    {"lr": 0.0}, {"lr": -1.0}, {"lr": math.nan}, {"lr": math.inf},
    {"weight_decay": math.nan}, {"weight_decay": -5.0}, {"weight_decay": math.inf},
    {"eps": 0.0}, {"eps": math.nan},
    {"betas": (1.0, 0.999)}, {"betas": (-0.1, 0.999)}, {"betas": (0.9, math.nan)},
])
def test_optimizer_rejects_bad_hyperparameters(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ContractError, match="beta" if name == "betas" else name):
        AdamW([("p", leaf([1.0]))], **{"lr": 0.1, **kwargs})


def test_optimizer_validation():
    p = leaf([1.0])
    opt = AdamW([("p", p)], lr=0.1)
    p.grad = np.zeros(2)
    with pytest.raises(ShapeError):
        opt.step()
    p.grad = np.array([np.nan])
    with pytest.raises(ContractError):
        opt.step()


# -- the step loop ---------------------------------------------------------------


def quadratic_loss(p, target):
    return (p - Tensor(target)).square().sum()


def test_run_steps_matches_hand_loop(rng):
    target = rng.standard_normal(5)
    p0 = rng.standard_normal(5)
    lrs = [0.1, 0.05, 0.2, 0.01]
    p = leaf(p0)
    got = run_steps(AdamW([("p", p)], lr=1.0), lambda step: quadratic_loss(p, target),
                    len(lrs), lr_at=lambda step: lrs[step])
    q = leaf(p0)
    opt = AdamW([("q", q)], lr=1.0)
    want = []
    for lr in lrs:
        loss = quadratic_loss(q, target)
        backward(loss, leaves=[q])
        opt.step(lr=lr)
        want.append(float(loss.data))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(p.data, q.data)


def test_run_steps_default_lr_is_the_optimizer_own(rng):
    target = rng.standard_normal(3)
    a, b = leaf([0.5, 0.5, 0.5]), leaf([0.5, 0.5, 0.5])
    run_steps(AdamW([("a", a)], lr=0.3), lambda step: quadratic_loss(a, target), 3)
    run_steps(AdamW([("b", b)], lr=1.0), lambda step: quadratic_loss(b, target), 3,
              lr_at=lambda step: 0.3)
    np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("bad_step", [0, 1, 3])
def test_run_steps_stops_at_non_finite_loss(bad_step, monkeypatch):
    calls = []
    step = AdamW.step

    def counted(self, lr=None):
        calls.append(lr)
        step(self, lr)

    monkeypatch.setattr(AdamW, "step", counted)
    p = leaf([1.0, -2.0])

    def loss_at(k):
        loss = p.square().sum()
        return loss.scale(math.nan) if k == bad_step else loss

    opt = AdamW([("p", p)], lr=0.1)
    with pytest.raises(ContractError, match=f"non-finite loss at step {bad_step}$"):
        run_steps(opt, loss_at, 5)
    assert len(calls) == bad_step and opt.t == bad_step


def test_run_steps_frees_each_graph_and_gradient(rng, monkeypatch):
    # each step's graph is gone before the AdamW step and the next forward,
    # and the loop returns with no gradient held
    target = rng.standard_normal(4)
    a, b = leaf(rng.standard_normal(4)), leaf(rng.standard_normal(4))
    graphs = []
    step = AdamW.step

    def checked(self, lr=None):
        assert all(ref() is None for ref in graphs)
        assert a.grad is not None and b.grad is not None
        step(self, lr)

    def loss_at(k):
        assert all(ref() is None for ref in graphs)
        assert a.grad is None and b.grad is None
        diff = a - Tensor(target)
        graphs.append(weakref.ref(diff.data))
        return diff.square().sum() + b.square().sum()

    monkeypatch.setattr(AdamW, "step", checked)
    run_steps(AdamW([("a", a), ("b", b)], lr=0.1), loss_at, 3)
    assert len(graphs) == 3 and all(ref() is None for ref in graphs)
    assert a.grad is None and b.grad is None


# -- one-cycle schedule ----------------------------------------------------------


def test_schedule_boundary_values():
    s = OneCycleSchedule(max_lr=1.0, total_steps=100, warmup_fraction=0.3,
                         div_factor=25.0, final_div_factor=1e4)
    assert one_cycle_lr(s, 0) == 1.0 / 25.0
    assert one_cycle_lr(s, 30) == 1.0              # peak hit exactly
    assert one_cycle_lr(s, 100) == 1.0 / 1e4


def test_schedule_shape():
    s = OneCycleSchedule(max_lr=2.0, total_steps=200, warmup_fraction=0.25)
    lrs = [one_cycle_lr(s, t) for t in range(201)]
    peak = 50
    assert all(b >= a for a, b in zip(lrs[:peak], lrs[1:peak + 1]))
    assert all(b <= a for a, b in zip(lrs[peak:-1], lrs[peak + 1:]))
    assert max(lrs) == 2.0
    mid = (2.0 / 25.0 + 2.0) / 2.0
    np.testing.assert_allclose(lrs[25], mid, rtol=1e-12)   # cosine midpoint


def test_schedule_degenerate_fractions():
    all_up = OneCycleSchedule(max_lr=1.0, total_steps=10, warmup_fraction=1.0)
    assert one_cycle_lr(all_up, 10) == 1.0
    all_down = OneCycleSchedule(max_lr=1.0, total_steps=10, warmup_fraction=0.0)
    assert one_cycle_lr(all_down, 0) == 1.0
    assert one_cycle_lr(all_down, 10) == 1.0 / 1e4


def test_schedule_validation():
    with pytest.raises(ContractError):
        OneCycleSchedule(max_lr=0.0, total_steps=10)
    with pytest.raises(ContractError):
        OneCycleSchedule(max_lr=1.0, total_steps=0)
    with pytest.raises(ContractError):
        OneCycleSchedule(max_lr=1.0, total_steps=10, warmup_fraction=1.5)
    with pytest.raises(ContractError):
        OneCycleSchedule(max_lr=1.0, total_steps=10, div_factor=0.5)
    s = OneCycleSchedule(max_lr=1.0, total_steps=10)
    with pytest.raises(ContractError):
        one_cycle_lr(s, 11)
    with pytest.raises(ContractError):
        one_cycle_lr(s, -1)
