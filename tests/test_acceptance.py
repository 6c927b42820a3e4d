"""Acceptance gate for the workbench.  Each test below is one release
criterion and prints as a single pass or fail line under pytest -v.  The
tolerances and budgets are fixed; do not loosen them to make a run pass."""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from hifbench import cli, layers as L, profiles
from hifbench.datafile import read_dataset
from hifbench.evaluation import ConfusionMatrix, format_accuracy
from hifbench.gradcheck import FD_EPSILON, find_check_point, grad_check, relative_error
from hifbench.models import build_model, load_checkpoint
from hifbench.training import fine_tune, train
from hifbench.waveforms import HifParams, hif_current, split

from test_layers import naive_conv, naive_maxpool, random_conv_case, random_pool_case

CASE1_TIME_BUDGET = 900.0  # seconds
CASE2_TIME_BUDGET = 300.0
GRADCHECK_TIME_BUDGET = 60.0
GRADCHECK_TOLERANCE = 1e-4
ORACLE_SHAPE_COUNT = 1000
CONVERGENCE_SEEDS = (43, 44, 45, 46, 47)
HIF_LAW_TRIALS = 100
HIF_LAW_SWEEP_POINTS = 10_000
CONTINUITY_TOLERANCE = 1e-9

CASE1_ARTIFACTS = (
    "case1.dataset",
    "cnn.ckpt",
    "cnn.curves.csv",
    "mlp.ckpt",
    "mlp.curves.csv",
    "case1_report.csv",
)


def replicate_case1(outdir):
    start = time.perf_counter()
    code = cli.main(["replicate", "case1", "--outdir", str(outdir)])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_OK
    return elapsed


def read_report(path):
    with open(path, newline="") as fh:
        return {row["model"]: float(row["accuracy"]) for row in csv.DictReader(fh)}


@pytest.fixture(scope="session")
def case1_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("case1")
    elapsed = replicate_case1(outdir)
    return outdir, elapsed, read_report(outdir / "case1_report.csv")


@pytest.fixture(scope="session")
def case2_run(case1_run, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("case2")
    start = time.perf_counter()
    code = cli.main(["replicate", "case2", "--outdir", str(outdir),
                     "--source-ckpt", str(case1_run[0] / "cnn.ckpt")])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_OK
    return outdir, elapsed, read_report(outdir / "case2_report.csv")


def test_criterion_1_case1_accuracy_and_budget(case1_run):
    outdir, elapsed, report = case1_run
    dataset = read_dataset(outdir / "case1.dataset")
    assert len(dataset) == 5000
    assert report["cnn"] >= 0.97, f"CNN holdout accuracy {report['cnn']:.4f} < 0.97"
    assert report["mlp"] <= report["cnn"] - 0.03, (
        f"MLP accuracy {report['mlp']:.4f} is within 3 points of CNN {report['cnn']:.4f}"
    )
    assert elapsed < CASE1_TIME_BUDGET, f"case1 pipeline took {elapsed:.0f} s"


def test_criterion_2_case2_transfer_and_budget(case2_run):
    outdir, elapsed, report = case2_run
    dataset = read_dataset(outdir / "case2.dataset")
    assert len(dataset) == 300
    assert report["transfer"] >= 0.90, (
        f"fine-tuned accuracy {report['transfer']:.4f} < 0.90"
    )
    assert report["scratch"] <= report["transfer"] - 0.10, (
        f"scratch accuracy {report['scratch']:.4f} is within 10 points of "
        f"fine-tuned {report['transfer']:.4f}"
    )
    assert elapsed < CASE2_TIME_BUDGET, f"case2 pipeline took {elapsed:.0f} s"


def test_criterion_3_convergence_speed(case1_run, case2_run):
    source = load_checkpoint(case1_run[0] / "cnn.ckpt")
    target = read_dataset(case2_run[0] / "case2.dataset")
    train_set, _ = split(target, profiles.CASE2_TRAIN_FRACTION, profiles.SPLIT_SEED)

    finetune_epochs = []
    scratch_epochs = []
    for seed in CONVERGENCE_SEEDS:
        ft_cfg = dataclasses.replace(profiles.CASE2_FINETUNE, seed=seed)
        finetune_epochs.append(fine_tune(source, train_set, ft_cfg).convergence_epoch)
        sc_cfg = dataclasses.replace(profiles.CASE2_SCRATCH, seed=seed)
        model = build_model(source.spec, init_seed=seed)
        scratch_epochs.append(train(model, train_set, sc_cfg).convergence_epoch)

    assert all(e < 20 for e in finetune_epochs), (
        f"fine-tune convergence epochs {finetune_epochs} not all below 20"
    )
    slow = sum(1 for e in scratch_epochs if e > 100)
    assert slow >= 4, (
        f"scratch convergence epochs {scratch_epochs}: only {slow}/5 exceed 100"
    )


def _fd_scalar(fn, arr, analytic, eps=FD_EPSILON):
    """Central-difference check of d(fn)/d(arr) against the analytic gradient,
    returning the worst relative error."""
    worst = 0.0
    flat = arr.reshape(-1)
    grad = analytic.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + eps
        hi = fn()
        flat[idx] = orig - eps
        lo = fn()
        flat[idx] = orig
        worst = max(worst, relative_error((hi - lo) / (2 * eps), grad[idx]))
    return worst


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    # conv layer in isolation, through the batched kernels training runs
    x = rng.normal(size=(2, 2, 12))
    layer = L.ConvLayer(rng.normal(size=(3, 2, 5)), rng.normal(size=3))
    out, cols = L.conv_forward_batch(x, layer)
    g = rng.normal(size=out.shape)
    loss = lambda: float(np.sum(L.conv_forward_batch(x, layer)[0] * g))
    d_w, d_b, d_x = L.conv_backward_batch(g, cols, layer, x.shape)
    for arr, analytic in ((layer.weights, d_w), (layer.bias, d_b), (x, d_x)):
        assert _fd_scalar(loss, arr, analytic) < GRADCHECK_TOLERANCE

    # max pool in isolation (values spread apart, so no kink within epsilon)
    xp = rng.permutation(24.0 * np.arange(48)).reshape(2, 2, 12)
    out, offset = L.maxpool_forward_batch(xp, 3, 2)
    gp = rng.normal(size=out.shape)
    pool_loss = lambda: float(np.sum(L.maxpool_forward_batch(xp, 3, 2)[0] * gp))
    d_xp = L.maxpool_backward_batch(gp, offset, xp.shape[2], 3, 2)
    assert _fd_scalar(pool_loss, xp, d_xp) < GRADCHECK_TOLERANCE

    # dense layer in isolation
    xd = rng.normal(size=(3, 6))
    dense = L.DenseLayer(rng.normal(size=(4, 6)), rng.normal(size=4))
    gd = rng.normal(size=(3, 4))
    dense_loss = lambda: float(np.sum(L.dense_forward_batch(xd, dense) * gd))
    d_w, d_b, d_x = L.dense_backward_batch(gd, xd, dense)
    for arr, analytic in ((dense.weights, d_w), (dense.bias, d_b), (xd, d_x)):
        assert _fd_scalar(dense_loss, arr, analytic) < GRADCHECK_TOLERANCE

    # relu in isolation, away from the kink at zero
    xr = rng.normal(size=10)
    xr[np.abs(xr) < 0.01] = 0.5
    gr = rng.normal(size=10)
    relu_loss = lambda: float(np.sum(L.relu_forward(xr) * gr))
    assert _fd_scalar(relu_loss, xr, L.relu_backward(gr, xr)) < GRADCHECK_TOLERANCE

    # sigmoid + binary cross-entropy as the fused output stage
    z = rng.normal(size=4)
    y = np.array([1.0, 0.0, 1.0, 0.0])
    bce = lambda: float(L.bce_loss(np.array([L.sigmoid(v) for v in z]), y))
    probs = np.array([L.sigmoid(v) for v in z])
    assert _fd_scalar(bce, z, L.sigmoid_bce_backward(probs, y)) < GRADCHECK_TOLERANCE

    # both full architectures end to end
    for spec in (profiles.CNN_SPEC, profiles.MLP_SPEC):
        model = build_model(spec, init_seed=0)
        xc, yc = find_check_point(model, seed=0)
        err = grad_check(model, xc, yc)
        assert err < GRADCHECK_TOLERANCE, f"{spec.kind}: max relative error {err:.3e}"

    elapsed = time.perf_counter() - start
    assert elapsed < GRADCHECK_TIME_BUDGET, f"gradient checks took {elapsed:.0f} s"


def test_criterion_5_kernel_oracles_bit_equal():
    rng = np.random.default_rng(1905)
    for _ in range(ORACLE_SHAPE_COUNT):
        x, layer = random_conv_case(rng)
        assert np.array_equal(L.conv_forward(x, layer),
                              naive_conv(x, layer.weights, layer.bias))
    for _ in range(ORACLE_SHAPE_COUNT):
        x, width, stride = random_pool_case(rng)
        out, offset = L.maxpool_forward_batch(x[None], width, stride)
        ref, ref_arg = naive_maxpool(x, width, stride)
        assert np.array_equal(out[0], ref)
        assert np.array_equal(offset[0] + np.arange(out.shape[2]) * stride, ref_arg)


def test_criterion_6_reported_accuracies():
    cases = (
        (ConfusionMatrix(tp=1242, fp=4, fn=8, tn=1246), "99.52 %"),
        (ConfusionMatrix(tp=75, fp=3, fn=5, tn=79), "95.06 %"),
        (ConfusionMatrix(tp=55, fp=15, fn=26, tn=66), "74.69 %"),
    )
    for matrix, expected in cases:
        assert format_accuracy(matrix.accuracy) == expected


def test_criterion_7_byte_identical_replication(case1_run, tmp_path_factory):
    first = case1_run[0]
    second = tmp_path_factory.mktemp("case1_again")
    replicate_case1(second)
    for name in CASE1_ARTIFACTS:
        a = (first / name).read_bytes()
        b = (second / name).read_bytes()
        assert a == b, f"{name} differs between identical replication runs"


def test_criterion_8_hif_current_law():
    rng = np.random.default_rng(88)
    for _ in range(HIF_LAW_TRIALS):
        p = HifParams(
            v_p=float(rng.uniform(0.05, 0.9)),
            v_n=float(-rng.uniform(0.05, 0.9)),
            r_p=float(rng.uniform(100.0, 600.0)),
            r_n=float(rng.uniform(100.0, 600.0)),
            inception_angle=float(rng.uniform(0.0, 2 * math.pi)),
        )
        # continuity at both conduction thresholds
        for edge in (p.v_p, p.v_n):
            inner = hif_current(edge, p)
            for probe in (edge - 1e-12, edge + 1e-12):
                assert abs(hif_current(probe, p) - inner) <= CONTINUITY_TOLERANCE
        # exact zero across the dead band
        for v in rng.uniform(p.v_n, p.v_p, size=50):
            assert hif_current(float(v), p) == 0.0
        # nondecreasing over a dense voltage sweep
        sweep = np.linspace(-2.0, 2.0, HIF_LAW_SWEEP_POINTS)
        currents = np.array([hif_current(float(v), p) for v in sweep])
        assert np.all(np.diff(currents) >= 0.0)
