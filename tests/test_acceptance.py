"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test prints ``[criterion N] PASS/FAIL`` with the measured values
(outside pytest's capture, so the lines always reach the terminal) and then
asserts.  The heavyweight training fixtures are pulled lazily so their cost
lands inside the criterion that owns them; later criteria reuse the cached
runs.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import weightsep as ws
from tests.support import epoch_epsilons, trend_config


@pytest.fixture
def report(capsys):
    def _report(num, ok, elapsed, budget, detail):
        verdict = "PASS" if ok and elapsed < budget else "FAIL"
        line = (f"[criterion {num:>2}] {verdict} ({elapsed:.1f}s / "
                f"budget {budget:.0f}s) {detail}")
        with capsys.disabled():
            print(line, flush=True)
        assert verdict == "PASS", line

    return _report


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def central_difference(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def test_criterion_01_metric_form_equivalence(report):
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    def gram_expansion(w):
        # explicit sum over Gram entries (w_i . w_j - delta_ij)^2
        n = w.shape[1]
        total = 0.0
        for i in range(n):
            for j in range(n):
                dot = float(w[:, i] @ w[:, j])
                total += (dot - (1.0 if i == j else 0.0)) ** 2
        return total / n

    worst_forms = worst_oracle = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 21))
        m = int(rng.integers(n, 21))
        w = rng.normal(size=(m, n))
        frob = ws.separability_metric(w)
        tr = ws.separability_metric_trace_form(w)
        oracle = gram_expansion(w)
        worst_forms = max(worst_forms, abs(frob - tr))
        worst_oracle = max(worst_oracle, abs(frob - oracle), abs(tr - oracle))
    elapsed = time.perf_counter() - start
    ok = worst_forms < 1e-9 and worst_oracle < 1e-9
    report(1, ok, elapsed, 5,
           f"max form gap {worst_forms:.2e}, max oracle gap "
           f"{worst_oracle:.2e} over 500 matrices")


def test_criterion_02_qr_contract(report):
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_orth = worst_recon = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(n, 21))
        w = rng.normal(size=(m, n))
        q, r = ws.qr_decompose(w)
        worst_orth = max(worst_orth, np.max(np.abs(q.T @ q - np.eye(n))))
        worst_recon = max(worst_recon, np.max(np.abs(q @ r - w)))
        assert np.array_equal(r, np.triu(r))
        assert np.all(np.diag(r) >= 0)
    worst_eps = max(
        ws.separability_metric(ws.semi_orthogonal_init(m, n, seed))
        for m, n, seed in ((64, 10, 0), (784, 64, 1), (20, 20, 2), (5, 3, 3))
    )
    elapsed = time.perf_counter() - start
    ok = worst_orth < 1e-10 and worst_recon < 1e-10 and worst_eps < 1e-12
    report(2, ok, elapsed, 5,
           f"max |Q'Q-I| {worst_orth:.2e}, max |QR-W| {worst_recon:.2e}, "
           f"init epsilon {worst_eps:.2e}")


def test_criterion_03_gradient_suite(report):
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = {"ce": 0.0, "center": 0.0, "re_latent": 0.0, "re_w": 0.0,
             "total_latent": 0.0, "total_w": 0.0}
    lam = 0.001
    for _ in range(20):
        b = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        n = int(rng.integers(2, d + 1))
        labels = rng.integers(0, n, size=b)
        w = rng.normal(size=(d, n))
        latent = rng.normal(size=(b, d))
        logits = rng.normal(size=(b, n))

        _, g = ws.softmax_cross_entropy(logits, labels)
        fd = central_difference(
            lambda: ws.softmax_cross_entropy(logits, labels)[0], logits)
        worst["ce"] = max(worst["ce"], rel_err(g, fd))

        centers = rng.normal(size=(n, d))
        _, g, _ = ws.center_loss(latent, labels, centers, 0.5)
        fd = central_difference(
            lambda: ws.center_loss(latent, labels, centers, 0.5)[0], latent)
        worst["center"] = max(worst["center"], rel_err(g, fd))

        _, g_lat, g_w = ws.reconstruction_loss(latent, labels, w)
        fd = central_difference(
            lambda: ws.reconstruction_loss(latent, labels, w)[0], latent)
        worst["re_latent"] = max(worst["re_latent"], rel_err(g_lat, fd))
        fd = central_difference(
            lambda: ws.reconstruction_loss(latent, labels, w)[0], w)
        worst["re_w"] = max(worst["re_w"], rel_err(g_w, fd))

        # composed objective: cross entropy of latent @ w plus weighted
        # reconstruction, gradients routed into both latent and w
        def f_total():
            cls = ws.softmax_cross_entropy(latent @ w, labels)[0]
            re = ws.reconstruction_loss(latent, labels, w)[0]
            return cls + lam * re

        _, g_logit = ws.softmax_cross_entropy(latent @ w, labels)
        _, g_lat_re, g_w_re = ws.reconstruction_loss(latent, labels, w)
        g_lat_total = g_logit @ w.T + lam * g_lat_re
        g_w_total = latent.T @ g_logit + lam * g_w_re
        worst["total_latent"] = max(
            worst["total_latent"],
            rel_err(g_lat_total, central_difference(f_total, latent)))
        worst["total_w"] = max(
            worst["total_w"], rel_err(g_w_total, central_difference(f_total, w)))
    elapsed = time.perf_counter() - start
    ok = all(v < 1e-4 for v in worst.values())
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    report(3, ok, elapsed, 30, f"max relative FD errors: {summary}")


def test_criterion_04_kl_properties(report):
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    min_loss = np.inf
    worst_perfect = worst_shift = 0.0
    for _ in range(300):
        b = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        n = int(rng.integers(2, d + 1))
        labels = rng.integers(0, n, size=b)
        w = rng.normal(size=(d, n))
        latent = rng.normal(size=(b, d))
        loss, _, _ = ws.reconstruction_loss(latent, labels, w)
        min_loss = min(min_loss, loss)
        # perfect reconstruction: each latent row equals its label's column
        perfect = w[:, labels].T.copy()
        ploss, _, _ = ws.reconstruction_loss(perfect, labels, w)
        worst_perfect = max(worst_perfect, abs(ploss))
        shifted, _, _ = ws.reconstruction_loss(
            latent + float(rng.uniform(-20, 20)), labels, w)
        worst_shift = max(worst_shift, abs(shifted - loss))
    elapsed = time.perf_counter() - start
    ok = min_loss >= 0.0 and worst_perfect < 1e-12 and worst_shift < 1e-10
    report(4, ok, elapsed, 5,
           f"min loss {min_loss:.2e}, worst perfect-case |loss| "
           f"{worst_perfect:.2e}, worst shift gap {worst_shift:.2e}")


def test_criterion_05_epsilon_trend(request, report):
    start = time.perf_counter()
    art = request.getfixturevalue("trend_run")
    digits_train = request.getfixturevalue("digits_train")
    eps = epoch_epsilons(art)
    rho = float(spearmanr(np.arange(len(eps)), eps).statistic)
    acc = ws.evaluate_accuracy(art.network, digits_train)
    elapsed = time.perf_counter() - start
    ok = len(eps) >= 20 and rho < -0.8 and acc > 0.95
    report(5, ok, elapsed, 300,
           f"per-epoch epsilon vs epoch Spearman rho {rho:+.3f} over "
           f"{len(eps)} epochs, train accuracy {acc:.3f}")


def test_criterion_06_reconstruction_lowers_epsilon(request, report):
    start = time.perf_counter()
    runs = request.getfixturevalue("paired_runs")
    digits_test = request.getfixturevalue("digits_test")
    seeds = (1, 2, 3, 4, 5)
    eps_with = [runs[(True, s)].report.epsilon for s in seeds]
    eps_without = [runs[(False, s)].report.epsilon for s in seeds]
    acc_with = np.mean([ws.evaluate_accuracy(runs[(True, s)].network,
                                             digits_test) for s in seeds])
    acc_without = np.mean([ws.evaluate_accuracy(runs[(False, s)].network,
                                                digits_test) for s in seeds])
    mean_with, mean_without = np.mean(eps_with), np.mean(eps_without)
    elapsed = time.perf_counter() - start
    ok = mean_with < mean_without and acc_with >= acc_without - 0.005
    report(6, ok, elapsed, 1800,
           f"mean final epsilon with {mean_with:.4f} vs without "
           f"{mean_without:.4f} over 5 seeds; mean test accuracy "
           f"{acc_with:.4f} vs {acc_without:.4f}")


def test_criterion_07_frozen_columns(request, report):
    start = time.perf_counter()
    train_ds, test_ds = request.getfixturevalue("digits_015")
    seeds = (1, 2, 3, 4, 5)
    worst_eps = 0.0
    acc_ortho, acc_random = [], []
    for seed in seeds:
        cfg = trend_config(seed, use_reconstruction=False,
                           layer_dims=(784, 64, 3))
        res = ws.experiment_frozen_linearity(train_ds, test_ds, cfg)
        worst_eps = max(worst_eps, max(res.orthonormal.epsilon_steps))
        acc_ortho.append(res.orthonormal.accuracy)
        acc_random.append(res.random.accuracy)
    elapsed = time.perf_counter() - start
    ok = worst_eps < 1e-12 and np.mean(acc_ortho) >= np.mean(acc_random)
    per_seed = ", ".join(
        f"{a:.2f}/{b:.2f}" for a, b in zip(acc_ortho, acc_random))
    report(7, ok, elapsed, 600,
           f"frozen orthonormal epsilon max {worst_eps:.2e}; per-seed test "
           f"accuracy orthonormal/random: {per_seed}")


def test_criterion_08_similarity_direction(request, report):
    start = time.perf_counter()
    runs = request.getfixturevalue("paired_runs")
    digits_test = request.getfixturevalue("digits_test")
    seeds = (1, 2, 3, 4, 5)
    dist = {}  # (use_re, metric) -> per-class means over seeds
    for use_re in (True, False):
        eu = np.zeros(10)
        co = np.zeros(10)
        for s in seeds:
            rows = ws.similarity_report(runs[(use_re, s)].network, digits_test)
            eu += [r.euclidean for r in rows]
            co += [r.cosine_distance for r in rows]
        dist[(use_re, "eu")] = eu / len(seeds)
        dist[(use_re, "co")] = co / len(seeds)
    both_ok = np.sum(
        (dist[(True, "eu")] <= dist[(False, "eu")])
        & (dist[(True, "co")] <= dist[(False, "co")])
    )
    elapsed = time.perf_counter() - start
    ok = both_ok > 5
    report(8, ok, elapsed, 600,
           f"euclidean and cosine distances no larger with the "
           f"reconstruction term in {both_ok}/10 classes (5 seeds)")


def test_criterion_09_schedule_and_sgd_identities(blobs_small, report):
    start = time.perf_counter()
    sched_ok = all(
        abs(ws.lr_at(0.1, (100, 200, 250), 0.1, e) - v) < 1e-15
        for e, v in ((0, 0.1), (100, 0.01), (200, 0.001), (250, 0.0001))
    )

    rng = np.random.default_rng(109)
    params = (rng.normal(size=(4, 3)), rng.normal(size=3),
              rng.normal(size=(3, 2)))
    grads = tuple(rng.normal(size=p.shape) for p in params)
    velocity = tuple(rng.normal(size=p.shape) for p in params)
    momentum, weight_decay = 0.9, 1e-4
    got_p, got_v = ws.sgd_step(params, grads, velocity, 0.1, momentum,
                               weight_decay)
    exact = True
    for k, (p, g, v) in enumerate(zip(params, grads, velocity)):
        p_ref, v_ref = p.copy(), v.copy()
        for idx in np.ndindex(p.shape):
            g_eff = g[idx] + (weight_decay * p[idx] if p.ndim == 2 else 0.0)
            v_ref[idx] = momentum * v[idx] + g_eff
            p_ref[idx] = p[idx] - 0.1 * v_ref[idx]
        exact = exact and np.array_equal(got_p[k], p_ref)
        exact = exact and np.array_equal(got_v[k], v_ref)

    cfg = ws.TrainConfig(layer_dims=(8, 16, 3), epochs=2, seed=5,
                         batch_size=16, freeze_final=True,
                         final_init="semi_orthogonal")
    art = ws.train(cfg, blobs_small)
    fresh = ws.init_network(ws.NetworkSpec(cfg.layer_dims), cfg.seed,
                            final_init="semi_orthogonal")
    frozen_ok = np.array_equal(art.network.final_weight, fresh.final_weight)

    elapsed = time.perf_counter() - start
    ok = sched_ok and exact and frozen_ok
    report(9, ok, elapsed, 1,
           f"schedule boundaries {sched_ok}, scalar-loop bit-exact {exact}, "
           f"frozen weight bit-identical {frozen_ok}")


def test_criterion_10_determinism_and_io(blobs_small, tmp_path, report):
    start = time.perf_counter()
    cfg = ws.TrainConfig(layer_dims=(8, 16, 3), epochs=3, seed=8,
                         batch_size=16, use_reconstruction=True)
    a = ws.train(cfg, blobs_small)
    b = ws.train(cfg, blobs_small)
    logs_ok = ws.metrics_to_csv(a.records) == ws.metrics_to_csv(b.records)

    ckpt = tmp_path / "net.bin"
    ws.save_checkpoint(a.network, ckpt)
    restored = ws.load_checkpoint(ckpt)
    ckpt_ok = all(
        np.array_equal(x, y)
        for x, y in zip(a.network.parameters(), restored.parameters())
    )

    import struct

    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    pixels = bytes([0, 51, 102, 153, 204, 255, 10, 20])
    with open(img, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels)
    with open(lab, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 2) + bytes([1, 0]))
    ds = ws.read_idx(img, lab)
    img2, lab2 = tmp_path / "img2.idx", tmp_path / "lab2.idx"
    ws.write_idx(ds, img2, lab2, image_shape=(2, 2))
    again = ws.read_idx(img2, lab2)
    idx_ok = (np.array_equal(ds.features, again.features)
              and np.array_equal(ds.labels, again.labels))
    broken = tmp_path / "broken.idx"
    broken.write_bytes(struct.pack(">IIII", 0xDEAD, 2, 2, 2) + pixels)
    with pytest.raises(ws.FormatError):
        ws.read_idx(broken, lab)

    elapsed = time.perf_counter() - start
    ok = logs_ok and ckpt_ok and idx_ok
    report(10, ok, elapsed, 10,
           f"metric logs bit-identical {logs_ok}, checkpoint round trip "
           f"{ckpt_ok}, idx round trip {idx_ok}")
