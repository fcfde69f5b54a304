"""Acceptance gate: every shipped guarantee, one printed verdict line each.

Each test checks one release criterion at its stated tolerance and prints
``[acceptance] <name>: PASS/FAIL`` on the live terminal (bypassing capture),
then fails the usual way if the criterion does not hold.
"""

import time

import numpy as np

from sdscreen.clipper import clip_count, segment
from sdscreen.dataset import load_dataset, sds_sum_classify
from sdscreen.encoder3d import build_plan, encode_clip, init_encoder
from sdscreen.fusion import encode_score, fuse_question, init_fusion, predict_subject
from sdscreen.metrics import accuracy, confusion, roc_auc, sensitivity, specificity
from sdscreen.model import ModelConfig
from sdscreen.numerics import Tensor, stack
from sdscreen.ras import RasConfig, RasParams, encode_question, ras_block
from sdscreen.synth import SynthConfig, disagreement_cells, generate
from sdscreen.trainer import TrainConfig, run_fold


def _verdict(capsys, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


# -- 1 ----------------------------------------------------------------------

FULL_CHAIN = [
    (108, 108, 10, 16), (54, 54, 10, 16),
    (52, 52, 10, 32), (26, 26, 10, 32),
    (24, 24, 10, 64), (12, 12, 10, 64),
    (10, 10, 10, 128), (5, 5, 5, 128),
    (1, 1, 1, 256), (256,), (128,),
]


def test_full_resolution_shapes(capsys):
    start = time.monotonic()
    plan = build_plan(110, clip_len=10, base_channels=16, feature_dim=128)
    rng = np.random.default_rng(0)
    params = init_encoder(plan, rng)
    trace = []
    feat = encode_clip(Tensor(rng.uniform(size=(110, 110, 10, 1))), params,
                       shapes=trace)
    chain_ok = trace == FULL_CHAIN and feat.shape == (128,)

    head = init_fusion(128, (1024, 256), rng)
    head_ok = (head.w1.shape == (1024, 2660) and head.w2.shape == (256, 1024)
               and head.w3.shape == (1, 256))
    vectors = [fuse_question(Tensor(rng.normal(size=128)), encode_score(2), 5.0)
               for _ in range(20)]
    pred = predict_subject(vectors, head)
    head_ok = head_ok and pred.out.shape == () and 0.0 < pred.p.item() < 1.0

    elapsed = time.monotonic() - start
    _verdict(capsys, "full-resolution shape chain",
             chain_ok and head_ok and elapsed < 60.0,
             f"encoder {len(trace)} stages, head 2660-1024-256-1, {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------


def test_clip_count_formula(capsys):
    ok = all(clip_count(n) == 2 * (n // 10) - 1 for n in range(10, 531, 10))
    ok = ok and clip_count(400) == 79
    for n in (10, 50, 400):
        frames = np.zeros((n, 8, 8), dtype=np.uint8)
        ok = ok and len(segment(frames)) == clip_count(n)
    _verdict(capsys, "clip count formula", ok,
             "M = 2N/10 - 1 over N in 10..530, M(400) = 79")


# -- 3 ----------------------------------------------------------------------


def _oracle_block(states, base, positions, psi, phi, omega, sigma,
                  use_difference, use_delta):
    m, dim = states.shape
    out = np.zeros_like(states)
    for i in range(m):
        num = np.zeros(dim)
        den = 0.0
        for j in range(m):
            if j == i:
                continue
            raw = float(np.dot(psi @ base[i], phi @ base[j]))
            raw = min(max(raw, -60.0), 60.0)
            w = float(np.exp(raw))
            if use_delta:
                w *= float(np.exp(-((positions[i] - positions[j]) ** 2) / sigma))
            term = states[j] - states[i] if use_difference else states[j]
            num = num + w * term
            den += w
        out[i] = states[i] + omega * (num / den)
    return out


def _random_instance(seed):
    r = np.random.default_rng(seed)
    m = int(r.integers(2, 9))
    dim = int(r.integers(2, 17))
    states = r.normal(size=(m, dim))
    positions = sorted(r.choice(np.arange(1, 50), size=m, replace=False).tolist())
    psi = r.normal(size=(dim, dim)) * 0.3
    phi = r.normal(size=(dim, dim)) * 0.3
    omega = r.normal(size=dim) * 0.5
    sigma = float(r.uniform(2.0, 20.0))
    return states, positions, psi, phi, omega, sigma


def test_attention_matches_pairwise_oracle(capsys):
    worst = 0.0
    instances = 0
    for seed in range(100):
        states, positions, psi, phi, omega, sigma = _random_instance(seed)
        params = RasParams(omegas=[Tensor(omega)], psi=Tensor(psi),
                           phi=Tensor(phi))
        st = stack([Tensor(row) for row in states])
        for use_difference in (True, False):
            for use_delta in (True, False):
                cfg = RasConfig(blocks=1, sigma=sigma,
                                use_difference=use_difference,
                                use_delta=use_delta)
                got = ras_block(st, st, positions, params, cfg, layer=1).data
                want = _oracle_block(states, states, positions, psi, phi,
                                     omega, sigma, use_difference, use_delta)
                worst = max(worst, float(np.max(np.abs(got - want))))
                instances += 1
    _verdict(capsys, "attention vs pairwise oracle", worst <= 1e-12,
             f"{instances} instances, worst abs diff {worst:.2e} <= 1e-12")


# -- 4 ----------------------------------------------------------------------


def test_attention_exact_identities(capsys):
    ok = True
    for seed in range(100):
        r = np.random.default_rng(1000 + seed)
        m = int(r.integers(2, 9))
        dim = int(r.integers(2, 17))
        positions = list(range(1, m + 1))
        params = RasParams(
            omegas=[Tensor(r.normal(size=dim))],
            psi=Tensor(r.normal(size=(dim, dim))),
            phi=Tensor(r.normal(size=(dim, dim))))
        cfg = RasConfig(blocks=1, sigma=7.0)

        # Identical clip features pass through bit for bit.
        row = r.normal(size=dim)
        uniform = stack([Tensor(row.copy()) for _ in range(m)])
        out = ras_block(uniform, uniform, positions, params, cfg, layer=1)
        ok = ok and np.array_equal(out.data, uniform.data)

        # A single clip passes through bit for bit.
        single = encode_question([Tensor(row.copy())], [1], params, cfg)
        ok = ok and np.array_equal(single.data, row)

        # Permutation equivariance is exact (position kernel off).
        cfg_nodelta = RasConfig(blocks=1, sigma=7.0, use_delta=False)
        states = r.normal(size=(m, dim))
        perm = r.permutation(m)
        base = ras_block(stack([Tensor(v) for v in states]),
                         stack([Tensor(v) for v in states]),
                         positions, params, cfg_nodelta, layer=1).data
        permuted = ras_block(stack([Tensor(states[p]) for p in perm]),
                             stack([Tensor(states[p]) for p in perm]),
                             positions, params, cfg_nodelta, layer=1).data
        ok = ok and np.array_equal(permuted, base[perm])
        if not ok:
            break
    _verdict(capsys, "attention exact identities", ok,
             "uniform/single-clip pass-through and permutation, 100 trials, bitwise")


# -- 5 ----------------------------------------------------------------------


def test_gradient_checks(capsys):
    from sdscreen.cli import run_gradchecks

    start = time.monotonic()
    results = run_gradchecks(tol=1e-4)
    elapsed = time.monotonic() - start
    all_pass = all(ok for _, ok, _, _ in results)
    names = {name for name, _, _, _ in results}
    expected = {"encoder-reduced", "attention-stack", "fusion-head", "composed-loss"}
    detail = "; ".join(f"{n} {d}" for n, _, d, _ in results) + f"; {elapsed:.0f}s"
    _verdict(capsys, "gradient checks",
             all_pass and names == expected and elapsed < 600.0, detail)


# -- 6 ----------------------------------------------------------------------


def _pairwise_auc(probs, labels):
    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return wins / (pos.size * neg.size)


def test_metrics_exactness(capsys):
    probs = [0.9] * 9 + [0.2] + [0.1] * 8 + [0.8] * 2
    labels = [1] * 10 + [0] * 10
    c = confusion(probs, labels)
    hand_ok = (accuracy(c) == 0.85 and sensitivity(c) == 0.9
               and specificity(c) == 0.8)
    curve_ok = roc_auc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == 0.75

    worst = 0.0
    for seed in range(100):
        r = np.random.default_rng(seed)
        n = int(r.integers(4, 50))
        p = np.round(r.uniform(size=n), 1)
        y = r.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        worst = max(worst, abs(roc_auc(p, y) - _pairwise_auc(p, y)))
    _verdict(capsys, "metrics exactness",
             hand_ok and curve_ok and worst <= 1e-12,
             f"hand tables exact; AUC vs rank oracle worst {worst:.2e} over 100 sets")


# -- 7 ----------------------------------------------------------------------


def test_questionnaire_baseline_pinned(capsys, tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline_set")
    cfg = SynthConfig(n_subjects=200, fps=1, height=12, width=12,
                      disagreement_rate=0.20, time_median_s=3.0,
                      time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=0)
    data = generate(cfg, root)
    hits = sum(sds_sum_classify(s.choices) == s.label for s in data.subjects)
    acc = hits / len(data.subjects)
    cells = disagreement_cells(data)
    _verdict(capsys, "questionnaire-sum baseline", acc == 0.8 and cells == (80, 20, 20, 80),
             f"accuracy {acc} at disagreement rate 0.20, cells {cells}")


# -- 8 ----------------------------------------------------------------------

SEP_SYNTH = SynthConfig(n_subjects=80, fps=2, height=22, width=22,
                        disagreement_rate=0.2, time_min_s=5.0, time_max_s=10.0,
                        seed=11)
SEP_MODEL = ModelConfig(input_hw=22, clip_len=10, base_channels=2,
                        feature_dim=16, hidden=(32, 16), blocks=2, sigma=10.0,
                        init_seed=1)
SEP_TRAIN = TrainConfig(epochs=12, batch_size=4, lr=3e-3, seed=3, folds=5)


def test_end_to_end_separation(capsys, tmp_path_factory):
    import dataclasses

    start = time.monotonic()
    root = tmp_path_factory.mktemp("separation_set")
    data = generate(SEP_SYNTH, root)
    baseline = sum(sds_sum_classify(s.choices) == s.label
                   for s in data.subjects) / len(data.subjects)

    def five_fold_mean(model_cfg, out_name):
        out = tmp_path_factory.mktemp(out_name)
        accs = []
        for fold in range(SEP_TRAIN.folds):
            _, metrics = run_fold(data, model_cfg, SEP_TRAIN, fold, out)
            accs.append(metrics["accuracy"])
        return float(np.mean(accs)), accs

    full_mean, full_accs = five_fold_mean(SEP_MODEL, "separation_full")
    mlp_mean, mlp_accs = five_fold_mean(
        dataclasses.replace(SEP_MODEL, mode="mlp"), "separation_mlp")
    elapsed = time.monotonic() - start

    full_ok = full_mean > 0.85 and full_mean >= baseline + 0.05
    mlp_ok = not (mlp_mean > 0.85 and mlp_mean >= baseline + 0.05)
    _verdict(capsys, "end-to-end separation",
             full_ok and mlp_ok and elapsed < 7200.0,
             f"full mean {full_mean:.4f} {full_accs}, questionnaire-only mean "
             f"{mlp_mean:.4f}, baseline {baseline}, {elapsed:.0f}s")


# -- 9 ----------------------------------------------------------------------


def test_byte_identical_reruns(capsys, tmp_path_factory):
    from sdscreen.cli import config_to_text, main, resolve_config

    root = tmp_path_factory.mktemp("determinism_set")
    cfg = SynthConfig(n_subjects=8, fps=1, height=12, width=12,
                      disagreement_rate=0.25, time_median_s=3.0,
                      time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=2)
    data = generate(cfg, root)
    model_cfg = ModelConfig(input_hw=12, clip_len=4, base_channels=2,
                            feature_dim=4, hidden=(8, 4), blocks=1, sigma=4.0,
                            init_seed=5)
    train_cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, seed=6, folds=4)

    dirs = [tmp_path_factory.mktemp(f"determinism_run{i}") for i in (0, 1)]
    outputs = []
    for out in dirs:
        rows_metrics = run_fold(data, model_cfg, train_cfg, 0, out)
        # run_fold writes no config.txt or dataset.txt; these are the settings
        # and the dataset it trained with.
        (out / "config.txt").write_text(config_to_text(resolve_config(None, [
            "input_hw=12", "clip_len=4", "base_channels=2", "feature_dim=4",
            "hidden1=8", "hidden2=4", "blocks=1", "sigma=4.0", "init_seed=5",
            "seed=6", "folds=4"])))
        (out / "dataset.txt").write_text(
            f"manifest_sha256 = {load_dataset(root).manifest_sha256}\n")
        code = main(["eval", "--data", str(root), "--run", str(out), "--fold", "0"])
        assert code == 0
        outputs.append((
            (out / "fold0.ckpt").read_bytes(),
            (out / "fold0_history.csv").read_bytes(),
            (out / "metrics.csv").read_bytes(),
            rows_metrics[1],
        ))
    same = (outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]
            and outputs[0][2] == outputs[1][2])
    np.testing.assert_equal(outputs[0][3], outputs[1][3])  # NaN-tolerant
    _verdict(capsys, "byte-identical reruns", same,
             "checkpoint, history, metrics.csv identical across repeat runs")
