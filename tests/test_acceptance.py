"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria 8 and 9 are experiment-grade (multi-seed training runs) and take
one to two minutes each; everything else is seconds. Tolerances are pinned here and
nowhere else.
"""

import json
import time

import numpy as np
import pytest

from nwlearn import Rng, grad_check
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import CoverageError
from nwlearn.experiment import ExperimentConfig, run_experiment
from nwlearn.featnet import FeatureNet
from nwlearn.hnsw import HnswIndex
from nwlearn.infer import FeatureCache, InferenceMode, build_cache, knn_predict, predict
from nwlearn.metrics import compute_metric
from nwlearn.nwhead import nw_predict, onehot
from nwlearn.scmgen import (
    ScmConfig,
    imbalanced_benchmark,
    latent_oracle_accuracy,
    prevalence_filter,
    random_mix_matrix,
    sample_dataset,
    spurious_benchmark,
    sufficiency_invariance_gap,
)
from nwlearn.support import SupportSpec, sample_env_pair, sample_query_batch, sample_support
from nwlearn.tensor import Tensor
from nwlearn.trainer import VARIANTS, TrainConfig, nw_loss, train


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _toy_dataset(n=24, n_envs=2, dim=3, seed=0):
    gen = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        y = i % 2
        e = (i // 2) % n_envs  # every (env, class) bucket populated
        x = gen.normal(size=dim) + 1.2 * (2 * y - 1) * np.array([1.0, 0.5, 0.0])
        examples.append(LabeledExample(x=x, y=y, e=e))
    return Dataset(examples, n_classes=2)


def test_criterion_1_gradient_fidelity():
    """Analytic gradients of both objectives match central differences."""
    start = time.time()
    ds = _toy_dataset(n=8, seed=1)
    net = FeatureNet((3, 4, 2), Rng(2))
    batch = sample_query_batch(ds, 4, Rng(3))

    err_implicit = grad_check(
        lambda: nw_loss(
            net,
            ds,
            batch,
            (sample_support(ds, SupportSpec(balanced=True, env=0, n_per_class=2), Rng(4)),),
            lambda_=0.0,
        )[0],
        net.parameters(), eps=1e-5)
    err_explicit = grad_check(
        lambda: VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=2, lambda_=0.5, rng=Rng(5), env=None)[0],
        net.parameters(), eps=1e-5)
    elapsed = time.time() - start
    ok = err_implicit < 1e-4 and err_explicit < 1e-4 and elapsed < 1.0
    report(1, ok, f"grad err implicit {err_implicit:.2e}, explicit {err_explicit:.2e} in {elapsed:.2f}s")


def test_criterion_2_nw_head_invariants():
    """Simplex validity, permutation / duplication / translation invariance
    on 100 random instances."""
    start = time.time()
    gen = np.random.default_rng(6)
    worst_simplex, worst_perm, worst_dup, worst_shift = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        n_q, n_s, dim, c = 3, 10, 4, 3
        q = gen.normal(size=(n_q, dim))
        feats = gen.normal(size=(n_s, dim))
        labels = gen.integers(0, c, size=n_s)
        labels[:c] = np.arange(c)
        probs = nw_predict(Tensor(q), feats, onehot(labels, c)).data
        worst_simplex = max(worst_simplex, float(np.abs(probs.sum(axis=1) - 1.0).max()),
                            float(-(probs.min())) if probs.min() < 0 else 0.0)
        perm = gen.permutation(n_s)
        shuffled = nw_predict(Tensor(q), feats[perm], onehot(labels[perm], c)).data
        worst_perm = max(worst_perm, float(np.abs(shuffled - probs).max()))
        doubled = nw_predict(Tensor(q), np.concatenate([feats, feats]),
                             onehot(np.concatenate([labels, labels]), c)).data
        worst_dup = max(worst_dup, float(np.abs(doubled - probs).max()))
        shift = gen.normal(size=dim)
        moved = nw_predict(Tensor(q + shift), feats + shift, onehot(labels, c)).data
        worst_shift = max(worst_shift, float(np.abs(moved - probs).max()))
    elapsed = time.time() - start
    ok = (worst_simplex < 1e-9 and worst_perm < 1e-12 and worst_dup < 1e-12
          and worst_shift < 1e-12 and elapsed < 10.0)
    report(2, ok, f"simplex {worst_simplex:.1e}, perm {worst_perm:.1e}, dup {worst_dup:.1e}, "
                  f"shift {worst_shift:.1e} in {elapsed:.1f}s")


def test_criterion_3_constraint_semantics():
    """Penalty is 0 iff env-conditioned predictions coincide; lambda=0
    reduces exactly to the implicit loss on shared draws."""
    ds = _toy_dataset(n=40, seed=7)
    net = FeatureNet((3, 5, 2), Rng(8))
    batch = sample_query_batch(ds, 4, Rng(9))
    s1, s2 = sample_env_pair(ds, 2, Rng(10))

    zero_pen = nw_loss(net, ds, batch, (s1, s1), lambda_=1.0)[1].item()
    diff_pen = nw_loss(net, ds, batch, (s1, s2), lambda_=1.0)[1].item()
    q_feats = net.extract(ds.X[batch])
    p1 = nw_predict(q_feats, net.extract(ds.X[s1]), onehot(ds.y[s1], 2)).data
    p2 = nw_predict(q_feats, net.extract(ds.X[s2]), onehot(ds.y[s2], 2)).data
    preds_differ = np.abs(p1 - p2).max() > 1e-9

    total, _ = VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=2, lambda_=0.0, rng=Rng(11), env=None)
    rng = Rng(11)
    shared_s1, _ = sample_env_pair(ds, 2, rng)
    manual, _ = nw_loss(net, ds, batch, (shared_s1,), lambda_=0.0)

    ok = (zero_pen == 0.0 and (diff_pen > 0.0) == preds_differ and preds_differ
          and total.item() == manual.item())
    report(3, ok, f"identical-support penalty {zero_pen}, differing-support penalty {diff_pen:.2e}, "
                  f"lambda=0 reduction exact ({total.item():.12f})")


def test_criterion_4_sampler_contracts():
    """1000 random dataset/spec pairs: exact balanced counts, so every class
    is covered, env purity, CoverageError exactly when a required bucket is
    empty."""
    gen = np.random.default_rng(12)
    rng = Rng(13)
    checked = 0
    for _ in range(1000):
        n_classes = int(gen.integers(2, 5))
        n_envs = int(gen.integers(1, 4))
        skip = set()
        if gen.random() < 0.4:
            skip.add((int(gen.integers(0, n_envs)), int(gen.integers(0, n_classes))))
        examples = []
        for _ in range(int(gen.integers(8, 30))):
            y = int(gen.integers(0, n_classes))
            e = int(gen.integers(0, n_envs))
            if (e, y) in skip:
                continue
            examples.append(LabeledExample(x=gen.normal(size=3), y=y, e=e))
        for e in range(n_envs):
            for y in range(n_classes):
                if (e, y) not in skip:
                    examples.append(LabeledExample(x=gen.normal(size=3), y=y, e=e))
        ds = Dataset(examples, n_classes=n_classes)
        env = int(gen.integers(0, n_envs)) if gen.random() < 0.6 else None
        n_per_class = int(gen.integers(1, 4))
        spec = SupportSpec(balanced=True, env=env, n_per_class=n_per_class)
        if env is not None:
            empty = [c for c in range(n_classes) if len(ds.by_env_class[(env, c)]) == 0]
        else:
            empty = [c for c in range(n_classes) if len(ds.by_class[c]) == 0]
        if empty:
            with pytest.raises(CoverageError):
                sample_support(ds, spec, rng)
        else:
            rows = sample_support(ds, spec, rng)
            counts = np.bincount(ds.y[rows], minlength=n_classes)
            assert (counts == n_per_class).all()
            assert set(ds.y[rows].tolist()) == set(range(n_classes))
            if env is not None:
                assert (ds.e[rows] == env).all()
        checked += 1
    report(4, checked == 1000, f"{checked} random dataset/spec pairs")


def test_criterion_5_inference_mode_reductions():
    """k-NN with k = cache size equals unbalanced Full; Cluster with
    k = bucket size reproduces Full per class; Ensemble of identical
    per-env predictions equals that prediction."""
    gen = np.random.default_rng(14)
    n, dim, c = 30, 4, 3
    feats = gen.normal(size=(n, dim))
    labels = np.arange(n) % c  # balanced so duplication is a no-op
    envs = np.zeros(n, dtype=int)
    cache = FeatureCache(feats, labels, envs, c)
    q = gen.normal(size=(5, dim))

    knn_all = knn_predict(cache, q, k=n, exact=True)
    unbalanced_full = nw_predict(Tensor(q), feats, onehot(labels, c)).data
    gap_knn = float(np.abs(knn_all - unbalanced_full).max())

    full = predict(InferenceMode("full"), cache, q)
    clustered = predict(InferenceMode("cluster", k=n // c), cache, q, rng=Rng(15))
    gap_cluster = float(np.abs(clustered - full).max())

    two_env = FeatureCache(np.concatenate([feats, feats]),
                           np.concatenate([labels, labels]),
                           np.concatenate([np.zeros(n, int), np.ones(n, int)]), c)
    ens = predict(InferenceMode("ensemble"), two_env, q)
    gap_ens = float(np.abs(ens - full).max())

    ok = gap_knn < 1e-9 and gap_cluster < 1e-9 and gap_ens < 1e-9
    report(5, ok, f"knn-vs-unbalanced-full {gap_knn:.1e}, cluster-vs-full {gap_cluster:.1e}, "
                  f"ensemble-identity {gap_ens:.1e}")


def test_criterion_6_hnsw_recall():
    """recall@20 vs exact scan >= 0.95 on 10,000 random 16-d points with
    default parameters, under 60 s."""
    start = time.time()
    gen = np.random.default_rng(16)
    pts = gen.uniform(size=(10_000, 16))
    index = HnswIndex(pts, rng=Rng(17))
    queries = gen.uniform(size=(100, 16))
    hits = 0
    for row in queries:
        approx, _ = index.search(row, 20)
        exact = np.argsort(((pts - row) ** 2).sum(axis=1), kind="stable")[:20]
        hits += len(set(approx.tolist()) & set(exact.tolist()))
    recall = hits / (len(queries) * 20)
    elapsed = time.time() - start
    ok = recall >= 0.95 and elapsed < 60.0
    report(6, ok, f"recall@20 {recall:.3f} on 10k points in {elapsed:.1f}s")


def test_criterion_7_scm_soundness():
    """P(Y|E) within 1% at 50k samples; per-env posterior fits on the
    content latent agree within 0.05; content oracle >= 95% OOD while the
    style oracle <= 60% on the flipped OOD test."""
    rng = Rng(18)
    prior = np.array([[0.7, 0.3], [0.45, 0.55], [0.2, 0.8]])
    cfg = ScmConfig(
        env_prior=np.full(3, 1 / 3),
        label_prior_per_env=prior,
        content_means=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        style_means=rng.normal(size=(2, 3, 2)),
        noise_std=0.5,
        mix_matrix=random_mix_matrix(4, 8, rng),
    )
    ds = sample_dataset(cfg, 50_000, [0, 1, 2], rng)
    prior_gap = 0.0
    for env in range(3):
        members = ds.e == env
        freq = np.bincount(ds.y[members], minlength=2) / members.sum()
        prior_gap = max(prior_gap, float(np.abs(freq - prior[env]).max()))

    train_ds, _, test_ds = spurious_benchmark(True, Rng(19), n_train=50_000, n_val=200, n_test=2000)
    inv_gap = sufficiency_invariance_gap(train_ds, Rng(20))
    content_ood = latent_oracle_accuracy(train_ds, test_ds, "content")
    style_ood = latent_oracle_accuracy(train_ds, test_ds, "style")

    ok = prior_gap < 0.01 and inv_gap < 0.05 and content_ood >= 0.95 and style_ood <= 0.60
    report(7, ok, f"P(Y|E) gap {prior_gap:.4f}, invariance gap {inv_gap:.4f}, "
                  f"content OOD {content_ood:.3f}, flipped style OOD {style_ood:.3f}")


def _ood_accuracy(model, variant, ds_train, ds_test, mode, rng):
    if not variant.startswith("nw"):
        return compute_metric(model.predict_probs(ds_test.X), ds_test.y, ds_test.e, "accuracy")
    cache = build_cache(model, ds_train)
    probs = predict(mode, cache, model.extract(ds_test.X).data, rng=rng)
    return compute_metric(probs, ds_test.y, ds_test.e, "accuracy")


@pytest.mark.slow
def test_criterion_8_qualitative_orderings():
    """Desk-scale replication over 5 seeds: (a) env-conditioned implicit NW
    beats ERM OOD by >= 5 points; (b) it beats balanced-only NW; (c)
    Cluster within 3 points of Full; (d) explicit within 3 points of
    implicit. Under 30 minutes."""
    start = time.time()
    tr, va, te = spurious_benchmark(True, Rng(0))
    seeds = (1, 2, 3, 4, 5)
    means = {}
    cluster_means = {}
    for variant in ("erm", "nw_balanced", "nw_implicit", "nw_explicit"):
        full_accs, cluster_accs = [], []
        for seed in seeds:
            cfg = TrainConfig(variant=variant, max_epochs=8, lr=1e-3, eval_every=25, seed=seed)
            model, _ = train(tr, va, cfg)
            full_accs.append(_ood_accuracy(model, variant, tr, te, InferenceMode("full"), Rng(seed + 100)))
            if variant == "nw_implicit":
                cluster_accs.append(_ood_accuracy(model, variant, tr, te,
                                                  InferenceMode("cluster"), Rng(seed + 200)))
        means[variant] = float(np.mean(full_accs))
        if cluster_accs:
            cluster_means[variant] = float(np.mean(cluster_accs))
    elapsed = time.time() - start

    gap_erm = means["nw_implicit"] - means["erm"]
    gap_balanced = means["nw_implicit"] - means["nw_balanced"]
    gap_cluster = abs(cluster_means["nw_implicit"] - means["nw_implicit"])
    gap_explicit = abs(means["nw_explicit"] - means["nw_implicit"])
    ok = (gap_erm >= 0.05 and gap_balanced > 0.0 and gap_cluster <= 0.03
          and gap_explicit <= 0.03 and elapsed < 1800)
    report(8, ok, f"vs ERM +{gap_erm * 100:.1f}pts, vs balanced +{gap_balanced * 100:.1f}pts, "
                  f"cluster gap {gap_cluster * 100:.1f}pts, explicit gap {gap_explicit * 100:.1f}pts "
                  f"({elapsed:.0f}s; means {({k: round(v, 3) for k, v in means.items()})})")


@pytest.mark.slow
def test_criterion_9_prevalence_sweep():
    """Balanced-support NW beats the unbalanced variant at the lowest test
    prevalence of the majority class and loses or ties at the highest, on
    the label-skewed benchmark, 5 seeds."""
    start = time.time()
    tr, va, te = imbalanced_benchmark(Rng(1))
    lo, hi = 0.15, 0.85
    filt = Rng(2)
    test_lo = prevalence_filter(te, 0, lo, filt)
    test_hi = prevalence_filter(te, 0, hi, filt)
    bal = {lo: [], hi: []}
    unbal = {lo: [], hi: []}
    for seed in (1, 2, 3, 4, 5):
        for variant, store in (("nw_balanced", bal), ("nw_unbalanced", unbal)):
            cfg = TrainConfig(variant=variant, max_epochs=8, lr=1e-3, eval_every=25, seed=seed)
            model, _ = train(tr, va, cfg)
            cache = build_cache(model, tr)
            for point, ds_p in ((lo, test_lo), (hi, test_hi)):
                feats = model.extract(ds_p.X).data
                if variant == "nw_balanced":
                    probs = predict(InferenceMode("full"), cache, feats)
                else:
                    probs = knn_predict(cache, feats, k=len(cache), exact=True)
                store[point].append(compute_metric(probs, ds_p.y, ds_p.e, "accuracy"))
    elapsed = time.time() - start
    bal_lo, bal_hi = np.mean(bal[lo]), np.mean(bal[hi])
    unbal_lo, unbal_hi = np.mean(unbal[lo]), np.mean(unbal[hi])
    # "loses or ties" at the highest point: within 2 points counts as a tie
    ok = bal_lo > unbal_lo and bal_hi <= unbal_hi + 0.02 and elapsed < 1800
    report(9, ok, f"low prevalence: balanced {bal_lo:.3f} vs unbalanced {unbal_lo:.3f}; "
                  f"high prevalence: balanced {bal_hi:.3f} vs unbalanced {unbal_hi:.3f} ({elapsed:.0f}s)")


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed: metrics records byte-identical across two
    runs (timestamps excluded, as the only permitted difference)."""
    def run_once(out):
        cfg = ExperimentConfig(
            data="spurious", n_train=240, n_val=60, n_test=120,
            train=TrainConfig(variant="nw_implicit", max_epochs=1, eval_every=0,
                              hidden_dims=(8,), feature_dim=4, seed=3),
            modes=("full", "random"), n_seeds=2, out_dir=str(out),
        )
        run_experiment(cfg)
        lines = []
        for line in (out / "metrics.jsonl").read_text().splitlines():
            rec = json.loads(line)
            rec.pop("timestamp")
            lines.append(json.dumps(rec, sort_keys=True))
        return ("\n".join(lines)).encode()

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    report(10, first == second, f"{len(first)} bytes of metrics records identical across reruns")
