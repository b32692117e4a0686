import numpy as np
import pytest

from nwlearn import Rng, scmgen
from nwlearn.data import Dataset
from nwlearn.errors import ConfigError
from nwlearn.featnet import _fit_logistic
from nwlearn.scmgen import (
    ScmConfig,
    conditional_mi,
    imbalanced_benchmark,
    latent_oracle_accuracy,
    prevalence_filter,
    random_mix_matrix,
    sample_dataset,
    spurious_benchmark,
    sufficiency_invariance_gap,
)


def tiny_config(noise_std=0.5, n_envs=2, n_classes=2, seed=0):
    rng = Rng(seed)
    content_means = np.array([[-1.0, 0.0], [1.0, 0.0]])
    style_means = rng.normal(size=(n_classes, n_envs, 2))
    return ScmConfig(
        env_prior=np.full(n_envs, 1.0 / n_envs),
        label_prior_per_env=np.full((n_envs, n_classes), 1.0 / n_classes),
        content_means=content_means,
        style_means=style_means,
        noise_std=noise_std,
        mix_matrix=random_mix_matrix(4, 6, rng),
    )


def test_config_validation():
    cfg = tiny_config()
    with pytest.raises(ConfigError):
        ScmConfig(np.array([0.5, 0.6]), cfg.label_prior_per_env, cfg.content_means,
                  cfg.style_means, 0.5, cfg.mix_matrix)
    with pytest.raises(ConfigError):
        ScmConfig(cfg.env_prior, cfg.label_prior_per_env, cfg.content_means,
                  cfg.style_means, 0.5, np.zeros((4, 6)))  # rank-deficient mix


def test_mix_matrix_rank():
    m = random_mix_matrix(8, 16, Rng(3))
    assert m.shape == (8, 16)
    assert np.linalg.matrix_rank(m) == 8


def test_env_prior_onehot_restricts_envs():
    cfg = tiny_config()
    ds = sample_dataset(cfg, 50, [0], Rng(1))
    assert (ds.e == 0).all()


def test_zero_noise_collapses_to_means():
    cfg = tiny_config(noise_std=0.0)
    ds = sample_dataset(cfg, 30, [0, 1], Rng(2))
    for ex in ds.examples:
        assert np.allclose(ex.latent_zc, cfg.content_means[ex.y])
        assert np.allclose(ex.latent_zs, cfg.style_means[ex.y, ex.e])


def test_injectivity_x_determined_by_latents():
    cfg = tiny_config(noise_std=0.3)
    ds = sample_dataset(cfg, 20, [0, 1], Rng(4))
    for ex in ds.examples:
        z = np.concatenate([ex.latent_zc, ex.latent_zs])
        assert np.allclose(ex.x, z @ cfg.mix_matrix)


def test_zero_probability_env_rejected():
    cfg = tiny_config()
    cfg.env_prior = np.array([1.0, 0.0])
    with pytest.raises(ConfigError):
        sample_dataset(cfg, 10, [1], Rng(5))


def test_empirical_label_prior_matches_config():
    rng = Rng(6)
    cfg = tiny_config(seed=7)
    cfg.label_prior_per_env = np.array([[0.7, 0.3], [0.2, 0.8]])
    ds = sample_dataset(cfg, 50_000, [0, 1], rng)
    for env in (0, 1):
        members = ds.e == env
        freq = np.bincount(ds.y[members], minlength=2) / members.sum()
        assert np.abs(freq - cfg.label_prior_per_env[env]).max() < 0.01


def test_spurious_benchmark_shapes_and_envs():
    train, val, test = spurious_benchmark(True, Rng(8), n_train=600, n_val=120, n_test=240)
    assert len(train) == 600 and len(val) == 120 and len(test) == 240
    assert train.env_ids == [0, 1, 2]
    assert val.env_ids == [3]
    assert test.env_ids == [4]
    assert train.input_dim == 16


@pytest.mark.parametrize("flip_ood", [True, False])
def test_style_recipe_matches_its_loop_form(flip_ood, monkeypatch):
    # the recipe's style means, written cell by cell with the draws in the
    # same order: the signatures, then the jitter per environment and class
    configs, sample = [], scmgen.sample_dataset
    monkeypatch.setattr(scmgen, "sample_dataset", lambda cfg, *args: configs.append(cfg) or sample(cfg, *args))
    spurious_benchmark(flip_ood, Rng(23), n_train=30, n_val=10, n_test=10)
    rng, gap = Rng(23), scmgen._STYLE_GAP
    offsets = rng.normal(0.0, scmgen._OFFSET_SCALE, size=(5, 3))
    expected = np.zeros((2, 5, 4))
    for env in range(5):
        for cls in (0, 1):
            sign = 2.0 * cls - 1.0
            if env < 3:
                expected[cls, env, 0] = sign * scmgen._STYLE_STRENGTH[env] * gap
            else:
                expected[cls, env, 0] = -sign * gap if flip_ood else rng.normal(0.0, 0.1 * gap)
            expected[cls, env, 1:] = offsets[env]
    assert len(configs) == 3 and (configs[0].style_means == expected).all()


def test_benchmark_oracles():
    train, _, test = spurious_benchmark(True, Rng(9))
    assert latent_oracle_accuracy(train, train, "content") >= 0.95
    assert latent_oracle_accuracy(train, test, "content") >= 0.95
    assert latent_oracle_accuracy(train, train, "style") >= 0.90
    assert latent_oracle_accuracy(train, test, "style") <= 0.60


def test_benchmark_randomized_ood_style_uninformative():
    train, _, test = spurious_benchmark(False, Rng(10))
    assert latent_oracle_accuracy(train, test, "style") <= 0.60


def test_sufficiency_invariance_gap_small_for_content_large_for_style():
    # the content posterior is invariant by construction, so its gap is
    # estimator noise: over 25 data seeds its maximum is 0.087 at 20k rows
    # and 0.040 at 50k
    train, _, _ = spurious_benchmark(True, Rng(11), n_train=50_000, n_val=100, n_test=100)
    assert sufficiency_invariance_gap(train, Rng(12), which="content") < 0.05
    assert sufficiency_invariance_gap(train, Rng(13), which="style") > 0.3


def test_conditional_mi_directions():
    train, _, _ = spurious_benchmark(True, Rng(14), n_train=10_000, n_val=100, n_test=100)
    assert conditional_mi(train, "style") > 0.2
    assert conditional_mi(train, "content") < 0.02


def test_imbalanced_benchmark_prior():
    train, _, test = imbalanced_benchmark(Rng(15), majority_share=0.85,
                                          n_train=4000, n_val=200, n_test=1000)
    share = train.class_counts()[0] / len(train)
    assert abs(share - 0.85) < 0.03
    assert abs(test.class_counts()[0] / len(test) - 0.85) < 0.04


def test_prevalence_filter_unchanged_at_current_share():
    train, _, _ = spurious_benchmark(True, Rng(16), n_train=400, n_val=100, n_test=100)
    share = train.class_counts()[0] / len(train)
    same = prevalence_filter(train, 0, share, Rng(17))
    assert len(same) == len(train)


def test_prevalence_filter_hand_case():
    # 60/40 split of 100; target 0.5 -> 40/40
    from nwlearn.data import Dataset, LabeledExample
    examples = [LabeledExample(x=np.zeros(2), y=0, e=0) for _ in range(60)]
    examples += [LabeledExample(x=np.zeros(2), y=1, e=0) for _ in range(40)]
    ds = Dataset(examples, n_classes=2)
    out = prevalence_filter(ds, 0, 0.5, Rng(18))
    assert len(out) == 80
    assert out.class_counts().tolist() == [40, 40]


def test_prevalence_filter_cannot_raise_share():
    from nwlearn.data import Dataset, LabeledExample
    examples = [LabeledExample(x=np.zeros(2), y=0, e=0) for _ in range(60)]
    examples += [LabeledExample(x=np.zeros(2), y=1, e=0) for _ in range(40)]
    ds = Dataset(examples, n_classes=2)
    with pytest.raises(ConfigError):
        prevalence_filter(ds, 0, 0.7, Rng(19))


def test_generation_is_deterministic():
    a = spurious_benchmark(True, Rng(20), n_train=200, n_val=50, n_test=50)
    b = spurious_benchmark(True, Rng(20), n_train=200, n_val=50, n_test=50)
    for da, db in zip(a, b):
        assert (da.X == db.X).all()
        assert (da.y == db.y).all()
        assert (da.e == db.e).all()


def ragged_dataset():
    # environments 0, 3 and 7 with rows interleaved; cell (3, 1) is empty
    # and cell (7, 1) holds a single row
    gen = np.random.default_rng(21)
    e = np.repeat([0, 3, 7], [12, 9, 8])
    y = np.r_[np.tile([0, 1], 6), np.zeros(9, dtype=int), np.zeros(7, dtype=int), 1]
    perm = gen.permutation(len(e))
    e, y = e[perm], y[perm]
    zc = gen.normal(size=(len(e), 2)) + y[:, None]
    zs = gen.normal(size=(len(e), 3)) + e[:, None] / 4
    return Dataset.from_arrays(np.hstack([zc, zs]), y, e, n_classes=2, latents=(zc, zs))


def mask_conditional_mi(ds, z):
    # the estimate as first written, with a boolean mask per (env, class) cell
    total = 0.0
    pooled_var = 0.0
    n_groups = 0
    for env in ds.env_ids:
        for c in range(ds.n_classes):
            members = (ds.e == env) & (ds.y == c)
            if members.sum() < 2:
                continue
            zm = z[members]
            pooled_var += ((zm - zm.mean(axis=0)) ** 2).sum()
            n_groups += members.sum()
    var = max(pooled_var / max(n_groups * z.shape[1], 1), 1e-12)
    for c in range(ds.n_classes):
        cls_members = np.where(ds.y == c)[0]
        if len(cls_members) == 0:
            continue
        envs = [env for env in ds.env_ids if ((ds.e == env) & (ds.y == c)).any()]
        means = np.stack([z[(ds.e == env) & (ds.y == c)].mean(axis=0) for env in envs])
        weights = np.array([((ds.e == env) & (ds.y == c)).sum() for env in envs], dtype=np.float64)
        weights /= weights.sum()
        zc = z[cls_members]
        d2 = ((zc[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        log_cond = -d2 / (2 * var)
        env_pos = {env: k for k, env in enumerate(envs)}
        own = np.array([env_pos[int(e)] for e in ds.e[cls_members]])
        log_own = log_cond[np.arange(len(zc)), own]
        log_mix = np.log((weights[None, :] * np.exp(log_cond - log_cond.max(axis=1, keepdims=True))).sum(axis=1)) + log_cond.max(axis=1)
        total += (log_own - log_mix).sum()
    return float(total / len(ds))


def mask_invariance_gap(ds, z, rng, n_grid=200):
    # the gap as first written, with one np.where per environment
    grid = z[rng.choice(len(z), size=min(n_grid, len(z)), replace=False)]
    preds = []
    for env in ds.env_ids:
        members = np.where(ds.e == env)[0]
        y = ds.y[members]
        counts = np.bincount(y, minlength=2)
        if (counts == 0).any():
            continue
        w, b = _fit_logistic(z[members], y.astype(np.float64), weights=1.0 / counts[y])
        preds.append(1.0 / (1.0 + np.exp(-(grid @ w + b))))
    gap = 0.0
    for i in range(len(preds)):
        for j in range(i + 1, len(preds)):
            gap = max(gap, float(np.abs(preds[i] - preds[j]).max()))
    return gap


@pytest.mark.parametrize("which", ["content", "style"])
def test_diagnostics_on_empty_and_single_row_cells_match_the_mask_code(which):
    ds = ragged_dataset()
    assert len(ds.by_env_class[3, 1]) == 0 and len(ds.by_env_class[7, 1]) == 1
    z = ds.latents[0 if which == "content" else 1]
    assert conditional_mi(ds, which) == mask_conditional_mi(ds, z)
    gap = sufficiency_invariance_gap(ds, Rng(22), which=which)
    assert gap > 0.0 and gap == mask_invariance_gap(ds, z, Rng(22))
