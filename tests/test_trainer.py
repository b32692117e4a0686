
import numpy as np
import pytest

from nwlearn import Rng, grad_check
from nwlearn.data import Dataset, LabeledExample
from nwlearn.errors import ConfigError, DomainError, TrainingDiverged
from nwlearn.featnet import FeatureNet, linear_head
from nwlearn.infer import InferenceMode, build_cache, knn_predict, predict
from nwlearn.metrics import compute_metric
from nwlearn.nwhead import cross_entropy, nw_predict, onehot
from nwlearn.support import SupportSpec, sample_env_pair, sample_query_batch, sample_support
from nwlearn.tensor import Tensor, add, mul, sum_all
from nwlearn.trainer import VARIANTS, TrainConfig, nw_loss, train


def toy_dataset(n=120, n_envs=2, dim=4, seed=0, separation=1.5):
    gen = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        y = int(gen.integers(0, 2))
        e = int(gen.integers(0, n_envs))
        x = gen.normal(size=dim) + separation * (2 * y - 1) * np.array([1.0, 1.0, 0.0, 0.0])
        examples.append(LabeledExample(x=x, y=y, e=e))
    return Dataset(examples, n_classes=2)


def _numpy_vote(net, ds, query_rows, support_rows):
    """The NW vote of the query rows of ``ds`` on its support rows, with the
    feature net and the kernel written out in plain numpy."""
    def forward(x):
        h = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            h = h @ w.data + b.data
            if i != len(net.weights) - 1:
                h = np.maximum(h, 0.0)
        return h

    qf, sf = forward(ds.X[query_rows]), forward(ds.X[support_rows])
    d = np.sqrt(np.maximum(
        (qf * qf).sum(1)[:, None] + (sf * sf).sum(1)[None, :] - 2 * qf @ sf.T, 0.0))
    logits = -d - (-d).max(axis=1, keepdims=True)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return w @ onehot(ds.y[support_rows], ds.n_classes)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(variant="nw_bespoke")
    with pytest.raises(ConfigError):
        TrainConfig(variant="nw_explicit", lambda_=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(n_q=0)


def test_loss_zero_when_prediction_is_onehot():
    probs = np.eye(2)[[0, 1, 1]]
    assert cross_entropy(probs, onehot([0, 1, 1], 2)).item() == pytest.approx(0.0, abs=1e-12)


def test_loss_uniform_is_log_c():
    ds = toy_dataset()
    net = FeatureNet((4, 4), Rng(0))
    for w in net.weights:
        w.data = np.zeros_like(w.data)
    batch = sample_query_batch(ds, 6, Rng(1))
    loss, _ = VARIANTS["nw_implicit"].loss(net, None, ds, batch, n_c=4, lambda_=0.0, rng=Rng(2), env=0)
    # zero features everywhere -> equal distances -> uniform votes
    assert loss.item() == pytest.approx(np.log(2), abs=1e-9)


def test_loss_implicit_matches_straight_line_reevaluation():
    # oracle: re-run the sampling with a cloned stream and evaluate the
    # prediction arithmetic in plain numpy
    ds = toy_dataset(seed=3)
    net = FeatureNet((4, 8, 3), Rng(4))
    batch = sample_query_batch(ds, 5, Rng(5))
    env = 1
    loss, _ = VARIANTS["nw_implicit"].loss(net, None, ds, batch, n_c=4, lambda_=0.0, rng=Rng(6), env=env)

    support = sample_support(ds, SupportSpec(balanced=True, env=env, n_per_class=4), Rng(6))
    probs = _numpy_vote(net, ds, batch, support)
    expect = -np.mean([np.log(probs[i, y] + 1e-15) for i, y in enumerate(ds.y[batch])])
    assert loss.item() == pytest.approx(expect, abs=1e-10)


def test_loss_explicit_matches_straight_line_reevaluation():
    # oracle: re-draw the pair row's two supports with a cloned stream and
    # evaluate CE(p_a) + lambda * mean ||p_a - p_b||^2 in plain numpy
    ds = toy_dataset(seed=42)
    net = FeatureNet((4, 8, 3), Rng(43))
    batch = sample_query_batch(ds, 5, Rng(44))
    lam = 0.5
    loss, penalty = VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=4, lambda_=lam, rng=Rng(45), env=None)

    support_a, support_b = sample_env_pair(ds, 4, Rng(45))
    pa, pb = _numpy_vote(net, ds, batch, support_a), _numpy_vote(net, ds, batch, support_b)
    gap = ((pa - pb) ** 2).sum(axis=1).mean()
    ce = -np.mean([np.log(pa[i, y] + 1e-15) for i, y in enumerate(ds.y[batch])])
    assert gap > 0.0
    assert penalty.item() == pytest.approx(gap, abs=1e-12)
    assert loss.item() == pytest.approx(ce + lam * gap, abs=1e-12)


def test_explicit_penalty_zero_iff_predictions_coincide():
    ds = toy_dataset(seed=7)
    net = FeatureNet((4, 6, 2), Rng(8))
    batch = sample_query_batch(ds, 4, Rng(9))
    s1, s2 = sample_env_pair(ds, 3, Rng(10))

    # identical supports -> identical predictions -> exactly zero
    assert nw_loss(net, ds, batch, (s1, s1), lambda_=1.0)[1].item() == 0.0

    # differing supports -> differing predictions -> strictly positive
    penalty = nw_loss(net, ds, batch, (s1, s2), lambda_=1.0)[1].item()
    q_feats = net.extract(ds.X[batch])
    p1 = nw_predict(q_feats, net.extract(ds.X[s1]), onehot(ds.y[s1], 2)).data
    p2 = nw_predict(q_feats, net.extract(ds.X[s2]), onehot(ds.y[s2], 2)).data
    assert penalty == pytest.approx(((p1 - p2) ** 2).sum(axis=1).mean(), abs=1e-12)
    if np.abs(p1 - p2).max() > 1e-12:
        assert penalty > 0.0


def test_explicit_hand_penalty_value():
    # predictions [1,0] vs [0,1] for one query: squared L2 = 2
    p1 = np.array([[1.0, 0.0]])
    p2 = np.array([[0.0, 1.0]])
    assert ((p1 - p2) ** 2).sum() == pytest.approx(2.0)
    # end-to-end: the pair row's loss adds lambda * penalty on top of the CE term
    ds = toy_dataset(seed=11)
    net = FeatureNet((4, 6, 2), Rng(12))
    batch = sample_query_batch(ds, 4, Rng(13))
    for lam in (0.5, 2.0):
        total, penalty = VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=3, lambda_=lam, rng=Rng(14), env=None)
        base, _ = VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=3, lambda_=1e-12, rng=Rng(14), env=None)
        assert total.item() == pytest.approx(base.item() + lam * penalty.item(), rel=1e-9, abs=1e-9)


def test_explicit_lambda_zero_reduces_to_implicit_on_shared_draw():
    ds = toy_dataset(seed=15)
    net = FeatureNet((4, 6, 2), Rng(16))
    batch = sample_query_batch(ds, 4, Rng(17))

    total, _ = VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=3, lambda_=0.0, rng=Rng(18), env=None)

    rng = Rng(18)
    s1, _ = sample_env_pair(ds, 3, rng)
    manual, _ = nw_loss(net, ds, batch, (s1,), lambda_=0.0)
    assert total.item() == manual.item()


def test_explicit_needs_two_envs():
    ds = toy_dataset(n_envs=1, seed=19)
    net = FeatureNet((4, 4, 2), Rng(20))
    batch = sample_query_batch(ds, 4, Rng(21))
    with pytest.raises(ConfigError):
        VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=3, lambda_=0.1, rng=Rng(22), env=None)


def test_erm_zero_head_is_log_c():
    ds = toy_dataset(seed=23)
    net = FeatureNet((4, 6, 3), Rng(24))
    head = linear_head(3, 2)
    loss, _ = VARIANTS["erm"].loss(net, head, ds, np.arange(10), n_c=8, lambda_=0.0, rng=Rng(0), env=None)
    assert loss.item() == pytest.approx(np.log(2), abs=1e-9)


def test_erm_separable_reaches_perfect_train_accuracy():
    ds = toy_dataset(n=80, separation=3.0, seed=25)
    cfg = TrainConfig(variant="erm", max_epochs=12, lr=5e-3, eval_every=0,
                      hidden_dims=(16,), feature_dim=4, seed=26)
    val = toy_dataset(n=40, separation=3.0, seed=27)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=9) for ex in val.examples], n_classes=2)
    model, _ = train(ds, val, cfg)
    pred = model.predict_probs(ds.X).argmax(axis=1)
    assert (pred == ds.y).mean() == 1.0


def test_full_objective_gradients_match_finite_differences():
    # <= 8-example toys for both objectives
    ds = toy_dataset(n=30, seed=28)
    net = FeatureNet((4, 5, 2), Rng(29))
    batch = sample_query_batch(ds, 4, Rng(30))

    err_implicit = grad_check(
        lambda: VARIANTS["nw_implicit"].loss(net, None, ds, batch, n_c=2, lambda_=0.0, rng=Rng(31), env=0)[0],
        net.parameters(), eps=1e-5)
    assert err_implicit < 1e-4

    err_explicit = grad_check(
        lambda: VARIANTS["nw_explicit"].loss(net, None, ds, batch, n_c=2, lambda_=0.7, rng=Rng(32), env=None)[0],
        net.parameters(), eps=1e-5)
    assert err_explicit < 1e-4


def test_unconditioned_losses_run_both_ways():
    ds = toy_dataset(seed=33)
    net = FeatureNet((4, 5, 2), Rng(34))
    batch = sample_query_batch(ds, 4, Rng(35))
    for variant in ("nw_balanced", "nw_unbalanced"):
        loss, _ = VARIANTS[variant].loss(net, None, ds, batch, n_c=3, lambda_=0.0, rng=Rng(36), env=None)
        assert np.isfinite(loss.item())


def test_train_zero_epochs_returns_initialized_model():
    ds = toy_dataset(seed=37)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=38).examples], 2)
    cfg = TrainConfig(variant="nw_implicit", max_epochs=0, seed=39)
    reference = FeatureNet([ds.input_dim, *cfg.hidden_dims, cfg.feature_dim], Rng(39).split(4)[0])
    model, report = train(ds, val, cfg)
    assert report.epochs == []
    assert report.selected_epoch is None
    for a, b in zip(model.weights, reference.weights):
        assert (a.data == b.data).all()


def test_train_is_deterministic():
    ds = toy_dataset(seed=40)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=41).examples], 2)
    cfg = TrainConfig(variant="nw_implicit", max_epochs=2, seed=42, eval_every=10,
                      hidden_dims=(8,), feature_dim=4)
    model_a, report_a = train(ds, val, cfg)
    model_b, report_b = train(ds, val, cfg)
    assert report_a == report_b
    for a, b in zip(model_a.parameters(), model_b.parameters()):
        assert (a.data == b.data).all()


def test_training_diverged_names_the_step_and_epoch():
    ds = toy_dataset(seed=43)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=44).examples], 2)
    cfg = TrainConfig(variant="nw_implicit", lr=1e150, max_epochs=1, seed=45, eval_every=0,
                      hidden_dims=(8,), feature_dim=4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as info:
        train(ds, val, cfg)
    assert "non-finite loss at step 1 (epoch 0)" in str(info.value)


def test_a_finite_loss_with_an_overflowing_gradient_diverges_at_its_step(monkeypatch):
    import nwlearn.trainer as trainer_module

    ds = toy_dataset(seed=43)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=44).examples], 2)
    cfg = TrainConfig(variant="nw_implicit", max_epochs=1, seed=45, eval_every=0,
                      hidden_dims=(8,), feature_dim=4)
    original, losses = trainer_module.nw_loss, []

    def overflowing_at_step_3(net, *args):
        loss, penalty = original(net, *args)
        if len(losses) == 3:
            # two uses of the small first-layer bias, each with gradient 1e308:
            # the value stays finite, their summed gradient does not
            b = net.biases[0]
            big = Tensor(np.full(b.shape, 1e308))
            loss = add(loss, add(sum_all(mul(b, big)), sum_all(mul(b, big))))
        losses.append(loss.item())
        return loss, penalty

    monkeypatch.setattr(trainer_module, "nw_loss", overflowing_at_step_3)
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged) as info:
        train(ds, val, cfg)
    assert len(losses) == 4 and np.isfinite(losses).all()
    assert "at step 3 (epoch 0)" in str(info.value) and "non-finite gradient" in str(info.value)
    assert isinstance(info.value.__cause__, DomainError)


def test_train_rejects_overlapping_val_envs():
    ds = toy_dataset(seed=43)
    cfg = TrainConfig(variant="nw_implicit", max_epochs=1, seed=44)
    with pytest.raises(ConfigError):
        train(ds, ds, cfg)


def test_training_loss_trend_nonincreasing_on_linear_scm_toy():
    # median over 5 seeds of (first epoch loss - last epoch loss) >= 0
    from nwlearn.scmgen import ScmConfig, random_mix_matrix, sample_dataset

    gen_rng = Rng(45)
    cfg_scm = ScmConfig(
        env_prior=np.array([0.4, 0.4, 0.2]),
        label_prior_per_env=np.full((3, 2), 0.5),
        content_means=np.array([[-1.0, 0.5], [1.0, -0.5]]),
        style_means=gen_rng.normal(size=(2, 3, 2)),
        noise_std=0.4,
        mix_matrix=random_mix_matrix(4, 8, gen_rng),
    )
    ds = sample_dataset(cfg_scm, 160, [0, 1], gen_rng)
    val = sample_dataset(cfg_scm, 60, [2], gen_rng)
    drops = []
    for seed in range(5):
        cfg = TrainConfig(variant="nw_implicit", max_epochs=4, lr=3e-3, seed=seed,
                          eval_every=0, hidden_dims=(16,), feature_dim=4)
        _, report = train(ds, val, cfg)
        drops.append(report.epochs[0].train_loss - report.epochs[-1].train_loss)
    assert np.median(drops) >= 0.0


def test_selected_checkpoint_maximizes_val_metric():
    ds = toy_dataset(n=100, seed=47)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=48).examples], 2)
    cfg = TrainConfig(variant="nw_implicit", max_epochs=3, seed=49, eval_every=0,
                      hidden_dims=(8,), feature_dim=4)
    _, report = train(ds, val, cfg)
    assert report.best_val_metric == max(ep.val_metric for ep in report.epochs)


@pytest.mark.parametrize("variant, seed", [("nw_implicit", 59), ("erm", 57)])
def test_train_returns_the_parameters_of_the_selected_check(variant, seed):
    ds = toy_dataset(n=120, seed=seed, separation=0.5)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=seed + 100, separation=0.5).examples], 2)
    cfg = TrainConfig(variant=variant, max_epochs=2, seed=seed, eval_every=5, lr=0.01,
                      hidden_dims=(8,), feature_dim=4)
    model, report = train(ds, val, cfg)
    # the selected check is not the last, and the last scored lower
    assert report.selected_step < cfg.max_epochs * (len(ds) // cfg.n_q)
    assert report.epochs[-1].val_metric < report.best_val_metric
    if variant == "erm":  # the head is restored with the net
        probs = model.predict_probs(val.X)
    else:
        probs = predict(InferenceMode("full"), build_cache(model, ds), model.extract(val.X).data)
    assert compute_metric(probs, val.y, val.e, "accuracy") == report.best_val_metric


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_selection_scores_its_own_support(variant):
    # 9:1 class skew and weak separation, so a class-balanced vote would
    # score differently from the unweighted one nw_unbalanced is tested with
    ds = Dataset([ex for i, ex in enumerate(toy_dataset(n=400, seed=50, separation=0.5).examples)
                  if ex.y == 0 or i % 9 == 0], 2)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=51, separation=0.5).examples], 2)
    cfg = TrainConfig(variant=variant, max_epochs=1, seed=52, eval_every=0,
                      hidden_dims=(8,), feature_dim=4)
    model, report = train(ds, val, cfg)
    row = VARIANTS[variant]
    if row.support is None:
        probs = model.predict_probs(val.X)
    elif not row.balanced:
        probs = knn_predict(build_cache(model, ds), model.extract(val.X).data, k=len(ds))
    else:
        probs = predict(InferenceMode("full"), build_cache(model, ds), model.extract(val.X).data)
    assert report.epochs[0].val_metric == compute_metric(probs, val.y, val.e, "accuracy")


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_only_erm_balanced_draws_balanced_query_batches(variant, monkeypatch):
    import nwlearn.trainer as trainer_module

    calls = []
    original = trainer_module.sample_balanced_query_batch

    def counting_draw(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trainer_module, "sample_balanced_query_batch", counting_draw)
    ds = toy_dataset(n=120, seed=56)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=57).examples], 2)
    cfg = TrainConfig(variant=variant, max_epochs=2, seed=58, eval_every=0, hidden_dims=(8,), feature_dim=4)
    train(ds, val, cfg)
    steps = cfg.max_epochs * (len(ds) // cfg.n_q)
    assert len(calls) == (steps if variant == "erm_balanced" else 0)


@pytest.mark.parametrize("variant", ["nw_implicit", "nw_explicit", "nw_balanced", "nw_unbalanced"])
def test_every_validation_check_is_one_trainer_predict_call(variant, monkeypatch):
    # benchmark tracing times validation at nwlearn.trainer.predict, so each
    # NW variant's check must go through that one call
    import nwlearn.trainer as trainer_module

    ds = toy_dataset(n=120, seed=53)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=54).examples], 2)
    cfg = TrainConfig(variant=variant, max_epochs=1, seed=55, eval_every=4,
                      hidden_dims=(8,), feature_dim=4)
    modes = []
    original = trainer_module.predict

    def counting_predict(mode, cache, *args, **kwargs):
        modes.append((mode.kind, mode.k))
        return original(mode, cache, *args, **kwargs)

    monkeypatch.setattr(trainer_module, "predict", counting_predict)
    train(ds, val, cfg)
    checks = len(ds) // cfg.n_q // cfg.eval_every + cfg.max_epochs
    expected = ("knn", len(ds)) if variant == "nw_unbalanced" else ("full", None)
    assert modes == [expected] * checks


def test_an_epochs_last_check_runs_once(monkeypatch):
    # 15 steps per epoch and eval_every=5: the check after step 15 is both
    # the periodic one and the epoch's own, so each epoch checks 3 times
    import nwlearn.trainer as trainer_module

    calls = []
    original = trainer_module._evaluate

    def counting_evaluate(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(trainer_module, "_evaluate", counting_evaluate)
    ds = toy_dataset(n=120, seed=59)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=60).examples], 2)
    train(ds, val, TrainConfig(variant="nw_implicit", max_epochs=2, seed=61, eval_every=5,
                               hidden_dims=(8,), feature_dim=4))
    assert len(calls) == 6


@pytest.mark.parametrize("variant, max_nodes", [("nw_implicit", 5), ("nw_explicit", 14),
                                                ("nw_balanced", 5), ("nw_unbalanced", 5)])
def test_a_step_is_one_forward_on_a_short_tape(variant, max_nodes, monkeypatch):
    import nwlearn.trainer as trainer_module

    ds = toy_dataset(n=120, seed=56)
    val = Dataset([LabeledExample(x=ex.x, y=ex.y, e=5) for ex in toy_dataset(seed=57).examples], 2)
    cfg = TrainConfig(variant=variant, max_epochs=2, seed=58, eval_every=4,
                      hidden_dims=(8,), feature_dim=4)
    extracts, nodes = [0], []
    in_validation = False
    original_extract, original_evaluate = FeatureNet.extract, trainer_module._evaluate
    original_backward = trainer_module.backward

    def counting_extract(self, inputs):
        if not in_validation:
            extracts[-1] += 1
        return original_extract(self, inputs)

    def evaluate(*args, **kwargs):
        nonlocal in_validation
        in_validation = True
        try:
            return original_evaluate(*args, **kwargs)
        finally:
            in_validation = False

    def counting_backward(tape, loss):
        nodes.append(len(tape._nodes))
        extracts.append(0)
        return original_backward(tape, loss)

    monkeypatch.setattr(FeatureNet, "extract", counting_extract)
    monkeypatch.setattr(trainer_module, "_evaluate", evaluate)
    monkeypatch.setattr(trainer_module, "backward", counting_backward)
    train(ds, val, cfg)
    steps = cfg.max_epochs * (len(ds) // cfg.n_q)
    # extracts[i] counts the forwards since the sweep before the i-th one
    assert extracts == [1] * steps + [0]
    assert len(nodes) == steps and max(nodes) <= max_nodes
