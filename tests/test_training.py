"""Losses, manual gradients, Adagrad, and the training loops."""

import functools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec import features, training
from poirec.features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    aggregate_candidates,
    encode_candidate,
    encode_query,
)
from poirec.model import CandidateBlock, ModelParams, TowerCache, init_params
from poirec.training import (
    RETRIEVAL_HEAD_TENSORS,
    AdagradState,
    Batch,
    CandidateMissing,
    EpochTrace,
    LossWeights,
    TrainConfig,
    TrainInputs,
    adagrad_step,
    finite_difference_check,
    gradients,
    joint_loss,
    loss_and_gradients,
    rating_loss,
    reference_gradcheck,
    retrieval_log_prob,
    retrieval_loss,
    train,
    two_phase_train,
    _build_tiny_setup,
    _head_step,
    _held_rows,
    _iter_batches,
)
from _synth import latent_factor_corpus
from poirec.corpus import temporal_split


def tiny():
    return _build_tiny_setup(seed=12)


class TestLosses:
    def test_rating_loss_oracle(self):
        """MSE recomputed from per-example predictions."""
        from poirec.model import forward_candidates, forward_users, rating_predict

        params, batch = tiny()
        u = forward_users(params, batch.query_block).out
        v = forward_candidates(params, batch.pair_block).out
        preds = rating_predict(params, u, v)
        want = sum((float(p) - float(y)) ** 2 for p, y in zip(preds, batch.labels)) / len(preds)
        assert rating_loss(batch, params) == pytest.approx(want, rel=1e-6)

    def test_retrieval_loss_uniform_scores(self):
        """Zeroed retrieval heads give uniform softmax: loss is ln(C)."""
        params, batch = tiny()
        for name in RETRIEVAL_HEAD_TENSORS:
            params.tensors[name][...] = 0.0
        c = len(batch.softmax_candidates)
        assert retrieval_loss(batch, params) == pytest.approx(math.log(c), rel=1e-6)

    def test_log_prob_two_candidates(self):
        """Identical candidates split the mass evenly: log p = -ln 2."""
        params, _ = tiny()
        q = QueryFeatures(1, (0.2, 0.5, -0.5))
        c = CandidateFeatures(2, {3: 1})
        lp = retrieval_log_prob(q, 0, [c, c], params)
        assert lp == pytest.approx(-math.log(2.0), abs=1e-6)

    def test_log_prob_matches_naive_oracle(self):
        params, batch = tiny()
        from poirec.model import location_encode, user_encode

        q = batch.queries[0]
        cands = list(batch.softmax_candidates)
        u = user_encode(q, params, task="retrieval").astype(np.float64)
        scores = np.array(
            [u @ location_encode(c, params, task="retrieval").astype(np.float64) for c in cands]
        )
        naive = math.log(math.exp(scores[2]) / np.exp(scores).sum())
        assert retrieval_log_prob(q, 2, cands, params) == pytest.approx(naive, abs=1e-6)

    def test_log_prob_overflow_safe(self):
        """Scores near 1000 overflow the naive exp but not the shifted form."""
        params, _ = tiny()
        scale = 1000.0 / max(
            1e-9,
            abs(
                retrieval_log_prob(
                    QueryFeatures(1), 0, [CandidateFeatures(1), CandidateFeatures(2)], params
                )
            ),
        )
        params.tensors["retrieval_head.user.w"] *= 200.0
        params.tensors["retrieval_head.item.w"] *= 200.0
        lp = retrieval_log_prob(
            QueryFeatures(1), 0, [CandidateFeatures(1), CandidateFeatures(2)], params
        )
        assert np.isfinite(lp)
        assert lp <= 0.0

    def test_true_index_outside_set(self):
        params, _ = tiny()
        with pytest.raises(CandidateMissing):
            retrieval_log_prob(QueryFeatures(1), 5, [CandidateFeatures(1)], params)

    def test_joint_is_weighted_sum(self):
        params, batch = tiny()
        w = LossWeights(0.3, 0.7)
        want = 0.3 * rating_loss(batch, params) + 0.7 * retrieval_loss(batch, params)
        assert joint_loss(batch, params, w) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["full_corpus", "in_batch"])
    @pytest.mark.parametrize("w", [(0.3, 0.7), (1.0, 0.0), (0.0, 1.0)],
                             ids=["joint", "rating-only", "retrieval-only"])
    def test_loss_functions_equal_training_losses(self, dtype, mode, w):
        """The loss functions and the training step share one forward per
        task, so they agree exactly, not just within rounding."""
        params, batch = tiny()
        params = params.astype(dtype)
        if mode == "in_batch":
            batch = Batch.in_batch(batch.queries, batch.pair_candidates, batch.labels)
        weights = LossWeights(*w)
        l_rat, l_ret, _ = loss_and_gradients(batch, params, weights)
        assert l_rat == (rating_loss(batch, params) if w[0] else 0.0)
        assert l_ret == (retrieval_loss(batch, params) if w[1] else 0.0)
        assert joint_loss(batch, params, weights) == w[0] * l_rat + w[1] * l_ret

    def test_log_prob_is_one_query_retrieval_loss(self):
        params, batch = tiny()
        cands = list(batch.softmax_candidates)
        for q, c, y, t in zip(batch.queries, batch.pair_candidates, batch.labels,
                              batch.true_indices):
            one = Batch([q], [c], [y], cands, [t])
            assert retrieval_log_prob(q, int(t), cands, params) == -retrieval_loss(one, params)

    @pytest.mark.parametrize("field", ["pair_candidates", "labels", "true_indices"])
    def test_batch_lengths_must_match_queries(self, field):
        """A short field would broadcast into a loss instead of failing."""
        _, batch = tiny()
        parts = dict(queries=batch.queries, pair_candidates=batch.pair_candidates,
                     labels=batch.labels, softmax_candidates=batch.softmax_candidates,
                     true_indices=batch.true_indices)
        parts[field] = parts[field][:1]
        with pytest.raises(ValueError):
            Batch(**parts)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="batch must be non-empty"):
            Batch([], [], [], [], [])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 0.5)
        with pytest.raises(ValueError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            TrainConfig(weights=(0.5, 0.5))

    @pytest.mark.parametrize("name", ["learning_rate", "epsilon"])
    def test_rates_stay_in_float32_normal_range(self, name):
        """Adagrad casts both to float32: below the smallest normal float32
        they flush toward 0, above the largest they are inf."""
        tiny, big = float(np.finfo(np.float32).tiny), float(np.finfo(np.float32).max)
        assert getattr(TrainConfig(**{name: tiny}), name) == tiny
        assert getattr(TrainConfig(**{name: big}), name) == big
        for value in (tiny / 2, 1e-50, big * 2):
            with pytest.raises(ValueError, match=f"{name} must be a normal float32"):
                TrainConfig(**{name: value})


class TestGradients:
    def test_finite_difference_agreement(self):
        err, worst, seed = reference_gradcheck(seed=0)
        assert err < 1e-4, f"worst tensor {worst} at seed {seed}: {err}"

    def test_negative_control_corruption_detected(self, corrupt_gradients):
        corrupt_gradients("rating_head.w")
        params, batch = tiny()
        err, worst = finite_difference_check(batch, params, LossWeights(0.5, 0.5))
        assert err > 1e-2
        assert worst == "rating_head.w"

    def test_no_kink_free_seed_raises(self, monkeypatch):
        monkeypatch.setattr(training, "_kink_margin", lambda params, batch: 0.0)
        with pytest.raises(RuntimeError, match="no kink-free seed found"):
            reference_gradcheck(seed=0)

    def test_zero_retrieval_weight_kills_retrieval_heads(self):
        """With w'=0 the retrieval branch is skipped: its heads get exact
        zero gradients, with no epsilon-size residue."""
        params, batch = tiny()
        grads = gradients(batch, params, LossWeights(1.0, 0.0))
        for name in RETRIEVAL_HEAD_TENSORS:
            assert np.all(grads[name] == 0.0)

    def test_zero_rating_weight_kills_rating_head(self):
        params, batch = tiny()
        grads = gradients(batch, params, LossWeights(0.0, 1.0))
        assert np.all(grads["rating_head.w"] == 0.0)
        assert np.all(grads["rating_head.b"] == 0.0)

    def test_gradients_cover_all_tensors(self):
        params, batch = tiny()
        grads = gradients(batch, params, LossWeights(0.5, 0.5))
        assert set(grads) == set(params.tensors)
        for name, g in grads.items():
            assert g.shape == params.tensors[name].shape


class TestAdagrad:
    def test_single_step_arithmetic(self):
        """p=1, g=3, acc0=0.1, lr=0.5: acc -> 9.1, p -> 1 - 1.5/(sqrt(9.1)+eps)."""
        params = init_params(seed=0, num_users=2, num_businesses=2, k=2).astype(np.float64)
        params.tensors = {"user_table": np.array([[1.0]])}
        grads = {"user_table": np.array([[3.0]])}
        state = AdagradState.init(params, learning_rate=0.5, epsilon=1e-7)
        adagrad_step(params, grads, state)
        assert state.accumulators["user_table"][0, 0] == pytest.approx(9.1)
        want = 1.0 - 0.5 * 3.0 / (math.sqrt(9.1) + 1e-7)
        assert params.tensors["user_table"][0, 0] == pytest.approx(want, rel=1e-12)

    def test_five_step_scalar_reference(self):
        """Drive one scalar through five updates against a hand loop."""
        params = init_params(seed=0, num_users=2, num_businesses=2, k=2).astype(np.float64)
        params.tensors = {"user_table": np.array([2.0])}
        state = AdagradState.init(params, learning_rate=0.1, epsilon=1e-7)
        gs = [0.5, -1.0, 2.0, 0.0, -0.25]
        p_ref, acc_ref = 2.0, 0.1
        for g in gs:
            adagrad_step(params, {"user_table": np.array([g])}, state)
            acc_ref += g * g
            p_ref -= 0.1 * g / (math.sqrt(acc_ref) + 1e-7)
        assert params.tensors["user_table"][0] == pytest.approx(p_ref, rel=1e-12)
        assert state.accumulators["user_table"][0] == pytest.approx(acc_ref, rel=1e-12)

    def test_zero_gradient_is_noop(self):
        params = init_params(seed=3, num_users=2, num_businesses=2, k=2)
        before = {n: t.copy() for n, t in params.tensors.items()}
        state = AdagradState.init(params, TrainConfig.learning_rate, TrainConfig.epsilon)
        adagrad_step(params, {n: np.zeros_like(t) for n, t in params.tensors.items()}, state)
        for name in before:
            assert np.array_equal(params.tensors[name], before[name])

    def test_partial_grads_touch_only_the_named_tensors(self):
        """A tensor missing from `grads`, and its accumulator, stay bit-unchanged."""
        params = init_params(seed=3, num_users=3, num_businesses=3, k=2)
        state = AdagradState.init(params, learning_rate=0.5, epsilon=1e-7)
        before = {n: (t.tobytes(), state.accumulators[n].tobytes())
                  for n, t in params.tensors.items()}
        adagrad_step(params, {"rating_head.w": np.ones_like(params.tensors["rating_head.w"])},
                     state)
        for name, (tensor, acc) in before.items():
            unchanged = (params.tensors[name].tobytes() == tensor,
                         state.accumulators[name].tobytes() == acc)
            assert unchanged == ((False, False) if name == "rating_head.w" else (True, True))

    def test_step_size_shrinks_under_repeated_gradients(self):
        params = init_params(seed=0, num_users=2, num_businesses=2, k=2).astype(np.float64)
        params.tensors = {"user_table": np.array([0.0])}
        state = AdagradState.init(params, learning_rate=1.0, epsilon=1e-7)
        deltas = []
        prev = 0.0
        for _ in range(4):
            adagrad_step(params, {"user_table": np.array([1.0])}, state)
            deltas.append(abs(params.tensors["user_table"][0] - prev))
            prev = params.tensors["user_table"][0]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))


def row_sparse_case(dtype, table_rows, listed, zero_listed, seed):
    """Params, gradients, Adagrad state and sorted listed rows for one step:
    an id table whose rows outside `listed` have zero gradient, as do the
    listed rows in `zero_listed`, some parameters exactly -0.0 and 0.0,
    accumulators grown past their 0.1 start, and a dense tensor beside it."""
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(table_rows, 3))
    table[rng.random(table.shape) < 0.1] = -0.0
    table[rng.random(table.shape) < 0.1] = 0.0
    params = ModelParams(k=3, use_text=False, use_date=False, tensors={
        "user_table": table.astype(dtype), "rating_head.w": rng.normal(size=(3, 1)).astype(dtype)})
    state = AdagradState.init(params, learning_rate=0.3, epsilon=1e-7)
    for acc in state.accumulators.values():
        acc += rng.exponential(size=acc.shape).astype(dtype)
    grads = {n: (rng.normal(size=t.shape) * 10.0 ** rng.integers(-3, 3, size=t.shape)).astype(dtype)
             for n, t in params.tensors.items()}
    rows = np.array(sorted(r for r in listed if r < table_rows), dtype=np.int64)
    moved = np.zeros(table_rows, dtype=bool)
    moved[rows] = True
    moved[[r for r in zero_listed if r < table_rows]] = False
    grads["user_table"][~moved] = 0.0
    return params, grads, state, rows


_ROW_SPARSE = dict(
    dtype=st.sampled_from([np.float32, np.float64]),
    table_rows=st.integers(1, 12),
    listed=st.sets(st.integers(0, 11)),
    zero_listed=st.sets(st.integers(0, 11)),
    seed=st.integers(0, 2**32 - 1),
)


class TestRowSparseAdagrad:
    @given(**_ROW_SPARSE)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_dense_step(self, dtype, table_rows, listed, zero_listed, seed):
        """Updating only the listed rows gives the dense step's parameter and
        accumulator bytes when every row left out has a zero gradient."""
        want, want_grads, want_state, _ = row_sparse_case(dtype, table_rows, listed,
                                                          zero_listed, seed)
        params, grads, state, rows = row_sparse_case(dtype, table_rows, listed, zero_listed, seed)
        adagrad_step(want, want_grads, want_state)
        adagrad_step(params, grads, state, rows={"user_table": rows})
        for name, t in want.tensors.items():
            for got, expected in ((params.tensors[name], t),
                                  (state.accumulators[name], want_state.accumulators[name])):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name

    @given(**_ROW_SPARSE)
    @settings(max_examples=100, deadline=None)
    def test_a_listed_row_with_zero_gradient_stays(self, dtype, table_rows, listed, zero_listed,
                                                    seed):
        params, grads, state, rows = row_sparse_case(dtype, table_rows, listed, zero_listed, seed)
        still = [r for r in rows.tolist() if r in zero_listed]
        before = params.tensors["user_table"][still], state.accumulators["user_table"][still]
        adagrad_step(params, grads, state, rows={"user_table": rows})
        assert params.tensors["user_table"][still].tobytes() == before[0].tobytes()
        assert state.accumulators["user_table"][still].tobytes() == before[1].tobytes()


def small_inputs(seed=0, n=120):
    corpus = latent_factor_corpus(n_users=20, n_businesses=12, n_events=n, seed=seed)
    split = temporal_split(corpus, 0.9)
    records = [corpus.records[i] for i in split.train]
    space = FeatureSpace.build(records, FeatureConfig(use_text=True, use_date=True,
                                                     text_hash_buckets=64))
    return TrainInputs.from_records(records, space), space


def texted_records(use_text=True):
    """Train records whose reviews have 0-6 tokens each (some empty), with
    a feature space of 64 text buckets."""
    corpus = latent_factor_corpus(n_users=20, n_businesses=12, n_events=120, seed=4)
    split = temporal_split(corpus, 0.9)
    rng = np.random.default_rng(4)
    words = ("good", "bad", "tasty", "slow", "cozy", "loud", "fresh", "stale", "warm")
    records = [
        replace(corpus.records[i], text=" ".join(rng.choice(words, size=rng.integers(0, 7))))
        for i in split.train
    ]
    space = FeatureSpace.build(records, FeatureConfig(use_text=use_text, use_date=True,
                                                     text_hash_buckets=64))
    return records, space


def dense_adagrad_fit(inputs, config, params, step):
    """The training loop the long way, trained in place on `params`: each
    batch's `step` at `config.weights`, then Adagrad over every row of every
    tensor it returns. Returns the epoch lines."""
    weights = config.weights
    state = AdagradState.init(params, config.learning_rate, config.epsilon)
    rng = np.random.default_rng(config.seed)
    lines = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(inputs.queries))
        sums, batches = np.zeros(2), 0
        for batch in _iter_batches(inputs, order, config):
            l_rat, l_ret, grads = step(batch, params, weights)
            adagrad_step(params, grads, state)
            sums += (l_rat, l_ret)
            batches += 1
        rat, ret = sums / batches
        lines.append(EpochTrace(epoch, rat, ret, weights.rating * rat + weights.retrieval * ret).line())
    return lines


def full_stop_gradient_phase_two(inputs, config, params):
    """Phase 2 the long way, trained in place on `params`: the joint step at
    weights (0, 1), every gradient but the retrieval head's zeroed, and
    Adagrad over every tensor. Returns the epoch lines."""
    def step(batch, params, weights):
        l_rat, l_ret, grads = loss_and_gradients(batch, params, weights)
        for name, g in grads.items():
            if name not in RETRIEVAL_HEAD_TENSORS:
                g[...] = 0.0
        return l_rat, l_ret, grads

    return dense_adagrad_fit(inputs, replace(config, weights=LossWeights(0.0, 1.0)), params, step)


def fresh_params(space, config):
    """The initial parameters `train` draws for `config`."""
    return init_params(seed=config.seed, num_users=space.num_users,
                       num_businesses=space.num_businesses, k=config.embed_dim,
                       use_text=space.config.use_text, use_date=space.config.use_date,
                       text_buckets=space.config.text_hash_buckets)


@functools.cache
def texted_inputs(use_text):
    records, space = texted_records(use_text)
    return TrainInputs.from_records(records, space), space


class TestHeldRows:
    @given(use_text=st.booleans(), mode=st.sampled_from(["in_batch", "full_corpus"]),
           weights=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]),
           picks=st.lists(st.integers(0, 107), min_size=1, max_size=8, unique=True),  # 108 reviews
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_every_row_with_a_gradient_is_held(self, use_text, mode, weights, picks, seed):
        """A small batch built as training builds it gives a nonzero
        gradient entry to no id-table row outside its held rows."""
        inputs, space = texted_inputs(use_text)
        idx = np.array(picks)
        args = (inputs.queries.take(idx), [inputs.candidates[i] for i in idx], inputs.labels[idx])
        batch = (Batch.in_batch(*args) if mode == "in_batch"
                 else Batch.full_corpus(*args, inputs.corpus_block))
        params = fresh_params(space, TrainConfig(seed=seed, embed_dim=4))
        grads = gradients(batch, params, LossWeights(*weights))
        held = _held_rows(batch, params)
        for name in ("user_table", "business_table"):
            touched = np.flatnonzero(np.any(grads[name] != 0.0, axis=1))
            assert np.isin(touched, held[name]).all(), name


class TestTrainLoop:
    def test_determinism_bit_identical(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=32, epochs=2, seed=7, embed_dim=4)
        p1, t1 = train(inputs, space, cfg)
        p2, t2 = train(inputs, space, cfg)
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])
        assert [e.line() for e in t1] == [e.line() for e in t2]

    def test_trace_shape_and_monotone_epochs(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=32, epochs=3, seed=0, embed_dim=4)
        _, trace = train(inputs, space, cfg)
        assert [e.epoch for e in trace] == [1, 2, 3]
        for e in trace:
            assert np.isfinite(e.joint_loss)

    def test_loss_decreases(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=32, epochs=8, seed=0, embed_dim=4, learning_rate=0.05)
        _, trace = train(inputs, space, cfg)
        assert trace[-1].joint_loss < trace[0].joint_loss

    @pytest.mark.parametrize("mode", ["in_batch", "full_corpus"])
    def test_phase_two_equals_the_full_stop_gradient(self, mode, monkeypatch):
        """Phase 2 gives the parameter bytes and epoch lines of the full
        stop-gradient (a joint step at weights (0, 1), every gradient but the
        retrieval head's zeroed, Adagrad over every tensor), and runs no
        backward through the towers."""
        records, space = texted_records()
        inputs = TrainInputs.from_records(records, space)
        cfg = TrainConfig(batch_size=16, epochs=2, seed=3, embed_dim=4, learning_rate=0.05,
                          schedule="two_phase", softmax_mode=mode)
        phase1, trace1 = train(
            inputs, space, replace(cfg, schedule="joint", weights=LossWeights(1.0, 0.0))
        )
        want = phase1.clone()
        want_lines = [e.line() for e in trace1] + full_stop_gradient_phase_two(inputs, cfg, want)

        calls = Counter()
        for owner, name in ((training, "loss_and_gradients"), (TowerCache, "backward")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
        result = two_phase_train(inputs, space, cfg)

        assert [e.line() for e in result.trace] == want_lines
        for name, t in want.tensors.items():
            got = result.params.tensors[name]
            assert got.dtype == t.dtype and got.tobytes() == t.tobytes(), name
        assert any(not np.array_equal(phase1.tensors[n], want.tensors[n])
                   for n in RETRIEVAL_HEAD_TENSORS)
        phase1_batches = cfg.epochs * math.ceil(len(records) / cfg.batch_size)
        assert calls == {"loss_and_gradients": phase1_batches, "backward": 2 * phase1_batches}

    @pytest.mark.parametrize("use_text", [True, False], ids=["text", "ids"])
    @pytest.mark.parametrize("schedule", ["joint", "two_phase"])
    @pytest.mark.parametrize("mode", ["in_batch", "full_corpus"])
    def test_row_sparse_tables_equal_dense_adagrad(self, mode, schedule, use_text, monkeypatch):
        """`train` and `two_phase_train` give the tensor bytes and epoch lines
        of the same loop with Adagrad over every row, and every step passes
        both id tables' held rows: batches of 3 hold a few of the 21 users,
        and a few of the 13 businesses in in-batch mode, every one of them
        under the full-corpus softmax."""
        records, space = texted_records(use_text)
        inputs = TrainInputs.from_records(records, space)
        cfg = TrainConfig(batch_size=3, epochs=2, seed=5, embed_dim=4, learning_rate=0.1,
                          schedule=schedule, softmax_mode=mode)
        tables_per_step = []
        real = training.adagrad_step
        monkeypatch.setattr(training, "adagrad_step", lambda p, g, s, rows=None:
                            tables_per_step.append(set(rows or ())) or real(p, g, s, rows))
        if schedule == "joint":
            got, trace = train(inputs, space, cfg)
            want = fresh_params(space, cfg)
            want_lines = dense_adagrad_fit(inputs, cfg, want, loss_and_gradients)
        else:
            result = two_phase_train(inputs, space, cfg)
            got, trace = result.params, result.trace
            phase1 = replace(cfg, schedule="joint", weights=LossWeights(1.0, 0.0))
            want = fresh_params(space, phase1)
            want_lines = dense_adagrad_fit(inputs, phase1, want, loss_and_gradients)
            want_lines += dense_adagrad_fit(inputs, replace(cfg, weights=LossWeights(0.0, 1.0)),
                                            want, _head_step)

        assert tables_per_step
        assert all(step == {"user_table", "business_table"} for step in tables_per_step)
        assert [e.line() for e in trace] == want_lines
        assert got.tensors.keys() == want.tensors.keys()
        for name, t in want.tensors.items():
            assert got.tensors[name].dtype == t.dtype
            assert got.tensors[name].tobytes() == t.tobytes(), name

    def test_two_phase_freezes_everything_but_retrieval_heads(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=32, epochs=2, seed=0, embed_dim=4, schedule="two_phase")
        result = two_phase_train(inputs, space, cfg)
        moved = set()
        for name in result.params.tensors:
            if not np.array_equal(result.params.tensors[name], result.phase1_params.tensors[name]):
                moved.add(name)
        assert moved <= set(RETRIEVAL_HEAD_TENSORS)
        assert moved  # phase 2 did update the retrieval heads

    def test_each_trainer_refuses_the_other_schedule(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=32, epochs=1, seed=0, embed_dim=4)
        with pytest.raises(ValueError, match="train runs the joint schedule, not 'two_phase'"):
            train(inputs, space, replace(cfg, schedule="two_phase"))
        with pytest.raises(ValueError, match="two_phase_train runs the two_phase schedule"):
            two_phase_train(inputs, space, cfg)

    @pytest.mark.parametrize("schedule", ["joint", "two_phase"])
    def test_no_training_examples_raise(self, schedule):
        _, space = small_inputs()
        inputs = TrainInputs.from_records([], space)
        cfg = TrainConfig(batch_size=32, epochs=2, seed=0, embed_dim=4, schedule=schedule)
        trainer = train if schedule == "joint" else two_phase_train
        with pytest.raises(ValueError, match="no training examples"):
            trainer(inputs, space, cfg)

    def test_in_batch_mode_runs(self):
        inputs, space = small_inputs()
        cfg = TrainConfig(batch_size=16, epochs=1, seed=0, embed_dim=4, softmax_mode="in_batch")
        _, trace = train(inputs, space, cfg)
        assert np.isfinite(trace[0].retrieval_loss)

    def test_label_scale_normalized(self):
        corpus = latent_factor_corpus(n_users=10, n_businesses=8, n_events=50, seed=1)
        records = list(corpus.records)
        raw = TrainInputs.from_records(records, FeatureSpace.build(records, FeatureConfig()))
        space = FeatureSpace.build(records, FeatureConfig(label_scale="normalized"))
        norm = TrainInputs.from_records(records, space)
        assert np.allclose(norm.labels, (raw.labels - 1.0) / 4.0)
        assert norm.labels.min() >= 0.0 and norm.labels.max() <= 1.0
        # Scoring reads the same scale from the space.
        from poirec.evaluation import predict_ratings

        params = init_params(seed=0, num_users=space.num_users,
                             num_businesses=space.num_businesses, k=4)
        assert [a for _, a in predict_ratings(params, records, space)] == norm.labels.tolist()

    def test_unknown_label_scale_raises(self):
        """A misspelt scale must not train or score on raw stars: training
        and scoring read the scale from a FeatureConfig, which refuses it."""
        with pytest.raises(ValueError, match="label_scale"):
            FeatureConfig(label_scale="Normalized")
        with pytest.raises(ValueError, match="label_scale"):
            replace(FeatureConfig(), label_scale="Normalized")

    def test_trace_line_format(self):
        e = EpochTrace(epoch=3, rating_loss=1.5, retrieval_loss=2.25, joint_loss=1.875)
        assert e.line() == "epoch 3 rating 1.500000 retrieval 2.250000 joint 1.875000"


class TestCompiledInputs:
    """The train partition is encoded once and the corpus block is shared."""

    def test_corpus_candidates_sum_each_business_reviews(self):
        records, space = texted_records()
        want = [Counter() for _ in range(space.num_businesses)]
        for r in records:
            want[space.business_vocab.lookup(r.business_id)].update(
                features.text_bucket_counts(r.text, 64))
        inputs = TrainInputs.from_records(records, space)
        assert [c.business_index for c in inputs.corpus_candidates] \
            == list(range(space.num_businesses))
        assert [dict(c.text_counts) for c in inputs.corpus_candidates] == [dict(w) for w in want]
        assert inputs.corpus_candidates == aggregate_candidates(records, space)

    def test_each_train_review_hashed_once(self, monkeypatch):
        records, space = texted_records()
        hashed = []
        real = features.text_bucket_counts

        def counting(text, buckets):
            hashed.append(text)
            return real(text, buckets)

        monkeypatch.setattr(features, "text_bucket_counts", counting)
        TrainInputs.from_records(records, space)
        assert len(hashed) == len(records)

    def test_full_corpus_train_builds_the_corpus_block_once(self, monkeypatch):
        records, space = texted_records()
        inputs = TrainInputs.from_records(records, space)
        corpus_builds = []
        build = CandidateBlock.from_features.__func__

        def counting_build(cls, candidates):
            if candidates is inputs.corpus_candidates:
                corpus_builds.append(len(candidates))
            return build(cls, candidates)

        softmax_blocks = []
        step = training.loss_and_gradients

        def recording(batch, *args, **kwargs):
            softmax_blocks.append(batch.softmax_block)
            return step(batch, *args, **kwargs)

        monkeypatch.setattr(CandidateBlock, "from_features", classmethod(counting_build))
        monkeypatch.setattr(training, "loss_and_gradients", recording)
        train(inputs, space, TrainConfig(batch_size=16, epochs=2, seed=0, embed_dim=4))
        assert corpus_builds == [space.num_businesses]
        assert len(softmax_blocks) == 2 * math.ceil(len(records) / 16)
        assert all(b is inputs.corpus_block for b in softmax_blocks)
        assert len(inputs.corpus_block._pooling) == 1

    def test_no_text_builds_no_text_arrays(self):
        records, space = texted_records(use_text=False)
        inputs = TrainInputs.from_records(records, space)
        train(inputs, space, TrainConfig(batch_size=16, epochs=1, seed=0, embed_dim=4))
        assert all(c.text_counts is None for c in inputs.candidates)
        assert inputs.corpus_block.buckets.size == 0 and not inputs.corpus_block._pooling

    @pytest.mark.parametrize("mode", ["full_corpus", "in_batch"])
    def test_compiled_batch_matches_feature_batch(self, mode):
        """Losses and gradients of a training batch (queries sliced from the
        encoded arrays, the shared corpus block) equal those of the same
        rows built from feature objects."""
        records, space = texted_records()
        inputs = TrainInputs.from_records(records, space)
        order = np.random.default_rng(3).permutation(len(records))
        config = TrainConfig(batch_size=24, softmax_mode=mode, embed_dim=4)
        compiled = next(iter(_iter_batches(inputs, order, config)))

        idx = order[:24]
        queries = [encode_query(records[i], space) for i in idx]
        cands = [encode_candidate(records[i], space) for i in idx]
        labels = inputs.labels[idx]
        if mode == "full_corpus":
            built = Batch.full_corpus(queries, cands, labels, aggregate_candidates(records, space))
        else:
            built = Batch.in_batch(queries, cands, labels)

        params = init_params(seed=5, num_users=space.num_users,
                             num_businesses=space.num_businesses, k=4,
                             text_buckets=64).astype(np.float64)
        weights = LossWeights(0.5, 0.5)
        got = loss_and_gradients(compiled, params, weights)
        want = loss_and_gradients(built, params, weights)
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-12)
        assert got[1] == pytest.approx(want[1], rel=0, abs=1e-12)
        assert np.array_equal(compiled.true_indices, built.true_indices)
        for name, g in want[2].items():
            np.testing.assert_allclose(got[2][name], g, rtol=0, atol=1e-12, err_msg=name)
