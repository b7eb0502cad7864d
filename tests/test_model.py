"""Two-tower forward pass: init, encodings, and scoring."""

import numpy as np
import pytest

from poirec.corpus import InteractionRecord
from poirec.features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    encode_candidate,
    encode_texts,
)
from poirec.model import (
    DATE_DIM,
    CandidateBlock,
    ModelParams,
    QueryBlock,
    forward_candidates,
    forward_users,
    init_params,
    location_encode,
    pooled_text,
    score,
    score_all,
    user_encode,
)


def tiny_params(seed=0, k=4, users=6, businesses=5, buckets=16, **kw):
    return init_params(
        seed=seed, num_users=users, num_businesses=businesses, k=k,
        text_buckets=buckets, **kw,
    )


class TestInitParams:
    def test_seed_determinism(self):
        a = tiny_params(seed=42)
        b = tiny_params(seed=42)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_biases_zero(self):
        params = tiny_params()
        for name, t in params.tensors.items():
            if name.endswith(".b"):
                assert np.all(t == 0.0)

    def test_uniform_law_statistics(self):
        params = init_params(seed=1, num_users=500, num_businesses=500, k=32)
        entries = np.concatenate(
            [params.tensors["user_table"].ravel(), params.tensors["business_table"].ravel()]
        )
        assert entries.size >= 10_000
        bound = 1.0 / np.sqrt(32)
        assert np.all(np.abs(entries) <= bound)
        stderr = bound / np.sqrt(3 * entries.size)  # std of U(-b,b) is b/sqrt(3)
        assert abs(entries.mean()) < 3 * stderr


def identity_params(k=2):
    """Hand-built params whose towers and retrieval heads pass through the
    embedding row untouched (zero date/text contributions). The hidden layer
    holds [x, -x] and the output layer takes their difference, since
    relu(x) - relu(-x) == x."""
    params = tiny_params(k=k, users=3, businesses=3, use_text=False, use_date=False)
    t = params.tensors
    eye = np.eye(k, dtype=np.float32)
    for prefix, d_in in (("user_tower", k + DATE_DIM), ("business_tower", 2 * k)):
        w0 = np.zeros((d_in, 2 * k), dtype=np.float32)
        w0[:k] = np.hstack([eye, -eye])
        t[f"{prefix}.0.w"] = w0
        t[f"{prefix}.0.b"] = np.zeros(2 * k, dtype=np.float32)
        w1 = np.vstack([eye, -eye])
        t[f"{prefix}.1.w"] = w1
        t[f"{prefix}.1.b"] = np.zeros(k, dtype=np.float32)
    for side in ("user", "item"):
        t[f"retrieval_head.{side}.w"] = np.eye(k, dtype=np.float32)
        t[f"retrieval_head.{side}.b"] = np.zeros(k, dtype=np.float32)
    return params


def straight_line_encode(params, query=None, candidate=None, task="retrieval"):
    """Independent re-implementation of the encoders with explicit loops."""
    t = params.tensors

    def dense(x, w, b, relu):
        out = np.zeros(w.shape[1])
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += x[i] * w[i, j]
            out[j] = max(acc, 0.0) if relu else acc
        return out

    if query is not None:
        date = list(query.date_features) if query.date_features else [0.0] * DATE_DIM
        x = np.concatenate([t["user_table"][query.user_index].astype(np.float64), date])
        h = dense(x, t["user_tower.0.w"].astype(np.float64), t["user_tower.0.b"], True)
        out = dense(h, t["user_tower.1.w"].astype(np.float64), t["user_tower.1.b"], False)
        side = "user"
    else:
        pooled = np.zeros(params.k)
        if params.use_text and candidate.text_counts:
            total = sum(candidate.text_counts.values())
            for bucket, c in candidate.text_counts.items():
                pooled += c * t["text_table"][bucket].astype(np.float64)
            pooled /= total
        x = np.concatenate([t["business_table"][candidate.business_index].astype(np.float64), pooled])
        h = dense(x, t["business_tower.0.w"].astype(np.float64), t["business_tower.0.b"], True)
        out = dense(h, t["business_tower.1.w"].astype(np.float64), t["business_tower.1.b"], False)
        side = "item"
    if task == "retrieval":
        out = dense(out, t[f"retrieval_head.{side}.w"].astype(np.float64),
                    t[f"retrieval_head.{side}.b"], False)
    return out


class TestEncoders:
    def test_zero_params_give_zero_vector(self):
        params = tiny_params()
        for name in params.tensors:
            params.tensors[name][...] = 0.0
        out = user_encode(QueryFeatures(user_index=1), params)
        assert np.all(out == 0.0)

    def test_identity_construction(self):
        params = identity_params(k=2)
        params.tensors["user_table"][1] = [0.5, -0.5]
        out = user_encode(QueryFeatures(user_index=1), params, task="rating")
        assert out == pytest.approx([0.5, -0.5])

    def test_user_encode_matches_straight_line(self):
        params = tiny_params(seed=5)
        q = QueryFeatures(user_index=3, date_features=(0.25, 0.5, -0.5))
        for task in ("rating", "retrieval"):
            got = user_encode(q, params, task=task)
            want = straight_line_encode(params, query=q, task=task)
            assert got == pytest.approx(want, abs=1e-5)

    def test_location_encode_matches_straight_line(self):
        params = tiny_params(seed=6)
        c = CandidateFeatures(business_index=2, text_counts={3: 2, 7: 1})
        for task in ("rating", "retrieval"):
            got = location_encode(c, params, task=task)
            want = straight_line_encode(params, candidate=c, task=task)
            assert got == pytest.approx(want, abs=1e-5)

    def test_single_bucket_pool_equals_table_row(self):
        params = tiny_params(seed=7)
        block = CandidateBlock.from_features([CandidateFeatures(2, {7: 2})])
        from poirec.model import pooled_text

        pooled = pooled_text(params, block)
        assert pooled[0] == pytest.approx(params.tensors["text_table"][7], abs=1e-6)

    def test_no_text_depends_only_on_business_row(self):
        params = tiny_params(use_text=False)
        a = location_encode(CandidateFeatures(business_index=2), params)
        b = location_encode(CandidateFeatures(business_index=2), params)
        assert np.array_equal(a, b)

    def test_common_space_dimensions(self):
        params = tiny_params()
        u = user_encode(QueryFeatures(1), params)
        v = location_encode(CandidateFeatures(1), params)
        assert u.shape == v.shape == (params.k,)

    def test_index_out_of_bounds(self):
        from poirec.model import IndexOutOfBounds

        params = tiny_params(users=3)
        with pytest.raises(IndexOutOfBounds):
            user_encode(QueryFeatures(user_index=99), params)


class TestScore:
    def test_orthogonal_vectors(self):
        params = identity_params(k=2)
        params.tensors["user_table"][1] = [1.0, 0.0]
        params.tensors["business_table"][1] = [0.0, 1.0]
        s = score(QueryFeatures(1), CandidateFeatures(1), params, task="retrieval")
        assert s == pytest.approx(0.0)

    def test_dot_product_arithmetic(self):
        params = identity_params(k=2)
        params.tensors["user_table"][1] = [1.0, 2.0]
        params.tensors["business_table"][1] = [3.0, 4.0]
        s = score(QueryFeatures(1), CandidateFeatures(1), params, task="retrieval")
        assert s == pytest.approx(11.0)

    def test_batch_matrix_equals_pairwise(self):
        params = tiny_params(seed=8)
        rng = np.random.default_rng(8)
        queries = [
            QueryFeatures(int(rng.integers(0, 6)), tuple(rng.uniform(-1, 1, 3)))
            for _ in range(5)
        ]
        cands = [
            CandidateFeatures(int(rng.integers(0, 5)), {int(rng.integers(0, 16)): 1})
            for _ in range(8)
        ]
        for q in queries:
            row = score_all(q, cands, params)
            for j, c in enumerate(cands):
                assert row[j] == pytest.approx(score(q, c, params), abs=1e-5)

    def test_score_all_single(self):
        params = tiny_params(seed=9)
        q = QueryFeatures(1)
        c = CandidateFeatures(1)
        assert score_all(q, [c], params)[0] == pytest.approx(score(q, c, params), abs=1e-6)

    def test_duplicate_candidates_duplicate_scores(self):
        params = tiny_params(seed=10)
        q = QueryFeatures(2)
        c = CandidateFeatures(3, {1: 2})
        row = score_all(q, [c, c], params)
        assert row[0] == row[1]

    def test_purity_bit_identical(self):
        params = tiny_params(seed=11)
        q = QueryFeatures(1, (0.1, 0.2, 0.3))
        c = CandidateFeatures(2, {5: 1})
        assert score(q, c, params) == score(q, c, params)

    def test_argmax_invariant_under_candidate_scaling(self):
        params = tiny_params(seed=12)
        rng = np.random.default_rng(12)
        cands = [CandidateFeatures(int(rng.integers(0, 5))) for _ in range(10)]
        q = QueryFeatures(1)
        base = score_all(q, cands, params)
        # scale every candidate embedding by the same positive factor
        scaled = base * 3.7
        assert np.array_equal(np.argsort(-base, kind="stable"), np.argsort(-scaled, kind="stable"))

    def test_finite_outputs(self):
        params = tiny_params(seed=13)
        q = QueryFeatures(5, (1.0, 0.0, -1.0))
        c = CandidateFeatures(4, {0: 3, 15: 1})
        assert np.isfinite(score(q, c, params, task="rating"))
        assert np.isfinite(score(q, c, params, task="retrieval"))


class TestPoolingOperator:
    """Text pooling is P @ text_table and its gradient P^T @ d, with P the
    block's fixed row-normalised pooling matrix."""

    FEATURES = [
        CandidateFeatures(0),  # the OOV row: no text
        CandidateFeatures(3, {1: 2, 9: 1, 15: 4}),
        CandidateFeatures(2, {}),  # a business whose reviews had no tokens
        CandidateFeatures(4, {9: 3}),
        CandidateFeatures(1, {0: 1, 15: 1}),
        CandidateFeatures(2, {4: 0}),  # counts that sum to zero pool to zero
    ]

    def test_matches_per_row_loops_in_float64(self):
        params = tiny_params(seed=11, dtype=np.float64)
        table = params.tensors["text_table"]
        block = CandidateBlock.from_features(self.FEATURES)
        d = np.random.default_rng(0).normal(size=(len(block), params.k))
        want_pooled = np.zeros((len(block), params.k))
        want_grad = np.zeros_like(table)
        for i, c in enumerate(self.FEATURES):
            counts = c.text_counts or {}
            total = sum(counts.values()) or 1
            for bucket, count in counts.items():
                want_pooled[i] += count * table[bucket] / total
                want_grad[bucket] += count * d[i] / total
        pool = block.pooling_matrix(table.shape[0], np.float64)
        np.testing.assert_allclose(pooled_text(params, block), want_pooled, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pool.T @ d, want_grad, rtol=0, atol=1e-12)
        assert not pool[0].any() and not pool[2].any() and not pool[5].any()

    def test_built_once_per_block_and_dtype(self):
        block = CandidateBlock.from_features(self.FEATURES)
        first = block.pooling_matrix(16, np.float32)
        assert block.pooling_matrix(16, np.float32) is first
        assert first.shape == (len(self.FEATURES), 16) and first.dtype == np.float32


class TestBlocksFromText:
    """Blocks built from `encode_texts` arrays equal, bit for bit, the
    blocks built from per-review feature objects."""

    BUCKETS = 8  # fewer buckets than words, so tokens collide

    def setup_method(self):
        rng = np.random.default_rng(3)
        words = ("good", "bad", "Tasty!", "slow", "cozy", "loud", "fresh", "stale", "warm")
        self.records = [
            InteractionRecord(
                user_id=f"u{i % 5}", business_id=f"b{rng.integers(0, 7 if i < 30 else 9)}", stars=3,
                text=" ".join(rng.choice(words, size=rng.integers(0, 9))), date_days=0,
            )
            for i in range(40)
        ]
        # b7 and b8 appear only after record 30: they map to the OOV index 0.
        self.space = FeatureSpace.build(self.records[:30], FeatureConfig(text_hash_buckets=self.BUCKETS))
        self.index = [self.space.business_vocab.lookup(r.business_id) for r in self.records]
        self.text = encode_texts(r.text for r in self.records)

    def assert_same(self, got, want):
        for name in ("business_idx", "indptr", "buckets", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for dtype in (np.float32, np.float64):
            assert got.pooling_matrix(self.BUCKETS, dtype).tobytes() \
                == want.pooling_matrix(self.BUCKETS, dtype).tobytes()

    def test_review_block_equals_encode_candidate(self):
        got = CandidateBlock.from_text(self.index, self.text, self.BUCKETS)
        want = CandidateBlock.from_features([encode_candidate(r, self.space) for r in self.records])
        self.assert_same(got, want)

    def test_no_text(self):
        got = CandidateBlock.from_text(self.index, None, self.BUCKETS)
        want = CandidateBlock.from_features([CandidateFeatures(i) for i in self.index])
        self.assert_same(got, want)

    def test_one_review_per_row(self):
        with pytest.raises(ValueError):
            CandidateBlock.from_text(self.index[:-1], self.text, self.BUCKETS)
