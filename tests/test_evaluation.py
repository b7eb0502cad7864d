"""RMSE, top-K retrieval accuracy, confusion statistics, and the MNB baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec import evaluation, features
from poirec.corpus import Corpus, temporal_split
from poirec.evaluation import (
    ConfusionMatrix,
    EmptyInput,
    EvalConfig,
    LengthMismatch,
    MetricsReport,
    confusion_matrix,
    evaluate,
    mnb_fit,
    mnb_predict,
    mnb_train,
    predict_ratings,
    retrieval_ranks,
    rmse,
    top_k_accuracy,
    top_k_hits,
)
from poirec.features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    aggregate_candidates,
    counts_csr,
    encode_candidate,
    encode_query,
    text_bucket_counts,
)
from poirec.model import (
    CandidateBlock,
    QueryBlock,
    candidate_embeddings,
    forward_candidates,
    forward_users,
    init_params,
    rating_predict,
    retrieval_project,
    score_all,
)
from _synth import latent_factor_corpus


class TestRmse:
    def test_hand_values(self):
        # errors 1 and -2: sqrt((1+4)/2)
        assert rmse([(2.0, 1.0), (3.0, 5.0)]) == pytest.approx(math.sqrt(2.5))

    def test_perfect_predictions(self):
        assert rmse([(4.0, 4.0), (1.5, 1.5)]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            rmse([])

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_matches_brute_force(self, pairs):
        want = math.sqrt(sum((p - y) ** 2 for p, y in pairs) / len(pairs))
        assert rmse(pairs) == pytest.approx(want, abs=1e-9)

    @given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20))
    def test_nonnegative(self, ys):
        assert rmse([(y + 0.3, y) for y in ys]) >= 0.0


class TestTopK:
    def setup_method(self):
        self.params = init_params(seed=4, num_users=8, num_businesses=10, k=4, text_buckets=16)
        self.space = None
        rng = np.random.default_rng(4)
        self.queries = [
            QueryFeatures(int(rng.integers(0, 8)), tuple(rng.uniform(-1, 1, 3)))
            for _ in range(12)
        ]
        self.cands = [CandidateFeatures(i, {int(i % 16): 1}) for i in range(10)]
        self.true = [int(rng.integers(0, 10)) for _ in range(12)]

    def test_matches_full_sort_oracle(self):
        for k in (1, 3, 10):
            got = top_k_accuracy(self.queries, self.true, self.cands, self.params, k)
            hits = 0
            for q, t in zip(self.queries, self.true):
                scores = score_all(q, self.cands, self.params)
                order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
                hits += t in order[:k]
            assert got == pytest.approx(hits / len(self.queries))

    def test_monotone_in_k(self):
        accs = [
            top_k_accuracy(self.queries, self.true, self.cands, self.params, k)
            for k in range(1, 11)
        ]
        assert all(a <= b for a, b in zip(accs, accs[1:]))
        assert accs[-1] == 1.0  # K = corpus size always hits

    def test_tie_break_prefers_lowest_index(self):
        # two identical candidates: only the first can be "in" the top-1
        scores = np.array([1.0, 1.0, 0.0])
        assert top_k_hits(scores, 0, 1)
        assert not top_k_hits(scores, 1, 1)

    def test_k_zero_raises(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            top_k_accuracy(self.queries, self.true, self.cands, self.params, 0)

    def test_k_one_is_argmax(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert top_k_hits(scores, 1, 1)
        assert not top_k_hits(scores, 0, 1)


def _stable_argsort_rank(row: np.ndarray, true_index: int) -> int:
    return int(np.flatnonzero(np.argsort(-row, kind="stable") == true_index)[0])


@st.composite
def _tied_scores(draw):
    """Small integer-valued score matrices, so ties are common, with true
    indices that always include 0 (the out-of-vocabulary candidate)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    scores = np.array(
        draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                      min_size=n, max_size=n)),
        dtype=np.float64,
    )
    true = [0] + draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
    return scores, true


class TestRetrievalRanks:
    def test_no_queries_raises(self):
        with pytest.raises(EmptyInput, match="no queries"):
            retrieval_ranks(np.zeros((0, 3)), [])

    @given(_tied_scores())
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort_oracle(self, case):
        scores, true = case
        n, m = scores.shape
        queries = [QueryFeatures(0)] * n
        cands = [CandidateFeatures(j) for j in range(m)]
        params = init_params(seed=0, num_users=2, num_businesses=m, k=2,
                             use_text=False, use_date=False).astype(np.float64)
        ranks = retrieval_ranks(scores, true)
        want = [_stable_argsort_rank(row, t) for row, t in zip(scores, true)]
        assert ranks.dtype == np.int64
        assert ranks.tolist() == want
        # Replace the two sides so that ur @ vr.T is `scores` exactly.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "retrieval_project", lambda p, side, out: scores)
            mp.setattr(evaluation, "candidate_embeddings", lambda p, c: np.eye(m))
            for k in range(1, m + 1):
                hits = [r < k for r in want]
                assert top_k_accuracy(queries, true, cands, params, k) == sum(hits) / n
                assert [top_k_hits(row, t, k) for row, t in zip(scores, true)] == hits

    def test_non_finite_scores_raise(self):
        with pytest.raises(FloatingPointError):
            top_k_hits(np.array([1.0, np.nan, 0.0]), 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            retrieval_ranks(np.zeros((1, 2)), [0, 1])

    @pytest.mark.parametrize("true", [3, 4, -1])
    def test_true_index_outside_the_columns(self, true):
        with pytest.raises(ValueError, match="true index out of range for 3 candidates"):
            retrieval_ranks(np.zeros((2, 3)), [0, true])


def reviewed_corpus(seed=6):
    """A latent-factor corpus whose reviews have 0-12 tokens each."""
    corpus = latent_factor_corpus(n_users=30, n_businesses=40, n_events=300, seed=seed)
    rng = np.random.default_rng(seed)
    words = ("good", "bad", "tasty", "slow", "cozy", "loud", "fresh", "stale", "warm", "Meh!")
    return Corpus(records=tuple(
        replace(r, text=" ".join(rng.choice(words, size=rng.integers(0, 13))))
        for r in corpus.records
    ))


class TestEvaluateEncodesText:
    """`evaluate` tokenizes each review once, and only when it needs text,
    and looks each test business up once."""

    MNB_BUCKETS = 256

    def setup(self, use_text):
        self.corpus = reviewed_corpus()
        self.split = temporal_split(self.corpus, 0.8)
        self.train = [self.corpus.records[i] for i in self.split.train]
        self.test = [self.corpus.records[i] for i in self.split.test]
        self.space = FeatureSpace.build(
            self.train, FeatureConfig(use_text=use_text, text_hash_buckets=16))
        self.params = init_params(seed=3, num_users=self.space.num_users,
                                  num_businesses=self.space.num_businesses, k=4,
                                  use_text=use_text, text_buckets=16)
        self.candidates = candidate_embeddings(
            self.params, aggregate_candidates(self.train, self.space))

    def evaluate(self, mnb):
        config = EvalConfig(split_ratio=0.8, ks=(5, 20), mnb_buckets=self.MNB_BUCKETS)
        return evaluate(self.params, self.candidates, self.corpus, self.space, config,
                        mnb=mnb, seed=9)

    def counted(self, monkeypatch):
        calls = {"tokenize_text": [], "text_bucket_counts": []}
        for name, log in calls.items():
            real = getattr(features, name)
            monkeypatch.setattr(features, name,
                                lambda *a, real=real, log=log: log.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("use_text", [True, False])
    def test_mnb_tokenizes_each_review_once(self, use_text, monkeypatch):
        self.setup(use_text)
        calls = self.counted(monkeypatch)
        self.evaluate(mnb=True)
        assert sorted(calls["tokenize_text"]) == sorted((r.text,) for r in self.corpus.records)
        assert calls["text_bucket_counts"] == []

    @pytest.mark.parametrize("use_text, mnb", [(True, False), (False, False), (False, True)])
    def test_each_test_business_looked_up_once(self, use_text, mnb, monkeypatch):
        self.setup(use_text)
        vocab = self.space.business_vocab
        calls = []
        lookup = vocab.lookup
        monkeypatch.setattr(vocab, "lookup", lambda ident: calls.append(ident) or lookup(ident))
        self.evaluate(mnb=mnb)
        assert calls == [r.business_id for r in self.test]

    def test_without_text_or_mnb_tokenizes_nothing(self, monkeypatch):
        self.setup(use_text=False)
        calls = self.counted(monkeypatch)
        self.evaluate(mnb=False)
        assert calls == {"tokenize_text": [], "text_bucket_counts": []}

    def test_text_without_mnb_tokenizes_only_test_reviews(self, monkeypatch):
        """The candidates come from training, so no train review is read."""
        self.setup(use_text=True)
        calls = self.counted(monkeypatch)
        self.evaluate(mnb=False)
        assert sorted(calls["tokenize_text"]) == sorted((r.text,) for r in self.test)
        assert calls["text_bucket_counts"] == []

    def test_report_equals_per_review_oracles(self, monkeypatch):
        """The report from the per-review dict paths: `encode_candidate`
        blocks, `aggregate_candidates`, `mnb_train` and `mnb_predict`; the
        baseline scores every test review, or a seeded subset of them."""
        self.setup(use_text=True)
        queries = [encode_query(r, self.space) for r in self.test]
        true = [self.space.business_vocab.lookup(r.business_id) for r in self.test]
        assert min(true) > 0  # no cold-start target: every query is ranked
        u = forward_users(self.params, QueryBlock.from_features(queries)).out
        # Candidates are the businesses, without the OOV entry at index 0.
        cands = candidate_embeddings(self.params, aggregate_candidates(self.train, self.space)[1:])
        scores = retrieval_project(self.params, "user", u) @ cands.T
        ranks = retrieval_ranks(scores, [t - 1 for t in true])
        docs = [(text_bucket_counts(r.text, self.MNB_BUCKETS), r.stars) for r in self.train]
        model = mnb_train(docs, vocab_size=self.MNB_BUCKETS)
        block = CandidateBlock.from_features([encode_candidate(r, self.space) for r in self.test])
        v = forward_candidates(self.params, block).out
        stars = [r.stars for r in self.test]
        assert len(self.test) < evaluation.MNB_SAMPLE
        for sample_size in (evaluation.MNB_SAMPLE, 40):
            monkeypatch.setattr(evaluation, "MNB_SAMPLE", sample_size)
            rng = np.random.default_rng(9)
            size = min(sample_size, len(self.test))
            sample = [self.test[i] for i in sorted(rng.choice(len(self.test), size, replace=False))]
            predicted = [mnb_predict(model, text_bucket_counts(r.text, self.MNB_BUCKETS))
                         for r in sample]
            want = MetricsReport(
                rmse=rmse(list(zip(rating_predict(self.params, u, v), stars))),
                top_k={k: float(np.mean(ranks < k)) for k in (5, 20)},
                example_count=len(self.test),
                label_scale="raw",
                confusion=confusion_matrix([r.stars for r in sample], predicted),
            )
            assert self.evaluate(mnb=True).text() == want.text()


class TestEvaluateRanksOnce:
    KS = (10, 50, 100)

    def setup_method(self):
        self.corpus = latent_factor_corpus(n_users=40, n_businesses=150, n_events=600, seed=5)
        self.split = temporal_split(self.corpus, 0.8)
        self.train = [self.corpus.records[i] for i in self.split.train]
        self.test = [self.corpus.records[i] for i in self.split.test]
        self.space = FeatureSpace.build(self.train, FeatureConfig(text_hash_buckets=64))
        self.params = init_params(seed=2, num_users=self.space.num_users,
                                  num_businesses=self.space.num_businesses, k=4,
                                  text_buckets=64)
        self.candidates = candidate_embeddings(
            self.params, aggregate_candidates(self.train, self.space))

    def evaluate(self, corpus=None, ks=KS):
        return evaluate(self.params, self.candidates, corpus or self.corpus, self.space,
                        EvalConfig(split_ratio=0.8, ks=ks))

    def test_one_user_forward_and_per_k_report(self, monkeypatch):
        calls = []
        forward_users = evaluation.forward_users
        monkeypatch.setattr(evaluation, "forward_users",
                            lambda *a: calls.append(1) or forward_users(*a))
        report = self.evaluate()
        assert len(calls) == 1  # the ratings and every K read one forward
        monkeypatch.undo()

        # The oracle ranks only known targets, among the businesses without
        # the OOV entry; a cold-start target is a miss.
        known = [r for r in self.test if r.business_id in self.space.business_vocab]
        assert 0 < len(known) < len(self.test)
        queries = [encode_query(r, self.space) for r in known]
        true = [self.space.business_vocab.lookup(r.business_id) - 1 for r in known]
        cands = aggregate_candidates(self.train, self.space)[1:]
        hits = {k: round(top_k_accuracy(queries, true, cands, self.params, k) * len(known))
                for k in self.KS}
        per_k = MetricsReport(
            rmse=rmse(predict_ratings(self.params, self.test, self.space)),
            top_k={k: hits[k] / len(self.test) for k in self.KS},
            example_count=len(self.test),
            label_scale="raw",
        )
        assert len(set(per_k.top_k.values())) == len(self.KS)
        assert report.text() == per_k.text()

    def test_each_test_review_encoded_once(self, monkeypatch):
        """One array encoding of the queries, over exactly the test
        records, in split order."""
        calls = []
        from_records = QueryBlock.from_records.__func__
        monkeypatch.setattr(QueryBlock, "from_records", classmethod(
            lambda cls, records, space: calls.append(list(records)) or from_records(
                cls, records, space)))
        self.evaluate()
        assert calls == [self.test]

    def test_cold_start_targets_miss_at_every_k(self):
        """At K = V every known target hits and no cold-start one does."""
        v = self.space.num_businesses
        known = sum(r.business_id in self.space.business_vocab for r in self.test)
        report = self.evaluate(ks=(v,))
        assert report.top_k == {v: known / len(self.test)}

    def test_all_cold_targets_rank_nothing(self):
        test = set(self.split.test)
        corpus = Corpus(records=tuple(
            replace(r, business_id=f"cold-{i}") if i in test else r
            for i, r in enumerate(self.corpus.records)
        ))
        report = self.evaluate(corpus)
        assert report.top_k == {k: 0.0 for k in self.KS}

    def test_nan_in_retrieval_head_raises(self):
        self.params.tensors["retrieval_head.item.w"][0, 0] = np.nan
        self.candidates = candidate_embeddings(
            self.params, aggregate_candidates(self.train, self.space))
        with pytest.raises(FloatingPointError):
            self.evaluate()

    def test_nan_in_rating_head_raises(self):
        """The library's own check, which the CLI's load-time tensor check
        now pre-empts for a NaN read from a checkpoint."""
        self.params.tensors["rating_head.w"][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="^non-finite rating predictions$"):
            self.evaluate()

    def test_ranks_the_candidates_it_is_given(self):
        """All-zero candidates tie every score, so a known target at
        business index t ranks t - 1: it hits at K exactly when t <= K."""
        self.candidates = np.zeros_like(self.candidates)
        index = [self.space.business_vocab.lookup(r.business_id) for r in self.test]
        ks = (1, 5, 20)
        report = self.evaluate(ks=ks)
        assert report.top_k == {k: sum(0 < t <= k for t in index) / len(self.test) for k in ks}
        assert report.top_k[20] > 0

    def test_candidates_of_another_shape_raise(self):
        for bad in (self.candidates[1:], self.candidates[:, :-1]):
            with pytest.raises(ValueError, match="candidates"):
                evaluate(self.params, bad, self.corpus, self.space)


class TestConfusion:
    def test_empty_reads_zero(self):
        cm = confusion_matrix([], [])
        assert cm.accuracy == 0.0
        for _, _, s in cm.rows():
            assert (s.precision, s.recall, s.f1, s.support) == (0.0, 0.0, 0.0, 0)

    def test_identity_predictions(self):
        cm = confusion_matrix([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert cm.accuracy == 1.0
        assert np.array_equal(cm.counts, np.eye(5, dtype=np.int64))
        for s in cm.per_class:
            assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_hand_worked_counts(self):
        true = [1, 1, 2, 2, 2]
        pred = [1, 2, 2, 2, 1]
        cm = confusion_matrix(true, pred)
        assert cm.counts[0, 0] == 1 and cm.counts[0, 1] == 1
        assert cm.counts[1, 1] == 2 and cm.counts[1, 0] == 1
        c1, c2 = cm.per_class[0], cm.per_class[1]
        assert c1.precision == pytest.approx(1 / 2)
        assert c1.recall == pytest.approx(1 / 2)
        assert c2.precision == pytest.approx(2 / 3)
        assert c2.recall == pytest.approx(2 / 3)
        assert c2.f1 == pytest.approx(2 / 3)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(0)
        true = list(rng.integers(1, 6, 100))
        pred = list(rng.integers(1, 6, 100))
        cm = confusion_matrix(true, pred)
        assert cm.micro.precision == pytest.approx(cm.accuracy)
        assert cm.micro.recall == pytest.approx(cm.accuracy)
        assert cm.micro.f1 == pytest.approx(cm.accuracy)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(1)
        true = list(rng.integers(1, 6, 80))
        pred = list(rng.integers(1, 6, 80))
        cm = confusion_matrix(true, pred)
        assert cm.weighted.recall == pytest.approx(cm.accuracy)

    def test_never_predicted_class_has_zero_precision(self):
        cm = confusion_matrix([5, 5, 5], [4, 4, 4])
        assert cm.per_class[4].precision == 0.0
        assert cm.per_class[4].recall == 0.0
        assert cm.per_class[4].f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([1, 2], [1])

    def test_out_of_range_star(self):
        with pytest.raises(ValueError):
            confusion_matrix([0], [1])

    def test_table_renders(self):
        cm = confusion_matrix([1, 2, 3], [1, 2, 2])
        text = cm.table()
        assert "precision" in text and "macro average" in text
        assert len(text.splitlines()) == 9  # header + 5 classes + 3 averages

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=60)
    )
    @settings(max_examples=50)
    def test_support_and_count_invariants(self, pairs):
        true = [t for t, _ in pairs]
        pred = [p for _, p in pairs]
        cm = confusion_matrix(true, pred)
        assert cm.total == len(pairs)
        assert sum(s.support for s in cm.per_class) == len(pairs)
        assert np.trace(cm.counts) == sum(t == p for t, p in pairs)


class TestMnb:
    def test_hand_computed_laplace(self):
        """One doc per class over a 2-bucket vocabulary, checked by hand."""
        docs = [({0: 2}, 1), ({1: 1}, 5)]
        model = mnb_train(docs, alpha=1.0, vocab_size=2)
        assert model.classes == [1, 5]
        # class 1: counts [2, 0], total 2 -> p(bucket0) = (2+1)/(2+2) = 3/4
        assert model.log_likelihood[0, 0] == pytest.approx(math.log(3 / 4))
        assert model.log_likelihood[0, 1] == pytest.approx(math.log(1 / 4))
        # class 5: counts [0, 1], total 1 -> p(bucket0) = 1/3
        assert model.log_likelihood[1, 0] == pytest.approx(math.log(1 / 3))
        assert model.log_likelihood[1, 1] == pytest.approx(math.log(2 / 3))
        assert model.log_prior[0] == pytest.approx(math.log(0.5))

    def test_predicts_the_obvious_class(self):
        docs = [({0: 3}, 2)] * 4 + [({1: 3}, 4)] * 4
        model = mnb_train(docs, vocab_size=2)
        assert mnb_predict(model, {0: 5}) == 2
        assert mnb_predict(model, {1: 5}) == 4

    def test_empty_document_uses_prior_only(self):
        docs = [({0: 1}, 3)] * 3 + [({1: 1}, 5)]
        model = mnb_train(docs, vocab_size=2)
        assert mnb_predict(model, {}) == 3  # majority-class prior wins

    def test_tie_resolves_to_lowest_class(self):
        # symmetric classes, symmetric document: scores tie exactly
        docs = [({0: 1}, 2), ({0: 1}, 4)]
        model = mnb_train(docs, vocab_size=1)
        assert mnb_predict(model, {0: 1}) == 2

    def test_large_alpha_limit_is_prior_only(self):
        """As alpha grows, likelihoods flatten and the prior decides."""
        docs = [({0: 50}, 1)] + [({1: 1}, 5)] * 9
        model = mnb_train(docs, alpha=1e9, vocab_size=2)
        assert mnb_predict(model, {0: 3}) == 5

    def test_no_documents_raises(self):
        with pytest.raises(EmptyInput, match="no training documents"):
            mnb_train([], vocab_size=2)

    @pytest.mark.parametrize("bucket", [2, 5])
    def test_bucket_outside_the_vocabulary(self, bucket):
        indptr, buckets, counts = counts_csr([{0: 1}, {bucket: 1}])
        with pytest.raises(ValueError, match="bucket outside a vocabulary of 2"):
            mnb_fit([1, 2], indptr, buckets, counts, vocab_size=2)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            mnb_train([({0: 1}, 1)], vocab_size=1, alpha=0.0)
