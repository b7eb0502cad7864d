"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The ordering experiments (criteria 3-5, 7) train real models on synthetic
corpora and take a few minutes; everything else is fast.
"""

import math
import statistics

import numpy as np
import pytest

from conftest import record_criterion
from poirec.corpus import (
    Corpus,
    InteractionRecord,
    parse_record,
    serialize_record,
    temporal_split,
)
from poirec.evaluation import (
    confusion_matrix,
    mnb_predict,
    mnb_train,
    predict_ratings,
    rmse,
    top_k_accuracy,
)
from poirec.features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    aggregate_candidates,
    encode_query,
)
from poirec.model import (
    forward_candidates,
    forward_users,
    init_params,
    location_encode,
    rating_predict,
    score_all,
    user_encode,
)
from poirec.training import (
    Batch,
    LossWeights,
    TrainConfig,
    TrainInputs,
    rating_loss,
    reference_gradcheck,
    retrieval_loss,
    train,
    two_phase_train,
)
from _synth import feature_signal_corpus, latent_factor_corpus


def median(xs):
    return statistics.median(xs)


# ---------------------------------------------------------------------------
# Criterion 1: analytic vs finite-difference gradients.
# ---------------------------------------------------------------------------


class TestCriterion1:
    def test_gradient_check(self):
        err, worst, seed_used = reference_gradcheck(seed=0, step=1e-3)
        ok = err < 1e-4
        record_criterion(
            1, ok, f"gradcheck max relative error {err:.3e} (tensor {worst or 'n/a'})"
        )
        assert ok


# ---------------------------------------------------------------------------
# Criterion 2: loss and metric oracles on randomized instances.
# ---------------------------------------------------------------------------


def random_batch(rng, params, n=4, mode="full_corpus", n_corpus=6):
    queries = [
        QueryFeatures(int(rng.integers(0, 6)), tuple(rng.uniform(-1, 1, 3)))
        for _ in range(n)
    ]
    cands = [
        CandidateFeatures(int(rng.integers(1, 5)), {int(rng.integers(0, 16)): int(rng.integers(1, 4))})
        for _ in range(n)
    ]
    labels = rng.uniform(1, 5, n)
    if mode == "in_batch":
        return Batch.in_batch(queries, cands, labels)
    corpus = [CandidateFeatures(i, {int(i % 16): 1}) for i in range(n_corpus)]
    # the paired candidate's business index locates it in the corpus set
    return Batch.full_corpus(queries, cands, labels, corpus)


class TestCriterion2:
    TRIALS = 100

    def test_loss_and_metric_oracles(self):
        rng = np.random.default_rng(2)
        worst = 0.0

        for trial in range(self.TRIALS):
            params = init_params(
                seed=trial, num_users=6, num_businesses=6, k=4, text_buckets=16
            )

            # rating loss against per-example recomputation
            batch = random_batch(rng, params)
            u = forward_users(params, batch.query_block).out
            v = forward_candidates(params, batch.pair_block).out
            preds = rating_predict(params, u, v)
            want = float(np.mean([(float(p) - y) ** 2 for p, y in zip(preds, batch.labels)]))
            worst = max(worst, abs(rating_loss(batch, params) - want))

            # retrieval loss, both softmax modes, against a naive softmax
            for mode in ("full_corpus", "in_batch"):
                batch = random_batch(rng, params, mode=mode)
                total = 0.0
                for q, t in zip(batch.queries, batch.true_indices):
                    uq = user_encode(q, params, task="retrieval").astype(np.float64)
                    scores = np.array(
                        [
                            uq @ location_encode(c, params, task="retrieval").astype(np.float64)
                            for c in batch.softmax_candidates
                        ]
                    )
                    total += -math.log(math.exp(scores[t]) / np.exp(scores).sum())
                want = total / len(batch.queries)
                worst = max(worst, abs(retrieval_loss(batch, params) - want))

            # rmse against brute force
            pairs = [(float(a), float(b)) for a, b in rng.uniform(1, 5, (8, 2))]
            want = math.sqrt(sum((p - y) ** 2 for p, y in pairs) / len(pairs))
            worst = max(worst, abs(rmse(pairs) - want))

            # top-k accuracy against a full-sort oracle
            queries = [QueryFeatures(int(rng.integers(0, 6))) for _ in range(5)]
            cands = [CandidateFeatures(i) for i in range(6)]
            true = [int(rng.integers(0, 6)) for _ in range(5)]
            k = int(rng.integers(1, 7))
            got = top_k_accuracy(queries, true, cands, params, k)
            hits = 0
            for q, t in zip(queries, true):
                scores = score_all(q, cands, params)
                order = sorted(range(6), key=lambda j: (-scores[j], j))
                hits += t in order[:k]
            worst = max(worst, abs(got - hits / 5))

            # confusion statistics against brute-force counting (exact)
            t_stars = list(rng.integers(1, 6, 20))
            p_stars = list(rng.integers(1, 6, 20))
            cm = confusion_matrix(t_stars, p_stars)
            for c in range(1, 6):
                tp = sum(1 for t, p in zip(t_stars, p_stars) if t == c and p == c)
                pred_c = sum(1 for p in p_stars if p == c)
                true_c = sum(1 for t in t_stars if t == c)
                prec = tp / pred_c if pred_c else 0.0
                rec = tp / true_c if true_c else 0.0
                worst = max(worst, abs(cm.per_class[c - 1].precision - prec))
                worst = max(worst, abs(cm.per_class[c - 1].recall - rec))
                assert cm.per_class[c - 1].support == true_c

        ok = worst < 1e-5
        record_criterion(
            2, ok, f"loss/metric oracles, {self.TRIALS} randomized trials, "
            f"max abs deviation {worst:.2e}"
        )
        assert ok


# ---------------------------------------------------------------------------
# Criteria 3, 5, 7: weight-setting sweep on the latent-factor corpus.
# ---------------------------------------------------------------------------

SWEEP_SETTINGS = {"rating": (1.0, 0.0), "retrieval": (0.0, 1.0), "joint": (0.5, 0.5)}
N_SEEDS = 5


def sweep_config(weights, seed, schedule="joint"):
    return TrainConfig(
        weights=LossWeights(*weights),
        batch_size=256,
        epochs=50,
        seed=seed,
        learning_rate=0.1,
        embed_dim=4,
        schedule=schedule,
    )


@pytest.fixture(scope="module")
def sweep_data():
    corpus = latent_factor_corpus(n_users=200, n_businesses=100, n_events=4000, seed=7)
    split = temporal_split(corpus, 0.9)
    trainr = [corpus.records[i] for i in split.train]
    testr = [corpus.records[i] for i in split.test]
    space = FeatureSpace.build(trainr, FeatureConfig(use_text=False, use_date=False))
    inputs = TrainInputs.from_records(trainr, space)
    cands = aggregate_candidates(trainr, space)
    queries = [encode_query(r, space) for r in testr]
    true = [space.business_vocab.lookup(r.business_id) for r in testr]

    def metrics(params):
        r = rmse(predict_ratings(params, testr, space))
        top = top_k_accuracy(queries, true, cands, params, 10)
        return r, top

    return inputs, space, metrics


@pytest.fixture(scope="module")
def sweep_results(sweep_data):
    inputs, space, metrics = sweep_data
    results = {}
    for name, weights in SWEEP_SETTINGS.items():
        per_seed = []
        for seed in range(N_SEEDS):
            params, trace = train(inputs, space, sweep_config(weights, seed))
            r, top = metrics(params)
            per_seed.append((r, top, trace))
        results[name] = per_seed
    return results


@pytest.mark.slow
class TestCriterion3:
    def test_weight_setting_ordering(self, sweep_results):
        med = {
            name: (median([r for r, _, _ in rows]), median([t for _, t, _ in rows]))
            for name, rows in sweep_results.items()
        }
        rating_best_rmse = med["rating"][0] < med["retrieval"][0] and med["rating"][0] < med["joint"][0]
        retrieval_best_top = med["retrieval"][1] > med["rating"][1] and med["retrieval"][1] > med["joint"][1]
        joint_between = (
            med["rating"][0] < med["joint"][0] < med["retrieval"][0]
            and med["rating"][1] < med["joint"][1] < med["retrieval"][1]
        )
        ok = rating_best_rmse and retrieval_best_top and joint_between
        record_criterion(
            3, ok,
            "weight sweep medians: rmse "
            f"{med['rating'][0]:.3f}/{med['retrieval'][0]:.3f}/{med['joint'][0]:.3f}, "
            f"top@10 {med['rating'][1]:.3f}/{med['retrieval'][1]:.3f}/{med['joint'][1]:.3f} "
            "(rating/retrieval/joint)",
        )
        assert ok


@pytest.mark.slow
class TestCriterion5:
    def test_two_phase_schedule(self, sweep_data):
        inputs, space, metrics = sweep_data
        frozen_ok = True
        tops1, tops2 = [], []
        for seed in range(N_SEEDS):
            cfg = sweep_config((1.0, 0.0), seed, schedule="two_phase")
            result = two_phase_train(inputs, space, cfg)
            from poirec.training import RETRIEVAL_HEAD_TENSORS

            for name in result.params.tensors:
                if name in RETRIEVAL_HEAD_TENSORS:
                    continue
                if not np.array_equal(
                    result.params.tensors[name], result.phase1_params.tensors[name]
                ):
                    frozen_ok = False
            tops1.append(metrics(result.phase1_params)[1])
            tops2.append(metrics(result.params)[1])
        improved = median(tops2) >= median(tops1)
        ok = frozen_ok and improved
        record_criterion(
            5, ok,
            f"two-phase: frozen tensors bit-identical={frozen_ok}, "
            f"median top@10 {median(tops1):.3f} -> {median(tops2):.3f}",
        )
        assert ok


class TestCriterion7:
    def test_loss_decreases(self, sweep_results):
        failures = []
        for name, rows in sweep_results.items():
            for seed, (_, _, trace) in enumerate(rows):
                if not trace[-1].joint_loss < trace[0].joint_loss:
                    failures.append((name, seed))
        ok = not failures
        record_criterion(
            7, ok,
            "final joint loss below epoch 1 for all 3 settings x 5 seeds"
            + (f"; failures: {failures}" if failures else ""),
        )
        assert ok


# ---------------------------------------------------------------------------
# Criterion 4: feature-ablation ordering.
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestCriterion4:
    def test_feature_ablation_ordering(self):
        corpus = feature_signal_corpus(seed=11, choice_season=1.5)
        split = temporal_split(corpus, 0.9)
        trainr = [corpus.records[i] for i in split.train]
        testr = [corpus.records[i] for i in split.test]

        med = {}
        for name, use_text, use_date in (
            ("ids", False, False), ("text", True, False), ("date", True, True),
        ):
            config = FeatureConfig(
                use_text=use_text, use_date=use_date, text_hash_buckets=512
            )
            space = FeatureSpace.build(trainr, config)
            inputs = TrainInputs.from_records(trainr, space)
            cands = aggregate_candidates(trainr, space)
            queries = [encode_query(r, space) for r in testr]
            true = [space.business_vocab.lookup(r.business_id) for r in testr]
            rs, tops = [], []
            for seed in range(N_SEEDS):
                cfg = TrainConfig(
                    weights=LossWeights(0.5, 0.5), batch_size=128, epochs=60,
                    seed=seed, learning_rate=0.3, embed_dim=16,
                )
                params, _ = train(inputs, space, cfg)
                rs.append(rmse(predict_ratings(params, testr, space)))
                tops.append(top_k_accuracy(queries, true, cands, params, 10))
            med[name] = (median(rs), median(tops))

        rmse_ok = med["ids"][0] > med["text"][0] > med["date"][0]
        top_ok = med["ids"][1] < med["text"][1] < med["date"][1]
        ok = rmse_ok and top_ok
        record_criterion(
            4, ok,
            f"ablation medians: rmse {med['ids'][0]:.3f}>{med['text'][0]:.3f}"
            f">{med['date'][0]:.3f}, top@10 {med['ids'][1]:.3f}<{med['text'][1]:.3f}"
            f"<{med['date'][1]:.3f} (ids/+text/+date)",
        )
        assert ok


# ---------------------------------------------------------------------------
# Criterion 6: MNB against a posterior-enumeration oracle.
# ---------------------------------------------------------------------------


def mnb_oracle_predict(docs, alpha, vocab_size, query):
    """Directly enumerate per-class posteriors from raw counts."""
    classes = sorted({star for _, star in docs})
    best_class, best_score = None, None
    for c in classes:
        class_docs = [counts for counts, star in docs if star == c]
        prior = len(class_docs) / len(docs)
        token_total = sum(sum(d.values()) for d in class_docs)
        score = math.log(prior)
        for bucket, n in query.items():
            in_class = sum(d.get(bucket, 0) for d in class_docs)
            p = (in_class + alpha) / (token_total + alpha * vocab_size)
            score += n * math.log(p)
        if best_score is None or score > best_score + 1e-12:
            best_class, best_score = c, score
    return best_class


class TestCriterion6:
    def test_mnb_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        vocab_size = 12
        docs = []
        for i in range(20):
            star = int(rng.integers(1, 6))
            counts = {
                int(b): int(rng.integers(1, 5))
                for b in rng.choice(vocab_size, size=rng.integers(1, 5), replace=False)
            }
            docs.append((counts, star))
        model = mnb_train(docs, alpha=1.0, vocab_size=vocab_size)

        mismatches = 0
        for _ in range(200):
            query = {
                int(b): int(rng.integers(1, 4))
                for b in rng.choice(vocab_size, size=rng.integers(0, 6), replace=False)
            }
            if mnb_predict(model, query) != mnb_oracle_predict(docs, 1.0, vocab_size, query):
                mismatches += 1

        # report layout: per-class rows plus micro/macro/weighted averages
        preds = [mnb_predict(model, counts) for counts, _ in docs]
        table = confusion_matrix([s for _, s in docs], preds).table()
        lines = table.splitlines()
        layout_ok = (
            len(lines) == 9
            and all(w in lines[0] for w in ("precision", "recall", "f1", "support"))
            and "micro average" in table
            and "macro average" in table
            and "weighted average" in table
        )

        ok = mismatches == 0 and layout_ok
        record_criterion(
            6, ok,
            f"mnb vs enumeration oracle: {mismatches}/200 mismatches, "
            f"report layout ok={layout_ok}",
        )
        assert ok


# ---------------------------------------------------------------------------
# Criterion 8: determinism and persistence.
# ---------------------------------------------------------------------------


class TestCriterion8:
    def test_determinism_and_persistence(self, tmp_path):
        from poirec.checkpoint import load_checkpoint, save_checkpoint
        from poirec.cli import main

        corpus = latent_factor_corpus(n_users=15, n_businesses=10, n_events=120, seed=8)
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text("\n".join(serialize_record(r) for r in corpus.records) + "\n")
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text("embed_dim = 4\nepochs = 2\nbatch_size = 32\n")

        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--corpus", str(corpus_path), "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        ckpt_identical = a.read_bytes() == b.read_bytes()

        tensors, uv, bv, echo = load_checkpoint(a)
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, tensors, uv, bv, echo)
        roundtrip_ok = resaved.read_bytes() == a.read_bytes()

        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        for rpt in (r1, r2):
            assert main(["evaluate", "--checkpoint", str(a), "--corpus", str(corpus_path),
                         "--k", "5", "--report", str(rpt)]) == 0
        report_identical = r1.read_bytes() == r2.read_bytes()

        ok = ckpt_identical and roundtrip_ok and report_identical
        record_criterion(
            8, ok,
            f"checkpoints byte-identical={ckpt_identical}, save/load round-trip "
            f"bit-exact={roundtrip_ok}, report regeneration identical={report_identical}",
        )
        assert ok


# ---------------------------------------------------------------------------
# Criterion 9: ingestion format and temporal-split invariants.
# ---------------------------------------------------------------------------


class TestCriterion9:
    def test_record_shape_and_split_invariants(self):
        line = (
            '{"user_id": "u_abc", "business_id": "b_xyz", "stars": 4, '
            '"text": "Great tacos, friendly staff.", "date": "2016-05-30", '
            '"votes": {"useful": 2, "funny": 0, "cool": 1}}'
        )
        rec = parse_record(line)
        parse_ok = (
            rec.user_id == "u_abc"
            and rec.stars == 4
            and parse_record(serialize_record(rec)) == rec
        )

        rng = np.random.default_rng(9)
        split_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            records = tuple(
                InteractionRecord(
                    user_id=f"u{i}", business_id=f"b{i}", stars=3, text="x",
                    date_days=int(rng.integers(15000, 17000)), votes=(0, 0, 0),
                )
                for i in range(n)
            )
            split = temporal_split(Corpus(records=records, skipped=0), 0.9)
            if len(split.train) != int(0.9 * n):
                split_ok = False
                break
            if split.train and split.test:
                max_train = max(records[i].date_days for i in split.train)
                min_test = min(records[i].date_days for i in split.test)
                if max_train > min_test:
                    split_ok = False
                    break

        ok = parse_ok and split_ok
        record_criterion(
            9, ok,
            f"record shape parses={parse_ok}, split invariants over 1000 "
            f"randomized corpora={split_ok}",
        )
        assert ok
