"""poirec against the benchmark's independent reference on configs that
no benchmark workload runs.

Each case is one round of the benchmark's runner (ingest, train, evaluate,
recommend) on a tiny generated corpus, whose outputs the reference in
`bench/bench_reference.py` then checks: ingest stats, epoch lines, the
checkpoint's tensors and vocabularies, RMSE, top-K hits, the MNB baseline,
every recommendation and the analytic gradients. The benchmark's modules
are imported, never changed.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from bench_synth import CorpusSpec  # noqa: E402
from bench_workload import Runner, Workload  # noqa: E402

TINY = CorpusSpec(600, 60, 40, 200, 5, 15, malformed=5, clusters=4)  # 540 train reviews
BASE = {"seed": "0", "learning_rate": "0.05", "split_ratio": "0.9", "embed_dim": "8",
        "text_hash_buckets": "64", "epochs": "2", "batch_size": "64",
        "use_text": "true", "use_date": "true", "softmax_mode": "in_batch", "schedule": "joint"}


def workload(name, evaluate_args=("--k", "5"), recommend_k=5, **config):
    return Workload(name=name, corpus=TINY, config={**BASE, **config},
                    evaluate_args=evaluate_args, ingests=1, setups=1,
                    recommend_calls=10, recommend_k=recommend_k)


CONFIGS = [
    workload("two-phase-full-corpus-mnb", ("--mnb", "--k", "5"),
             schedule="two_phase", softmax_mode="full_corpus"),
    workload("text-without-date", use_date="false"),
    # K above the 40 businesses, in evaluate and in recommend.
    workload("k-above-the-catalog", ("--k", "100"), recommend_k=100),
    # One batch per epoch, larger than the train split.
    workload("batch-above-the-split", batch_size="4096"),
    workload("ids-two-phase-k2", use_text="false", schedule="two_phase", embed_dim="2"),
]


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda w: w.name)
def test_reference_accepts_every_output(tmp_path, config, seed):
    runner = Runner(config, seed=seed, workdir=str(tmp_path))
    assert runner.run(seconds=0) == 1
    assert runner.o.problems == []
    assert runner.o.failed == 0, runner.o.failures
