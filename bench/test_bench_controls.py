"""Fast checks of the benchmark itself, on tiny corpora.

A clean run must pass every output check; each negative control (a
perturbed checkpoint entry, a wrong top-K count, a wrong recommended
business, a dropped ingest record) must be caught by the check meant for
it, in the first round and, as an output that differs from the first
round's, in a later one; the kept-failing ingest files must count as
failed operations; and a traced run must see the layer boundaries.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from bench_synth import CorpusSpec  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workload import KEPT_FAULTS, Runner, Workload  # noqa: E402

TINY = CorpusSpec(600, 60, 40, 200, 5, 15, malformed=5, clusters=4)
TINY_CONFIG = {"seed": "0", "learning_rate": "0.05", "split_ratio": "0.9", "embed_dim": "8",
               "text_hash_buckets": "64", "epochs": "2", "batch_size": "64"}

TEXT = Workload(
    name="tiny-text", corpus=TINY,
    config={**TINY_CONFIG, "use_text": "true", "use_date": "true",
            "softmax_mode": "full_corpus", "schedule": "joint"},
    evaluate_args=("--mnb", "--k", "5"), ingests=1, setups=2, recommend_calls=10, recommend_k=5,
)
TWOPHASE = Workload(
    name="tiny-twophase", corpus=TINY,
    config={**TINY_CONFIG, "use_text": "true", "use_date": "true",
            "softmax_mode": "in_batch", "schedule": "two_phase"},
    evaluate_args=("--mnb", "--k", "5"), ingests=1, setups=2, recommend_calls=10, recommend_k=5,
)
IDS = Workload(
    name="tiny-ids", corpus=TINY,
    config={**TINY_CONFIG, "use_text": "false", "use_date": "true",
            "softmax_mode": "in_batch", "schedule": "joint"},
    evaluate_args=("--k", "5", "--k", "20"), kept_faults=True, ingests=1, setups=2,
    recommend_calls=10, recommend_k=5,
)


def run(tmp_path, workload, **kwargs) -> Runner:
    runner = Runner(workload, seed=3, workdir=str(tmp_path), **kwargs)
    assert runner.run(seconds=0) == 1
    return runner


def benchmark_names(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[key]]


@pytest.mark.parametrize("workload", [TEXT, TWOPHASE], ids=lambda w: w.name)
def test_clean_run_passes_every_check(tmp_path, workload):
    runner = run(tmp_path, workload)
    assert runner.o.problems == []
    assert list(runner.metrics()) == benchmark_names("end_to_end")
    assert runner.o.failed == 0
    assert runner.o.attempted == 1 + 2 + 1 + 10
    assert runner.o.notes["gradcheck"]["checked"] > 0


# Each control and the start of the problem the check meant for it reports.
CAUGHT_BY = {
    "checkpoint": "checkpoint tensors differ from the trained parameters",
    "topk": "top_k.5: ",
    "recommend": "recommend ",
    "ingest": "ingest output (",
}


@pytest.mark.parametrize("control", list(CAUGHT_BY))
def test_negative_control_is_caught(tmp_path, control):
    runner = run(tmp_path, TEXT, control=control)
    assert any(p.startswith(CAUGHT_BY[control]) for p in runner.o.problems), runner.o.problems


def test_later_round_must_repeat_the_first(tmp_path):
    runner = run(tmp_path, TWOPHASE)
    assert runner.run(seconds=0) == 2
    assert runner.o.problems == []
    runner.control = "checkpoint"
    assert runner.run(seconds=0) == 3
    assert "checkpoint output of round 3 differs from round 1" in runner.o.problems


def test_kept_faults_count_as_failed(tmp_path):
    runner = run(tmp_path, IDS)
    assert runner.o.problems == []
    assert runner.o.failed == len(KEPT_FAULTS)
    assert runner.o.attempted == 1 + len(KEPT_FAULTS) + 2 + 1 + 10


def test_traced_run_sees_layer_boundaries(tmp_path):
    tracer = Tracer()
    runner = run(tmp_path, TEXT, tracer=tracer)
    assert runner.o.problems == []
    metrics = runner.metrics()
    assert list(metrics) == benchmark_names("per_layer")
    # Joint full-corpus training: two forwards per tower per batch, and a
    # corpus block rebuilt for every batch.
    assert metrics["training.tower_forwards_per_batch"][0] == 4.0
    assert metrics["model.candidate_rows_built_per_example"][0] > 1.0
    assert metrics["checkpoint.load_checkpoint.calls"][0] == 1 + 10
    assert metrics["features.text_hashes_per_review"][0] > 1.0
    assert all(value >= 0 for value, _ in metrics.values())
