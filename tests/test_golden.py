"""Golden SHA-256 digests of poirec's outputs, and two environment
invariances.

Each config runs ingest, train, evaluate and recommend through
`poirec.cli.main` on a tiny generated corpus, and every output's digest
must equal the one in `tests/golden.json` for this environment: ingest
stdout and its file, train stdout without its `checkpoint:` path line, the
checkpoint, evaluate stdout and its report, and recommend stdout. The
configs are the three benchmark workloads, shrunk as in
`bench/test_bench_controls.py`, and the five of
`tests/test_reference_configs.py`. The benchmark's modules are imported,
never changed, and the round is driven here, not by
`bench_workload.Runner`, so that a change to the benchmark's rounds moves
no digest.

Entries are keyed by numpy version, BLAS name and machine; an environment
with no entry skips and names its tag. A change that means to change output
bits rewrites this environment's entry and says why; the command prints
each digest that changed, old -> new:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench"), HERE]

from bench_synth import CorpusSpec, generate  # noqa: E402
from bench_workload import WORKLOADS, Workload  # noqa: E402
from test_reference_configs import CONFIGS as REFERENCE_CONFIGS, TINY  # noqa: E402

from poirec import checkpoint as ckpt  # noqa: E402
from poirec import cli  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
SEED = 3
RECOMMENDED_USERS = 5
SHRUNK = {"embed_dim": "8", "text_hash_buckets": "64", "epochs": "2", "batch_size": "64"}
CONFIGS = [replace(w, corpus=TINY, config={**w.config, **SHRUNK}) for w in WORKLOADS.values()]
CONFIGS += REFERENCE_CONFIGS


def environment_tag() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return f"numpy {np.__version__} / {blas} / {platform.machine()}"


def run_cli(*argv: str) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    assert rc == 0, f"poirec {argv[0]} exited {rc}: {err.getvalue()}"
    return out.getvalue().encode()


def read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def digests(workload: Workload, workdir: str) -> dict[str, str]:
    """SHA-256 of every compared output of one ingest, train, evaluate and
    recommend round of `workload` on its corpus drawn at `SEED`."""
    path = {name: os.path.join(workdir, name)
            for name in ("raw.jsonl", "clean.jsonl", "train.cfg", "model.ckpt", "report.txt")}
    generate(workload.corpus, SEED, path["raw.jsonl"])
    with open(path["train.cfg"], "w", encoding="utf-8") as f:
        f.write("".join(f"{k} = {v}\n" for k, v in workload.config.items()))
    got = {"ingest stdout": run_cli("ingest", "--input", path["raw.jsonl"],
                                    "--out", path["clean.jsonl"], "--skip-malformed")}
    got["ingest file"] = read(path["clean.jsonl"])
    train = run_cli("train", "--corpus", path["clean.jsonl"], "--config", path["train.cfg"],
                    "--out", path["model.ckpt"])
    got["train stdout"] = b"".join(line for line in train.splitlines(keepends=True)
                                   if not line.startswith(b"checkpoint: "))
    got["checkpoint"] = read(path["model.ckpt"])
    got["evaluate stdout"] = run_cli("evaluate", "--checkpoint", path["model.ckpt"],
                                     "--corpus", path["clean.jsonl"], "--report",
                                     path["report.txt"], *workload.evaluate_args)
    got["report"] = read(path["report.txt"])
    users = ckpt.load_checkpoint(path["model.ckpt"])[1]
    got["recommend stdout"] = b"".join(
        run_cli("recommend", "--checkpoint", path["model.ckpt"], "--user-id", users.id_of(i),
                "--k", str(workload.recommend_k))
        for i in range(1, min(RECOMMENDED_USERS + 1, len(users)))
    )
    return {what: hashlib.sha256(data).hexdigest() for what, data in got.items()}


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def entry() -> dict[str, dict[str, str]]:
    tag = environment_tag()
    golden = load_golden()
    if tag not in golden:
        pytest.skip(f"tests/golden.json has no entry for {tag!r}")
    return golden[tag]


def check(workload: Workload, workdir: str) -> None:
    want = entry()[workload.name]
    got = digests(workload, workdir)
    changed = [what for what in want if got.get(what) != want[what]]
    assert not changed, f"{workload.name}: {', '.join(changed)} changed"


@pytest.mark.parametrize("workload", CONFIGS, ids=lambda w: w.name)
def test_outputs_equal_the_golden_digests(tmp_path, workload):
    check(workload, str(tmp_path))


def test_a_one_ulp_change_is_caught(tmp_path, monkeypatch):
    """Negative control: one trained float moved to its next float32 fails
    the check, which names the checkpoint."""
    real = ckpt.save_checkpoint

    def nudged(path, tensors, *args):
        table = tensors["business_table"].copy()
        table[1, 0] = np.nextafter(table[1, 0], np.float32(np.inf))
        return real(path, {**tensors, "business_table": table}, *args)

    monkeypatch.setattr(ckpt, "save_checkpoint", nudged)
    with pytest.raises(AssertionError, match="checkpoint"):
        check(CONFIGS[0], str(tmp_path))


# ---------------------------------------------------------------------------
# Invariances: the same train in two environments writes the same bytes.
# ---------------------------------------------------------------------------

# Full-corpus scores of a 256-row batch over the 202 rows of this corpus's
# business table at k = 32 are a 1.7M multiply-add product, above the size
# at which OpenBLAS splits a matrix product across threads.
INVARIANCE = replace(WORKLOADS["text-full"], corpus=CorpusSpec(1_000, 300, 225, 1_000, 5, 20,
                                                               malformed=0))
INVARIANCE_CONFIG = {**INVARIANCE.config, "embed_dim": "32", "epochs": "1"}


@pytest.fixture(scope="module")
def train_in(tmp_path_factory):
    """`train_in(**env)`: checkpoint bytes of one `poirec train` run in a
    subprocess with `env` added to its environment; equal environments
    share one run."""
    workdir = tmp_path_factory.mktemp("invariance")
    raw, clean, cfg = (str(workdir / name) for name in ("raw.jsonl", "clean.jsonl", "train.cfg"))
    generate(INVARIANCE.corpus, SEED, raw)
    run_cli("ingest", "--input", raw, "--out", clean)
    with open(cfg, "w", encoding="utf-8") as f:
        f.write("".join(f"{k} = {v}\n" for k, v in INVARIANCE_CONFIG.items()))
    runs: dict[tuple, bytes] = {}

    def train(**env: str) -> bytes:
        key = tuple(sorted(env.items()))
        if key not in runs:
            out = str(workdir / f"model-{len(runs)}.ckpt")
            subprocess.run(
                [sys.executable, "-m", "poirec", "train", "--corpus", clean, "--config", cfg,
                 "--out", out],
                env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), **env},
                check=True, capture_output=True,
            )
            runs[key] = read(out)
        return runs[key]

    return train


def test_blas_threads_do_not_change_the_checkpoint(train_in):
    one = train_in(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    assert one == train_in(OPENBLAS_NUM_THREADS="2", PYTHONHASHSEED="0")


def test_hash_seed_does_not_change_the_checkpoint(train_in):
    zero = train_in(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="0")
    assert zero == train_in(OPENBLAS_NUM_THREADS="1", PYTHONHASHSEED="12345")


def changes(old: dict[str, dict[str, str]], new: dict[str, dict[str, str]]) -> list[str]:
    """One line per digest that differs between two entries, as
    `config / output: old -> new` (12 hex digits each; `-` for none)."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        for what in sorted(was.keys() | now.keys()):
            if was.get(what) != now.get(what):
                before, after = (d[what][:12] if what in d else "-" for d in (was, now))
                lines.append(f"{name} / {what}: {before} -> {after}")
    return lines


def test_changes_name_each_moved_digest():
    old = {"a": {"checkpoint": "1" * 64, "report": "2" * 64}, "gone": {"report": "3" * 64}}
    new = {"a": {"checkpoint": "1" * 64, "report": "4" * 64}, "added": {"report": "5" * 64}}
    assert changes(old, new) == [f"a / report: {'2' * 12} -> {'4' * 12}",
                                 f"added / report: - -> {'5' * 12}",
                                 f"gone / report: {'3' * 12} -> -"]
    assert changes(new, new) == []


def write_entry(workdir: str) -> str:
    """Rewrite this environment's entry of `tests/golden.json`, printing
    each digest that changed."""
    tag = environment_tag()
    golden = load_golden() if os.path.exists(GOLDEN) else {}
    entries = {}
    for workload in CONFIGS:
        os.makedirs(sub := os.path.join(workdir, workload.name))
        entries[workload.name] = digests(workload, sub)
    for line in changes(golden.get(tag, {}), entries) or ["no digest changed"]:
        print(line)
    golden[tag] = entries
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return tag


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"wrote the entry for {write_entry(tmp)!r} to {GOLDEN}")
