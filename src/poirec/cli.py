"""Command-line surface: ingest, train, evaluate, recommend, gradcheck.

Run configuration is a flat UTF-8 key = value file ('#' starts a comment).
Unknown keys abort before any work starts. The resolved configuration is
echoed into the checkpoint so evaluation and recommendation need no
external config.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from . import corpus as corpus_mod
from . import evaluation, model, training
from .evaluation import EvalConfig
from .features import FeatureConfig, FeatureSpace, QueryFeatures
from .training import LossWeights, TrainConfig


class ConfigError(Exception):
    pass


def _parse_bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _k_list(text: str) -> tuple[int, ...]:
    """A comma list of integers, such as `10,50,100`."""
    return tuple(int(part) for part in text.split(",") if part.strip())


# key -> (parser, owner, field): `owner` holds the key's default and range in
# `field`, and `_build` makes it. A parser raises ValueError on bad text.
_CONFIG_SPEC = {
    "use_text": (_parse_bool, FeatureConfig, "use_text"),
    "use_date": (_parse_bool, FeatureConfig, "use_date"),
    "text_hash_buckets": (int, FeatureConfig, "text_hash_buckets"),
    "embed_dim": (int, TrainConfig, "embed_dim"),
    "batch_size": (int, TrainConfig, "batch_size"),
    "epochs": (int, TrainConfig, "epochs"),
    "seed": (int, TrainConfig, "seed"),
    "rating_weight": (float, LossWeights, "rating"),
    "retrieval_weight": (float, LossWeights, "retrieval"),
    "schedule": (str, TrainConfig, "schedule"),
    "softmax_mode": (str, TrainConfig, "softmax_mode"),
    "learning_rate": (float, TrainConfig, "learning_rate"),
    "epsilon": (float, TrainConfig, "epsilon"),
    "split_ratio": (float, EvalConfig, "split_ratio"),
    "eval_ks": (_k_list, EvalConfig, "ks"),
    "label_scale": (str, FeatureConfig, "label_scale"),
    "mnb_buckets": (int, EvalConfig, "mnb_buckets"),
    # no owner: `train` derives them, and only the checkpoint echo carries them
    "date_min": (int, None, None),
    "date_max": (int, None, None),
}


def _checked(key: str, value):
    _, owner, field = _CONFIG_SPEC[key]
    if owner is not None:
        owner(**{field: value})
    return value


def parse_config_text(text: str, echo: bool = False) -> dict:
    """Key -> value of every config key, its default where `text` does not
    set it. Only a checkpoint's config `echo` may set a derived key."""
    cfg = {key: 0 if owner is None else getattr(owner, field)
           for key, (_, owner, field) in _CONFIG_SPEC.items()}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_SPEC:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if _CONFIG_SPEC[key][1] is None and not echo:
            raise ConfigError(f"line {lineno}: {key} is derived by train; a config may not set it")
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} repeated (first on line {first_line[key]})")
        first_line[key] = lineno
        try:
            cfg[key] = _checked(key, _CONFIG_SPEC[key][0](value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _build(owner: type, cfg: dict, **given):
    """An `owner` from the config keys it owns and the fields in `given`. A
    rule across keys, such as both loss weights at 0, is a ConfigError."""
    owned = {field: cfg[key] for key, (_, o, field) in _CONFIG_SPEC.items() if o is owner}
    try:
        return owner(**owned, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: dict) -> str:
    """Canonical key=value text, stable across runs."""
    lines = []
    for key in sorted(_CONFIG_SPEC):
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _int_at_least(low: int):
    """argparse type for an integer >= `low`, such as --k (1) or --seed (0)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {value}")
        return value
    return parse


def _load_corpus_file(path: str, skip_malformed: bool = False) -> corpus_mod.Corpus:
    with open(path, "r", encoding="utf-8") as f:
        return corpus_mod.load_corpus(f, skip_malformed=skip_malformed)


AUX_CANDIDATES = "aux.candidate_embeddings"


def _require_finite_tensors(tensors: dict[str, np.ndarray]) -> None:
    """FloatingPointError "non-finite tensor <name>" for the first tensor
    with a NaN or infinity: `train` saves no checkpoint `_load_model` refuses."""
    for name, tensor in tensors.items():
        model.require_finite(tensor, f"tensor {name}")


def _load_model(path: str) -> tuple[model.ModelParams, np.ndarray, FeatureSpace, dict]:
    """A checkpoint's model, precomputed candidate embeddings, feature
    space and config echo. Every tensor's name and shape must be the ones
    the config echo and the vocabulary sizes give, or the file is corrupt.
    A NaN or infinity in any tensor is `FloatingPointError` "non-finite
    tensor <name>", so `evaluate` and `recommend` refuse it alike, whatever
    they go on to score."""
    tensors, user_vocab, business_vocab, echo = ckpt.load_checkpoint(path)
    cfg = parse_config_text(echo, echo=True)
    k = cfg["embed_dim"]
    want = model.param_shapes(
        len(user_vocab), len(business_vocab), k, cfg["use_text"], cfg["text_hash_buckets"]
    )
    want[AUX_CANDIDATES] = (len(business_vocab), k)
    for name in sorted(want.keys() | tensors.keys()):
        got = tensors[name].shape if name in tensors else "missing"
        need = want.get(name, "none")
        if got != need:
            raise ckpt.CorruptFile(
                f"tensor {name}: {got} in the file, {need} from the config echo and vocabularies"
            )
    _require_finite_tensors(tensors)
    core = {n: t for n, t in tensors.items() if n != AUX_CANDIDATES}
    params = model.ModelParams(
        k=k, use_text=cfg["use_text"], use_date=cfg["use_date"], tensors=core
    )
    space = FeatureSpace(
        user_vocab=user_vocab,
        business_vocab=business_vocab,
        config=_build(FeatureConfig, cfg),
        date_min=cfg["date_min"],
        date_max=cfg["date_max"],
    )
    return params, tensors[AUX_CANDIDATES], space, cfg


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = _load_corpus_file(args.input, skip_malformed=args.skip_malformed)
    with open(args.out, "w", encoding="utf-8") as f:
        for record in corpus.records:
            f.write(corpus_mod.serialize_record(record) + "\n")
    for line in corpus_mod.corpus_stats(corpus).lines():
        print(line)
    if args.skip_malformed:
        print(f"skipped: {corpus.skipped}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    text = ""
    if args.config:
        with open(args.config, "rb") as f:
            try:
                text = f.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config}: not UTF-8 at byte {exc.start}") from None
    cfg = parse_config_text(text)
    for key in ("rating_weight", "retrieval_weight"):
        value = getattr(args, key)
        if value is not None:
            try:
                cfg[key] = _checked(key, value)
            except ValueError as exc:
                raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from exc
    if args.two_phase:
        cfg["schedule"] = "two_phase"
    tconfig = _build(TrainConfig, cfg, weights=_build(LossWeights, cfg))

    corpus = _load_corpus_file(args.corpus)
    split = corpus_mod.temporal_split(corpus, cfg["split_ratio"])
    if not split.train:
        raise corpus_mod.EmptyCorpus(
            f"empty train partition: split_ratio {cfg['split_ratio']} of {len(corpus)} records"
        )
    train_records = [corpus.records[i] for i in split.train]
    space = FeatureSpace.build(train_records, _build(FeatureConfig, cfg))
    cfg["date_min"], cfg["date_max"] = space.date_min, space.date_max

    inputs = training.TrainInputs.from_records(train_records, space)
    if tconfig.schedule == "two_phase":
        result = training.two_phase_train(inputs, space, tconfig)
        params, trace = result.params, result.trace
    else:
        params, trace = training.train(inputs, space, tconfig)
    for entry in trace:
        print(entry.line())

    tensors = dict(params.tensors)
    tensors[AUX_CANDIDATES] = model.candidate_embeddings(params, inputs.corpus_block)
    _require_finite_tensors(tensors)
    ckpt.save_checkpoint(
        args.out, tensors, space.user_vocab, space.business_vocab, config_echo(cfg)
    )
    print(f"checkpoint: {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, candidates, space, cfg = _load_model(args.checkpoint)
    if args.k:
        cfg["eval_ks"] = tuple(args.k)
    report = evaluation.evaluate(
        params,
        candidates,
        _load_corpus_file(args.corpus),
        space,
        _build(EvalConfig, cfg),
        mnb=args.mnb,
        seed=cfg["seed"],
        rating_weight=cfg["rating_weight"],
        retrieval_weight=cfg["retrieval_weight"],
    )
    with open(args.report, "w", encoding="utf-8") as f:
        f.write(report.text())
    for line in report.lines():
        if line.startswith(("rmse=", "top_k.")):
            print(line)
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    params, cand_emb, space, _ = _load_model(args.checkpoint)
    if args.user_id not in space.user_vocab:
        print(f"error: unknown user id {args.user_id!r}", file=sys.stderr)
        return 1
    # No interaction context exists at recommendation time: date slots zero.
    query = QueryFeatures(user_index=space.user_vocab.lookup(args.user_id))
    users = model.forward_users(params, model.QueryBlock.from_features([query])).out
    scores = evaluation.retrieval_scores(params, users, cand_emb)[0]
    # The order `evaluation.retrieval_ranks` counts; column j is business j + 1.
    for rank, j in enumerate(np.argsort(-scores, kind="stable")[: args.k], start=1):
        print(f"{rank}, {space.business_vocab.id_of(int(j) + 1)}, {scores[j]:.6f}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    err, worst, seed_used = training.reference_gradcheck(seed=args.seed)
    print(f"max relative error: {err:.3e} (tensor {worst or 'n/a'}, seed {seed_used})")
    if err < 1e-4:
        print("gradcheck: PASS")
        return 0
    print(f"gradcheck: FAIL on tensor {worst}", file=sys.stderr)
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` gives
    each call a fresh namespace and copies list defaults, so calls share no
    state through it."""
    parser = argparse.ArgumentParser(
        prog="poirec",
        description="Two-tower multi-task point-of-interest recommender.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate review JSON lines and emit a corpus file")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skip-malformed", action="store_true")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--rating-weight", type=float, default=None)
    p.add_argument("--retrieval-weight", type=float, default=None)
    p.add_argument("--two-phase", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="compute metrics from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--k", action="append", type=_int_at_least(1))
    p.add_argument("--mnb", action="store_true")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-K businesses for a user id")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user-id", required=True)
    p.add_argument("--k", type=_int_at_least(1), default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflow shows as a non-finite value, which `require_finite`
        # reports as the one `error:` line; numpy's warnings would precede it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (
        corpus_mod.CorpusError,
        ConfigError,
        ckpt.CheckpointError,
        evaluation.EmptyInput,
        FloatingPointError,
        MemoryError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
