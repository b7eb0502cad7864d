"""Command-line surface: ingest, train, evaluate, recommend, gradcheck.

Run configuration is a flat UTF-8 key = value file ('#' starts a comment).
Unknown keys abort before any work starts. The resolved configuration is
echoed into the checkpoint so evaluation and recommendation need no
external config.
"""

from __future__ import annotations

import argparse
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
    raise ConfigError(f"not a boolean: {value!r}")


def _owned(parser, owner: type, name: str):
    """The spec entry of a key whose default and range `owner` holds: its
    field default, and a validator that builds an `owner` with the value."""
    return parser, getattr(owner, name), lambda value: owner(**{name: value})


def _k_list(text: str) -> tuple[int, ...]:
    """A comma list of integers, such as `10,50,100`."""
    return tuple(int(part) for part in text.split(",") if part.strip())


# key -> (parser, default, validator). A validator raises ValueError on a
# value the parser accepted but the program cannot run with; None accepts
# every parsed value.
_CONFIG_SPEC = {
    "use_text": (_parse_bool, FeatureConfig.use_text, None),
    "use_date": (_parse_bool, FeatureConfig.use_date, None),
    "text_hash_buckets": _owned(int, FeatureConfig, "text_hash_buckets"),
    "embed_dim": _owned(int, TrainConfig, "embed_dim"),
    "batch_size": _owned(int, TrainConfig, "batch_size"),
    "epochs": _owned(int, TrainConfig, "epochs"),
    "seed": _owned(int, TrainConfig, "seed"),
    "rating_weight": _owned(float, LossWeights, "rating"),
    "retrieval_weight": _owned(float, LossWeights, "retrieval"),
    "schedule": _owned(str, TrainConfig, "schedule"),
    "softmax_mode": _owned(str, TrainConfig, "softmax_mode"),
    "learning_rate": _owned(float, TrainConfig, "learning_rate"),
    "epsilon": _owned(float, TrainConfig, "epsilon"),
    "split_ratio": _owned(float, EvalConfig, "split_ratio"),
    "eval_ks": _owned(_k_list, EvalConfig, "ks"),
    "label_scale": _owned(str, FeatureConfig, "label_scale"),
    "mnb_buckets": _owned(int, EvalConfig, "mnb_buckets"),
    # derived at train time, carried in the checkpoint echo
    "date_min": (int, 0, None),
    "date_max": (int, 0, None),
}


def _checked(key: str, value):
    check = _CONFIG_SPEC[key][2]
    if check is not None:
        check(value)
    return value


def parse_config_text(text: str) -> dict:
    cfg = {key: default for key, (_, default, _) in _CONFIG_SPEC.items()}
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
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} repeated (first on line {first_line[key]})")
        first_line[key] = lineno
        parser = _CONFIG_SPEC[key][0]
        try:
            cfg[key] = _checked(key, parser(value))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return cfg


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


def _positive_int(text: str) -> int:
    """argparse type for counts such as --k: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def _feature_config(cfg: dict) -> FeatureConfig:
    return FeatureConfig(
        use_text=cfg["use_text"],
        use_date=cfg["use_date"],
        text_hash_buckets=cfg["text_hash_buckets"],
        label_scale=cfg["label_scale"],
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        weights=LossWeights(cfg["rating_weight"], cfg["retrieval_weight"]),
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
        schedule=cfg["schedule"],
        softmax_mode=cfg["softmax_mode"],
        learning_rate=cfg["learning_rate"],
        epsilon=cfg["epsilon"],
        embed_dim=cfg["embed_dim"],
    )


def _load_corpus_file(path: str, skip_malformed: bool = False) -> corpus_mod.Corpus:
    with open(path, "r", encoding="utf-8") as f:
        return corpus_mod.load_corpus(f, skip_malformed=skip_malformed)


AUX_CANDIDATES = "aux.candidate_embeddings"


def _load_model(path: str) -> tuple[model.ModelParams, np.ndarray, FeatureSpace, dict]:
    """A checkpoint's model, precomputed candidate embeddings, feature
    space and config echo. Every tensor's name and shape must be the ones
    the config echo and the vocabulary sizes give, or the file is corrupt.
    A NaN or infinity in any tensor is `FloatingPointError` "non-finite
    tensor <name>", so `evaluate` and `recommend` refuse it alike, whatever
    they go on to score."""
    tensors, user_vocab, business_vocab, echo = ckpt.load_checkpoint(path)
    cfg = parse_config_text(echo)
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
    for name, tensor in tensors.items():
        model.require_finite(tensor, f"tensor {name}")
    core = {n: t for n, t in tensors.items() if n != AUX_CANDIDATES}
    params = model.ModelParams(
        k=k, use_text=cfg["use_text"], use_date=cfg["use_date"], tensors=core
    )
    space = FeatureSpace(
        user_vocab=user_vocab,
        business_vocab=business_vocab,
        config=_feature_config(cfg),
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
    try:
        tconfig = _train_config(cfg)
    except ValueError as exc:  # a rule across keys, such as both loss weights at 0
        raise ConfigError(str(exc)) from exc

    corpus = _load_corpus_file(args.corpus)
    split = corpus_mod.temporal_split(corpus, cfg["split_ratio"])
    if not split.train:
        raise corpus_mod.EmptyCorpus(
            f"empty train partition: split_ratio {cfg['split_ratio']} of {len(corpus)} records"
        )
    train_records = [corpus.records[i] for i in split.train]
    space = FeatureSpace.build(train_records, _feature_config(cfg))
    cfg["date_min"], cfg["date_max"] = space.date_min, space.date_max

    inputs = training.TrainInputs.from_records(train_records, space)
    if cfg["schedule"] == "two_phase":
        result = training.two_phase_train(inputs, space, tconfig)
        params, trace = result.params, result.trace
    else:
        params, trace = training.train(inputs, space, tconfig)
    for entry in trace:
        print(entry.line())

    tensors = dict(params.tensors)
    tensors[AUX_CANDIDATES] = model.candidate_embeddings(params, inputs.corpus_block)
    ckpt.save_checkpoint(
        args.out, tensors, space.user_vocab, space.business_vocab, config_echo(cfg)
    )
    print(f"checkpoint: {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, candidates, space, cfg = _load_model(args.checkpoint)
    config = EvalConfig(
        split_ratio=cfg["split_ratio"],
        ks=tuple(args.k or cfg["eval_ks"]),
        mnb_buckets=cfg["mnb_buckets"],
    )
    report = evaluation.evaluate(
        params,
        candidates,
        _load_corpus_file(args.corpus),
        space,
        config,
        mnb=args.mnb,
        seed=cfg["seed"],
        rating_weight=cfg["rating_weight"],
        retrieval_weight=cfg["retrieval_weight"],
    )
    with open(args.report, "w", encoding="utf-8") as f:
        f.write(report.text())
    print(f"rmse={report.rmse:.6f}")
    for k in sorted(report.top_k):
        print(f"top_k.{k}={report.top_k[k]:.6f}")
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
    err, worst, seed_used = training.reference_gradcheck(
        seed=args.seed, corrupt=args.corrupt
    )
    print(f"max relative error: {err:.3e} (tensor {worst or 'n/a'}, seed {seed_used})")
    if err < 1e-4:
        print("gradcheck: PASS")
        return 0
    print(f"gradcheck: FAIL on tensor {worst}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--k", action="append", type=_positive_int)
    p.add_argument("--mnb", action="store_true")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("recommend", help="top-K businesses for a user id")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--user-id", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("gradcheck", help="verify analytic gradients by finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        corpus_mod.CorpusError,
        ConfigError,
        ckpt.CheckpointError,
        evaluation.EmptyInput,
        FloatingPointError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
