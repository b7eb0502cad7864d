"""End-to-end command line flows plus the checkpoint container format."""

import json
import os
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poirec.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    CorruptFile,
    VersionMismatch,
    load_checkpoint,
    save_checkpoint,
)
from poirec.cli import (
    _CONFIG_SPEC,
    ConfigError,
    _build,
    _k_list,
    _load_model,
    _parse_bool,
    build_parser,
    config_echo,
    main,
    parse_config_text,
)
from poirec.corpus import (
    InteractionRecord,
    days_from_date,
    load_corpus,
    serialize_record,
    temporal_split,
)
from poirec.evaluation import EvalConfig, retrieval_ranks, retrieval_scores
from poirec.features import FeatureConfig, QueryFeatures, Vocabulary, hash_token
from poirec.model import QueryBlock, forward_users, retrieval_project
from poirec.training import LossWeights, TrainConfig
from _synth import latent_factor_corpus


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "reviews.jsonl"
    corpus = latent_factor_corpus(n_users=15, n_businesses=10, n_events=150, seed=3)
    path.write_text("\n".join(serialize_record(r) for r in corpus.records) + "\n")
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(
        "# small model for fast tests\n"
        "embed_dim = 4\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        "text_hash_buckets = 64\n"
    )
    return path


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory, corpus_file, config_file):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    rc = main(
        ["train", "--corpus", str(corpus_file), "--config", str(config_file),
         "--out", str(out)]
    )
    assert rc == 0
    return out


def _field(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def checkpoint_bytes(user_ids, business_ids, tensors) -> bytes:
    """A checkpoint written field by field from the format's layout: each
    vocabulary's ids, OOV entry included, and (name, array) tensor pairs."""
    out = MAGIC + bytes([VERSION]) + _field("")
    for ids in (user_ids, business_ids):
        out += struct.pack("<I", len(ids)) + b"".join(_field(i) for i in ids)
    out += struct.pack("<I", len(tensors))
    for name, array in tensors:
        out += _field(name) + struct.pack(f"<{1 + array.ndim}I", array.ndim, *array.shape)
        out += array.astype("<f4").tobytes()
    return out


class TestCheckpointFormat:
    def make(self, path):
        tensors = {
            "user_table": np.arange(6, dtype=np.float32).reshape(2, 3),
            "bias": np.array([1.5], dtype=np.float32),
        }
        save_checkpoint(
            path, tensors, Vocabulary(["u1"]), Vocabulary(["b1", "b2"]), "embed_dim = 3\n"
        )
        return tensors

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        tensors = self.make(path)
        loaded, users, businesses, cfg = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float32
        assert users.ids == ["", "u1"]
        assert businesses.ids == ["", "b1", "b2"]
        assert cfg == "embed_dim = 3\n"

    def test_same_content_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        self.make(a)
        self.make(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("end", [-3, 0, len(MAGIC) - 1],
                             ids=["tensor-values", "empty", "inside-magic"])
    def test_truncation_detected(self, end, tmp_path):
        path = tmp_path / "c.ckpt"
        self.make(path)
        data = path.read_bytes()
        path.write_bytes(data[:end])
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self.make(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self.make(path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_version_flip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        self.make(path)
        data = bytearray(path.read_bytes())
        data[6] = 9  # version byte follows the 6-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_hand_built_bytes_match_the_writer(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, {"t": np.ones((2, 3), np.float32)}, Vocabulary(["u1"]),
                        Vocabulary(["b1"]), "")
        assert path.read_bytes() == checkpoint_bytes(
            ["", "u1"], ["", "b1"], [("t", np.ones((2, 3)))]
        )

    @pytest.mark.parametrize("user_ids, tensor_names, message", [
        ([], ["t"], "vocabulary without OOV entry"),
        (["u0", "u1"], ["t"], "vocabulary index 0 is not the OOV sentinel"),
        (["", "u1"], ["t", "t"], "duplicate tensor 't'"),
    ], ids=["no-entries", "entry-0-not-empty", "repeated-tensor"])
    def test_bad_structure_is_corrupt(self, user_ids, tensor_names, message, tmp_path):
        path = tmp_path / "c.ckpt"
        tensors = [(name, np.ones(2)) for name in tensor_names]
        path.write_bytes(checkpoint_bytes(user_ids, ["", "b1"], tensors))
        with pytest.raises(CorruptFile, match=message):
            load_checkpoint(path)

    def test_rank_above_numpy_limit(self, tmp_path):
        """A tensor of 65 unit dimensions: its one value is in the file, but
        no numpy array has that many dimensions."""
        path = tmp_path / "c.ckpt"
        tensors = {"t": np.zeros((1,) * 32, dtype=np.float32)}
        save_checkpoint(path, tensors, Vocabulary(["u1"]), Vocabulary(["b1"]), "")
        data = path.read_bytes()
        rank_at = data.index(b"t" + struct.pack("<I", 32)) + 1  # the rank follows the name
        dims_end = rank_at + 4 + 4 * 32
        path.write_bytes(data[:rank_at] + struct.pack("<I", 65) + data[rank_at + 4 : dims_end]
                         + struct.pack("<I", 1) * 33 + data[dims_end:])
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new", [(b"b2", b"b1"), (b"u1", b"\xff1"),
                                          (b"\x02\x00\x00\x00b2", b"\x00\x00\x00\x00")],
                             ids=["duplicate-id", "invalid-utf8-id", "empty-id"])
    def test_bad_vocabulary_id_is_a_clean_error(self, old, new, tmp_path, capsys):
        path = tmp_path / "c.ckpt"
        self.make(path)
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        with pytest.raises(CorruptFile):
            load_checkpoint(path)
        assert main(["recommend", "--checkpoint", str(path), "--user-id", "u1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flips_and_truncations_load_or_raise(self, checkpoint_file, tmp_path_factory, data):
        """Any flipped byte or truncation either loads or raises a
        CheckpointError; nothing else escapes. Half the flips land in the
        first 1 KiB, where the config, vocabularies and tensor headers are."""
        raw = bytearray(checkpoint_file.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
        else:
            pos = data.draw(st.one_of(st.integers(0, 1023), st.integers(0, len(raw) - 1)),
                            label="position")
            raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = parse_config_text("")
        assert cfg["embed_dim"] == 32
        assert cfg["use_text"] is True

    def test_comments_and_values(self):
        cfg = parse_config_text("# hello\nembed_dim = 8\nuse_date = false\n")
        assert cfg["embed_dim"] == 8
        assert cfg["use_date"] is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("embedd_dim = 8\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = soon\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 2: epochs repeated \(first on line 1\)$"):
            parse_config_text("epochs = 5\nepochs = 7\n")

    @given(st.one_of(
        st.text(),
        # Lines of known keys with arbitrary values reach every parser and validator.
        st.lists(st.tuples(st.sampled_from(sorted(_CONFIG_SPEC)),
                           st.one_of(st.text(), st.from_regex(r"-?[0-9.,e]{0,8}", fullmatch=True),
                                     st.sampled_from(["nan", "inf", "true", "full_corpus"]))),
                 max_size=4).map(lambda kv: "\n".join(f"{k} = {v}" for k, v in kv)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_is_a_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert cfg.keys() == _CONFIG_SPEC.keys()


# One bad value per owned key; each must stop `train` before any work. The
# owner refuses it, or, for `use_text` and `use_date`, the parser does.
BAD_CONFIG_VALUES = [
    ("use_text", "maybe"), ("use_date", "2"),
    ("batch_size", "0"), ("epochs", "0"), ("embed_dim", "0"), ("seed", "-1"),
    ("text_hash_buckets", "1"), ("mnb_buckets", "1"),
    ("schedule", "foo"), ("softmax_mode", "sampled"), ("label_scale", "log"),
    ("learning_rate", "-5"), ("learning_rate", "0"), ("learning_rate", "nan"),
    ("learning_rate", "1e-50"), ("learning_rate", "1e39"),  # 0 and inf in float32
    ("epsilon", "0"), ("epsilon", "inf"), ("epsilon", "1e-50"),
    ("rating_weight", "-0.5"), ("rating_weight", "nan"), ("retrieval_weight", "inf"),
    ("split_ratio", "1.5"), ("split_ratio", "0"), ("split_ratio", "1"),
    ("eval_ks", "10,abc"), ("eval_ks", "0"), ("eval_ks", ","),
]


# The library type and field that hold each key's default and range; only
# the keys that `train` derives from the corpus have none.
DERIVED_KEYS = {"date_min", "date_max"}
OWNERS = {
    **{key: (FeatureConfig, key) for key in (
        "use_text", "use_date", "text_hash_buckets", "label_scale")},
    "rating_weight": (LossWeights, "rating"),
    "retrieval_weight": (LossWeights, "retrieval"),
    **{key: (TrainConfig, key) for key in (
        "embed_dim", "batch_size", "epochs", "seed", "schedule", "softmax_mode",
        "learning_rate", "epsilon")},
    "split_ratio": (EvalConfig, "split_ratio"),
    "eval_ks": (EvalConfig, "ks"),
    "mnb_buckets": (EvalConfig, "mnb_buckets"),
}

# A valid value other than the default for each owned key: (text, parsed value).
NON_DEFAULT_VALUES = {
    "use_text": ("false", False), "use_date": ("no", False),
    "text_hash_buckets": ("64", 64), "label_scale": ("normalized", "normalized"),
    "rating_weight": ("0.25", 0.25), "retrieval_weight": ("0", 0.0),
    "embed_dim": ("8", 8), "batch_size": ("16", 16), "epochs": ("3", 3), "seed": ("7", 7),
    "schedule": ("two_phase", "two_phase"), "softmax_mode": ("in_batch", "in_batch"),
    "learning_rate": ("0.05", 0.05), "epsilon": ("1e-05", 1e-05),
    "split_ratio": ("0.8", 0.8), "eval_ks": ("5, 10", (5, 10)), "mnb_buckets": ("128", 128),
}

# Values of the wrong type for the field behind each key's parser. The
# command line cannot pass them, so only the owner's own check refuses them.
WRONG_TYPES = {
    int: (2.5, True, "3", None),
    float: (True, "0.5", None),
    _parse_bool: ("false", 1, None),
    str: (1, None),
    _k_list: ([5], (5.5,), (True,), "5", None),
}


class TestLibraryAndCliAgree:
    def test_every_setting_has_one_owner(self):
        assert OWNERS.keys() == _CONFIG_SPEC.keys() - DERIVED_KEYS
        defaults = parse_config_text("")
        for key, (owner, name) in OWNERS.items():
            assert _CONFIG_SPEC[key][1:] == (owner, name), key
            assert defaults[key] == getattr(owner, name), key
        for key in DERIVED_KEYS:
            assert _CONFIG_SPEC[key][1:] == (None, None), key

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
    def test_owner_rejects_the_bad_value(self, key, value):
        """The owner refuses the value, or it does not parse at all."""
        owner, name = OWNERS[key]
        with pytest.raises(ValueError):
            owner(**{name: _CONFIG_SPEC[key][0](value)})

    @pytest.mark.parametrize("key", sorted(OWNERS))
    def test_owner_rejects_a_wrong_type(self, key):
        """A library caller gets ValueError, as the command line does, and
        never a TypeError or a config of the wrong type."""
        owner, name = OWNERS[key]
        for value in WRONG_TYPES[_CONFIG_SPEC[key][0]]:
            with pytest.raises(ValueError):
                owner(**{name: value})

    def test_empty_config_builds_the_default_types(self):
        cfg = parse_config_text("")
        assert _build(FeatureConfig, cfg) == FeatureConfig()
        assert _build(TrainConfig, cfg, weights=_build(LossWeights, cfg)) == TrainConfig()
        assert _build(EvalConfig, cfg) == EvalConfig()

    @pytest.mark.parametrize("key", sorted(OWNERS))
    def test_every_owned_key_reaches_its_owner(self, key):
        text, value = NON_DEFAULT_VALUES[key]
        owner, name = OWNERS[key]
        assert value != getattr(owner, name)
        built = _build(owner, parse_config_text(f"{key} = {text}\n"))
        assert getattr(built, name) == value


class TestConfigValidation:
    def test_every_validated_key_has_a_bad_value(self):
        validated = {key for key, (_, owner, _) in _CONFIG_SPEC.items() if owner}
        assert validated == {key for key, _ in BAD_CONFIG_VALUES}

    def test_defaults_pass_their_validators(self):
        cfg = parse_config_text("")
        for key, (_, owner, name) in _CONFIG_SPEC.items():
            if owner:
                owner(**{name: cfg[key]})

    @pytest.mark.parametrize("key", sorted(DERIVED_KEYS))
    def test_train_config_may_not_set_a_derived_key(self, key, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "derived.cfg"
        cfg.write_text(f"epochs = 1\n{key} = 5\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: line 2: {key} is derived by train; a config may not set it\n")
        assert not out.exists()
        assert parse_config_text(f"{key} = 5\n", echo=True)[key] == 5

    @pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
    def test_bad_value_is_a_clean_error(self, key, value, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["learning_rate", "epsilon"])
    def test_rate_float32_rounds_to_zero_is_refused(self, key, corpus_file, tmp_path, capsys):
        """Adagrad runs in float32, where 1e-50 is 0: such a run would train
        nothing, or divide by a zero epsilon, while its echo said 1e-50."""
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"epochs = 1\n{key} = 1e-50\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: line 2: bad value for {key}: {key} must be "
                                       "a normal float32, 1.18e-38 to 3.4e+38: 1e-50\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--rating-weight", "-1"),
                                             ("--retrieval-weight", "nan")])
    def test_bad_weight_override(self, flag, value, corpus_file, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(out), flag, value])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {flag}")
        assert not out.exists()

    def test_zero_weight_flags_are_a_clean_error(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(out),
                   "--rating-weight", "0", "--retrieval-weight", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_zero_weights_in_config_are_a_clean_error(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("rating_weight = 0\nretrieval_weight = 0\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_config_not_utf8_is_a_clean_error(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs = 1\nseed = \xff\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8") and "Traceback" not in err
        assert not out.exists()

    def test_empty_train_partition_refused(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("split_ratio = 0.001\n")  # cut at int(0.15) = 0 of 150
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        assert "empty train partition" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [10**18, 10**15], ids=["too-big-to-index", "no-such-memory"])
    @pytest.mark.parametrize("key", ["embed_dim", "text_hash_buckets"])
    def test_unallocatable_size_is_a_clean_error(self, key, size, corpus_file, tmp_path, capsys):
        """numpy refuses 10**18 as a size it cannot index and 10**15 as
        memory no host has, before touching a page; both are `error:`."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"epochs = 1\n{key} = {size}\n")
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "allocate" in err and "Traceback" not in err
        assert not out.exists()

    def test_k_list_parses(self):
        cfg = parse_config_text("eval_ks = 10, 50,,100\n")
        assert cfg["eval_ks"] == (10, 50, 100)
        assert "eval_ks = 10,50,100\n" in config_echo(cfg)


class TestIngest:
    def test_valid_corpus_passes_through(self, tmp_path, corpus_file):
        out = tmp_path / "clean.jsonl"
        rc = main(["ingest", "--input", str(corpus_file), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 150

    def test_malformed_fails_without_skip(self, tmp_path, corpus_file):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(corpus_file.read_text() + "{not json}\n")
        out = tmp_path / "clean.jsonl"
        assert main(["ingest", "--input", str(bad), "--out", str(out)]) == 1

    def test_skip_malformed_counts(self, tmp_path, corpus_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(corpus_file.read_text() + "{not json}\n")
        out = tmp_path / "clean.jsonl"
        rc = main(["ingest", "--input", str(bad), "--out", str(out), "--skip-malformed"])
        assert rc == 0
        assert "skipped: 1" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 150

    def test_missing_input_file(self, tmp_path):
        rc = main(["ingest", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o.jsonl")])
        assert rc == 1


class TestTrain:
    def test_prints_trace_and_checkpoint(self, corpus_file, config_file, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(config_file),
                   "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "epoch 1 rating" in text
        assert f"checkpoint: {out}" in text
        assert out.exists()

    def test_same_seed_byte_identical(self, corpus_file, config_file, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--corpus", str(corpus_file),
                         "--config", str(config_file), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_weight_flags_change_result(self, corpus_file, config_file, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert main(["train", "--corpus", str(corpus_file), "--config", str(config_file),
                     "--out", str(a)]) == 0
        assert main(["train", "--corpus", str(corpus_file), "--config", str(config_file),
                     "--out", str(b), "--rating-weight", "1.0",
                     "--retrieval-weight", "0.0"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_two_phase_flag(self, corpus_file, config_file, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(config_file),
                   "--out", str(out), "--two-phase"])
        assert rc == 0
        assert out.exists()

    def test_unknown_config_key_aborts(self, corpus_file, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("pochs = 3\n")
        rc = main(["train", "--corpus", str(corpus_file), "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestParserBuiltOnce:
    def test_calls_share_no_state(self, checkpoint_file, corpus_file, tmp_path, capsys):
        """The one parser serves every call: each call's `--k` list is its
        own, after a longer list and before one."""
        assert build_parser() is build_parser()
        for ks in (["1", "3"], ["5"], ["2", "4", "1"]):
            argv = ["evaluate", "--checkpoint", str(checkpoint_file), "--corpus",
                    str(corpus_file), "--report", str(tmp_path / "r.txt")]
            assert main(argv + [a for k in ks for a in ("--k", k)]) == 0
            out = capsys.readouterr().out
            assert [line.split("=")[0] for line in out.splitlines()
                    if line.startswith("top_k.")] == [f"top_k.{k}" for k in sorted(ks)]

    @pytest.mark.parametrize("argv", [["--help"], ["evaluate", "--help"]])
    def test_help_does_not_change(self, argv, capsys):
        """Help from the kept parser, twice, reads as from a fresh one."""
        helps = []
        for parse in (build_parser.__wrapped__().parse_args, main, main):
            with pytest.raises(SystemExit) as exit_:
                parse(argv)
            assert exit_.value.code == 0
            helps.append(capsys.readouterr().out)
        assert "usage: poirec" in helps[0] and helps[1] == helps[0] and helps[2] == helps[0]


class TestEvaluate:
    def test_report_written_and_metrics_printed(self, checkpoint_file, corpus_file,
                                                tmp_path, capsys):
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--checkpoint", str(checkpoint_file),
                   "--corpus", str(corpus_file), "--k", "5", "--report", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rmse=" in out and "top_k.5=" in out
        body = report.read_text()
        assert "rmse=" in body and "top_k.5=" in body

    def test_regeneration_byte_identical(self, checkpoint_file, corpus_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for report in (a, b):
            assert main(["evaluate", "--checkpoint", str(checkpoint_file),
                         "--corpus", str(corpus_file), "--k", "5",
                         "--report", str(report)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ranks_the_checkpoint_candidates(self, checkpoint_file, corpus_file, tmp_path,
                                             capsys):
        """Zeroing the saved candidate embeddings ties every score, so a
        known target at business index t ranks t - 1, and top-K is the share
        of test reviews whose business index is 1..K."""
        tensors, users, businesses, echo = load_checkpoint(checkpoint_file)
        zeroed = tmp_path / "zero.ckpt"
        zero = np.zeros_like(tensors["aux.candidate_embeddings"])
        save_checkpoint(zeroed, {**tensors, "aux.candidate_embeddings": zero}, users,
                        businesses, echo)
        with open(corpus_file, encoding="utf-8") as f:
            corpus = load_corpus(f)
        test = [corpus.records[i] for i in temporal_split(corpus, 0.9).test]
        index = [businesses.lookup(r.business_id) for r in test]
        assert main(["evaluate", "--checkpoint", str(zeroed), "--corpus", str(corpus_file),
                     "--k", "1", "--k", "3", "--k", "5", "--report", str(tmp_path / "r.txt")]) == 0
        out = capsys.readouterr().out
        for k in (1, 3, 5):
            assert f"top_k.{k}={sum(0 < t <= k for t in index) / len(test):.6f}\n" in out

    def test_mnb_section_optional(self, checkpoint_file, corpus_file, tmp_path):
        with_mnb = tmp_path / "a.txt"
        without = tmp_path / "b.txt"
        assert main(["evaluate", "--checkpoint", str(checkpoint_file),
                     "--corpus", str(corpus_file), "--report", str(without)]) == 0
        assert main(["evaluate", "--checkpoint", str(checkpoint_file),
                     "--corpus", str(corpus_file), "--report", str(with_mnb),
                     "--mnb"]) == 0
        assert "confusion." in with_mnb.read_text()
        assert "confusion." not in without.read_text()

    def test_mnb_test_only_bucket_above_every_train_bucket(self, tmp_path):
        """The MNB vocabulary is all mnb_buckets buckets, not those seen in
        training: a test review whose bucket no train review reaches."""
        words = sorted((f"w{i}" for i in range(40)), key=lambda w: hash_token(w, 64))
        low, high = words[:8], words[-1]
        assert hash_token(high, 64) > max(hash_token(w, 64) for w in low)
        base = days_from_date("2016-01-01")
        records = [
            InteractionRecord(user_id=f"u{i % 4}", business_id=f"b{i % 3}", stars=1 + i % 5,
                              text=" ".join(low[i % 8: i % 8 + 3] + ([high] if i >= 36 else [])),
                              date_days=base + i)
            for i in range(40)
        ]
        corpus = tmp_path / "reviews.jsonl"
        corpus.write_text("".join(serialize_record(r) + "\n" for r in records))
        config = tmp_path / "train.cfg"
        config.write_text("embed_dim = 4\nepochs = 1\nmnb_buckets = 64\nsplit_ratio = 0.9\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--corpus", str(corpus), "--config", str(config),
                     "--out", str(ckpt)]) == 0
        report = tmp_path / "report.txt"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--report", str(report), "--mnb"]) == 0
        assert "confusion.micro.support=4" in report.read_text()

    @pytest.mark.parametrize("size", [10**18, 10**15, 2**63, 2**64],
                             ids=["too-big-to-index", "no-such-memory", "2**63", "2**64"])
    def test_unallocatable_mnb_buckets_is_a_clean_error(self, size, corpus_file, tmp_path,
                                                         capsys):
        config = tmp_path / "train.cfg"
        config.write_text(f"embed_dim = 4\nepochs = 1\nmnb_buckets = {size}\n")
        ckpt = tmp_path / "model.ckpt"
        assert main(["train", "--corpus", str(corpus_file), "--config", str(config),
                     "--out", str(ckpt)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(ckpt), "--corpus", str(corpus_file),
                   "--report", str(tmp_path / "r.txt"), "--mnb"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "allocate" in err and "Traceback" not in err

    def test_corrupt_checkpoint_fails_cleanly(self, checkpoint_file, corpus_file,
                                              tmp_path, capsys):
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(checkpoint_file.read_bytes()[:-5])
        rc = main(["evaluate", "--checkpoint", str(broken), "--corpus", str(corpus_file),
                   "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


    def test_non_finite_retrieval_head_fails_cleanly(self, checkpoint_file, corpus_file,
                                                     tmp_path, capsys):
        tensors, users, businesses, echo = load_checkpoint(checkpoint_file)
        tensors = dict(tensors)
        tensors["retrieval_head.user.w"] = tensors["retrieval_head.user.w"].copy()
        tensors["retrieval_head.user.w"][0, 0] = np.nan
        broken = tmp_path / "nan.ckpt"
        save_checkpoint(broken, tensors, users, businesses, echo)
        rc = main(["evaluate", "--checkpoint", str(broken), "--corpus", str(corpus_file),
                   "--report", str(tmp_path / "r.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: non-finite")

    def test_non_finite_rating_head_fails_cleanly(self, checkpoint_file, corpus_file,
                                                  tmp_path, capsys):
        broken = _with_nan(checkpoint_file, tmp_path, "rating_head.w")
        report = tmp_path / "r.txt"
        rc = main(["evaluate", "--checkpoint", str(broken), "--corpus", str(corpus_file),
                   "--report", str(report)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite tensor rating_head.w\n"
        assert captured.out == "" and not report.exists()


def _without(tensors, name):
    return {n: t for n, t in tensors.items() if n != name}


def _with_nan(checkpoint_file, tmp_path, name):
    """A copy of the checkpoint with one NaN in tensor `name`."""
    tensors, users, businesses, echo = load_checkpoint(checkpoint_file)
    tensor = tensors[name].copy()
    tensor.flat[0] = np.nan
    broken = tmp_path / "nan.ckpt"
    save_checkpoint(broken, {**tensors, name: tensor}, users, businesses, echo)
    return broken


# Each fault and the (tensors, echo) -> (tensors, echo) edit that plants it.
SHAPE_FAULTS = {
    "missing-tensor": lambda t, echo: (_without(t, "rating_head.b"), echo),
    "cut-column": lambda t, echo: ({**t, "user_tower.0.w": t["user_tower.0.w"][:, :-1]}, echo),
    "echo-embed-dim": lambda t, echo: (t, echo.replace("embed_dim = 4", "embed_dim = 5")),
    "cut-candidate-rows": lambda t, echo: (
        {**t, "aux.candidate_embeddings": t["aux.candidate_embeddings"][:3]}, echo),
}


class TestCheckpointShapes:
    @pytest.mark.parametrize("fault", list(SHAPE_FAULTS))
    def test_shape_mismatch_is_a_clean_error(self, fault, checkpoint_file, corpus_file,
                                             tmp_path, capsys):
        tensors, users, businesses, echo = load_checkpoint(checkpoint_file)
        assert "embed_dim = 4\n" in echo
        tensors, echo = SHAPE_FAULTS[fault](tensors, echo)
        broken = tmp_path / "broken.ckpt"
        save_checkpoint(broken, tensors, users, businesses, echo)
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        for argv in (["evaluate", "--corpus", str(corpus_file), "--report", str(tmp_path / "r")],
                     ["recommend", "--user-id", user, "--k", "10"]):
            capsys.readouterr()
            assert main([*argv, "--checkpoint", str(broken)]) == 1, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: tensor "), captured.err


class TestRecommend:
    def test_lists_k_businesses(self, checkpoint_file, corpus_file, capsys):
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        rc = main(["recommend", "--checkpoint", str(checkpoint_file),
                   "--user-id", user, "--k", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("1, ")
        for line in lines:
            rank, business, scoretext = [p.strip() for p in line.split(",")]
            float(scoretext)
            assert business  # never the empty out-of-vocabulary id

    def test_scores_descend(self, checkpoint_file, corpus_file, capsys):
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        assert main(["recommend", "--checkpoint", str(checkpoint_file),
                     "--user-id", user, "--k", "5"]) == 0
        scores = [float(line.rsplit(",", 1)[1])
                  for line in capsys.readouterr().out.strip().splitlines()]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_user_fails(self, checkpoint_file, capsys):
        rc = main(["recommend", "--checkpoint", str(checkpoint_file),
                   "--user-id", "no-such-user", "--k", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_score_fails_cleanly(self, checkpoint_file, corpus_file, tmp_path, capsys):
        broken = _with_nan(checkpoint_file, tmp_path, "retrieval_head.user.w")
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        rc = main(["recommend", "--checkpoint", str(broken), "--user-id", user, "--k", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite tensor retrieval_head.user.w\n"
        assert captured.out == ""


    def test_lists_businesses_in_rank_order(self, checkpoint_file, corpus_file, tmp_path,
                                            capsys):
        """The list is the order `retrieval_ranks` counts on the user's
        scores, ties to the lower index, and never the OOV entry, even when
        index 0 scores highest."""
        tensors, users, businesses, echo = load_checkpoint(checkpoint_file)
        cand = tensors["aux.candidate_embeddings"].copy()
        cand[2] = cand[3] = cand[1]  # a three-way tie
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        params, _, space, _ = _load_model(checkpoint_file)
        query = QueryBlock.from_features([QueryFeatures(space.user_vocab.lookup(user))])
        u = forward_users(params, query).out
        s = retrieval_scores(params, u, cand)[0]
        top = np.argmax(np.abs(s))
        cand[0] = 10 * np.sign(s[top]) * cand[1 + top]
        assert (retrieval_project(params, "user", u) @ cand[0])[0] > s.max()
        edited = tmp_path / "edited.ckpt"
        save_checkpoint(edited, {**tensors, "aux.candidate_embeddings": cand}, users,
                        businesses, echo)

        m = len(businesses) - 1
        assert main(["recommend", "--checkpoint", str(edited), "--user-id", user,
                     "--k", str(m + 1)]) == 0
        lines = [line.split(", ") for line in capsys.readouterr().out.splitlines()]
        scores = retrieval_scores(params, u, cand)
        ranks = retrieval_ranks(np.repeat(scores, m, axis=0), np.arange(m))
        assert sorted(ranks.tolist()) == list(range(m))
        want = [businesses.id_of(int(j) + 1) for j in np.argsort(ranks)]
        assert [rank for rank, _, _ in lines] == [str(r) for r in range(1, m + 1)]
        assert [business for _, business, _ in lines] == want

    def test_non_finite_oov_row_fails_like_evaluate(self, checkpoint_file, corpus_file,
                                                    tmp_path, capsys):
        broken = _with_nan(checkpoint_file, tmp_path, "aux.candidate_embeddings")
        assert np.isnan(load_checkpoint(broken)[0]["aux.candidate_embeddings"][0, 0])
        user = json.loads(corpus_file.read_text().splitlines()[0])["user_id"]
        report = tmp_path / "r.txt"
        for argv in (["evaluate", "--corpus", str(corpus_file), "--report", str(report)],
                     ["recommend", "--user-id", user, "--k", "3"]):
            assert main([*argv, "--checkpoint", str(broken)]) == 1, argv[0]
            captured = capsys.readouterr()
            assert captured.err == "error: non-finite tensor aux.candidate_embeddings\n", argv[0]
            assert captured.out == "" and not report.exists()

    def test_non_finite_candidates_fail_with_every_target_cold(self, checkpoint_file,
                                                               corpus_file, tmp_path, capsys):
        """With every test business unseen in training, `evaluate` forms no
        retrieval score, and the NaN is still refused when the checkpoint
        loads."""
        with open(corpus_file, encoding="utf-8") as f:
            corpus = load_corpus(f)
        test = set(temporal_split(corpus, 0.9).test)
        cold = tmp_path / "cold.jsonl"
        cold.write_text("".join(
            serialize_record(replace(r, business_id=f"cold-{i}") if i in test else r) + "\n"
            for i, r in enumerate(corpus.records)))
        report = tmp_path / "r.txt"
        argv = ["evaluate", "--corpus", str(cold), "--report", str(report)]
        assert main([*argv, "--checkpoint", str(checkpoint_file)]) == 0
        assert capsys.readouterr().out.endswith("top_k.100=0.000000\n")  # nothing ranked
        report.unlink()

        broken = _with_nan(checkpoint_file, tmp_path, "aux.candidate_embeddings")
        assert main([*argv, "--checkpoint", str(broken)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: non-finite tensor aux.candidate_embeddings\n"
        assert captured.out == "" and not report.exists()


class TestGradcheck:
    def test_pass_exit_zero(self, capsys):
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == 0
        assert "gradcheck: PASS" in capsys.readouterr().out

    def test_corruption_negative_control(self, capsys, corrupt_gradients):
        corrupt_gradients("rating_head.w")
        rc = main(["gradcheck", "--seed", "0"])
        assert rc == 2
        assert "gradcheck: FAIL on tensor rating_head.w" in capsys.readouterr().err

    # `--corrupt` stands for any unknown option.
    @pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed", "x"],
                                      ["--corrupt", "nosuch"]])
    def test_bad_argument_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[0] in captured.err and "Traceback" not in captured.err


class TestExitCodes:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("k", ["0", "-1", "ten"])
    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    def test_k_must_be_positive(self, command, k, checkpoint_file, corpus_file, tmp_path,
                                capsys):
        argv = {
            "recommend": ["recommend", "--checkpoint", str(checkpoint_file),
                          "--user-id", "u0", "--k", k],
            "evaluate": ["evaluate", "--checkpoint", str(checkpoint_file),
                         "--corpus", str(corpus_file), "--report", str(tmp_path / "r.txt"),
                         "--k", k],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--k" in captured.err and "Traceback" not in captured.err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("command, flag", [("evaluate", "--checkpoint"), ("ingest", "--input"),
                                               ("ingest", "--out"), ("train", "--corpus")])
    def test_unopenable_path_is_a_clean_error(self, command, flag, checkpoint_file, corpus_file,
                                              config_file, tmp_path, capsys):
        """A directory where a file belongs ends in `error:` and exit 1."""
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(checkpoint_file), "--corpus",
                         str(corpus_file), "--report", str(tmp_path / "r.txt")],
            "ingest": ["ingest", "--input", str(corpus_file), "--out", str(tmp_path / "o.jsonl")],
            "train": ["train", "--corpus", str(corpus_file), "--config", str(config_file),
                      "--out", str(tmp_path / "m.ckpt")],
        }[command]
        argv[argv.index(flag) + 1] = str(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["ingest", "train", "evaluate"])
    def test_corpus_not_utf8_is_a_clean_error(self, command, checkpoint_file, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe")
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(checkpoint_file), "--corpus", str(bad),
                         "--report", str(tmp_path / "r.txt")],
            "ingest": ["ingest", "--input", str(bad), "--out", str(tmp_path / "o.jsonl"),
                       "--skip-malformed"],
            "train": ["train", "--corpus", str(bad), "--out", str(tmp_path / "m.ckpt")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err and "Traceback" not in err
        assert not {"r.txt", "m.ckpt"} & {p.name for p in tmp_path.iterdir()}


    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_lone_surrogate_is_a_clean_error(self, command, corpus_file, tmp_path, capsys):
        lines = corpus_file.read_text().splitlines()
        lines[1] = lines[1].replace('"user_id": "', '"user_id": "\\ud800', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        argv = {
            "ingest": ["ingest", "--input", str(bad), "--out", str(tmp_path / "o.jsonl")],
            "train": ["train", "--corpus", str(bad), "--out", str(tmp_path / "m.ckpt")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: line 2: user_id holds a lone UTF-16 surrogate\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_lone_surrogate_is_skippable(self, corpus_file, tmp_path, capsys):
        lines = corpus_file.read_text().splitlines()
        lines[1] = lines[1].replace('"text": "', '"text": "\\udfff', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.jsonl"
        assert main(["ingest", "--input", str(bad), "--out", str(out), "--skip-malformed"]) == 0
        assert "skipped: 1" in capsys.readouterr().out
        assert out.read_text().splitlines() == [lines[0], *lines[2:]]


class TestModuleEntryPoint:
    def run(self, *args):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "poirec", *args], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_help_exits_zero(self):
        proc = self.run("--help")
        assert proc.returncode == 0
        assert "recommend" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        proc = self.run()
        assert proc.returncode == 2
        assert "usage:" in proc.stderr
