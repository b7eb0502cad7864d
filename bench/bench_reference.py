"""Independent reference for the benchmark's output checks.

Nothing here imports poirec. The checkpoint is parsed from the layout in
`checkpoint.py`'s docstring, features are rebuilt from the generator's own
token ids, and the forward pass follows the architecture in `model.py`'s
docstring, in float64:

    user tower:     [user_table[u], date(3)]        -> relu(2k) -> k
    business tower: [business_table[b], pooled(k)]  -> relu(2k) -> k
    rating:         (u * v) @ rating_head.w + rating_head.b
    retrieval:      (u @ W_user + b_user) . (v @ W_item + b_item)

`pooled` is the count-weighted mean of the text-bucket rows of a review's
tokens (FNV-1a 64-bit of the UTF-8 token, modulo the bucket count), or of
all train reviews of a business for retrieval candidates; zero without text.

poirec computes in float32, so every comparison has a tolerance, and a
rank that a float32 rounding could flip counts as ambiguous.
"""

from __future__ import annotations

import datetime
import math
import struct
from dataclasses import dataclass

import numpy as np

from bench_synth import SynthCorpus

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_EPOCH = datetime.date(1970, 1, 1)
_TOWER = ("0.w", "0.b", "1.w", "1.b")

SCORE_RTOL = 1e-5  # float32 scores vs float64 reference, relative to the score scale


def fnv1a(token: str, buckets: int) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) % (1 << 64)
    return h % buckets


# ---------------------------------------------------------------------------
# Checkpoint.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: dict[str, str]
    user_ids: list[str]
    business_ids: list[str]
    tensors: dict[str, np.ndarray]  # float32, as stored

    def flag(self, key: str) -> bool:
        return self.config[key] == "true"


def read_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        data = f.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ValueError("checkpoint truncated")
        pos += n
        return data[pos - n : pos]

    def u32() -> int:
        return struct.unpack("<I", take(4))[0]

    def text() -> str:
        return take(u32()).decode("utf-8")

    if take(7) != b"POITWR\x01":
        raise ValueError("bad checkpoint magic or version")
    config = {}
    for line in text().splitlines():
        key, value = line.split(" = ", 1)
        config[key] = value
    vocabs = [[text() for _ in range(u32())] for _ in range(2)]
    tensors = {}
    for _ in range(u32()):
        name = text()
        shape = tuple(u32() for _ in range(u32()))
        count = int(np.prod(shape)) if shape else 1
        tensors[name] = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape)
    if pos != len(data):
        raise ValueError("trailing bytes in checkpoint")
    return Checkpoint(config, vocabs[0], vocabs[1], tensors)


# ---------------------------------------------------------------------------
# Split and features.
# ---------------------------------------------------------------------------


@dataclass
class Split:
    train: np.ndarray  # record positions, in (date, position) order
    test: np.ndarray


def temporal_split(corpus: SynthCorpus, ratio: float) -> Split:
    order = np.argsort(corpus.days, kind="stable")
    cut = int(ratio * len(order))
    return Split(order[:cut], order[cut:])


def month_of(days: np.ndarray) -> np.ndarray:
    return np.array([(_EPOCH + datetime.timedelta(days=int(d))).month for d in days])


def date_features(days: np.ndarray, lo: int, hi: int) -> np.ndarray:
    if hi > lo:
        frac = np.clip((days - lo) / (hi - lo), 0.0, 1.0)
    else:
        frac = np.full(len(days), 0.5)
    angle = 2.0 * math.pi * (month_of(days) - 1) / 12.0
    return np.stack([frac, np.sin(angle), np.cos(angle)], axis=1)


class Reference:
    """Float64 forward pass over one checkpoint and one generated corpus."""

    def __init__(self, ckpt: Checkpoint, corpus: SynthCorpus, split: Split):
        self.ckpt = ckpt
        self.corpus = corpus
        self.split = split
        self.t = {n: a.astype(np.float64) for n, a in ckpt.tensors.items()}
        self.k = int(ckpt.config["embed_dim"])
        self.use_text = ckpt.flag("use_text")
        self.use_date = ckpt.flag("use_date")
        self.date_lo = int(ckpt.config["date_min"])
        self.date_hi = int(ckpt.config["date_max"])
        user_index = {name: i for i, name in enumerate(ckpt.user_ids) if i}
        business_index = {name: i for i, name in enumerate(ckpt.business_ids) if i}
        # Vocabulary index of each generated id; 0 (OOV) when not in train.
        self.user_of = np.array([user_index.get(n, 0) for n in corpus.user_names])
        self.business_of = np.array([business_index.get(n, 0) for n in corpus.business_names])
        if self.use_text:
            buckets = int(ckpt.config["text_hash_buckets"])
            self.word_bucket = np.array([fnv1a(w, buckets) for w in corpus.words])

    # -- features -----------------------------------------------------------

    def query_input(self, records: np.ndarray) -> np.ndarray:
        users = self.t["user_table"][self.user_of[self.corpus.user[records]]]
        date = np.zeros((len(records), 3))
        if self.use_date:
            date = date_features(self.corpus.days[records], self.date_lo, self.date_hi)
        return np.concatenate([users, date], axis=1)

    def _review_text_sums(self, records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-review sums of text rows and token counts, in chunks."""
        c = self.corpus
        sums = np.zeros((len(records), self.k))
        lengths = (c.tok_indptr[records + 1] - c.tok_indptr[records]).astype(np.float64)
        table = self.t["text_table"]
        for lo in range(0, len(records), 1024):
            chunk = records[lo : lo + 1024]
            starts = c.tok_indptr[chunk]
            ends = c.tok_indptr[chunk + 1]
            idx = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)])
            rows = table[self.word_bucket[c.tok_ids[idx]]]
            offsets = np.concatenate([[0], np.cumsum(ends - starts)[:-1]])
            sums[lo : lo + len(chunk)] = np.add.reduceat(rows, offsets, axis=0)
        return sums, lengths

    def review_candidate_input(self, records: np.ndarray) -> np.ndarray:
        """Business tower input with each review's own text (rating path)."""
        biz = self.t["business_table"][self.business_of[self.corpus.business[records]]]
        pooled = np.zeros((len(records), self.k))
        if self.use_text:
            sums, lengths = self._review_text_sums(records)
            has = lengths > 0
            pooled[has] = sums[has] / lengths[has, None]
        return np.concatenate([biz, pooled], axis=1)

    def corpus_candidate_input(self) -> np.ndarray:
        """Business tower input for every vocabulary business (retrieval)."""
        n_biz = len(self.ckpt.business_ids)
        pooled = np.zeros((n_biz, self.k))
        if self.use_text:
            train = self.split.train
            sums, lengths = self._review_text_sums(train)
            index = self.business_of[self.corpus.business[train]]
            totals = np.zeros(n_biz)
            np.add.at(pooled, index, sums)
            np.add.at(totals, index, lengths)
            has = totals > 0
            pooled[has] /= totals[has, None]
        return np.concatenate([self.t["business_table"], pooled], axis=1)

    # -- forward ------------------------------------------------------------

    def tower(self, prefix: str, x: np.ndarray) -> np.ndarray:
        w0, b0, w1, b1 = (self.t[f"{prefix}.{p}"] for p in _TOWER)
        return np.maximum(x @ w0 + b0, 0.0) @ w1 + b1

    def retrieval(self, side: str, out: np.ndarray) -> np.ndarray:
        return out @ self.t[f"retrieval_head.{side}.w"] + self.t[f"retrieval_head.{side}.b"]

    def rating(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return ((u * v) @ self.t["rating_head.w"] + self.t["rating_head.b"])[:, 0]

    def candidate_embeddings(self) -> np.ndarray:
        return self.retrieval("item", self.tower("business_tower", self.corpus_candidate_input()))

    def test_rmse(self) -> float:
        test = self.split.test
        u = self.tower("user_tower", self.query_input(test))
        v = self.tower("business_tower", self.review_candidate_input(test))
        err = self.rating(u, v) - self.corpus.stars[test]
        return float(np.sqrt(np.mean(err**2)))


# ---------------------------------------------------------------------------
# Top-K accuracy with ties counted as ambiguous.
# ---------------------------------------------------------------------------


@dataclass
class HitRange:
    certain: int  # hits under any float32 rounding of the scores
    ambiguous: int  # queries whose hit depends on that rounding

    def accepts(self, hits: int) -> bool:
        return self.certain <= hits <= self.certain + self.ambiguous


@dataclass
class TopKReference:
    n_test: int
    cold_start_businesses: int  # test targets outside the train vocabulary
    cold_start_users: int
    ranked_oov: dict[int, HitRange]  # OOV index 0 ranked, cold-start target can hit
    cold_miss: dict[int, HitRange]  # OOV not ranked, cold-start targets are misses

    def accepts(self, k: int, hits: int) -> bool:
        return self.ranked_oov[k].accepts(hits) or self.cold_miss[k].accepts(hits)


def _hit_range(above_lo: np.ndarray, above_hi: np.ndarray, k: int, valid: np.ndarray) -> HitRange:
    certain = valid & (above_hi < k)
    possible = valid & (above_lo < k)
    return HitRange(int(certain.sum()), int((possible & ~certain).sum()))


def top_k_reference(ref: Reference, ks: list[int]) -> TopKReference:
    test = ref.split.test
    cand = ref.candidate_embeddings()
    true = ref.business_of[ref.corpus.business[test]]
    user = ref.user_of[ref.corpus.user[test]]
    n = len(test)
    # Candidates ranked strictly above the target: at least `lo`, at most `hi`.
    lo = {rule: np.zeros(n, dtype=np.int64) for rule in ("ranked", "cold")}
    hi = {rule: np.zeros(n, dtype=np.int64) for rule in ("ranked", "cold")}
    for start in range(0, n, 512):
        rows = slice(start, start + 512)
        q = ref.retrieval("user", ref.tower("user_tower", ref.query_input(test[rows])))
        scores = q @ cand.T
        t = true[rows]
        s_true = scores[np.arange(len(t)), t][:, None]
        tol = SCORE_RTOL * (1.0 + np.abs(scores).max(axis=1, keepdims=True))
        surely_above = scores > s_true + tol
        maybe_above = scores >= s_true - tol
        maybe_above[np.arange(len(t)), t] = False
        for rule, first in (("ranked", 0), ("cold", 1)):
            lo[rule][rows] = surely_above[:, first:].sum(axis=1)
            hi[rule][rows] = maybe_above[:, first:].sum(axis=1)
    warm = true != 0
    everyone = np.ones(n, dtype=bool)
    return TopKReference(
        n_test=n,
        cold_start_businesses=int((~warm).sum()),
        cold_start_users=int((user == 0).sum()),
        ranked_oov={k: _hit_range(lo["ranked"], hi["ranked"], k, everyone) for k in ks},
        cold_miss={k: _hit_range(lo["cold"], hi["cold"], k, warm) for k in ks},
    )


# ---------------------------------------------------------------------------
# recommend.
# ---------------------------------------------------------------------------


class RecommendReference:
    """Expected `poirec recommend` output: retrieval scores with zero date
    slots against every vocabulary business except OOV index 0."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.cand = ref.candidate_embeddings()
        self.user_index = {n: i for i, n in enumerate(ref.ckpt.user_ids) if i}
        self.business_index = {n: i for i, n in enumerate(ref.ckpt.business_ids) if i}

    def scores(self, user_name: str) -> np.ndarray:
        ref = self.ref
        x = np.concatenate([ref.t["user_table"][self.user_index[user_name]], np.zeros(3)])[None, :]
        scores = (ref.retrieval("user", ref.tower("user_tower", x)) @ self.cand.T)[0]
        scores[0] = -np.inf  # OOV is not a business
        return scores

    def check(self, lines: list[str], user_name: str, k: int) -> str | None:
        """None when the output is right, else the reason it is not."""
        if user_name not in self.user_index:
            return f"user {user_name} not in the checkpoint vocabulary"
        scores = self.scores(user_name)
        want = min(k, len(scores) - 1)
        if len(lines) != want:
            return f"{len(lines)} lines, want {want}"
        got_ids, got_scores = [], []
        for rank, line in enumerate(lines, start=1):
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3 or parts[0] != str(rank):
                return f"bad line {line!r}"
            if parts[1] not in self.business_index:
                return f"{parts[1]!r} is not a vocabulary business"
            got_ids.append(self.business_index[parts[1]])
            got_scores.append(float(parts[2]))
        if len(set(got_ids)) != len(got_ids):
            return "repeated business"
        if any(b > a for a, b in zip(got_scores, got_scores[1:])):
            return "scores increase"
        tol = SCORE_RTOL * (1.0 + np.abs(scores[1:]).max()) + 1e-6
        if np.abs(np.array(got_scores) - scores[got_ids]).max() > tol:
            return "printed scores differ from the reference"
        kth = np.sort(scores)[::-1][want - 1]
        if scores[got_ids].min() < kth - tol:
            return "a business outside the reference top-k"
        if not set(np.flatnonzero(scores > kth + tol).tolist()) <= set(got_ids):
            return "a reference top-k business is missing"
        return None


# ---------------------------------------------------------------------------
# Loss and central differences.
# ---------------------------------------------------------------------------


@dataclass
class GradBatch:
    """A small batch in reference form (float64 inputs, index arrays)."""

    user: np.ndarray  # [n] vocabulary indices
    date: np.ndarray  # [n, 3]
    pair_business: np.ndarray  # [n]
    pair_text: list[dict[int, int]]  # bucket -> count per pair candidate
    labels: np.ndarray  # [n]
    softmax_business: np.ndarray  # [m]
    softmax_text: list[dict[int, int]]
    true: np.ndarray  # [n] positions in the softmax set


def _pool(t: dict[str, np.ndarray], texts: list[dict[int, int]], k: int) -> np.ndarray:
    out = np.zeros((len(texts), k))
    if "text_table" not in t:
        return out
    for i, counts in enumerate(texts):
        total = sum(counts.values())
        if total:
            for bucket, c in counts.items():
                out[i] += c * t["text_table"][bucket]
            out[i] /= total
    return out


def reference_loss(
    t: dict[str, np.ndarray], b: GradBatch, k: int, rating_w: float, retrieval_w: float
) -> tuple[float, list[np.ndarray]]:
    """Joint loss and every hidden preactivation (for kink detection)."""
    pre = []

    def tower(prefix, x):
        w0, b0, w1, b1 = (t[f"{prefix}.{p}"] for p in _TOWER)
        h = x @ w0 + b0
        pre.append(h)
        return np.maximum(h, 0.0) @ w1 + b1

    xu = np.concatenate([t["user_table"][b.user], b.date], axis=1)
    u = tower("user_tower", xu)
    loss = 0.0
    if rating_w:
        xp = np.concatenate([t["business_table"][b.pair_business], _pool(t, b.pair_text, k)], axis=1)
        v = tower("business_tower", xp)
        pred = ((u * v) @ t["rating_head.w"] + t["rating_head.b"])[:, 0]
        loss += rating_w * float(np.mean((pred - b.labels) ** 2))
    if retrieval_w:
        xs = np.concatenate(
            [t["business_table"][b.softmax_business], _pool(t, b.softmax_text, k)], axis=1
        )
        vs = tower("business_tower", xs)
        ur = u @ t["retrieval_head.user.w"] + t["retrieval_head.user.b"]
        vr = vs @ t["retrieval_head.item.w"] + t["retrieval_head.item.b"]
        s = ur @ vr.T
        m = s.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(s - m).sum(axis=1))
        loss += retrieval_w * float(np.mean(lse - s[np.arange(len(s)), b.true]))
    return loss, pre


def _touched(name: str, b: GradBatch) -> np.ndarray | None:
    """Rows of an embedding table the batch reads (others have zero gradient)."""
    if name == "user_table":
        return np.unique(b.user)
    if name == "business_table":
        return np.unique(np.concatenate([b.pair_business, b.softmax_business]))
    if name == "text_table":
        return np.array(sorted({k for d in b.pair_text + b.softmax_text for k in d}))
    return None


@dataclass
class GradCheck:
    checked: int = 0
    skipped_kinks: int = 0
    worst: float = 0.0
    worst_tensor: str = ""
    failures: int = 0


def central_difference_check(
    t: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    b: GradBatch,
    k: int,
    rating_w: float,
    retrieval_w: float,
    rng: np.random.Generator,
    per_tensor: int = 3,
    step: float = 1e-5,
) -> GradCheck:
    """Compare sampled analytic gradient entries with central differences.

    A coordinate whose perturbation flips any rectifier is skipped: the
    loss has a kink there and a finite difference does not estimate the
    gradient.
    """
    result = GradCheck()
    _, base_pre = reference_loss(t, b, k, rating_w, retrieval_w)
    base_masks = [p > 0 for p in base_pre]
    for name in sorted(t):
        tensor = t[name]
        rows = _touched(name, b)
        if rows is not None and rows.size:
            flat = [int(r) * tensor.shape[1] + int(c)
                    for r, c in zip(rng.choice(rows, per_tensor), rng.integers(0, tensor.shape[1], per_tensor))]
        else:
            flat = rng.integers(0, tensor.size, per_tensor).tolist()
        view = tensor.reshape(-1)
        for i in flat:
            orig = view[i]
            view[i] = orig + step
            up, pre_up = reference_loss(t, b, k, rating_w, retrieval_w)
            view[i] = orig - step
            down, pre_down = reference_loss(t, b, k, rating_w, retrieval_w)
            view[i] = orig
            kink = any(
                not np.array_equal(m, p > 0) or not np.array_equal(m, q > 0)
                for m, p, q in zip(base_masks, pre_up, pre_down)
            )
            if kink:
                result.skipped_kinks += 1
                continue
            numeric = (up - down) / (2.0 * step)
            g = float(analytic[name].reshape(-1)[i])
            err = abs(g - numeric) / max(abs(g), abs(numeric), 1e-2)
            result.checked += 1
            if err > result.worst:
                result.worst, result.worst_tensor = err, name
            if abs(g - numeric) > 1e-7 + 1e-4 * max(abs(g), abs(numeric)):
                result.failures += 1
    return result
