"""Synthetic corpora with controllable signal for the ordering experiments."""

from __future__ import annotations

import numpy as np

from poirec.corpus import Corpus, InteractionRecord, date_from_days, days_from_date

_TOPIC_TOKENS = [
    ["sushi", "ramen", "noodle", "tempura", "miso", "wasabi"],
    ["burger", "fries", "shake", "grill", "bacon", "bun"],
    ["espresso", "latte", "pastry", "croissant", "brew", "roast"],
    ["salad", "vegan", "quinoa", "kale", "tofu", "smoothie"],
]
_FILLER = ["place", "service", "staff", "visit", "time", "really", "again"]


def latent_factor_corpus(
    n_users: int = 200,
    n_businesses: int = 100,
    n_events: int = 4000,
    seed: int = 0,
    dim: int = 4,
) -> Corpus:
    """Ratings and visit choices driven by shared user/item latent factors.

    Visit probability is a softmax over user-item affinity; the rating is
    an affine map of the same affinity plus noise, clipped to [1,5].
    """
    rng = np.random.default_rng(seed)
    users = rng.normal(size=(n_users, dim)) / np.sqrt(dim)
    items = rng.normal(size=(n_businesses, dim)) / np.sqrt(dim)
    affinity = users @ items.T  # [n_users, n_businesses]
    choice = np.exp(3.0 * affinity)
    choice /= choice.sum(axis=1, keepdims=True)
    base = days_from_date("2015-01-01")
    records = []
    for t in range(n_events):
        u = int(rng.integers(0, n_users))
        b = int(rng.choice(n_businesses, p=choice[u]))
        raw = 3.0 + 2.0 * affinity[u, b] + rng.normal(scale=0.5)
        stars = int(np.clip(round(raw), 1, 5))
        records.append(
            InteractionRecord(
                user_id=f"u{u}",
                business_id=f"b{b}",
                stars=stars,
                text="",
                date_days=base + int(rng.integers(0, 4 * 365)),
            )
        )
    return Corpus(records=tuple(records))


_SEASON_TOKENS = ("fireplace", "patio")  # winter type, summer type


def feature_signal_corpus(
    n_users: int = 100,
    n_businesses: int = 400,
    n_events: int = 2500,
    seed: int = 0,
    choice_topic: float = 2.0,
    choice_season: float = 1.5,
    rating_topic: float = 1.5,
    rating_season: float = 1.5,
    rating_trend: float = 1.0,
    noise: float = 0.35,
) -> Corpus:
    """Preference signal carried by review tokens and by the month.

    Each business has a topic and a season type, both visible only through
    its review tokens; each user prefers one topic. Ratings and visit
    choices reward topic match always and season match in matching months.
    With ~6 events per business the id embeddings alone stay data-starved:
    text reveals the topic/season type and the date reveals the month.
    """
    rng = np.random.default_rng(seed)
    n_topics = len(_TOPIC_TOKENS)
    biz_topic = rng.integers(0, n_topics, size=n_businesses)
    biz_season = rng.integers(0, 2, size=n_businesses)  # 0 winter, 1 summer
    user_topic = rng.integers(0, n_topics, size=n_users)
    # Reviews of one business always use the same descriptor text, so the
    # text channel carries the business's type and nothing pair-specific.
    biz_text = [
        " ".join(list(_TOPIC_TOKENS[biz_topic[b]]) + [_SEASON_TOKENS[biz_season[b]]])
        for b in range(n_businesses)
    ]
    base = days_from_date("2015-01-01")
    records = []
    for t in range(n_events):
        u = int(rng.integers(0, n_users))
        day = base + int(rng.integers(0, 4 * 365))
        month = date_from_days(day).month
        summer = 1 if 5 <= month <= 9 else 0
        topic_match = (biz_topic == user_topic[u]).astype(float)
        season_match = (biz_season == summer).astype(float)
        logits = choice_topic * topic_match + choice_season * season_match
        prob = np.exp(logits)
        prob /= prob.sum()
        b = int(rng.choice(n_businesses, p=prob))
        raw = (
            1.2
            + rating_topic * topic_match[b]
            + rating_season * season_match[b]
            + rating_trend * (day - base) / (4 * 365)  # slow rating inflation
            + rng.normal(scale=noise)
        )
        stars = int(np.clip(round(raw), 1, 5))
        records.append(
            InteractionRecord(
                user_id=f"u{u}",
                business_id=f"b{b}",
                stars=stars,
                text=biz_text[b],
                date_days=day,
            )
        )
    return Corpus(records=tuple(records))
