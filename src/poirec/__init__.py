"""Two-tower multi-task point-of-interest recommender."""

from .corpus import (
    Corpus,
    InteractionRecord,
    TemporalSplit,
    corpus_stats,
    load_corpus,
    parse_record,
    temporal_split,
)
from .features import (
    CandidateFeatures,
    FeatureConfig,
    FeatureSpace,
    QueryFeatures,
    Vocabulary,
)
from .model import ModelParams, init_params, location_encode, score, score_all, user_encode
from .training import (
    AdagradState,
    Batch,
    LossWeights,
    TrainConfig,
    adagrad_step,
    gradients,
    joint_loss,
    rating_loss,
    retrieval_log_prob,
    retrieval_loss,
    train,
    two_phase_train,
)
from .evaluation import (
    ConfusionMatrix,
    EvalConfig,
    MetricsReport,
    confusion_matrix,
    evaluate,
    mnb_predict,
    mnb_train,
    rmse,
    top_k_accuracy,
)

__version__ = "0.1.0"
