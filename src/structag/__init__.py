"""Slot tagging with parse-guided structural attention.

End-to-end differentiable tagger: sentences and their parse
substructures are encoded with shared weights, an attention step picks
out the substructures that matter, and the blended knowledge vector
feeds every step of a recurrent tagger.
"""

from .attention import (KnowledgeMemory, build_attention_record,
                        knowledge_representation)
from .autodiff import Tensor
from .corpus import (Utterance, Vocabulary, fractional_split, load_corpus,
                     split_dev, validate_iob)
from .errors import (CheckpointError, ConfigError, CorpusFormatError,
                     DataError, DimensionError, ParseFileError, StructagError,
                     TrainingDivergedError)
from .evaluator import evaluate, extract_chunks, format_report
from .knowledge import (KnowledgeParse, Substructure, extract_substructures,
                        load_amr, load_dependency, substructure_stats,
                        substructures_with_fallback)
from .model import SlotModel
from .seeding import derive_seed
from .synthetic import SyntheticConfig, generate
from .trainer import (AdamOptimizer, TrainConfig, TrainResult, evaluate_model,
                      load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "AdamOptimizer", "CheckpointError", "ConfigError", "CorpusFormatError",
    "DataError", "DimensionError", "KnowledgeMemory", "KnowledgeParse",
    "ParseFileError", "SlotModel", "StructagError", "Substructure",
    "SyntheticConfig", "Tensor", "TrainConfig", "TrainResult",
    "TrainingDivergedError", "Utterance", "Vocabulary", "build_attention_record",
    "derive_seed", "evaluate", "evaluate_model", "extract_chunks",
    "extract_substructures", "format_report", "fractional_split", "generate",
    "knowledge_representation", "load_amr", "load_checkpoint", "load_corpus",
    "load_dependency", "save_checkpoint", "split_dev", "substructure_stats",
    "substructures_with_fallback", "train", "validate_iob",
]
