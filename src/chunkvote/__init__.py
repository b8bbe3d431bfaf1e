"""Chunking by combining taggers.

Text chunks are encoded as per-token tags, learned by five simple
tagging models, combined by weighted voting or stacking, scored at the
chunk level and, for nested structure, parsed bottom-up by repeated
flat chunking.

The names below load their module on first use (PEP 562), so that
``import chunkvote`` loads no submodule and a command line call loads
only the modules its subcommand runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": """PAD PLACEHOLDER_WORD ChunkSpan Corpus NestedSentence Sentence TagScheme
        Token convert_scheme extract_chunks parse_conll parse_nested properly_nested
        scheme_violation strip_tags tag_parts tags_from_chunks validate_corpus with_tags
        write_conll write_nested""",
    "errors": """AlignmentError ChunkvoteError ConfigError ParseError TrainingError
        ValidationError""",
    "metrics": """Counts EvalReport f_beta format_report format_report_kv score_chunks
        score_nested score_tagged""",
    "features": "Dataset WindowConfig corpus_to_dataset make_features",
    "learners": """LEARNER_KINDS IGTreeModel KnnModel LearnerSpec MaxEntModel RuleSetModel
        predict_igtree predict_knn predict_maxent predict_rules tag_sentence train_baseline
        train_igtree train_knn train_maxent train_rules""",
    "model_io": "dumps_model loads_model",
    "ensemble": """VOTING_METHODS CombinerWeights PredictionRow PredictionTable best_n_select
        combine_bracket_sentence combine_corpus cv_tuning_table estimate_weights from_corpora
        read_table read_weights stacked_corpus stacked_train vote write_table write_weights""",
    "cascade": "cascade_bracket cascade_training_corpus",
}
# The one name -> module table the exports are read from.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF, key=str.lower)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
