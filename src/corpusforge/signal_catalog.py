"""Catalog of every signal the pipeline can emit and of its shape.

Annotate emits exactly these names, and rule compilation validates
against them, so a typo in a config fails at compile time with the list
of known names.
"""

from __future__ import annotations

CCNET_SIGNALS = (
    "ccnet_bucket",
    "ccnet_language_score",
    "ccnet_length",
    "ccnet_nlines",
    "ccnet_original_length",
    "ccnet_original_nlines",
    "ccnet_perplexity",
)

NATLANG_SIGNALS = (
    "rps_doc_curly_bracket",
    "rps_doc_frac_all_caps_words",
    "rps_doc_frac_lines_end_with_ellipsis",
    "rps_doc_frac_no_alph_words",
    "rps_doc_lorem_ipsum",
    "rps_doc_mean_word_length",
    "rps_doc_stop_word_fraction",
    "rps_doc_symbol_to_word_ratio",
    "rps_doc_frac_unique_words",
    "rps_doc_unigram_entropy",
    "rps_doc_word_count",
    "rps_doc_num_sentences",
    # extensions needed by the Gopher and custom-rules presets
    "rps_doc_stop_word_count",
    "rps_doc_mean_line_length",
)

REPETITION_SIGNALS = (
    "rps_doc_frac_chars_dupe_5grams",
    "rps_doc_frac_chars_dupe_6grams",
    "rps_doc_frac_chars_dupe_7grams",
    "rps_doc_frac_chars_dupe_8grams",
    "rps_doc_frac_chars_dupe_9grams",
    "rps_doc_frac_chars_dupe_10grams",
    "rps_doc_frac_chars_top_2gram",
    "rps_doc_frac_chars_top_3gram",
    "rps_doc_frac_chars_top_4gram",
)

CONTENT_SIGNALS = (
    "rps_doc_ldnoobw_words",
    "rps_doc_ut1_blacklist",
)

# Each model signal -> the key of its model under models.importance
# (a target/source pair) or models.classifiers
IMPORTANCE_SIGNALS = {
    "rps_doc_books_importance": "books",
    "rps_doc_openwebtext_importance": "openwebtext",
    "rps_doc_wikipedia_importance": "wikipedia",
}

CLASSIFIER_SIGNALS = {
    "rps_doc_ml_wikiref_score": "wikiref",
    "rps_doc_ml_palm_score": "palm",
    "rps_doc_ml_wikipedia_score": "wikipedia",
}

ML_SIGNALS = (*IMPORTANCE_SIGNALS, *CLASSIFIER_SIGNALS)

# Per-line signals; note the vendored spelling of the terminal
# punctuation tag, kept for compatibility with the published catalog.
LINE_SIGNALS = (
    "rps_lines_ending_with_terminal_punctution_mark",
    "rps_lines_javascript_counts",
    "rps_lines_num_words",
    "rps_lines_numerical_chars_fraction",
    "rps_lines_start_with_bulletpoint",
    "rps_lines_uppercase_letter_fraction",
)

CODE_SIGNALS = (
    "rps_code_max_line_length",
    "rps_code_avg_line_length",
    "rps_code_alnum_prop",
    "rps_code_alpha_token_ratio",
    "rps_code_extension_ok",
)

SIGNAL_GROUPS = {
    "ccnet": CCNET_SIGNALS,
    "natlang": NATLANG_SIGNALS,
    "repetition": REPETITION_SIGNALS,
    "content": CONTENT_SIGNALS,
    "ml": ML_SIGNALS,
    "lines": LINE_SIGNALS,
    "code": CODE_SIGNALS,
}

ALL_SIGNALS = frozenset(n for group in SIGNAL_GROUPS.values() for n in group)

# Signals whose score encodes a category id and may legitimately carry
# zero or several document-level triples.
CATEGORICAL_SIGNALS = frozenset({"rps_doc_ut1_blacklist"})
