"""Lexical and embedding feature vectors for memory descriptions.

Both feature families run the shared front end (preprocess, tokenize) and
average word-level resource vectors. One lookup rule serves every word table:
a word token is looked up as itself and, only when that misses, as its lemma.
Out-of-vocabulary tokens are skipped; a resource matching no token at all
contributes a zero block, and per-resource blocks are concatenated in load
order. The rule scorer's four document scores are appended after the lexicon
blocks, so with the bundled suite the lexical vector is 130-dimensional and
the embedding vector 500-dimensional.
`TextFeatureExtractor.extract` tokenizes a text once and hands the tokens to
both families and to the rule scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lexicon import EmbeddingTable, Lexicon, TextResources
from .preprocess import Token, lemmatize, preprocess, tokenize
from .sentiment import RuleScorer

__all__ = ["TextFeatures", "lexical_features", "embed_features", "TextFeatureExtractor"]


@dataclass(frozen=True)
class TextFeatures:
    lexical: np.ndarray
    embedding: np.ndarray
    lexical_coverage: float
    embedding_coverage: float


def _word_pairs(tokens: list[Token]) -> list[tuple[str, str]]:
    """(token, lemma) pairs for the word-like tokens."""
    return [(str(t), lemmatize(str(t))) for t in tokens if t.is_word()]


def _token_means(
    pairs: list[tuple[str, str]], resources: Sequence[Lexicon | EmbeddingTable], what: str
) -> tuple[np.ndarray, float]:
    """Concatenated per-resource token means, and the coverage of the tokens.

    Applies the lookup rule to each resource's `entries`; a resource matching
    no token contributes a zero block of its width. Coverage is the fraction
    of word tokens found in at least one resource.
    """
    if not resources:
        raise ValueError(f"no {what} loaded")
    blocks = []
    matched = [False] * len(pairs)
    for resource in resources:
        entries = resource.entries
        hits = []
        for i, (token, lemma) in enumerate(pairs):
            vec = entries.get(token)
            if vec is None:
                vec = entries.get(lemma)
            if vec is not None:
                hits.append(vec)
                matched[i] = True
        blocks.append(np.mean(hits, axis=0) if hits else np.zeros(resource.width))
    coverage = (sum(matched) / len(pairs)) if pairs else 0.0
    return np.concatenate(blocks), coverage


def _lexical(
    tokens: list[Token],
    pairs: list[tuple[str, str]],
    lexicons: Sequence[Lexicon],
    scorer: RuleScorer,
) -> tuple[np.ndarray, float]:
    means, coverage = _token_means(pairs, lexicons, "lexicons")
    scores = np.asarray(scorer.score_tokens(tokens).as_tuple(), dtype=float)
    return np.concatenate([means, scores]), coverage


def lexical_features(
    text: str, lexicons: Sequence[Lexicon], scorer: RuleScorer
) -> tuple[np.ndarray, float]:
    """Concatenated per-lexicon token means plus the rule-scorer block.

    Coverage is the fraction of word tokens found in at least one lexicon.
    """
    tokens = tokenize(preprocess(text))
    return _lexical(tokens, _word_pairs(tokens), lexicons, scorer)


def embed_features(
    text: str, tables: Sequence[EmbeddingTable]
) -> tuple[np.ndarray, float]:
    """Concatenated per-table token means; zero block for unmatched tables."""
    return _token_means(_word_pairs(tokenize(preprocess(text))), tables, "embedding tables")


class TextFeatureExtractor:
    """Binds a loaded resource suite and produces `TextFeatures` per text."""

    def __init__(self, resources: TextResources):
        self.resources = resources

    def extract(self, text: str) -> TextFeatures:
        tokens = tokenize(preprocess(text))
        pairs = _word_pairs(tokens)
        lexical, lex_cov = _lexical(
            tokens, pairs, self.resources.lexicons, self.resources.scorer
        )
        embedding, emb_cov = _token_means(pairs, self.resources.embeddings, "embedding tables")
        return TextFeatures(
            lexical=lexical,
            embedding=embedding,
            lexical_coverage=lex_cov,
            embedding_coverage=emb_cov,
        )
