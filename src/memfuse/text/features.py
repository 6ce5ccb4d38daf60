"""Lexical and embedding feature vectors for memory descriptions.

Both feature families run the shared front end (preprocess, tokenize) and
average word-level resource vectors. One lookup rule serves every word table:
a word token is looked up as itself and, only when that misses, as its lemma.
Out-of-vocabulary tokens are skipped; a resource matching no token at all
contributes a zero block, and per-resource blocks are concatenated in load
order. The rule scorer's four document scores are appended after the lexicon
blocks, so with the bundled suite the lexical vector is 130-dimensional and
the embedding vector 500-dimensional.

The rule runs through a word index built once from the tables (`_WordIndex`):
for every word of any table, its row in each table's packed `vectors` under
the rule (-1 on a miss). A token of that vocabulary then costs one dict
lookup for all tables; only a token outside it is lemmatized, and it can only
match through its lemma. A table's block is the mean of its hit rows taken
from `vectors`, the same reduction over the same array that `np.mean` of the
list of hit vectors runs. The index holds the tables' vocabulary and nothing
per text or token, so its size does not grow with the texts it serves.

`TextFeatureExtractor` builds one index over its lexicons and embedding
tables and tokenizes a text once for both families and the rule scorer;
`lexical_features` and `embed_features` build an index for the tables they
are given on each call.
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


def _loaded(tables: Sequence[Lexicon | EmbeddingTable], what: str):
    if not tables:
        raise ValueError(f"no {what} loaded")
    return tables


class _WordIndex:
    """Each vocabulary word's row in the packed `vectors` of every table.

    `groups` are sequences of word tables; `token_means` gives one vector
    of concatenated table means and one coverage per group.
    """

    def __init__(self, groups: Sequence[Sequence[Lexicon | EmbeddingTable]]):
        tables = [table for group in groups for table in group]
        self.spans = []
        start = 0
        for group in groups:
            self.spans.append((start, start + len(group)))
            start += len(group)
        self.matrices = [table.vectors for table in tables]
        own: dict[str, list[int]] = {}
        for j, table in enumerate(tables):
            for row, word in enumerate(table.entries):
                own.setdefault(word, [-1] * len(tables))[j] = row
        self.miss = (-1,) * len(tables)
        # `own[w]`: the rows of word w itself; `rows[w]`: w's rows under the
        # lookup rule, its own row or else its lemma's, table by table.
        self.own = {word: tuple(rows) for word, rows in own.items()}
        self.rows = {
            word: tuple(
                mine if mine >= 0 else lemma
                for mine, lemma in zip(rows, self.own.get(lemmatize(word), self.miss))
            )
            for word, rows in self.own.items()
        }

    def token_means(self, words: list[str]) -> list[tuple[np.ndarray, float]]:
        """Per group, the concatenated table means of `words` and their coverage.

        Coverage is the fraction of words found in at least one of the
        group's tables, 0.0 for no words.
        """
        found = []
        for word in words:
            rows = self.rows.get(word)
            found.append(self.own.get(lemmatize(word), self.miss) if rows is None else rows)
        # One line per table, one column per word: its row in that table, or -1.
        table_rows = np.array(found, dtype=np.intp).reshape(len(found), len(self.miss)).T
        hit = table_rows >= 0
        out = []
        for start, stop in self.spans:
            blocks = []
            for matrix, rows, hits in zip(
                self.matrices[start:stop], table_rows[start:stop], hit[start:stop]
            ):
                rows = rows[hits]
                # np.mean's own reduction, over the same (hits, width) array.
                blocks.append(
                    np.add.reduce(matrix.take(rows, axis=0), axis=0) / rows.size
                    if rows.size
                    else np.zeros(matrix.shape[1])
                )
            matched = int(np.count_nonzero(hit[start:stop].any(axis=0)))
            out.append((np.concatenate(blocks), matched / len(words) if words else 0.0))
        return out


def _words(tokens: list[Token]) -> list[Token]:
    return [t for t in tokens if t.is_word()]


def _with_scores(means: np.ndarray, tokens: list[Token], scorer: RuleScorer) -> np.ndarray:
    scores = np.asarray(scorer.score_tokens(tokens).as_tuple(), dtype=float)
    return np.concatenate([means, scores])


def lexical_features(
    text: str, lexicons: Sequence[Lexicon], scorer: RuleScorer
) -> tuple[np.ndarray, float]:
    """Concatenated per-lexicon token means plus the rule-scorer block.

    Coverage is the fraction of word tokens found in at least one lexicon.
    """
    index = _WordIndex([_loaded(lexicons, "lexicons")])
    tokens = tokenize(preprocess(text))
    [(means, coverage)] = index.token_means(_words(tokens))
    return _with_scores(means, tokens, scorer), coverage


def embed_features(
    text: str, tables: Sequence[EmbeddingTable]
) -> tuple[np.ndarray, float]:
    """Concatenated per-table token means; zero block for unmatched tables."""
    index = _WordIndex([_loaded(tables, "embedding tables")])
    [(means, coverage)] = index.token_means(_words(tokenize(preprocess(text))))
    return means, coverage


class TextFeatureExtractor:
    """Binds a loaded resource suite and produces `TextFeatures` per text.

    The lexicons and embedding tables are read once, when the extractor is
    built, into one word index. Their vectors are read-only, so the index
    cannot fall out of step with them.
    """

    def __init__(self, resources: TextResources):
        self.resources = resources
        self._index = _WordIndex(
            [
                _loaded(resources.lexicons, "lexicons"),
                _loaded(resources.embeddings, "embedding tables"),
            ]
        )

    def extract(self, text: str) -> TextFeatures:
        tokens = tokenize(preprocess(text))
        (lex_means, lex_cov), (embedding, emb_cov) = self._index.token_means(_words(tokens))
        return TextFeatures(
            lexical=_with_scores(lex_means, tokens, self.resources.scorer),
            embedding=embedding,
            lexical_coverage=lex_cov,
            embedding_coverage=emb_cov,
        )
