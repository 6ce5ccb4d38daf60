"""Lexical and embedding feature vectors for memory descriptions.

Both feature families run the shared front end (preprocess, tokenize) and
average word-level resource vectors. One lookup rule serves every word table:
a word token is looked up as itself and, only when that misses, as its lemma.
Out-of-vocabulary tokens are skipped; a resource matching no token at all
contributes a zero block, and per-resource blocks are concatenated in load
order. The rule scorer's four document scores are appended after the lexicon
blocks, so with the bundled suite the lexical vector is 130-dimensional and
the embedding vector 500-dimensional.

The rule runs through a word index built once from the tables (`_WordIndex`).
An index entry is one outcome of the rule: a row in every table, or a miss.
A vocabulary word's entry holds its rule rows (its own row, else its lemma's,
table by table). A token outside the vocabulary is lemmatized and can match
only through its lemma's own rows, so a lemma whose own rows differ from its
rule rows has a second entry (3 words do in the bundled suite); one all-miss
entry comes last. Each feature family (a group of tables) holds one
read-only matrix with a row per distinct outcome on its tables, every
table's vector side by side and -0.0 where that table misses, and a mask of
the tables each row hits. A text then costs one entry id per word token and,
per family, one gather, one column sum and one division by each table's hit
count (0.0 where nothing hits).

The sums are those of `np.mean` over each table's hit vectors, bit for bit.
numpy adds a (hits, width) block row by row, in order, and -0.0 is the
additive identity, so the misses' padding changes no sum of a table two or
more values wide. A one-column block is summed pairwise instead, so such a
table's sum is taken from the 1-d array of its hit values alone.

The index holds the tables' vocabulary and nothing per text or token, so its
size does not grow with the texts it serves. Its matrices copy the tables'
vectors, padded to each family's width: 1.4 MiB for the bundled suite, and
for a full-size suite at least one more copy of its tables.

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


@dataclass(frozen=True)
class _Family:
    """One group of tables' side of a `_WordIndex`: one row per distinct outcome there."""

    rows: np.ndarray  # (index entries,): each entry's row of the arrays below
    matrix: np.ndarray  # (rows, total width), read-only: each table's vector or -0.0
    hits: np.ndarray  # (rows, tables): True where the row hits the table
    widths: np.ndarray  # each table's width
    single: tuple[tuple[int, int], ...]  # (column, table) of each one-column table


def _family(group: Sequence[Lexicon | EmbeddingTable], entries: list[tuple[int, ...]]) -> _Family:
    """The `_Family` of `group`, whose tables' rows each entry lists (-1 on a miss)."""
    distinct: dict[tuple[int, ...], int] = {}
    rows = np.array([distinct.setdefault(e, len(distinct)) for e in entries], dtype=np.intp)
    table_rows = np.array(list(distinct), dtype=np.intp).reshape(len(distinct), len(group))
    hits = table_rows >= 0
    widths = np.array([table.width for table in group])
    columns = np.cumsum(widths) - widths
    matrix = np.full((len(distinct), int(widths.sum())), -0.0)
    for j, table in enumerate(group):
        matrix[hits[:, j], columns[j] : columns[j] + widths[j]] = table.vectors[
            table_rows[hits[:, j], j]
        ]
    matrix.flags.writeable = False
    return _Family(
        rows=rows,
        matrix=matrix,
        hits=hits,
        widths=widths,
        single=tuple((int(columns[j]), j) for j in range(len(group)) if widths[j] == 1),
    )


class _WordIndex:
    """Each vocabulary word's entry under the lookup rule, and one `_Family` per group.

    `groups` are sequences of word tables; `token_means` gives one vector
    of concatenated table means and one coverage per group.
    """

    def __init__(self, groups: Sequence[Sequence[Lexicon | EmbeddingTable]]):
        tables = [table for group in groups for table in group]
        own: dict[str, list[int]] = {}
        for j, table in enumerate(tables):
            for row, word in enumerate(table.entries):
                own.setdefault(word, [-1] * len(tables))[j] = row
        # An entry is a word's row in every table, -1 on a miss. `ids[w]` is
        # w's entry under the rule, its own row or else its lemma's, table by
        # table; `own_ids[w]` is w's own rows, which a token outside the
        # vocabulary whose lemma is w hits.
        entries: dict[tuple[int, ...], int] = {}
        miss = (-1,) * len(tables)
        self.ids: dict[str, int] = {}
        for word, rows in own.items():
            lemma = own.get(lemmatize(word), miss)
            rule = tuple(mine if mine >= 0 else other for mine, other in zip(rows, lemma))
            self.ids[word] = entries.setdefault(rule, len(entries))
        self.own_ids = {
            word: entries.setdefault(tuple(rows), len(entries)) for word, rows in own.items()
        }
        self.miss = entries.setdefault(miss, len(entries))
        self.families = []
        start = 0
        for group in groups:
            self.families.append(_family(group, [e[start : start + len(group)] for e in entries]))
            start += len(group)

    def token_means(self, words: list[str]) -> list[tuple[np.ndarray, float]]:
        """Per group, the concatenated table means of `words` and their coverage.

        Coverage is the fraction of words found in at least one of the
        group's tables, 0.0 for no words.
        """
        ids = []
        for word in words:
            entry = self.ids.get(word)
            ids.append(self.own_ids.get(lemmatize(word), self.miss) if entry is None else entry)
        ids = np.array(ids, dtype=np.intp)
        out = []
        for family in self.families:
            rows = family.rows.take(ids)
            block = family.matrix.take(rows, axis=0)
            sums = np.add.reduce(block, axis=0)
            hits = family.hits.take(rows, axis=0)
            counts = np.count_nonzero(hits, axis=0).repeat(family.widths)
            for column, j in family.single:
                # np.mean's pairwise sum of a one-column block: over the hits alone.
                sums[column] = np.add.reduce(block[:, column][hits[:, j]])
            means = np.divide(sums, counts, out=np.zeros(sums.size), where=counts > 0)
            matched = int(np.count_nonzero(hits.any(axis=1)))
            out.append((means, matched / len(words) if words else 0.0))
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
