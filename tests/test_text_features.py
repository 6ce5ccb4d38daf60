import numpy as np
import pytest

from memfuse.text import (
    EmbeddingTable,
    Lexicon,
    ResourceFormatError,
    RuleScorer,
    TextFeatureExtractor,
    TextResources,
    embed_features,
    lemmatize,
    lexical_features,
    load_embedding_text,
    load_lexicon_tsv,
    load_resources,
    preprocess,
    tokenize,
)

from .oracles import token_means_by_probes


@pytest.fixture
def polarity_lexicon():
    return Lexicon(
        name="polarity",
        dims=("valence",),
        entries={"good": np.array([1.0]), "bad": np.array([-1.0])},
    )


@pytest.fixture
def empty_scorer():
    return RuleScorer(valences={})


def test_lexical_hand_average(polarity_lexicon, empty_scorer):
    vec, coverage = lexical_features("good good bad", [polarity_lexicon], empty_scorer)
    assert vec[0] == pytest.approx(1.0 / 3.0)
    assert coverage == 1.0


def test_lexical_all_oov_zero_block(polarity_lexicon, empty_scorer):
    vec, coverage = lexical_features("nothing matches here", [polarity_lexicon], empty_scorer)
    assert vec[0] == 0.0
    assert coverage == 0.0


def test_lexical_single_word_identity(polarity_lexicon, empty_scorer):
    vec, coverage = lexical_features("good", [polarity_lexicon], empty_scorer)
    assert vec[0] == 1.0
    assert coverage == 1.0


def test_lexical_requires_lexicons(empty_scorer):
    with pytest.raises(ValueError, match="no lexicons"):
        lexical_features("good", [], empty_scorer)


def test_lexical_scorer_block_appended(polarity_lexicon):
    scorer = RuleScorer(valences={"good": 1.9})
    vec, _ = lexical_features("good", [polarity_lexicon], scorer)
    assert vec.shape == (5,)
    assert vec[3] > 0  # positive proportion
    assert vec[4] > 0  # compound


def test_lexical_lemma_fallback(empty_scorer):
    lex = Lexicon(name="base", dims=("v",), entries={"memory": np.array([0.7])})
    vec, coverage = lexical_features("memories", [lex], empty_scorer)
    assert vec[0] == pytest.approx(0.7)
    assert coverage == 1.0


def test_lexical_raw_lookup_precedes_lemma(empty_scorer):
    lex = Lexicon(
        name="b", dims=("v",), entries={"memories": np.array([0.2]), "memory": np.array([0.9])}
    )
    vec, _ = lexical_features("memories", [lex], empty_scorer)
    assert vec[0] == pytest.approx(0.2)


def test_lexical_permutation_invariance_of_mean_blocks(polarity_lexicon, empty_scorer, rng):
    words = ["good", "bad", "good", "unknown", "bad", "bad"]
    base, _ = lexical_features(" ".join(words), [polarity_lexicon], empty_scorer)
    for _ in range(5):
        shuffled = [words[i] for i in rng.permutation(len(words))]
        vec, _ = lexical_features(" ".join(shuffled), [polarity_lexicon], empty_scorer)
        assert np.allclose(vec[:1], base[:1])


def test_lexical_scaling_property(empty_scorer, rng):
    entries = {w: rng.normal(size=2) for w in ("alpha", "beta", "gamma")}
    lex = Lexicon(name="l", dims=("x", "y"), entries={k: v.copy() for k, v in entries.items()})
    scaled = Lexicon(
        name="l", dims=("x", "y"), entries={k: 3.0 * v for k, v in entries.items()}
    )
    text = "alpha beta gamma beta"
    vec, _ = lexical_features(text, [lex], empty_scorer)
    vec_scaled, _ = lexical_features(text, [scaled], empty_scorer)
    assert np.allclose(vec_scaled[:2], 3.0 * vec[:2])


def test_embed_one_word_concatenates_tables():
    t1 = EmbeddingTable(name="a", dim=2, entries={"word": np.array([1.0, 2.0])})
    t2 = EmbeddingTable(name="b", dim=3, entries={"word": np.array([3.0, 4.0, 5.0])})
    vec, coverage = embed_features("word", [t1, t2])
    assert np.allclose(vec, [1, 2, 3, 4, 5])
    assert coverage == 1.0


def test_embed_hand_mean():
    table = EmbeddingTable(
        name="a", dim=2, entries={"one": np.array([0.0, 2.0]), "two": np.array([2.0, 0.0])}
    )
    vec, _ = embed_features("one two", [table])
    assert np.allclose(vec, [1.0, 1.0])


def test_embed_all_oov():
    table = EmbeddingTable(name="a", dim=4, entries={"word": np.zeros(4)})
    vec, coverage = embed_features("nothing here", [table])
    assert np.allclose(vec, 0.0)
    assert coverage == 0.0


def test_embed_requires_tables():
    with pytest.raises(ValueError, match="no embedding tables"):
        embed_features("word", [])


def test_output_dim_independent_of_text(polarity_lexicon, empty_scorer):
    for text in ("", "good", "a much longer text with many unknown words"):
        vec, _ = lexical_features(text, [polarity_lexicon], empty_scorer)
        assert vec.shape == (5,)


def test_bundled_suite_dimensions():
    extractor = TextFeatureExtractor(load_resources())
    feats = extractor.extract("we danced all evening and felt triumphant")
    assert feats.lexical.shape == (130,)
    assert feats.embedding.shape == (500,)
    assert np.all(np.isfinite(feats.lexical))
    assert np.all(np.isfinite(feats.embedding))
    assert feats.lexical_coverage > 0
    assert feats.embedding_coverage > 0


def test_extract_tokenizes_once_and_matches_the_feature_functions(monkeypatch):
    from memfuse.text import features, sentiment

    resources = load_resources()
    text = "I was NOT happy at all!! The morning felt so awful."
    lexical, lex_cov = lexical_features(text, resources.lexicons, resources.scorer)
    embedding, emb_cov = embed_features(text, resources.embeddings)

    calls = []
    for module in (features, sentiment):
        original = module.tokenize
        monkeypatch.setattr(module, "tokenize", lambda t, f=original: calls.append(t) or f(t))
    feats = TextFeatureExtractor(resources).extract(text)
    assert len(calls) == 1
    assert feats.lexical.tobytes() == lexical.tobytes()
    assert feats.embedding.tobytes() == embedding.tobytes()
    assert (feats.lexical_coverage, feats.embedding_coverage) == (lex_cov, emb_cov)


def test_lexicon_tsv_roundtrip(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("word\tv1\tv2\ngood\t0.5\t-0.25\n", encoding="utf-8")
    lex = load_lexicon_tsv(path)
    assert lex.dims == ("v1", "v2")
    assert np.allclose(lex.entries["good"], [0.5, -0.25])


def test_lexicon_tsv_malformed_row_names_line(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("word\tv1\ngood\t0.5\nbad\toops\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match="toy.tsv:3"):
        load_lexicon_tsv(path)


def test_embedding_ragged_line_aborts(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("one 0.1 0.2\ntwo 0.3\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match="emb.txt:2"):
        load_embedding_text(path)


def test_embedding_dim_inferred(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("one 0.1 0.2 0.3\n", encoding="utf-8")
    table = load_embedding_text(path)
    assert table.dim == 3


def test_lexicon_tsv_short_row_names_line(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text("word\tv1\tv2\ngood\t0.5\t0.1\nbad\t0.5\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match="toy.tsv:3"):
        load_lexicon_tsv(path)


@pytest.mark.parametrize("second", ["word", "Word"])
def test_embedding_repeated_word_names_second_line(tmp_path, second):
    path = tmp_path / "emb.txt"
    path.write_text(f"word 0.1 0.2\n{second} 0.3 0.4\n", encoding="utf-8")
    with pytest.raises(ResourceFormatError, match="emb.txt:2: duplicate word 'word'"):
        load_embedding_text(path)


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"word": np.array([1.0, 2.0, 3.0])}, r"expected \(2,\)"),
        ({"Word": np.array([1.0, 2.0])}, "not lowercase"),
    ],
    ids=["wrong_width", "uppercase"],
)
def test_embedding_table_checks_words_and_width(entries, message):
    with pytest.raises(ValueError, match=message):
        EmbeddingTable(name="a", dim=2, entries=entries)


def _assert_matches_the_probes(text, resources, extractor):
    """`extract` and the two feature functions equal the probe oracle byte for byte."""
    tokens = tokenize(preprocess(text))
    lex_means, lex_cov = token_means_by_probes(tokens, resources.lexicons)
    lexical = np.concatenate(
        [lex_means, np.asarray(resources.scorer.score_tokens(tokens).as_tuple(), dtype=float)]
    )
    embedding, emb_cov = token_means_by_probes(tokens, resources.embeddings)
    feats = extractor.extract(text)
    got = [
        (feats.lexical, feats.lexical_coverage),
        lexical_features(text, resources.lexicons, resources.scorer),
        (feats.embedding, feats.embedding_coverage),
        embed_features(text, resources.embeddings),
    ]
    expected = [(lexical, lex_cov)] * 2 + [(embedding, emb_cov)] * 2
    for (vec, cov), (want, want_cov) in zip(got, expected):
        assert vec.dtype == want.dtype and vec.tobytes() == want.tobytes(), text
        assert type(cov) is float and cov == want_cov, text


def test_features_equal_the_probe_oracle_on_seeded_texts_of_the_bundled_vocabulary(rng):
    resources = load_resources()
    vocab = sorted({w for t in resources.lexicons + resources.embeddings for w in t.entries})
    # Inflected forms found only through their lemma, and words no table holds.
    lemma_only = sorted(
        form
        for w in vocab
        for form in (w + "s", w + "ed", w + "ing", w + "es")
        if form not in vocab and lemmatize(form) in vocab
    )
    unknown = ["zorblax", "quintessentially", "flurbs", "hmm", "0", "that"]
    assert len(vocab) > 200 and len(lemma_only) > 20
    pools = [vocab, lemma_only, unknown, [",", "!", ".", "?"]]
    extractor = TextFeatureExtractor(resources)
    for n in range(100):
        words = [
            pools[p][rng.integers(len(pools[p]))]
            for p in rng.choice(4, size=rng.integers(1, 60), p=[0.55, 0.2, 0.15, 0.1])
        ]
        if n % 3 == 0:
            words = [w.upper() if rng.random() < 0.2 else w for w in words]
        _assert_matches_the_probes(" ".join(words), resources, extractor)


def _hand_suite(rng):
    """Tables that exercise each branch of the lookup rule.

    `raw` holds "memories" and "memory", so the token "memories" hits its own
    row there and its lemma's row in `lemma`, which holds only "memory".
    `never` holds no word the texts use. `single` is one value wide, so its
    block is numpy's pairwise sum once eight or more tokens hit it.
    """
    words = ["memories", "memory", "happy", "danced", "dance", "summer", "beach"]
    raw = Lexicon("raw", ("a", "b"), {w: rng.normal(size=2) for w in words})
    lemma = Lexicon("lemma", ("c",), {"memory": rng.normal(size=1), "dance": rng.normal(size=1)})
    never = Lexicon("never", ("d", "e", "f"), {"xylophone": rng.normal(size=3)})
    # Values of mixed magnitude, so that summing in another order rounds differently.
    values = {"happy": 0.1, "danced": 0.2, "dance": 0.3, "summer": 0.7, "beach": 1e8}
    single = Lexicon("single", ("g",), {w: np.array([v]) for w, v in values.items()})
    emb_a = EmbeddingTable("emb_a", 4, {w: rng.normal(size=4) for w in words[:4]})
    emb_b = EmbeddingTable("emb_b", 3, {w: rng.normal(size=3) for w in ("summer", "memory")})
    return TextResources(
        lexicons=(raw, lemma, never, single),
        scorer=RuleScorer(valences={"happy": 2.0}),
        embeddings=(emb_a, emb_b),
    )


@pytest.mark.parametrize(
    "text",
    [
        "memories",  # raw hit in `raw` and `emb_a`, lemma hit in `lemma` and `emb_b`
        "Memories of summers on beaches, my memory danced!",  # lemma-only forms next to raw ones
        "zorblax quux memories",  # out-of-vocabulary tokens count against coverage
        "",
        "!!! ... ?",
        "happy dance summer beach happy danced summer beach happy happy beach",  # 11 hits
    ],
    ids=["raw_before_lemma", "lemma_only", "out_of_vocabulary", "empty", "punctuation",
         "pairwise"],
)
def test_features_equal_the_probe_oracle_on_each_branch_of_the_lookup_rule(rng, text):
    resources = _hand_suite(rng)
    _assert_matches_the_probes(text, resources, TextFeatureExtractor(resources))


def test_the_oracle_pin_tells_apart_summation_orders(rng):
    # The width-1 `single` block of an 11-hit text is numpy's pairwise sum; a
    # left-to-right sum of the same hits rounds differently, so the byte-for-byte
    # comparisons above fail for a routine that sums in another order.
    resources = _hand_suite(rng)
    text = "happy dance summer beach happy danced summer beach happy happy beach"
    single = resources.lexicons[3]
    hits = [single.entries[w] for w in text.split() if w in single.entries]
    assert len(hits) >= 8
    total = 0.0
    for vec in hits:
        total += vec[0]
    feats = TextFeatureExtractor(resources).extract(text)
    block = feats.lexical[2 + 1 + 3]
    assert block == np.mean(hits, axis=0)[0]
    assert block != total / len(hits)


def test_table_vectors_are_read_only_once_built():
    given = np.array([1.0])
    lexicon = Lexicon("l", ("v",), {"good": given})
    table = EmbeddingTable("e", 2, {"good": np.array([1.0, 2.0])})
    extractor = TextFeatureExtractor(
        TextResources(lexicons=(lexicon,), scorer=RuleScorer(valences={}), embeddings=(table,))
    )
    loaded = load_resources().embeddings[0]
    for vec in (lexicon.entries["good"], table.entries["good"], loaded.entries["the"]):
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 5.0
    given[0] = 5.0  # the table holds its own copy
    feats = extractor.extract("good")
    assert feats.lexical[0] == 1.0 and list(feats.embedding) == [1.0, 2.0]
    assert all(np.shares_memory(vec, loaded.vectors) for vec in loaded.entries.values())


def test_extractor_index_does_not_grow_with_the_texts_it_reads(rng):
    extractor = TextFeatureExtractor(load_resources())
    index = extractor._index

    def size():
        return (
            sorted(vars(extractor)),
            sorted(vars(index)),
            len(index.ids),
            len(index.own_ids),
            index.miss,
            [(f.rows.shape, f.matrix.shape, f.hits.shape) for f in index.families],
        )

    before = size()
    letters = np.array(list("bcdfghjklmnpqrstvwxz"))
    for n in range(1000):
        words = ["".join(rng.choice(letters, size=7)) + "ings" for _ in range(8)]
        feats = extractor.extract(f"{n} " + " ".join(words))
        assert feats.lexical_coverage == feats.embedding_coverage == 0.0
    assert size() == before


def _blocks_by_definition(text, tables):
    """Each table's block as the module docstring defines it, and the coverage.

    A word token hits a table as itself or, only when that misses, as its
    lemma; the block is `np.mean(np.vstack(hit_vectors), axis=0)`, zeros
    when nothing hits.
    """
    words = [str(t) for t in tokenize(preprocess(text)) if t.is_word()]
    blocks, matched = [], set()
    for table in tables:
        hits = []
        for i, word in enumerate(words):
            vec = table.entries.get(word, table.entries.get(lemmatize(word)))
            if vec is not None:
                hits.append(vec)
                matched.add(i)
        blocks.append(np.mean(np.vstack(hits), axis=0) if hits else np.zeros(table.width))
    return blocks, (len(matched) / len(words) if words else 0.0)


def _numerics_suite(rng):
    """Hand-built tables for the index's numerics.

    `one` is one value wide and `two` two wide, and the 20 words' values in
    both are such that summing them in another order rounds differently.
    `zeros` holds only +0.0 and -0.0. "dances" is in `one` and `two` but
    not in `lemma`, which holds its lemma "dance": its rule rows mix its own
    and its lemma's. "danceses" is in no table; its lemma is "dances", whose
    own rows (not its rule rows) it hits. "kittens" hits only through "kitten".
    """
    words = [f"w{i:02d}" for i in range(20)]

    def mixed(width):
        return rng.normal(size=width) * 10.0 ** rng.integers(-8, 9, size=width)

    inverse = {w: np.array([1.0 / (i + 3)]) for i, w in enumerate(words)}
    one = Lexicon("one", ("a",), {**inverse, "dances": mixed(1), "kitten": mixed(1)})
    roots = {w: np.array([np.sqrt(i + 2), 1.0 / (i + 3)]) for i, w in enumerate(words)}
    two = Lexicon("two", ("b", "c"), {**roots, "dances": mixed(2)})
    zeros = Lexicon(
        "zeros",
        ("d", "e"),
        {w: np.array([0.0 if i % 2 else -0.0, -0.0]) for i, w in enumerate(words)},
    )
    signed_zero = Lexicon("signed_zero", ("f",), {"w00": np.array([-0.0]), "w01": np.array([0.0])})
    lemma = Lexicon("lemma", ("g", "h", "i"), {"dance": mixed(3), "kitten": mixed(3)})
    emb = EmbeddingTable("emb", 4, {w: mixed(4) for w in words[:10] + ["dance"]})
    emb_one = EmbeddingTable("emb_one", 1, {w: mixed(1) for w in words})
    return TextResources(
        lexicons=(one, two, zeros, signed_zero, lemma),
        scorer=RuleScorer(valences={}),
        embeddings=(emb, emb_one),
    )


@pytest.mark.parametrize(
    "text",
    [
        " ".join(f"w{i:02d}" for i in range(20)),  # 20 hits in every table of `words`
        " ".join(f"w{i % 20:02d}" for i in range(57)) + " zorblax",  # repeats, and a miss
        "w00",  # a -0.0 hit alone
        "w00 w00 w02",  # only -0.0 hits
        "w01 w00",  # +0.0 and -0.0 hits
        "dances",  # own rows in `one` and `two`, its lemma's in `lemma` and `emb`
        "danceses danceses",  # outside the vocabulary: "dances"'s own rows only
        "kittens w03",  # outside the vocabulary: "kitten"'s rows
        "",
        "!!! ... ?",
    ],
    ids=["sixteen_or_more_hits", "repeats", "negative_zero", "negative_zeros", "signed_zeros",
         "mixed_rule_rows", "lemma_own_rows", "lemma_only", "empty", "no_words"],
)
def test_each_block_is_the_mean_of_its_tables_hit_vectors(rng, text):
    resources = _numerics_suite(rng)
    feats = TextFeatureExtractor(resources).extract(text)
    for tables, vector, coverage in (
        (resources.lexicons, feats.lexical[:-4], feats.lexical_coverage),
        (resources.embeddings, feats.embedding, feats.embedding_coverage),
    ):
        blocks, want_coverage = _blocks_by_definition(text, tables)
        assert vector.tobytes() == np.concatenate(blocks).tobytes(), text
        assert type(coverage) is float and coverage == want_coverage, text


def test_the_numerics_suite_tells_apart_summation_orders(rng):
    # With 20 hits, a one-column block is numpy's pairwise sum and a wider
    # block a row-by-row sum; each rounds differently from the other order,
    # so the byte-for-byte comparisons above fail for a routine that mixes them up.
    resources = _numerics_suite(rng)
    words = [f"w{i:02d}" for i in range(20)]
    one, two = resources.lexicons[:2]
    column = np.array([one.entries[w][0] for w in words])
    in_order = 0.0
    for value in column:
        in_order += value
    assert np.add.reduce(column) != in_order
    block = np.vstack([two.entries[w] for w in words])
    assert np.any(np.add.reduce(block, axis=0) != [np.add.reduce(block[:, j]) for j in (0, 1)])


def test_a_token_outside_the_vocabulary_hits_its_lemmas_own_rows_only(rng):
    # "dances"'s rule rows reach `lemma` and `emb` through "dance"; "danceses" must not.
    resources = _numerics_suite(rng)
    extractor = TextFeatureExtractor(resources)
    lemmas = [lemmatize(w) for w in ("danceses", "dances", "kittens")]
    assert lemmas == ["dances", "dance", "kitten"]
    assert extractor._index.own_ids["dances"] != extractor._index.ids["dances"]
    feats = extractor.extract("danceses")
    lemma_block = slice(1 + 2 + 2 + 1, 1 + 2 + 2 + 1 + 3)
    assert list(feats.lexical[lemma_block]) == [0.0, 0.0, 0.0]
    assert feats.lexical[0] == resources.lexicons[0].entries["dances"][0]
    assert feats.embedding_coverage == 0.0 and feats.lexical_coverage == 1.0
