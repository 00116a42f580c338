"""Property tests for the three loaders: every input loads or raises the
loader's own error, never a bare Python exception."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medext.corpus import (
    TagScheme,
    generate_synthetic_corpus,
    load_annotations,
    load_conll,
    save_annotations,
    save_conll,
)
from medext.encoder import EncoderConfig
from medext.errors import CheckpointError, ParseError, ValidationError
from medext.training import TrainConfig, load_checkpoint, save_checkpoint, train

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
CORPUS = generate_synthetic_corpus(4, seed=11)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory holding CORPUS as a tag file and an annotation file."""
    out = tmp_path_factory.mktemp("fuzz")
    save_conll(CORPUS, out / "base.tsv")
    save_annotations(CORPUS, out / "base.jsonl")
    return out


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
TAGS = st.sampled_from(["O", "B-Disease", "I-Disease", "B-Drug", "I-Drug", "B-Bogus", "X", ""])
CONLL_LINE = st.one_of(
    st.tuples(st.sampled_from(["fever", "aspirin", "of", ""]), TAGS).map("\t".join),
    st.just(""),
    st.just("   "),
    TEXT,
)


@FUZZ
@given(lines=st.lists(CONLL_LINE, max_size=12))
def test_load_conll_loads_or_raises_parse_errors(scratch, lines):
    path = scratch / "corpus.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        corpus = load_conll(path, TagScheme())
    except (ParseError, ValidationError):
        return
    assert all(len(s.tokens) == len(s.tags) > 0 for s in corpus.sentences)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=True) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)


def key_paths(value, prefix=()):
    """Every key path into a JSON value, descending into at most the first
    two items of a list (checkpoint arrays are long)."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from key_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value[:2]):
            yield from key_paths(item, prefix + (index,))


def mutate(value, path, how):
    """A copy of ``value`` with the item at ``path`` deleted, wrapped in a
    list, cut by its last element, or replaced by the JSON value ``how``."""
    if not path:
        if how == "wrap":
            return [value]
        if how == "truncate":
            return value[:-1] if isinstance(value, list) else value
        return how
    out = json.loads(json.dumps(value))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutate(parent[path[-1]], (), how)
    return out


# Edits: three reshapes, then replacements by a value of each JSON type,
# including the boundary numbers; any other JSON value is drawn at random.
MUTATION = st.sampled_from(
    ["delete", "wrap", "truncate", None, True, 0, -1, 1.5, float("nan"), "x", [], {}]
) | JSON


@FUZZ
@given(data=st.data())
def test_load_annotations_loads_or_raises_parse_errors(scratch, data):
    records = [json.loads(line) for line in (scratch / "base.jsonl").read_text().splitlines()]
    records += data.draw(st.lists(JSON, max_size=1))
    paths = list(key_paths(records))[1:]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        records = mutate(records, path, data.draw(MUTATION))
        paths = list(key_paths(records))[1:] or [()]
        if not isinstance(records, list):
            break
    lines = records if isinstance(records, list) else [records]
    path = scratch / "annotations.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in lines), encoding="utf-8")
    try:
        load_annotations(load_conll(scratch / "base.tsv", TagScheme()), path)
    except (ParseError, ValidationError):
        pass


TINY = EncoderConfig(vocab_size=5, d_model=4, heads=2, layers=1, d_ff=4)


@pytest.fixture(scope="module", params=["crf", "span"])
def saved_payload(request, scratch):
    checkpoint = train(CORPUS, TrainConfig(steps=1, head=request.param), encoder_config=TINY)
    save_checkpoint(checkpoint, scratch / "model.json")
    payload = json.loads((scratch / "model.json").read_text())
    sections = {key: [p for p in key_paths(payload) if p[:1] == (key,)] for key in payload}
    return payload, sections


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(scratch, saved_payload, data):
    """A mutation picks a section first, so that the short ones (the encoder
    config, the step counts) are hit as often as the long array sections."""
    payload, sections = saved_payload
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(sections[data.draw(st.sampled_from(sorted(sections)))]))
        try:
            payload = mutate(payload, path, data.draw(MUTATION))
        except (KeyError, IndexError, TypeError):  # an earlier mutation moved the path
            break
    path = scratch / "mutated.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
