"""Property tests for the three loaders and the CLI's text inputs: every
input, down to arbitrary bytes, loads or raises the loader's own error (exit
1 from the CLI), never a bare Python exception."""

import base64
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medext.cli import DEFAULT_CONFIG, main
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
import oracles

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
CORPUS = generate_synthetic_corpus(4, seed=11)
RELATED = generate_synthetic_corpus(5, seed=0)  # CORPUS has no relations


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory holding CORPUS and RELATED, each as a tag file and an annotation file."""
    out = tmp_path_factory.mktemp("fuzz")
    for name, corpus in (("base", CORPUS), ("related", RELATED)):
        save_conll(corpus, out / f"{name}.tsv")
        save_annotations(corpus, out / f"{name}.jsonl")
    return out


def outcome(load, *args):
    """What ``load(*args)`` gives: a corpus, or its error's type and message."""
    try:
        return load(*args)
    except Exception as exc:
        return type(exc), str(exc)


def reorder_spans(record: dict) -> dict:
    """``record`` with its spans listed last first and its relations following them."""
    n = len(record["spans"])
    return {
        "spans": record["spans"][::-1],
        "relations": [{**r, "head": n - 1 - r["head"], "tail": n - 1 - r["tail"]}
                      for r in record["relations"]],
    }


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
    assert outcome(load_conll, path, TagScheme()) == outcome(oracles.load_conll, path, TagScheme())
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
    two items of a list (a checkpoint's vocabulary and names are long)."""
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
@given(data=st.data(), base=st.sampled_from(["base", "related"]), reorder=st.booleans())
def test_load_annotations_loads_or_raises_parse_errors(scratch, data, base, reorder):
    records = [json.loads(line) for line in (scratch / f"{base}.jsonl").read_text().splitlines()]
    if reorder:
        records = [reorder_spans(r) for r in records]
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
    tagged = load_conll(scratch / f"{base}.tsv", TagScheme())
    assert outcome(load_annotations, tagged, path) == outcome(oracles.load_annotations, tagged, path)
    try:
        load_annotations(tagged, path)
    except (ParseError, ValidationError):
        pass


@FUZZ
@given(size=st.integers(0, 60), seed=st.integers(0, 2**16), reorder=st.booleans())
def test_loaders_equal_the_oracles_on_generated_corpora(scratch, size, seed, reorder):
    """Each distinct surface has one Token, and every loaded span is the
    span load_conll derived, in the sidecar's order."""
    corpus = generate_synthetic_corpus(size, seed)
    save_conll(corpus, scratch / "generated.tsv")
    save_annotations(corpus, scratch / "generated.jsonl")
    if reorder:
        records = [json.loads(line) for line in (scratch / "generated.jsonl").read_text().splitlines()]
        (scratch / "generated.jsonl").write_text(
            "".join(json.dumps(reorder_spans(r)) + "\n" for r in records), encoding="utf-8"
        )
    tagged = load_conll(scratch / "generated.tsv", corpus.scheme)
    assert tagged == oracles.load_conll(scratch / "generated.tsv", corpus.scheme)
    loaded = load_annotations(tagged, scratch / "generated.jsonl")
    assert loaded == oracles.load_annotations(tagged, scratch / "generated.jsonl")
    tokens = [t for s in loaded.sentences for t in s.tokens]
    assert len({id(t) for t in tokens}) == len({t.surface for t in tokens})
    for before, after in zip(tagged.sentences, loaded.sentences):
        order = slice(None, None, -1) if reorder else slice(None)
        assert all(a is b for a, b in zip(after.spans, before.spans[order], strict=True))


TAG_FIELD = st.sampled_from(
    ["", " ", "\t", "O", "B-Specific", "I-Specific", "I-Modifier", "B-Bogus", "x\ty", "\ufeffO"]
) | TEXT


@FUZZ
@given(data=st.data(), seed=st.integers(0, 3))
def test_mutated_tag_file_loads_as_the_oracle_does(scratch, data, seed):
    """One line of a generated tag file with its surface, its tag or the
    whole line replaced."""
    save_conll(generate_synthetic_corpus(8, seed), scratch / "mutated.tsv")
    lines = (scratch / "mutated.tsv").read_text(encoding="utf-8").split("\n")
    at = data.draw(st.integers(0, len(lines) - 1))
    surface, _, tag = lines[at].partition("\t")
    value = data.draw(TAG_FIELD)
    how = data.draw(st.sampled_from(["surface", "tag", "line"]))
    lines[at] = {"surface": f"{value}\t{tag}", "tag": f"{surface}\t{value}", "line": value}[how]
    path = scratch / "mutated.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert outcome(load_conll, path, TagScheme()) == outcome(oracles.load_conll, path, TagScheme())


@FUZZ
@given(data=st.data(), reorder=st.booleans())
def test_sidecar_with_one_mutated_field_loads_as_the_oracle_does(scratch, data, reorder):
    """One field of one span or relation record of RELATED's sidecar,
    replaced, deleted or reshaped."""
    records = [json.loads(line) for line in (scratch / "related.jsonl").read_text().splitlines()]
    if reorder:
        records = [reorder_spans(r) for r in records]
    key = data.draw(st.sampled_from(["spans", "relations"]))
    row = data.draw(st.sampled_from([i for i, r in enumerate(records) if r[key]]))
    item = data.draw(st.integers(0, len(records[row][key]) - 1))
    field = data.draw(st.sampled_from(sorted(records[row][key][item])))
    # besides MUTATION, indices around the span count and labels in and out of the set
    value = data.draw(st.integers(-1, 3) | st.sampled_from(["causes", "prevents"]) | MUTATION)
    records = mutate(records, (row, key, item, field), value)
    path = scratch / "one-field.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records), encoding="utf-8")
    tagged = load_conll(scratch / "related.tsv", TagScheme())
    assert outcome(load_annotations, tagged, path) == outcome(oracles.load_annotations, tagged, path)


@pytest.mark.parametrize(
    "line",
    ["\ufeff{}", "[" * 100_000, '{"spans": [{"start": 1' + "0" * 5000 + "}]}", "{} {}", "nul"],
    ids=["leading-bom", "nested-too-deeply", "long-integer", "two-values", "bad-literal"],
)
def test_undecodable_record_fails_as_the_oracle_does(scratch, line):
    """The loader's bound decoder refuses what json.loads refuses, with its message."""
    records = (scratch / "base.jsonl").read_text().splitlines()
    sidecar = scratch / "undecodable.jsonl"
    sidecar.write_text("\n".join([line, *records[1:]]), encoding="utf-8")
    tagged = load_conll(scratch / "base.tsv", TagScheme())
    got = outcome(load_annotations, tagged, sidecar)
    assert got == outcome(oracles.load_annotations, tagged, sidecar)
    assert isinstance(got, tuple)


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


def splice(data, base: bytes) -> bytes:
    """Arbitrary bytes, or ``base`` with a drawn range replaced by drawn bytes."""
    if data.draw(st.booleans()):
        return data.draw(st.binary(max_size=80))
    start = data.draw(st.integers(0, len(base)))
    stop = data.draw(st.integers(start, min(len(base), start + 8)))
    return base[:start] + data.draw(st.binary(max_size=8)) + base[stop:]


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("loader", ["conll", "annotations"])
def test_bytes_load_or_raise_parse_errors(scratch, loader, data):
    base = scratch / ("base.tsv" if loader == "conll" else "base.jsonl")
    path = scratch / f"bytes-{loader}"
    path.write_bytes(splice(data, base.read_bytes()))
    try:
        if loader == "conll":
            load_conll(path, TagScheme())
        else:
            load_annotations(load_conll(scratch / "base.tsv", TagScheme()), path)
    except (ParseError, ValidationError):
        pass


@FUZZ
@given(data=st.data())
def test_checkpoint_bytes_load_or_raise_checkpoint_error(scratch, saved_payload, data):
    path = scratch / "bytes-checkpoint.json"
    path.write_bytes(splice(data, (scratch / "model.json").read_bytes()))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


@FUZZ
@given(data=st.data())
def test_predict_input_bytes_never_exit_2(scratch, saved_payload, data):
    path = scratch / "predict-input.txt"
    path.write_bytes(splice(data, b"aspirin for fever\n\nrash of pain\n"))
    out = scratch / "predicted.jsonl"
    argv = ["predict", "--checkpoint", str(scratch / "model.json"), "--input", str(path)]
    assert main([*argv, "--out-file", str(out)]) in (0, 1)


@FUZZ
@given(data=st.data())
def test_config_file_bytes_never_exit_2(scratch, data):
    path = scratch / "config.json"
    path.write_bytes(splice(data, json.dumps(DEFAULT_CONFIG).encode()))
    argv = ["gen-corpus", "--config", str(path), "--size", "0", "--out", str(scratch / "gen")]
    assert main(argv) in (0, 1)


def edit_vector(text: str, data) -> str:
    """The base64 text of a float64 vector, cut, with a character put in,
    with one value replaced, or replaced by the base64 of drawn bytes."""
    how = data.draw(st.sampled_from(["cut", "char", "value", "bytes"]))
    if how == "cut":
        return text[: data.draw(st.integers(0, len(text)))]
    if how == "char":
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + data.draw(st.characters(blacklist_categories=("Cs",))) + text[at:]
    if how == "value":
        floats = np.frombuffer(base64.b64decode(text), dtype="<f8").copy()
        floats[data.draw(st.integers(0, floats.size - 1))] = data.draw(st.floats())
        return base64.b64encode(floats.tobytes()).decode()
    return base64.b64encode(data.draw(st.binary(max_size=64))).decode()


def edit_names(names: list, data) -> list:
    """``names`` with one name removed, doubled, swapped with the next or renamed."""
    names, at = list(names), data.draw(st.integers(0, len(names) - 2))
    how = data.draw(st.sampled_from(["remove", "double", "swap", "rename"]))
    if how == "remove":
        del names[at]
    elif how == "double":
        names.insert(at, names[at])
    elif how == "swap":
        names[at], names[at + 1] = names[at + 1], names[at]
    else:
        names[at] = data.draw(TEXT)
    return names


@FUZZ
@given(data=st.data())
def test_mutated_flat_vectors_load_or_raise_checkpoint_error(scratch, saved_payload, data):
    payload = json.loads(json.dumps(saved_payload[0]))
    fields = st.sets(st.sampled_from(["params", "moments", "param_names"]), min_size=1)
    for field in data.draw(fields):
        if field == "param_names":
            payload[field] = edit_names(payload[field], data)
        elif field == "params":
            payload[field] = edit_vector(payload[field], data)
        else:
            payload["optimizer"]["moments"] = edit_vector(payload["optimizer"]["moments"], data)
    path = scratch / "mutated-vectors.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
