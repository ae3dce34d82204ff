"""The scenario-layer registry: one declaration per layer, read by config,
CLI, sweep grid and report alike."""

import hashlib
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from edm.cli import main
from edm.config import SimConfig, config_hash
from edm.spec import LAYERS
from edm.sweep import default_grid

README = Path(__file__).resolve().parents[1] / "README.md"


def test_layers_and_letters_are_in_cache_name_order():
    assert [layer.field for layer in LAYERS] == [
        "faults", "endurance", "service", "topology", "redundancy",
    ]
    letters = [layer.letter for layer in LAYERS]
    assert letters == list("feqtg")
    assert len(set(letters)) == len(letters)


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.field)
def test_layer_registry_entry(layer):
    default = SimConfig()
    for off in ("", "none"):
        cfg = SimConfig(**{layer.field: off})
        assert getattr(cfg, layer.field) == ""
        assert config_hash(cfg) == config_hash(default)
        assert cfg.cache_name() == default.cache_name()

    # The example is a valid spec, and one active layer adds exactly its
    # own letter and digest to the cache name.
    cfg = SimConfig(num_osds=8, **{layer.field: layer.example})
    spec = getattr(cfg, layer.field)
    assert spec == layer.parse(layer.example).spec
    digest = hashlib.sha256(spec.encode()).hexdigest()[:8]
    assert cfg.cache_name() == f"{SimConfig(num_osds=8).cache_name()}-{layer.letter}{digest}"

    # The axis separator is safe for this grammar: two joined examples split
    # back into two equal specs, and an empty axis is the layer switched off.
    assert layer.axis_sep not in layer.example
    assert layer.split_axis(layer.axis_sep.join([layer.example] * 2)) == [layer.example] * 2
    assert layer.split_axis("") == [""]

    # Each layer is a SimConfig field and a default_grid axis.
    assert layer.field in {f.name for f in fields(SimConfig)}
    param = inspect.signature(default_grid).parameters[layer.field]
    assert param.default == ("",)


def _readme_section() -> str:
    text = README.read_text()
    start = text.index("## Spec grammars")
    return text[start : text.index("\n## ", start + 1)]


def test_readme_spec_grammar_table_matches_the_registry():
    section = _readme_section()
    seps = {}
    for line in section.splitlines():
        m = re.match(r"\| `--(\w+)` \|", line)
        if m:
            # Columns: field | clause separator | sweep-axis separator | example.
            cols = line.replace("\\|", "\0").split("|")
            seps[m.group(1)] = re.search(r"`([^`]+)`", cols[3]).group(1).replace("\0", "|")
    assert seps == {layer.field: layer.axis_sep for layer in LAYERS}

    m = re.search(r"\(((?:`-\w…`/?)+)\s+for\s+([\w/]+)\)", section)
    assert m, "README lists no cache-name letters"
    assert re.findall(r"`-(\w)…`", m.group(1)) == [layer.letter for layer in LAYERS]
    assert m.group(2).split("/") == [layer.field for layer in LAYERS]


def test_run_with_every_layer_set_to_none_prints_the_plain_run(capsys):
    argv = ["run", "--osds", "4", "--epochs", "8", "--requests", "128"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    none = [arg for layer in LAYERS for arg in (f"--{layer.field}", "none")]
    assert main(argv + none) == 0
    assert capsys.readouterr().out == plain
    assert json.loads(plain)["total_requests"] > 0
