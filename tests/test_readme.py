"""The README's configuration sections against the config key tables."""
import copy
import json
import re
from pathlib import Path

from membrane import convergence, material, scenarios
from membrane.scenarios import scenario_from_dict

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _section(title):
    """The text under a level-2 README heading, up to the next one."""
    match = re.search(rf"^## {title}\n(.*?)(?=^## )", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


CONFIG_DOCS = _section("Run configuration") + _section("Study configuration")
JSON_BLOCKS = re.findall(r"```json\n(.*?)```", CONFIG_DOCS, re.S)


def _table_keys():
    """Every key of every `*_KEYS` table the config readers use."""
    keys = set()
    for module in (scenarios, material, convergence):
        for name, table in vars(module).items():
            if name.endswith("_KEYS"):
                for key, entry in table.items():
                    # a table of tables is keyed by variant: material type
                    keys |= set(entry) if isinstance(entry, dict) else {key}
    return keys


def _json_objects(text):
    decoder, pos, out = json.JSONDecoder(), 0, []
    while text[pos:].strip():
        pos = len(text) - len(text[pos:].lstrip())
        obj, pos = decoder.raw_decode(text, pos)
        out.append(obj)
    return out


def test_every_table_key_is_named():
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", CONFIG_DOCS))))
    named |= set(re.findall(r"\w+", " ".join(JSON_BLOCKS)))
    keys = _table_keys()
    assert {"msh_path", "k_max", "angle_to_normal"} <= keys  # the tables were found
    assert sorted(keys - named) == []


def test_run_config_example_parses():
    run_block, forms_block = JSON_BLOCKS
    cfg = json.loads(run_block)
    scenario_from_dict(cfg)
    forms = _json_objects(forms_block)
    assert [next(iter(form)) for form in forms] == ["load", "strike"]
    for form in forms:
        case_cfg = copy.deepcopy(cfg)
        case_cfg["case"] = form
        scenario_from_dict(case_cfg)


def test_python_api_example_runs():
    # exactly as written: a spec check that rejected it would fail here
    (block,) = re.findall(r"```python\n(.*?)```", _section("Python API"), re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_lower_level_example_runs(capsys):
    # exactly as written: assemble, apply_constraints, init_state,
    # factor_once and 100 steps of a loaded fixed square
    (block,) = re.findall(r"```python\n(.*?)```", _section("Lower-level entry points"), re.S)
    exec(compile(block, "README.md", "exec"), {})
    t, w_max, total = map(float, capsys.readouterr().out.split())
    assert t > 0.0 and w_max > 0.0 and total > 0.0
