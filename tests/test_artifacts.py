"""The artifact writers against the standard library: JSON against
``json.dump(indent=2, sort_keys=True)``, CSV against ``csv.writer`` over
``repr`` cells and ``csv.DictWriter``."""
import ast
import csv
import json
import math
from dataclasses import asdict
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest

from conftest import write_json_reference
from hetsel import SimDesign, TwoComponent, run_replications
from hetsel.cli import _Rows, _write_csv, _write_json, main


class _Level(IntEnum):
    LOW = 3


EDGE_DOCUMENTS = {
    "non-finite": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "list": [math.nan]},
    "singletons": {"none": None, "true": True, "false": False, "all": [None, True, False]},
    "ints": {"zero": 0, "neg": -7, "big": 2**70, "neg_big": -(2**70), "enum": _Level.LOW},
    "floats": {
        "neg_zero": -0.0,
        "zero": 0.0,
        "values": [1e16, 1e-7, 5e-324, 1.7976931348623157e308, -2.5, 0.1 + 0.2],
        "float64": np.float64(0.1),
    },
    "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], [{}]], "tuple": ()},
    "nested": {"z": {"y": {"x": [1, {"w": [2.5, {"v": None}]}]}}, "a": ({"b": (1, 2)},)},
    "strings": {
        "quote": 'q"q',
        "backslash": "a\\b",
        "control": "\x00\x01\x1f\t\n\r\x7f",
        "non_ascii": ["été", "日本", "\U0001f600", " "],
        "a,b": "key needs no escaping",
        'k"\\é\n': "escaped key",
    },
    "key-order": {"b": 1, "a": 2, "B": 3, "_": 4, "a b": 5, "é": 6, "": 7},
    "top-list": [1, "two", [3.0], {"four": 4}],
    "top-empty-list": [],
    "top-empty-dict": {},
    "top-string": "é",
    "top-float": -0.0,
    "top-none": None,
}


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
def test_emitter_matches_json_dump(name, tmp_path):
    doc = EDGE_DOCUMENTS[name]
    _write_json(tmp_path / "new.json", doc)
    write_json_reference(tmp_path / "ref.json", doc)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object(), b"bytes"])
def test_emitter_rejects_what_json_dump_rejects(value, tmp_path):
    with pytest.raises(TypeError):
        write_json_reference(tmp_path / "ref.json", {"v": [value]})
    with pytest.raises(TypeError):
        _write_json(tmp_path / "new.json", {"v": [value]})


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1,)])
def test_emitter_takes_only_string_keys(key, tmp_path):
    # A JSON key is a string: a scalar key is written as the string
    # json.dump makes of it, and a tuple key is a TypeError in both.
    doc = {"a": {key: 1}}
    if isinstance(key, tuple):
        with pytest.raises(TypeError):
            write_json_reference(tmp_path / "ref.json", doc)
        with pytest.raises(TypeError):
            _write_json(tmp_path / "new.json", doc)
        return
    _write_json(tmp_path / "new.json", doc)
    write_json_reference(tmp_path / "ref.json", doc)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, 3, 4097])
def test_rows_match_a_list_of_objects(n_rows, tmp_path):
    # _Rows writes pre-encoded cells as the list of objects they encode,
    # as a value of the top-level dict, one or more per document, among
    # other keys; a % in a key or a cell is written as is.
    rows = [
        {"id": f'u"{i}é', "x": 0.1 * i - 1.0, "r": None if i % 2 else math.inf,
         "ok": i == 1, "%s": "100%"}
        for i in range(n_rows)
    ]
    keys = ["id", "x", "r", "ok", "%s"]
    cells = {k: [json.dumps(row[k]) for row in rows] for k in keys}
    new = {"schema": "s", "entries": _Rows(cells), "deep": {"more": [[]]},
           "trace": _Rows(cells)}
    ref = {"schema": "s", "entries": rows, "deep": {"more": [[]]}, "trace": rows}
    _write_json(tmp_path / "new.json", new)
    write_json_reference(tmp_path / "ref.json", ref)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, 4097])
@pytest.mark.parametrize("cells", ["plain", "quoted"])
def test_csv_rows_match_csv_writer(cells, n_rows, tmp_path):
    # Plain cells are joined in blocks; a comma, quote, CR or LF anywhere
    # hands the rows to csv.writer. Both write csv.writer's bytes.
    special = {"plain": "", "quoted": ',"\r\n'}[cells]
    columns = [
        [f"u{i}" + special[i % 4:i % 4 + 1] if special else f"u{i}" for i in range(n_rows)],
        [repr(0.1 * i - 3.0) for i in range(n_rows)],
        ["" if i % 3 else "1" for i in range(n_rows)],
    ]
    header = ["id", "x", "flag"]
    _write_csv(tmp_path / "new.csv", header, columns)
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.fixture(scope="module")
def input_csv(tmp_path_factory):
    rng = np.random.default_rng(4)
    path = tmp_path_factory.mktemp("input") / "data.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "x", "sigma"])
        for i in range(150):
            mu = rng.uniform(-3, -1) if rng.random() < 0.8 else rng.uniform(1, 2)
            sigma = rng.uniform(0.5, 3.0)
            uid = f"u{i:03d}" if i % 50 else ("a,b", 'q"q', f'é,"{i}"')[i // 50]
            writer.writerow([uid, repr(mu + sigma * rng.standard_normal()), repr(sigma)])
    return path


COMMANDS = {
    "select": ["select", "--alpha", "0.1", "--mu0", "0", "--sigma-split", "1.5"],
    "rvalue-mu0": ["rvalue", "--definition", "mu0", "--alpha", "0.1", "--grid-points", "30"],
    "rvalue-alpha": ["rvalue", "--definition", "alpha", "--mu0", "0", "--grid-points", "30"],
    "deconv-fit": ["deconv-fit", "--sigma-split", "1.0,2.0"],
    "simulate": ["simulate", "--design", "two-component", "--sigma2", "2", "--m", "300",
                 "--reps", "2", "--seed", "3"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_json_artifact_is_json_dump(command, input_csv, tmp_path):
    # Re-encoding a parsed artifact with json.dump gives its bytes back:
    # parsing keeps every value (floats round-trip through repr), so the
    # artifact is json.dump's text of the document written.
    argv = COMMANDS[command] + ["--output", str(tmp_path / "out")]
    if command != "simulate":
        argv += ["--input", str(input_csv)]
    assert main(argv) == 0
    artifacts = sorted((tmp_path / "out").glob("*.json"))
    assert artifacts
    for path in artifacts:
        write_json_reference(tmp_path / "ref.json", json.loads(path.read_bytes()))
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes(), path.name


def test_selection_csv_is_csv_writer_over_repr(input_csv, tmp_path):
    # Re-writing the parsed rows with csv.writer, each float cell as the repr
    # of its value, gives the file's bytes back.
    out = tmp_path / "out"
    assert main(COMMANDS["select"] + ["--output", str(out), "--input", str(input_csv)]) == 0
    with open(out / "selection.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["id", "x", "sigma", "clfdr", "s", "group", "selected"]
    assert [row[0] for row in rows[::50]] == ["a,b", 'q"q', 'é,"100"']
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [uid, *(repr(float(v)) for v in floats), int(group), int(selected)]
            for uid, *floats, group, selected in rows
        )
    assert (out / "selection.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_report_tidy_csv_is_dict_writer(tmp_path):
    out = tmp_path / "out"
    assert main(COMMANDS["simulate"] + ["--output", str(out)]) == 0
    family = TwoComponent(sigma2=2.0, m=300)
    design = SimDesign(family=family, mu0=family.DEFAULT_MU0, alpha=0.1, reps=2, master_seed=3)
    report = run_replications(design, k=50)
    rows = [
        {"design": report.design_label, "method": method, "metric": metric,
         "rep": rep_index, "value": value}
        for method, recs in report.per_rep.items()
        for rep_index, rec in enumerate(recs)
        for metric, value in asdict(rec).items()
    ]
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["design", "method", "metric", "rep", "value"])
        writer.writeheader()
        writer.writerows(rows)
    assert (out / "report_tidy.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_only_cli_knows_a_file_format():
    # Every other module returns data; hetsel.cli alone encodes it: no other
    # module imports csv or json, defines a layout method or names a schema.
    for path in sorted((Path(__file__).parents[1] / "src" / "hetsel").glob("*.py")):
        cli = path.name == "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = (path.name, getattr(node, "lineno", None))
            if cli:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            for name in names:
                assert name.split(".")[0] not in ("csv", "json"), (path.name, name)
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("to_json_dict", "tidy_rows"), where
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith("hetsel/"), where
