"""Report emission: the shared CSV table writer, and the report check: the
walk of report.schema.json agrees with jsonschema, and defers to it."""

import copy
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import radoncomp
from radoncomp import cli, reports
from radoncomp.cli import main
from radoncomp.errors import OutOfRange
from radoncomp.reports import report_schema, write_table
from test_cli import CONFIG_DIR, SHIPPED, kind_of


def _per_value_repr(path, header, table):
    """Reference writer: every cell through repr(float), one at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for row in table:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def test_write_table_matches_per_value_repr(tmp_path):
    negative_nan = np.array([0xFFF8000000000000], np.uint64).view(float)[0]
    special = [0.0, -0.0, np.nan, negative_nan, np.inf, -np.inf, 5e-324,
               -5e-324, 1.0 / 3.0, 1e300, 0.1, -2.0]
    rng = np.random.default_rng(7)
    table = rng.choice(special, size=(40, 15))     # mostly repeated values
    table[0, :len(special)] = special
    table[:, -1] = rng.standard_normal(40)         # and some distinct ones
    header = "# a header line\nc0,c1\n"
    write_table(tmp_path / "fast.csv", header, table)
    _per_value_repr(tmp_path / "ref.csv", header, table)
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "ref.csv").read_bytes()
    assert b"-0.0," in fast and b"5e-324" in fast and b"-inf" in fast


# ----------------------------------------------------------------------------
# report.schema.json: the schema walk against jsonschema
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shipped_reports(tmp_path_factory):
    """The report dict each shipped config hands to validate_report, with
    jsonschema.validate made to fail: no valid report may fall back to it."""
    seen = []
    check = reports.validate_report
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "validate_report",
                   lambda report: (seen.append(copy.deepcopy(report)),
                                   check(report))[1])
        mp.setattr(jsonschema, "validate", _no_fallback)
        out = tmp_path_factory.mktemp("shipped")
        for name, expected in sorted(SHIPPED.items()):
            assert main([kind_of(name), "--config", str(CONFIG_DIR / name),
                         "--out", str(out / name)]) == expected
    assert len(seen) == len(SHIPPED)
    return seen


def _no_fallback(*args, **kwargs):
    raise AssertionError("a valid report fell back to jsonschema")


def _paths(value, path=()):
    """Every path into a report: dict keys and list indices."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


# wrong types at a leaf, and the near misses of jsonschema's type rules
BAD = (None, True, False, 0, 1, 1.0, 2.5, math.nan, -math.inf, "x", "",
       [], [True], [None], ["x"], [[1.0]], (1.0, 2.0), {}, {"k": True},
       {"k": None}, {"wall_seconds": "x"})


def _mutants(report):
    for path in _paths(report):
        if not path:
            continue
        *head, last = path
        for bad in ("delete",) + BAD:
            mutant = copy.deepcopy(report)
            parent = mutant
            for key in head:
                parent = parent[key]
            if bad != "delete":
                parent[last] = bad
            elif isinstance(parent, dict):
                del parent[last]
            else:
                continue
            yield path, bad, mutant


def test_schema_is_a_valid_draft_2020_12_schema():
    # jsonschema.validate checked this on every run; the walk does not
    jsonschema.Draft202012Validator.check_schema(report_schema())


def test_shipped_reports_pass_the_walk(shipped_reports):
    schema = report_schema()
    for report in shipped_reports:
        assert reports._conforms(report, schema), report["scenario"]
        reports.validate_report(report)


def test_walk_agrees_with_jsonschema_on_mutants(shipped_reports):
    schema = report_schema()
    judge = jsonschema.Draft202012Validator(schema)
    counts = {True: 0, False: 0}
    for report in shipped_reports:
        for path, bad, mutant in _mutants(report):
            valid = judge.is_valid(mutant)
            assert reports._conforms(mutant, schema) == valid, (path, bad)
            counts[valid] += 1
    assert counts[False] > 1000 and counts[True] > 1000, counts


def test_walk_type_rules_are_jsonschemas():
    checker = jsonschema.Draft202012Validator.TYPE_CHECKER
    values = BAD + (np.float64(1.5), np.int64(3), np.bool_(True), 10 ** 30,
                    1e300, -0.0, b"x", object())
    for kind, rule in reports._TYPES.items():
        for value in values:
            assert rule(value) == checker.is_type(value, kind), (kind, value)


def test_unknown_keyword_defers_to_jsonschema(monkeypatch):
    schema = report_schema()
    schema["properties"]["exit_code"]["minimum"] = 0
    monkeypatch.setattr(reports, "_checked_schema", lambda: schema)
    report = {"scenario": "s", "exit_code": 0, "inputs": {},
              "certificates": [], "norms": {}, "margins": {},
              "residuals": {}, "timing": {"wall_seconds": 0.0}}
    assert not reports._conforms(report, schema)
    reports.validate_report(report)             # jsonschema accepts it
    report["exit_code"] = -1
    with pytest.raises(jsonschema.ValidationError, match="minimum"):
        reports.validate_report(report)


def test_invalid_report_raises_validation_error(tmp_path):
    report = {"scenario": "s", "inputs": {}, "certificates": [],
              "norms": {"lp": True}, "margins": {}, "residuals": {},
              "timing": {"wall_seconds": 0.0}}
    with pytest.raises(jsonschema.ValidationError):
        reports.validate_report(report)
    with pytest.raises(jsonschema.ValidationError):
        reports.emit_report(tmp_path, "s", {}, [{"verdict": "v"}], {}, {},
                            {}, 0.0, 0)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_margin_refused_as_strict_json(tmp_path, bad):
    """A NaN or infinite number is OutOfRange, and neither file is written."""
    with pytest.raises(OutOfRange, match="report.json"):
        reports.emit_report(tmp_path, "s", {}, [], {}, {"domination": bad},
                            {}, 0.0, 0)
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_non_finite_margin_exits_1(tmp_path, monkeypatch, capsys):
    name = "certify-pd.ini"
    monkeypatch.setitem(cli._RUNNERS, kind_of(name), lambda cfg, out, scale: (
        0, [], {}, {"domination": math.nan}, {}, ""))
    assert main([kind_of(name), "--config", str(CONFIG_DIR / name),
                 "--out", str(tmp_path)]) == 1
    assert "NaN or infinite" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_report_schema_returns_a_fresh_dict():
    schema = report_schema()
    schema["required"].append("no-such-key")
    assert "no-such-key" not in report_schema()["required"]


def test_version_is_the_projects():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml",
              "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert radoncomp.__version__ == project["version"]
