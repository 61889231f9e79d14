"""The rule corpus: every REP rule fires on its known-bad fixture
and stays silent on the known-clean twin."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DispatchBinding, KeyBinding, LintConfig, \
    RULES, lint_file

FIXTURES = Path(__file__).parent / "fixtures"

#: Scope everything so the fixtures (outside src/) are in range.
WIDE = dict(
    rep001_exclude=(),
    rep003_scope=("",),
    rep004_json_scope=("",),
    rep005_scope=("",),
)

#: The binding universe the REP007 fixtures are written against.
REP007_BINDINGS = tuple(
    (name, (
        KeyBinding("payload",
                   frozenset({"schema", "target", "profile"}),
                   "fixture result"),
        DispatchBinding("MSG_",
                        frozenset({"MSG_PING", "MSG_STOP"}),
                        "fixture protocol"),
    ))
    for name in ("rep007_bad.py", "rep007_clean.py"))

#: rule -> set of 1-based lines where the bad fixture must fire.
EXPECTED_BAD_LINES = {
    "REP001": {9, 10, 11, 12, 13},
    "REP002": {5},
    "REP003": {7, 8},
    "REP004": {8, 9, 10},
    "REP005": {5, 6},
    "REP006": {16},
    "REP007": {1, 8, 13, 14},
}


def lint_fixture(name: str, rule: str):
    config = LintConfig(enabled=(rule,),
                        contract_bindings=REP007_BINDINGS, **WIDE)
    return lint_file(FIXTURES / name, config, relpath=name)


@pytest.mark.parametrize("rule", sorted(EXPECTED_BAD_LINES))
class TestCorpus:
    def test_fires_on_known_bad(self, rule):
        findings = lint_fixture(f"{rule.lower()}_bad.py", rule)
        assert findings, f"{rule} silent on its known-bad fixture"
        assert {f.rule for f in findings} == {rule}
        assert {f.line for f in findings} \
            == EXPECTED_BAD_LINES[rule]

    def test_silent_on_known_clean(self, rule):
        findings = lint_fixture(f"{rule.lower()}_clean.py", rule)
        assert findings == [], \
            f"{rule} false-positives on its clean twin"


def test_every_registered_rule_has_a_fixture_pair():
    for rule in RULES:
        assert (FIXTURES / f"{rule.lower()}_bad.py").exists()
        assert (FIXTURES / f"{rule.lower()}_clean.py").exists()
    assert set(RULES) == set(EXPECTED_BAD_LINES)


def test_rules_carry_one_line_docstrings():
    for rule_id, rule in RULES.items():
        doc = (rule.__doc__ or "").strip()
        assert doc, f"{rule_id} has no docstring for --list-rules"


def test_pragma_suppresses_only_named_rules(tmp_path):
    bad = (FIXTURES / "rep002_bad.py").read_text()
    patched = bad.replace(
        "return hash(name) % 2**32",
        "return hash(name) % 2**32  "
        "# repro: allow[REP002] -- corpus patch")
    target = tmp_path / "patched.py"
    target.write_text(patched)
    config = LintConfig(enabled=("REP002",), **WIDE)
    assert lint_file(target, config, relpath="patched.py") == []


def test_fixtures_parse_as_python():
    import ast
    for fixture in sorted(FIXTURES.glob("*.py")):
        ast.parse(fixture.read_text(), filename=str(fixture))


def test_rep007_reports_a_stale_key_binding():
    """A bound variable that no longer appears in its module (say, it
    was renamed) is one finding at line 1, not silence; the live
    binding next to it stays quiet."""
    keys = frozenset({"schema", "target", "profile"})
    bindings = (("rep007_clean.py", (
        KeyBinding("document", keys, "fixture result"),
        KeyBinding("payload", keys, "fixture result"),
    )),)
    config = LintConfig(enabled=("REP007",), contract_bindings=bindings,
                        **WIDE)
    findings = lint_file(FIXTURES / "rep007_clean.py", config,
                         relpath="rep007_clean.py")
    assert [(f.rule, f.line) for f in findings] == [("REP007", 1)]
    assert "`document`" in findings[0].message
