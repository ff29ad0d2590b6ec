"""REP012 fixtures: __all__ export drift."""

from repro.devtools import check_source


def _rep012(sources):
    return [
        finding
        for path, source in sources.items()
        for finding in check_source(source, path=path)
        if finding.rule == "REP012"
    ]


class TestRep012Positives:
    def test_all_lists_an_undefined_name(self):
        findings = _rep012(
            {"src/repro/mod.py": '__all__ = ["gone"]\n\npresent = 1\n'}
        )
        assert len(findings) == 2  # 'gone' undefined + 'present' unexported
        undefined = [f for f in findings if "gone" in f.message]
        assert len(undefined) == 1
        assert undefined[0].line == 1  # anchored at the __all__ literal

    def test_public_symbol_missing_from_all(self):
        findings = _rep012(
            {
                "src/repro/mod.py": (
                    '__all__ = ["listed"]\n\nlisted = 1\n\n\ndef unlisted():\n    return 2\n'
                )
            }
        )
        assert len(findings) == 1
        assert "unlisted" in findings[0].message
        assert findings[0].line == 6  # anchored at the definition


class TestRep012Negatives:
    def test_exact_all_is_clean(self):
        assert _rep012(
            {
                "src/repro/mod.py": (
                    '__all__ = ["thing", "Widget"]\n\nthing = 1\n\n\nclass Widget:\n    pass\n'
                )
            }
        ) == []

    def test_no_all_declared_is_not_checked(self):
        assert _rep012({"src/repro/mod.py": "anything = 1\n"}) == []

    def test_dynamic_all_is_skipped(self):
        assert _rep012(
            {"src/repro/mod.py": '__all__ = ["a"]\n__all__ += ["b"]\na = 1\n'}
        ) == []

    def test_imported_names_count_as_defined(self):
        assert _rep012(
            {
                "src/repro/mod.py": (
                    'from repro.other import helper\n\n__all__ = ["helper"]\n'
                ),
                "src/repro/other.py": '__all__ = ["helper"]\n\n\ndef helper():\n    return 1\n',
            }
        ) == []

    def test_private_symbols_need_no_export(self):
        assert _rep012(
            {"src/repro/mod.py": '__all__ = ["a"]\na = 1\n_internal = 2\n'}
        ) == []

    def test_tests_are_exempt(self):
        assert _rep012({"tests/test_mod.py": '__all__ = ["gone"]\n'}) == []


class TestRep012ModuleLevelBlocks:
    """Names bound inside top-level compound statements are module-level."""

    def test_type_checking_imports_count_as_defined(self):
        assert _rep012(
            {
                "src/repro/mod.py": (
                    "from typing import TYPE_CHECKING\n\n"
                    "if TYPE_CHECKING:\n    from repro.core.graph import Graph\n\n"
                    '__all__ = ["Graph"]\n'
                )
            }
        ) == []

    def test_try_bound_names_count_as_defined(self):
        assert _rep012(
            {
                "src/repro/mod.py": (
                    "try:\n    import numba\nexcept ImportError:\n    numba = None\n\n"
                    '__all__ = ["numba"]\n'
                )
            }
        ) == []

    def test_public_name_bound_under_try_must_be_exported(self):
        findings = _rep012(
            {
                "src/repro/mod.py": (
                    "try:\n    FAST = True\nexcept ImportError:\n    FAST = False\n\n"
                    "__all__ = []\n"
                )
            }
        )
        assert len(findings) == 1
        assert "FAST" in findings[0].message
        assert findings[0].line == 2  # anchored at the first binding


class TestRep012AllSpellings:
    def test_annotated_all_is_checked(self):
        findings = _rep012(
            {"src/repro/mod.py": '__all__: list = ["a"]\na = 1\nb = 2\n'}
        )
        assert len(findings) == 1
        assert "'b'" in findings[0].message
        assert findings[0].line == 3

    def test_dynamic_all_skips_even_an_undefined_literal_name(self):
        assert _rep012(
            {"src/repro/mod.py": '__all__ = ["gone"]\n__all__ += extra.__all__\n'}
        ) == []

    def test_augmented_all_alone_is_not_checked(self):
        assert _rep012(
            {"src/repro/mod.py": "__all__ += []\npublic = 1\n"}
        ) == []


class TestRep012TopLevelScan:
    """Only statements the module runs at import time bind its names."""

    def test_function_scope_imports_do_not_define_an_export(self):
        findings = _rep012(
            {
                "src/repro/mod.py": (
                    '__all__ = ["run", "json"]\n\n\n'
                    "def run():\n    import json\n    return json\n"
                )
            }
        )
        assert len(findings) == 1
        assert "'json'" in findings[0].message and findings[0].line == 1

    def test_relative_imports_bind_their_alias(self):
        assert _rep012(
            {
                "src/repro/pkg/mod.py": (
                    "from . import sibling\nfrom ..core import graph as g\n\n"
                    '__all__ = ["sibling", "g"]\n'
                )
            }
        ) == []

    def test_tuple_assignment_binds_every_name(self):
        findings = _rep012(
            {"src/repro/mod.py": '__all__ = ["a"]\na, (b, _c) = 1, (2, 3)\n'}
        )
        assert ["'b'" in f.message for f in findings] == [True]
