"""Symbol table: module naming, imports, classes, guarded_by, protocols."""

import ast

from repro.lint.symbols import SymbolTable

from .conftest import REPO_ROOT

FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"


def build_fixture_table() -> SymbolTable:
    return SymbolTable.build(FIXTURES, ("deeppkg",))


class TestBuild:
    def test_modules_named_relative_to_package_parent(self):
        table = build_fixture_table()
        assert "deeppkg.cache" in table.modules
        assert "deeppkg.llm.sim" in table.modules
        assert table.packages == {"deeppkg"}

    def test_real_tree_indexes(self):
        table = SymbolTable.build(REPO_ROOT, ("src/repro",))
        assert "repro.engine.cache" in table.modules
        assert "repro.engine.cache.ResultCache" in table.classes
        assert "repro.engine.cache.ResultCache.put" in table.functions

    def test_functions_and_methods_indexed(self):
        table = build_fixture_table()
        fn = table.functions["deeppkg.util.stamp"]
        assert fn.cls is None and fn.params == ["value"]
        method = table.functions["deeppkg.cache.ResultCache.put"]
        assert method.is_method and method.params == ["self", "key", "value"]


class TestImports:
    def test_plain_and_aliased_imports(self):
        table = SymbolTable.from_sources(
            {
                "pkg.mod": (
                    "import numpy as np\n"
                    "import time\n"
                    "from pkg.other import helper as h\n"
                )
            }
        )
        imports = table.modules["pkg.mod"].imports
        assert imports["np"] == "numpy"
        assert imports["time"] == "time"
        assert imports["h"] == "pkg.other.helper"

    def test_relative_import_resolution(self):
        table = SymbolTable.from_sources(
            {
                "pkg.sub.mod": "from ..other import thing\n",
                "pkg.other": "def thing():\n    return 1\n",
            }
        )
        assert table.modules["pkg.sub.mod"].imports["thing"] == "pkg.other.thing"

    def test_function_local_imports_are_indexed(self):
        table = SymbolTable.from_sources(
            {
                "pkg.mod": (
                    "def late():\n"
                    "    from pkg.other import helper\n"
                    "    return helper()\n"
                ),
                "pkg.other": "def helper():\n    return 1\n",
            }
        )
        assert table.modules["pkg.mod"].imports["helper"] == "pkg.other.helper"

    def test_reexport_chasing(self):
        table = SymbolTable.from_sources(
            {
                "pkg": "from pkg.impl import api\n",
                "pkg.impl": "def api():\n    return 1\n",
                "pkg.user": "from pkg import api\n",
            }
        )
        mod = table.modules["pkg.user"]
        assert table.resolve_dotted(mod, "api") == "pkg.impl.api"


class TestGuardedBy:
    def test_guarded_fields_extracted(self):
        table = build_fixture_table()
        cache = table.classes["deeppkg.cache.ResultCache"]
        assert cache.guarded_fields == {"_entries": "_lock"}
        assert "_lock" in cache.lock_attrs

    def test_lock_attr_found_from_init_assignment(self):
        table = build_fixture_table()
        left = table.classes["deeppkg.bad_locks.Left"]
        assert "_lock" in left.lock_attrs

    def test_real_engine_declarations(self):
        table = SymbolTable.build(REPO_ROOT, ("src/repro",))
        counters = table.classes["repro.obs.Counters"]
        assert counters.guarded_fields["_counts"] == "_lock"
        assert counters.guarded_fields["_samples"] == "_lock"
        # The engine takes one caller and declares no guarded field; the
        # gateway's queue state is shared with its dispatch thread.
        engine = table.classes["repro.engine.engine.MatchingEngine"]
        assert engine.guarded_fields == {}
        gateway = table.classes["repro.serve.gateway.Gateway"]
        assert gateway.guarded_fields == {
            "_queue": "_cv",
            "_closed": "_cv",
            "_error": "_cv",
        }


class TestInstanceAttrs:
    def test_annotated_self_assignment_wins(self):
        table = build_fixture_table()
        left = table.classes["deeppkg.bad_locks.Left"]
        ann = left.attr_types["peer"]
        assert isinstance(ann, ast.Constant) and ann.value == "Right"


class TestProtocols:
    def test_protocol_detection_and_structural_impls(self):
        table = build_fixture_table()
        protocol = table.classes["deeppkg.boundary.Backend"]
        assert protocol.is_protocol
        impls = {c.name for c in table.protocol_implementations(protocol)}
        assert impls == {"ReorderingBackend", "CheckedBackend"}

    def test_attr_requirement_excludes_partial_matches(self):
        table = SymbolTable.from_sources(
            {
                "pkg.mod": (
                    "from typing import Protocol\n"
                    "class Backend(Protocol):\n"
                    "    name: str\n"
                    "    def generate(self, prompts: list) -> list: ...\n"
                    "class NoName:\n"
                    "    def generate(self, prompts: list) -> list:\n"
                    "        return prompts\n"
                )
            }
        )
        protocol = table.classes["pkg.mod.Backend"]
        assert table.protocol_implementations(protocol) == []

    def test_real_backend_impls(self):
        table = SymbolTable.build(REPO_ROOT, ("src/repro",))
        protocol = table.classes["repro.engine.backends.Backend"]
        impls = {c.name for c in table.protocol_implementations(protocol)}
        assert impls == {
            "LocalBackend",
            "BatchAPIBackend",
            "FaultyBackend",
            "CrashingBackend",
        }


class TestMethodLookup:
    def test_inherited_method_found_through_project_base(self):
        table = SymbolTable.from_sources(
            {
                "pkg.mod": (
                    "class Base:\n"
                    "    def ping(self):\n"
                    "        return 1\n"
                    "class Child(Base):\n"
                    "    pass\n"
                )
            }
        )
        found = table.lookup_method("pkg.mod.Child", "ping")
        assert found is not None and found.qualname == "pkg.mod.Base.ping"
