"""How the lint names modules and the callables a module calls.

Pins the two resolution steps every rule matches on: the dotted module
name of a file (from the on-disk package structure, or the path for an
in-memory source), and a call target rewritten through the module's
import aliases (:meth:`repro.lint.context.ModuleContext.resolve`).
"""

import ast

from repro.lint.context import ModuleContext, module_name_for


class TestModuleNaming:
    def test_package_climbing_names_fixture_modules(self, fixture_files):
        names = {module_name_for(path) for path, _ in fixture_files}
        assert "proj.core" in names
        assert "proj.parallel.bad_runner" in names
        assert "proj" in names  # __init__.py maps to the package itself

    def test_src_fallback_for_in_memory_paths(self):
        assert module_name_for("src/repro/core/rng.py") == "repro.core.rng"
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"


class TestResolution:
    def test_aliased_module_import_resolves(self, fixture_files):
        # helpers.py does ``from proj import core as c`` then
        # ``c.make_generator(seed)``.
        ((path, source),) = [
            (path, source)
            for path, source in fixture_files
            if path.endswith("helpers.py")
        ]
        tree = ast.parse(source)
        ctx = ModuleContext(path, source, tree)
        callees = {
            ctx.resolve(node.func)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "proj.core.make_generator" in callees

    def test_relative_import_resolves_against_the_package(self):
        source = "from .sharding import interval_generator as ig\nig(1, 2)\n"
        tree = ast.parse(source)
        ctx = ModuleContext("src/repro/parallel/runner.py", source, tree)
        (call,) = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        assert ctx.resolve(call.func) == (
            "repro.parallel.sharding.interval_generator"
        )
