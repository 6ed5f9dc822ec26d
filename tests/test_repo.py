import ast
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_ignored_file_is_tracked():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout == ""


def test_public_names_resolve():
    import clustercount

    missing = [name for name in clustercount.__all__
               if not hasattr(clustercount, name)]
    assert missing == []
    namespace = {}
    exec("from clustercount import *", namespace)
    assert set(clustercount.__all__) <= set(namespace)


def test_exported_names_are_used():
    # every public name is used by the package itself or by the benchmark,
    # not only by the tests
    import clustercount

    sources = [p for p in (ROOT / "src" / "clustercount").glob("*.py")
               if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    assert sorted(set(clustercount.__all__) - used) == []


def test_benchmark_hooks_resolve():
    # perfbench/spans.py wraps layers by module and attribute name, so a
    # rename in src/ would drop a layer from the benchmark's trace
    from clustercount import recursion

    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        # the memo-key span is counted where the recursion calls it
        assert hasattr(recursion, "canonical_form")
    finally:
        tracer.uninstall()
