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
