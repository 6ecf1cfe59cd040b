"""The checkout step of ``bench/pairs.py`` on a throwaway repository: no
perfbench process."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

from helpers import git, worktree_count

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


@pytest.fixture()
def repo(tmp_path):
    """A repository with two commits of ``f.txt``, ``parent`` then ``change``."""
    root = tmp_path / "repo"
    root.mkdir()
    git(root, "init", "-q")
    for text in ("parent", "change"):
        (root / "f.txt").write_text(text)
        git(root, "add", "f.txt")
        git(root, "commit", "-q", "-m", text)
    (root / "untracked.txt").write_text("left out of every checkout")
    return root


def test_worktrees_check_out_each_revision_alike_and_are_removed(repo):
    with pairs.worktrees(repo, {"parent": "HEAD~1", "change": "HEAD"}) as sides:
        assert sides["parent"].parent == sides["change"].parent
        for side, root in sides.items():
            assert (root / "f.txt").read_text() == side
            assert sorted(p.name for p in root.iterdir()) == [".git", "f.txt"]
        (sides["change"] / ".perfbench").mkdir()  # what a run leaves does not block removal
        assert worktree_count(repo) == 3
    assert not sides["parent"].parent.exists()
    assert worktree_count(repo) == 1


def test_a_bad_revision_removes_the_worktrees_made(repo):
    with pytest.raises(subprocess.CalledProcessError):
        with pairs.worktrees(repo, {"parent": "HEAD", "change": "no-such-revision"}):
            pass
    assert worktree_count(repo) == 1
