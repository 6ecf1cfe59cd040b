"""The checkout step of ``bench/pairs.py`` on a throwaway repository: no
perfbench process."""

import argparse
import importlib.util
import subprocess
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        check=True, capture_output=True, text=True,
    ).stdout


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


def worktree_count(repo: Path) -> int:
    return git(repo, "worktree", "list", "--porcelain").count("worktree ")


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


def test_checkouts_take_directories_or_revisions(tmp_path):
    dirs = argparse.Namespace(parent=tmp_path, change=tmp_path / "x", parent_rev=None,
                              change_rev=None)
    with pairs.checkouts(dirs) as sides:
        assert sides == {"parent": tmp_path.resolve(), "change": (tmp_path / "x").resolve()}
    for mixed in (dict(parent_rev="HEAD"), dict(change=None, change_rev="HEAD")):
        args = argparse.Namespace(**{**vars(dirs), **mixed})
        with pytest.raises(SystemExit, match="--parent-rev and --change-rev"):
            with pairs.checkouts(args):
                pass
